// Per-thread shards for the sharded obs streams, and the one list of them.
//
// A sharded stream (prof churn, pq) aggregates into a table keyed by
// string (span path, stream label). Its hooks run on hot paths and on
// tx::par workers, so each thread accumulates into an uncontended shard of
// the same cells and merges it into the global table under one mutex:
//
//  * tx::par calls flush_thread_shards() from every chunk before completion
//    is counted, so the aggregates are complete once a parallel region
//    returns;
//  * readers flush the calling thread's shard (ShardedTable::snapshot);
//  * a shard merges itself when its thread exits.
//
// The global table is a leaked singleton, so shard destructors running at
// any point of process teardown can still merge safely. Integer fields
// merge by addition, so they are bitwise-identical at every
// TYXE_NUM_THREADS.
#pragma once

#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

namespace tx::obs {

class MetricsRegistry;

/// The global table of one sharded stream plus the calling thread's shard.
/// `Merge(dst, src)` folds a shard cell into a (possibly fresh) table cell.
template <typename Stats, void (*Merge)(Stats&, const Stats&)>
class ShardedTable {
 public:
  using Table = std::map<std::string, Stats>;

  /// The calling thread's cell for `key`, default-constructed on first use.
  static Stats& local(const std::string& key) { return shard().cells[key]; }

  /// Merge the calling thread's shard into the table. Cheap when empty.
  static void flush() { merge(shard().cells); }

  /// The whole table, after flushing the calling thread's shard.
  static Table snapshot() {
    flush();
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    return g.table;
  }

  /// One cell (Stats{} when absent), after flushing the calling thread.
  static Stats at(const std::string& key) {
    flush();
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    const auto it = g.table.find(key);
    return it != g.table.end() ? it->second : Stats{};
  }

  /// Drop the calling thread's shard and the table. Do not call while a
  /// parallel region is live: other threads' shards are not touched.
  static void clear() {
    shard().cells.clear();
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    g.table.clear();
  }

 private:
  using Cells = std::unordered_map<std::string, Stats>;

  struct Global {
    std::mutex mu;
    Table table;
  };

  struct Shard {
    Cells cells;
    ~Shard() { merge(cells); }
  };

  static Global& global() {
    static Global* g = new Global;  // leaked: see the file comment
    return *g;
  }

  static Shard& shard() {
    thread_local Shard s;
    return s;
  }

  static void merge(Cells& cells) {
    if (cells.empty()) return;
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    for (const auto& [key, stats] : cells) Merge(g.table[key], stats);
    cells.clear();
  }
};

/// One sharded stream as the snapshot writer and tx::par see it.
struct ShardedStream {
  const char* key;  ///< snapshot section key
  /// The pre-rendered section, or "" when the stream has no data.
  std::string (*section_json)(const std::string& indent);
  /// Mirror headline aggregates as registry gauges (only called when the
  /// section is non-empty).
  void (*publish)(MetricsRegistry& reg);
  void (*flush_thread_cache)();
};

/// Every sharded stream, in snapshot section order (prof, then pq).
std::span<const ShardedStream> sharded_streams();

/// Merge the calling thread's shard of every sharded stream. tx::par calls
/// this from every chunk before completion is counted.
void flush_thread_shards();

}  // namespace tx::obs
