#include "obs/shard.h"

#include "obs/pq.h"
#include "obs/prof.h"

namespace tx::obs {

namespace {

// An explicit table rather than registration from static initializers:
// initialization order across the translation units of a static library is
// unspecified, and the snapshot's section order must not depend on it.
constexpr ShardedStream kStreams[] = {
    {"prof", prof::section_json, prof::publish, prof::flush_thread_cache},
    {"pq", pq::section_json, pq::publish, pq::flush_thread_cache},
};

}  // namespace

std::span<const ShardedStream> sharded_streams() { return kStreams; }

void flush_thread_shards() {
  for (const ShardedStream& s : kStreams) s.flush_thread_cache();
}

}  // namespace tx::obs
