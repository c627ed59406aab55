// Crash-safe file primitives shared by infer::SVI, infer::MCMC and the nn
// checkpoint writers: atomic replace (temp file + fsync + rename + directory
// fsync), the FNV-1a checksum, and the tx.ckpt.v1 bundle container. Lives in
// tx_fault so the low-level layers (tensor, nn, infer) can all use it.
//
// tx.ckpt.v1 bundles are versioned, checksummed containers of named byte
// sections, written crash-safely (atomic_write_file) and parsed fully before
// anything is applied. Every section is stable text (hexfloats), so a bundle
// round-trips training state bitwise. Wire format:
//   tx.ckpt.v1 <nsections>\n
//   @ <name> <nbytes>\n<bytes>\n          (x nsections, sorted by name)
//   @checksum <16 hex digits>\n           (FNV-1a 64 of everything above)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/random.h"

namespace tx::resil {

/// FNV-1a 64-bit over `data`. Stable across platforms; used as the
/// tx.ckpt.v1 footer checksum.
std::uint64_t fnv1a64(const std::string& data);

/// Write `content` to `path` atomically: write to `path + ".tmp"`, fflush +
/// fsync, close, rename over `path`, then best-effort fsync of the parent
/// directory. After a crash at ANY point the destination holds either the
/// complete old content or the complete new content, never a mix (the only
/// debris possible is a stale .tmp file, which writers overwrite).
///
/// Returns false (without throwing) when the write could not be completed —
/// real I/O errors and injected tx::fault write failures look identical to
/// the caller, which must keep its in-memory copy authoritative.
bool atomic_write_file(const std::string& path, const std::string& content);

/// Read a whole file. Returns false if it cannot be opened/read.
bool read_file(const std::string& path, std::string* out);

/// True if `path` exists (regular stat, no throw).
bool file_exists(const std::string& path);

class Bundle {
 public:
  void set(const std::string& name, std::string bytes);
  bool has(const std::string& name) const;
  /// Throws tx::Error if the section is missing.
  const std::string& get(const std::string& name) const;
  std::size_t size() const { return sections_.size(); }
  std::vector<std::string> names() const;

  std::string serialize() const;
  /// Throws tx::Error on a bad header, truncated section, or checksum
  /// mismatch — a corrupt file can never yield a partially-filled Bundle.
  static Bundle deserialize(const std::string& data);

  /// Atomic write via tx::resil::atomic_write_file; false when the write (or
  /// an injected fault) failed, in which case the destination still holds
  /// its previous complete content.
  bool write_file(const std::string& path) const;
  /// Throws tx::Error when the file is missing, truncated, or corrupt.
  static Bundle read_file(const std::string& path);

 private:
  std::map<std::string, std::string> sections_;
};

/// Generator state as a bundle section (stable text, round-trips bitwise).
std::string generator_bytes(const Generator& gen);
/// Stages the parsed state before touching `gen`; throws on corruption.
void apply_generator_bytes(const std::string& bytes, Generator& gen);

}  // namespace tx::resil
