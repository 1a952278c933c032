// Append-only spill log for evicted lazy-projection neighborhoods — the
// disk half of the two-tier memo (RAM residency + spill log; see
// docs/STORAGE.md). When the byte budget forces a neighborhood out of
// (or never into) the RAM memo, its exact bytes are appended here so the
// next touch re-admits from disk instead of recomputing the incidence
// sweep.
//
// Record layout mirrors the streaming WAL (length-prefixed, checksummed,
// little-endian):
//
//   [u32 payload_len][u32 checksum32(payload)][payload]
//   payload = "spill##<edge_id>##<count>\n" + count × {u32 edge, u32 weight}
//
// The textual delimited key makes records self-describing and greppable;
// the checksum covers the whole payload. The log is strictly
// per-engine-lifetime scratch: created truncated, unlinked on
// destruction, keyed by edge id with latest-record-wins semantics (an
// in-memory index maps edge id → file extent; superseded records are
// dead bytes, compaction is deferred à la append-friendly LSM layouts).
//
// Failure contract: a failed or torn append (fault point "spill.append")
// just loses that record; a failed or corrupt read (fault point
// "spill.read", bit rot, torn writes) returns false and the caller
// recomputes. The log can therefore never make counts wrong — only
// slower.
#ifndef MOCHY_HYPERGRAPH_SPILL_LOG_H_
#define MOCHY_HYPERGRAPH_SPILL_LOG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "hypergraph/projection.h"
#include "hypergraph/types.h"

namespace mochy {

/// One shard's spill log. Append/Lookup/Invalidate mutate the in-memory
/// index and must be externally synchronized (the owning shard's mutex);
/// ReadRecord only pread()s an immutable, already-written extent and is
/// safe without the lock.
class SpillLog {
 public:
  /// Location of one record in the file.
  struct RecordRef {
    uint64_t offset = 0;
    uint32_t length = 0;  ///< full record bytes (header + payload)
  };

  /// Creates (truncating) the log file at `path`. The file is scratch:
  /// it is unlinked when the SpillLog is destroyed.
  static Result<std::unique_ptr<SpillLog>> Create(const std::string& path);

  SpillLog(const SpillLog&) = delete;
  SpillLog& operator=(const SpillLog&) = delete;
  ~SpillLog();

  /// Appends the neighborhood of `e` and indexes it (latest wins).
  /// Returns true when a new record was durably appended; false when `e`
  /// already has a live record (no duplicate work) or the write failed /
  /// was faulted (the spill is simply dropped). Fault point:
  /// "spill.append".
  bool Append(EdgeId e, std::span<const Neighbor> neighbors);

  /// Looks up the live record of `e`; fills `*ref` and returns true when
  /// one exists.
  bool Lookup(EdgeId e, RecordRef* ref) const;

  /// Drops the index entry of `e` (e.g. after a corrupt read) so a fresh
  /// record can be appended later. The dead bytes stay in the file.
  void Invalidate(EdgeId e);

  /// Reads and verifies the record at `ref`, expecting it to carry edge
  /// `expect`. On success fills `*out` with the neighborhood and returns
  /// true; any short read, checksum mismatch, or key disagreement
  /// returns false and leaves `*out` with unspecified contents (it is
  /// the read buffer). Fault point: "spill.read".
  bool ReadRecord(const RecordRef& ref, EdgeId expect,
                  std::vector<Neighbor>* out) const;

  /// Number of live (indexed) records.
  size_t indexed_records() const { return index_.size(); }

  /// Bytes appended so far, including superseded records.
  uint64_t bytes_appended() const { return end_offset_; }

  const std::string& path() const { return path_; }

 private:
  SpillLog(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  uint64_t end_offset_ = 0;
  std::unordered_map<EdgeId, RecordRef> index_;
  std::vector<unsigned char> record_;  // Append's reused record buffer
};

}  // namespace mochy

#endif  // MOCHY_HYPERGRAPH_SPILL_LOG_H_
