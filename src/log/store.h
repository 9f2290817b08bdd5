#pragma once

// LogStore: a minimal durable, append-only store for workflow logs — the
// persistent "workflow log" box of the paper's Figure 2, sitting between
// the execution engine (writer) and the query engine (reader).
//
// Layout: a directory containing
//   MANIFEST            first line "wflog-store v1", then
//                       records_per_segment=N, then one segment file name
//                       per line, in order
//   seg-000001.jsonl    v1 segment: checksummed JSONL records
//                       ("crc32hex json\n", log/io_jsonl.h store framing)
//   seg-000002.wfseg    v2 segment: compressed, zone-mapped blocks
//                       (log/segfmt.h); sealed segments carry a footer
//   QUARANTINE-000001   corrupt bytes set aside by a recovering open
//
// Segments are bounded by Options::records_per_segment each; formats mix
// freely within one store (v1 history stays readable forever, new
// segments use Options::segment_format — v2 by default).
//
// Durability contract (see README "Durability contract" for the prose
// version). All writes flow through the injectable FileIo seam
// (log/fileio.h); transient IO errors are retried with bounded backoff
// before an IoError surfaces. What survives a crash depends on
// Options::fsync_policy:
//
//   kPerAppend  every append is fsynced before it returns: an
//               acknowledged record is never lost, even across power
//               failure (the default).
//   kInterval   fsync every fsync_interval_records appends and at every
//               segment roll: power loss can drop up to the unsynced
//               suffix of the final segment — always a clean log prefix.
//   kOff        no fsync (OS page cache only): records survive process
//               exit, power loss may drop any suffix of the final
//               segment.
//
// v2 addendum. A v2 tail buffers acknowledged records in memory until a
// block is flushed — which happens at every fsync boundary, so under
// kPerAppend nothing is ever buffered past an acknowledged append and the
// zero-acked-loss guarantee is unchanged. Under kInterval/kOff the
// in-memory pending block narrows what survives an abrupt PROCESS death
// (v1 wrote every line into OS cache immediately; v2 holds up to
// block_target_bytes in user space) — the crash-recovery contract, which
// only ever promised a clean prefix under those policies, is unchanged,
// and a clean shutdown flushes the buffer. Sealing (footer write) happens
// at roll time after every block is durable; a torn footer is recovered
// block-by-block from the per-block CRCs.
//
// Under every policy a finished segment is fsynced before the manifest
// names its successor, so loss is confined to the tail segment. Reopening
// recovers the per-instance state (next is-lsn, completed set) by
// streaming the segments; a torn final line left by a crash is detected
// (CRC + framing) and physically truncated so writing resumes exactly
// where the durable prefix stopped. Corrupt bytes mid-store fail the open
// with a structured IoError by default; with Options::quarantine_corruption
// the readable prefix is recovered instead, the corrupt suffix is moved to
// a QUARANTINE file, and the RecoveryReport says exactly what was dropped.
//
// The reader side materializes the whole validated Log — the store bounds
// file sizes and gives durability, not out-of-core querying.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "log/builder.h"
#include "log/fileio.h"
#include "log/log.h"
#include "log/segfmt.h"
#include "log/zonemap.h"

namespace wflog {

/// When appended records reach stable storage. See the durability
/// contract above.
enum class FsyncPolicy { kPerAppend, kInterval, kOff };

/// On-disk segment format for NEWLY created segments. Both formats are
/// readable forever; a mixed store (v1 history, v2 tail) is normal after
/// upgrading. See log/segfmt.h for the v2 layout.
enum class SegmentFormat {
  kV1Jsonl,   ///< one checksummed JSONL line per record ("seg-*.jsonl")
  kV2Blocks,  ///< compressed, zone-mapped blocks ("seg-*.wfseg")
};

/// What a recovering open() found and did. All-zero (clean()) for a store
/// that was shut down properly.
struct RecoveryReport {
  std::size_t records_recovered = 0;
  /// Corrupt (unparseable / checksum-mismatched) record lines dropped by
  /// quarantine. Does not include the torn tail line, reported separately.
  std::size_t records_dropped = 0;
  /// Segments truncated or removed entirely by quarantine.
  std::size_t segments_quarantined = 0;
  std::uintmax_t bytes_quarantined = 0;
  /// A partial final line (crash mid-append) was physically truncated.
  bool torn_tail_truncated = false;
  /// Human-readable one-liners for each recovery action taken.
  std::vector<std::string> notes;

  bool clean() const noexcept {
    return records_dropped == 0 && segments_quarantined == 0 &&
           !torn_tail_truncated;
  }
};

class LogStore {
 public:
  struct Options {
    std::size_t records_per_segment = 10'000;
    FsyncPolicy fsync_policy = FsyncPolicy::kPerAppend;
    /// kInterval: fsync after this many appends (and at segment rolls).
    std::size_t fsync_interval_records = 256;
    /// Transient IO failures (append/flush/fsync/manifest) are retried
    /// this many times, sleeping retry_backoff, doubling per attempt,
    /// before the structured IoError surfaces.
    std::size_t max_io_retries = 3;
    std::chrono::milliseconds retry_backoff{1};
    /// open(): recover the readable prefix past mid-store corruption,
    /// quarantining the corrupt suffix, instead of throwing IoError.
    bool quarantine_corruption = false;
    /// Write-path IO seam; nullptr = the real filesystem. Tests inject a
    /// FaultIo here.
    std::shared_ptr<FileIo> io;
    /// Format for segments this store CREATES. Existing segments keep
    /// whatever format they were written in.
    SegmentFormat segment_format = SegmentFormat::kV2Blocks;
    /// v2: a block is flushed once its uncompressed payload reaches this
    /// many bytes (and always at fsync boundaries, sync(), and rolls).
    std::size_t block_target_bytes = 64 * 1024;
  };

  /// Creates a new store in `dir` (created if missing; must not already
  /// contain a store). Throws IoError on filesystem failures.
  static LogStore create(const std::filesystem::path& dir);
  static LogStore create(const std::filesystem::path& dir, Options options);

  /// Opens an existing store, recovering writer state from the segments.
  /// records_per_segment comes from the MANIFEST; the other options apply
  /// as given. Missing/empty/truncated manifests and listed-but-absent
  /// segments raise IoError naming the offending path. `report`, when
  /// non-null, receives what recovery found (also kept internally, see
  /// recovery_report()).
  static LogStore open(const std::filesystem::path& dir);
  static LogStore open(const std::filesystem::path& dir, Options options,
                       RecoveryReport* report = nullptr);

  LogStore(LogStore&&) = default;
  LogStore& operator=(LogStore&&) = default;
  ~LogStore();

  // ----- writing ---------------------------------------------------------
  Wid begin_instance();
  void record(Wid wid, std::string_view activity, const NamedAttrs& in = {},
              const NamedAttrs& out = {});
  void end_instance(Wid wid);

  /// Forces everything appended so far to stable storage regardless of
  /// the fsync policy. Throws IoError after exhausted retries.
  void sync();

  // ----- reading ---------------------------------------------------------
  /// Materializes everything appended so far as a validated Log: the
  /// unpruned case of load_pruned (records keep their stored lsns). Throws
  /// IoError on any corrupt segment, block or record line, naming the
  /// earliest in file order.
  Log load() const;

  /// A zone-map-pruned load: the log restricted to the workflow instances
  /// that could possibly contain every activity in `required` (see
  /// required_activities in core/pattern.h). Lsns are renumbered to keep
  /// the result a valid Log; instance ids and is-lsns — the coordinates
  /// incidents are made of — are untouched, so evaluating a pattern whose
  /// required set is `required` over `log` yields incident sets
  /// bit-identical to evaluation over load(). Blocks of sealed v2
  /// segments whose zone maps rule out every candidate instance are
  /// skipped without being read; v1 segments, the unsealed tail, and the
  /// in-memory pending buffer have no zone maps and are always read.
  ///
  /// Both loads decode the sealed blocks they read in parallel on a
  /// transient ShardPool (common/shard_pool.h) when there are at least two
  /// per core, each straight into its slots of one pre-sized record
  /// vector, and give exactly the records, lsns and symbol ids of a serial
  /// decode in file order. Every block's header is checked against its
  /// zone, its payload CRC and inflate are strict, every record line's CRC
  /// is checked, and a block holding any other number of records than its
  /// zone declares is corrupt. Transient memory beyond the result: the
  /// compressed bytes of the segments read, one inflated payload per
  /// worker, and the slots of records a pruned load drops.
  struct PrunedLoad {
    Log log = Log::from_records_unchecked({}, {});
    std::size_t blocks_total = 0;    ///< sealed v2 blocks considered
    std::size_t blocks_read = 0;
    std::size_t blocks_skipped = 0;
    std::size_t records_kept = 0;
    /// False when `required` was empty — zone maps cannot prune and the
    /// result is simply load().
    bool pruned = false;
  };
  PrunedLoad load_pruned(const std::vector<std::string>& required) const;

  /// Storage-level shape of the store, cheap to compute (zone maps are
  /// cached in memory; no segment file is read).
  struct StorageStats {
    std::size_t segments_v1 = 0;
    std::size_t segments_v2 = 0;
    std::size_t sealed_blocks = 0;  ///< blocks covered by cached zone maps
    std::uint64_t compressed_payload_bytes = 0;    ///< of sealed blocks
    std::uint64_t uncompressed_payload_bytes = 0;  ///< of sealed blocks
    std::uint64_t blocks_read = 0;     ///< lifetime of this store handle
    std::uint64_t blocks_skipped = 0;  ///< lifetime of this store handle
  };
  StorageStats storage_stats() const;

  /// Offline compaction: rewrites every segment of the store in `dir`
  /// into sealed v2 segments with full-size compressed blocks, under
  /// fresh segment ids, then atomically swaps the manifest and deletes
  /// the old files. Crash-safe at every step (new data is fully fsynced
  /// before the manifest points at it; a crash leaves either the old or
  /// the new store, never a mix) and idempotent. Orphan segment files
  /// from earlier interrupted compactions are vacuumed. The store must
  /// not be open elsewhere.
  struct CompactionReport {
    std::size_t records = 0;
    std::size_t segments_before = 0;
    std::size_t segments_after = 0;
    std::uintmax_t bytes_before = 0;
    std::uintmax_t bytes_after = 0;
    std::size_t blocks_written = 0;
  };
  static CompactionReport compact(const std::filesystem::path& dir);
  static CompactionReport compact(const std::filesystem::path& dir,
                                  Options options);

  std::size_t num_records() const noexcept { return num_records_; }
  std::size_t num_segments() const noexcept { return segments_.size(); }
  const std::filesystem::path& directory() const noexcept { return dir_; }
  /// What the open() that produced this store had to recover.
  const RecoveryReport& recovery_report() const noexcept { return recovery_; }
  /// True after a structural write failure (failed roll or unrecoverable
  /// tail): every further append throws; reopen the directory to recover.
  bool failed() const noexcept { return poisoned_; }

  /// Recovers a poisoned (or healthy) store by re-running open() on its
  /// own directory — same options and IO seam, but with quarantine
  /// recovery forced on so a corrupt suffix is set aside instead of
  /// re-poisoning — and replacing *this with the result. On success the
  /// store is un-poisoned, writer state is rebuilt from what is durably
  /// on disk, and the returned report says what recovery found. Throws
  /// IoError (leaving *this untouched) when the directory is still
  /// unreadable — the caller retries later. This is wfqd's degraded-mode
  /// healing path: acked records are durable before they are acked, so
  /// reopening loses nothing a client was told was applied.
  RecoveryReport reopen_in_place();

 private:
  LogStore() = default;

  void append_record(Wid wid, std::string_view activity, const AttrMap& in,
                     const AttrMap& out, Interner& interner);
  void roll_segment();
  void write_manifest();
  void write_all(std::string_view data, std::size_t& off);
  void recover_tail_to(std::uintmax_t good_bytes) noexcept;
  /// v2: compresses the pending buffer into one block and appends it.
  /// On failure the pending records stay buffered (minus nothing) and the
  /// tail is truncated back to the last durable block boundary.
  // Encodes pending_ as one block at the tail and writes it out; with
  // sync_after, the fsync happens inside the same guarded scope, so on
  // ANY failure the block is truncated away and every buffered record —
  // acknowledged or mid-append — remains in pending_.
  void flush_pending_block(bool sync_after = false);
  /// v2: writes the footer sealing the current tail segment.
  void seal_tail();
  /// Runs `fn`, retrying IoError up to max_io_retries times with
  /// exponential backoff; rethrows a structured IoError on exhaustion.
  template <typename Fn>
  void with_retries(const char* what, Fn&& fn);
  std::filesystem::path segment_path(std::size_t index) const;
  /// 1 + the largest numeric id among current segment file names — ids
  /// are never reused, so compaction (which shrinks the list) cannot
  /// collide with later rolls.
  std::size_t next_segment_id() const;

  std::filesystem::path dir_;
  Options options_;
  std::shared_ptr<FileIo> io_;
  std::vector<std::string> segments_;  // file names, in MANIFEST order
  WriteFilePtr tail_;
  std::uintmax_t tail_bytes_ = 0;  // bytes accepted into the tail segment
  std::size_t tail_records_ = 0;   // records in the open tail segment
  std::size_t records_since_sync_ = 0;
  std::size_t num_records_ = 0;
  bool poisoned_ = false;
  RecoveryReport recovery_;
  std::unordered_map<Wid, IsLsn> next_is_lsn_;  // 0 = completed
  Wid next_wid_ = 1;

  // ----- v2 segment state -------------------------------------------------
  SegmentFormat tail_format_ = SegmentFormat::kV1Jsonl;
  /// The tail carries a valid footer (crash between seal and successor
  /// creation): the next append must roll instead of appending.
  bool tail_sealed_ = false;
  /// Records acknowledged but not yet framed into a block (v2 only; empty
  /// whenever the fsync policy is kPerAppend).
  BlockBuilder pending_;
  /// Zones of the blocks already in the (unsealed v2) tail, for sealing.
  std::vector<BlockZone> tail_zones_;
  /// Wids touched in the tail segment -> next is-lsn (0 = completed); the
  /// footer's watermark delta.
  std::map<Wid, IsLsn> tail_watermark_;
  /// Parsed footers of sealed v2 segments, by segment index. In-memory
  /// zone-map cache: load_pruned and storage_stats never re-read them.
  std::map<std::size_t, SegmentFooter> footers_;
  mutable std::uint64_t blocks_read_ = 0;
  mutable std::uint64_t blocks_skipped_ = 0;
};

}  // namespace wflog
