#include "log/store.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "common/shard_pool.h"
#include "common/text.h"
#include "log/compress.h"
#include "log/io_jsonl.h"
#include "obs/telemetry.h"

namespace wflog {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kManifestName = "MANIFEST";
constexpr std::string_view kMagic = "wflog-store v1";

std::string segment_name(std::size_t id, SegmentFormat format) {
  char buf[32];
  std::snprintf(buf, sizeof buf,
                format == SegmentFormat::kV2Blocks ? "seg-%06zu.wfseg"
                                                   : "seg-%06zu.jsonl",
                id);
  return buf;
}

SegmentFormat format_of(std::string_view name) {
  return name.ends_with(".wfseg") ? SegmentFormat::kV2Blocks
                                  : SegmentFormat::kV1Jsonl;
}

/// Numeric id embedded in a segment file name ("seg-000042.wfseg" -> 42);
/// 0 when the name does not follow the scheme.
std::size_t parse_segment_id(std::string_view name) {
  if (!name.starts_with("seg-")) return 0;
  const std::string_view digits = name.substr(4);
  std::size_t id = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), id);
  return ec == std::errc{} ? id : 0;
}

std::string read_whole_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("LogStore: cannot read '" + path.string() + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Non-empty lines in a byte range — the best available estimate of how
/// many records a quarantined v1 region held (its bytes are, by
/// definition, not reliably parseable).
std::size_t count_record_lines(std::string_view data) {
  std::size_t n = 0;
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t nl = data.find('\n', pos);
    if (nl == std::string_view::npos) nl = data.size();
    if (!trim(data.substr(pos, nl - pos)).empty()) ++n;
    pos = nl + 1;
  }
  return n;
}

/// Records a quarantined v2 byte range held, as far as its structure
/// still tells: a valid footer is exact, otherwise a block scan counts
/// the decodable prefix, otherwise zero.
std::size_t count_v2_records(std::string_view data) {
  if (const auto footer = try_read_v2_footer(data)) {
    return footer->footer.record_count;
  }
  std::size_t n = 0;
  for (const BlockZone& z : scan_v2_blocks(data).zones) n += z.record_count;
  return n;
}

/// Invokes `fn(record)` with every record of an uncompressed block
/// payload, in order, by rvalue. Throws IoError on an unparseable line.
template <typename Fn>
void for_each_payload_record(std::string_view payload, Interner& interner,
                             Fn&& fn) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t nl = payload.find('\n', pos);
    if (nl == std::string_view::npos) nl = payload.size();
    const std::string_view line = trim(payload.substr(pos, nl - pos));
    pos = nl + 1;
    if (line.empty()) continue;
    fn(parse_store_line(line, interner));
  }
}

/// One unit of a load, in file order: a sealed v2 block, decoded on the
/// pool straight into its slots, or a region without zone maps (a v1
/// segment, an unsealed v2 segment, the pending buffer), decoded serially
/// up front. Symbols refer to the chunk's own interner until the remap.
struct LoadChunk {
  std::size_t segment = 0;
  const BlockZone* zone = nullptr;  // null: a region without zone maps
  std::string_view file;            // the sealed segment's bytes
  std::vector<LogRecord> unmapped;  // a region's records before slotting
  std::size_t begin = 0;            // slots [begin, begin + count)
  std::size_t count = 0;
  Interner interner;
  std::exception_ptr error;
};

/// Below this many sealed blocks per core a load decodes inline.
constexpr std::size_t kParallelBlocksPerCore = 2;

IoError block_count_error(const fs::path& seg, const BlockZone& zone,
                          const std::string& holds) {
  return IoError("LogStore: block at byte " + std::to_string(zone.file_offset) +
                 " of segment '" + seg.string() + "' holds " + holds +
                 " records but its zone map declares " +
                 std::to_string(zone.record_count));
}

void decode_unmapped(std::string_view payload, LoadChunk& c) {
  for_each_payload_record(payload, c.interner, [&c](LogRecord&& l) {
    c.unmapped.push_back(std::move(l));
  });
}

std::string manifest_text(std::size_t records_per_segment,
                          const std::vector<std::string>& segments) {
  std::string text;
  text.append(kMagic).append("\n");
  text.append("records_per_segment=")
      .append(std::to_string(records_per_segment))
      .append("\n");
  for (const std::string& seg : segments) text.append(seg).append("\n");
  return text;
}

/// Atomic manifest replacement: write tmp, fsync, rename, fsync the
/// directory (a rename is only durable once its directory entry is).
void write_manifest_file(FileIo& io, const fs::path& dir, std::string text) {
  const fs::path tmp = dir / "MANIFEST.tmp";
  WriteFilePtr f = io.open_trunc(tmp);
  std::size_t off = 0;
  std::size_t stalls = 0;
  while (off < text.size()) {
    const std::size_t n = f->write(std::string_view(text).substr(off));
    off += n;
    if (n == 0 && ++stalls > 8) {
      throw IoError("LogStore: manifest write made no progress");
    }
  }
  f->flush();
  f->sync();
  f->close();
  io.rename(tmp, dir / kManifestName);
  io.sync_dir(dir);
}

}  // namespace

std::filesystem::path LogStore::segment_path(std::size_t index) const {
  return dir_ / segments_.at(index);
}

std::size_t LogStore::next_segment_id() const {
  std::size_t max_id = 0;
  for (const std::string& name : segments_) {
    max_id = std::max(max_id, parse_segment_id(name));
  }
  return max_id + 1;
}

template <typename Fn>
void LogStore::with_retries(const char* what, Fn&& fn) {
  std::chrono::milliseconds backoff = options_.retry_backoff;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      fn();
      return;
    } catch (const IoError& e) {
      if (attempt >= options_.max_io_retries) {
        throw IoError("LogStore: " + std::string(what) + " failed after " +
                      std::to_string(attempt) + " retries: " + e.what());
      }
      WFLOG_TELEMETRY(t) { t->store_retries_total->inc(); }
      if (backoff.count() > 0) {
        std::this_thread::sleep_for(backoff);
        backoff *= 2;
      }
    }
  }
}

void LogStore::write_all(std::string_view data, std::size_t& off) {
  std::size_t stalls = 0;
  while (off < data.size()) {
    const std::size_t n = tail_->write(data.substr(off));
    off += n;
    tail_bytes_ += n;
    if (n == 0) {
      if (++stalls > 8) {
        throw IoError("LogStore: write made no progress");
      }
    } else {
      stalls = 0;
    }
  }
}

void LogStore::write_manifest() {
  // Write-then-rename keeps the manifest atomic against crashes; the tmp
  // file is fsynced before the rename regardless of the fsync policy (the
  // manifest is tiny and rolls are rare).
  with_retries("write manifest", [&] {
    write_manifest_file(*io_, dir_,
                        manifest_text(options_.records_per_segment,
                                      segments_));
  });
}

void LogStore::flush_pending_block(bool sync_after) {
  if (pending_.empty()) return;
  const EncodedBlock block = pending_.encode(tail_bytes_);
  const std::uintmax_t good = block.zone.file_offset;
  try {
    std::size_t off = 0;
    with_retries("write block", [&] {
      write_all(block.bytes, off);
      tail_->flush();
    });
    if (sync_after) {
      with_retries("fsync after block", [&] { tail_->sync(); });
    }
  } catch (const IoError&) {
    // Drop the partial (or written-but-not-durable) block from the file;
    // its records — acknowledged ones and (if the caller is mid-append)
    // the current one — stay buffered in pending_ for the next flush
    // attempt, so load() keeps seeing every acknowledged record.
    recover_tail_to(good);
    throw;
  }
  tail_zones_.push_back(block.zone);
  pending_.clear();
  WFLOG_TELEMETRY(t) {
    t->store_blocks_written_total->inc();
    t->store_compressed_bytes_total->add(block.zone.compressed_size);
    t->store_uncompressed_bytes_total->add(block.zone.uncompressed_size);
  }
}

void LogStore::seal_tail() {
  SegmentFooter footer;
  footer.blocks = tail_zones_;
  footer.record_count = tail_records_;
  footer.next_is_lsn.reserve(tail_watermark_.size());
  for (const auto& [wid, next] : tail_watermark_) {
    footer.next_is_lsn.emplace_back(wid, next);
  }
  const std::string bytes = encode_v2_footer(footer);
  std::size_t off = 0;
  with_retries("seal segment", [&] {
    write_all(bytes, off);
    tail_->flush();
  });
  footers_[segments_.size() - 1] = std::move(footer);
  tail_sealed_ = true;
}

void LogStore::roll_segment() {
  WFLOG_TELEMETRY(t) { t->store_segment_rolls_total->inc(); }
  try {
    // Finish the old tail durably before the manifest names a successor:
    // segment k is fully on stable storage before any byte lands in k+1,
    // so crash loss is always confined to the final segment's suffix.
    if (tail_ != nullptr) {
      if (tail_format_ == SegmentFormat::kV2Blocks && !tail_sealed_) {
        flush_pending_block();
        seal_tail();
      }
      with_retries("sync segment on roll", [&] {
        tail_->flush();
        tail_->sync();
      });
      with_retries("close segment on roll", [&] { tail_->close(); });
      tail_.reset();
    }
    segments_.push_back(
        segment_name(next_segment_id(), options_.segment_format));
    // New segments start truncated: a crash between this create and the
    // manifest rename below leaves an orphan file compaction reclaims.
    with_retries("open segment", [&] {
      tail_ = io_->open_trunc(segment_path(segments_.size() - 1));
      // Make the segment's directory entry durable before the manifest
      // names it — a manifest must never point at a file a crash can
      // un-create.
      io_->sync_dir(dir_);
    });
    tail_bytes_ = 0;
    tail_records_ = 0;
    records_since_sync_ = 0;
    tail_format_ = options_.segment_format;
    tail_sealed_ = false;
    tail_zones_.clear();
    tail_watermark_.clear();
    pending_.clear();
    if (tail_format_ == SegmentFormat::kV2Blocks) {
      std::size_t off = 0;
      with_retries("write segment magic", [&] {
        write_all(kSegV2FileMagic, off);
        tail_->flush();
      });
    }
    write_manifest();
  } catch (...) {
    // The manifest, the files, and the in-memory state may now disagree;
    // refuse further appends rather than risk acknowledged-data loss.
    poisoned_ = true;
    throw;
  }
}

LogStore LogStore::create(const std::filesystem::path& dir) {
  return create(dir, Options{});
}

LogStore LogStore::create(const std::filesystem::path& dir,
                          Options options) {
  std::filesystem::create_directories(dir);
  if (std::filesystem::exists(dir / kManifestName)) {
    throw IoError("LogStore: store already exists in " + dir.string());
  }
  LogStore store;
  store.dir_ = dir;
  store.options_ = options;
  store.options_.records_per_segment =
      std::max<std::size_t>(store.options_.records_per_segment, 1);
  store.options_.fsync_interval_records =
      std::max<std::size_t>(store.options_.fsync_interval_records, 1);
  store.options_.block_target_bytes =
      std::max<std::size_t>(store.options_.block_target_bytes, 1);
  store.io_ = options.io != nullptr ? options.io : real_file_io();
  store.roll_segment();
  return store;
}

LogStore LogStore::open(const std::filesystem::path& dir) {
  return open(dir, Options{});
}

RecoveryReport LogStore::reopen_in_place() {
  Options retry = options_;
  retry.io = io_;  // keep the injected seam (tests heal the fault first)
  retry.quarantine_corruption = true;
  RecoveryReport report;
  // open() throws when the directory is still unreadable; *this (and its
  // poisoned flag) survives untouched for the next attempt. On success
  // move-assignment drops the old tail handle and adopts the fresh state.
  LogStore reopened = open(dir_, retry, &report);
  *this = std::move(reopened);
  return report;
}

LogStore LogStore::open(const std::filesystem::path& dir, Options options,
                        RecoveryReport* report) {
  WFLOG_SPAN(span, "store.open");
  const fs::path manifest_path = dir / kManifestName;
  std::ifstream manifest(manifest_path);
  if (!manifest) {
    throw IoError("LogStore: no store in " + dir.string() + " (missing '" +
                  manifest_path.string() + "')");
  }
  std::string line;
  if (!std::getline(manifest, line)) {
    throw IoError("LogStore: empty MANIFEST '" + manifest_path.string() +
                  "'");
  }
  if (trim(line) != kMagic) {
    throw IoError("LogStore: bad manifest magic in '" +
                  manifest_path.string() + "'");
  }

  LogStore store;
  store.dir_ = dir;
  store.options_ = options;
  store.io_ = options.io != nullptr ? options.io : real_file_io();
  if (!std::getline(manifest, line) ||
      !trim(line).starts_with("records_per_segment=")) {
    throw IoError("LogStore: truncated MANIFEST '" + manifest_path.string() +
                  "' (missing records_per_segment)");
  }
  {
    const std::string_view value = trim(line).substr(20);
    std::size_t parsed = 0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), parsed);
    if (ec != std::errc{} || end != value.data() + value.size() ||
        parsed == 0) {
      throw IoError("LogStore: malformed records_per_segment '" +
                    std::string(value) + "' in MANIFEST '" +
                    manifest_path.string() + "'");
    }
    store.options_.records_per_segment = parsed;
  }
  store.options_.fsync_interval_records =
      std::max<std::size_t>(store.options_.fsync_interval_records, 1);
  store.options_.block_target_bytes =
      std::max<std::size_t>(store.options_.block_target_bytes, 1);
  while (std::getline(manifest, line)) {
    const std::string name{trim(line)};
    if (!name.empty()) store.segments_.push_back(name);
  }
  if (store.segments_.empty()) {
    throw IoError("LogStore: MANIFEST '" + manifest_path.string() +
                  "' lists no segments");
  }
  for (std::size_t s = 0; s < store.segments_.size(); ++s) {
    if (!fs::exists(store.segment_path(s))) {
      throw IoError("LogStore: segment '" + store.segment_path(s).string() +
                    "' is listed in MANIFEST but missing");
    }
  }

  // Recover writer state by streaming every segment. Sealed v2 segments
  // take the footer fast path: the footer's own CRC vouches for the zone
  // table, so neither blocks nor records are re-read (per-block payload
  // CRCs still guard every later read). Everything else — v1 segments,
  // the unsealed v2 tail — is scanned record by record. Recovery stops at
  // the first unreadable byte: a torn tail (crash mid-append or mid-seal)
  // is truncated; anything else is corruption — a structured IoError, or,
  // with quarantine_corruption, the corrupt suffix of the store is moved
  // aside and the readable prefix kept.
  RecoveryReport& rec = store.recovery_;
  Interner scratch;
  std::size_t corrupt_segment = 0;
  std::size_t corrupt_offset = 0;
  std::string corrupt_reason;
  bool corrupt = false;
  // v2 tail scan state of the most recently scanned segment, kept so the
  // survivor of a quarantine truncation has zones/watermark to continue
  // with.
  std::vector<BlockZone> last_zones;
  std::map<Wid, IsLsn> last_watermark;

  for (std::size_t s = 0; s < store.segments_.size() && !corrupt; ++s) {
    const fs::path seg_path = store.segment_path(s);
    const bool final_segment = s + 1 == store.segments_.size();
    last_zones.clear();
    last_watermark.clear();

    if (format_of(store.segments_[s]) == SegmentFormat::kV2Blocks) {
      const std::string data = read_whole_file(seg_path);

      if (auto footer = try_read_v2_footer(data)) {
        // Sealed fast path: no block re-scan on reopen.
        store.num_records_ += footer->footer.record_count;
        store.tail_records_ = footer->footer.record_count;
        for (const auto& [wid, next] : footer->footer.next_is_lsn) {
          store.next_is_lsn_[wid] = static_cast<IsLsn>(next);
        }
        store.footers_[s] = std::move(footer->footer);
        if (final_segment) store.tail_sealed_ = true;
        WFLOG_TELEMETRY(t) { t->store_sealed_reopen_skips_total->inc(); }
        continue;
      }

      BlockScan scan = scan_v2_blocks(data);
      std::size_t records_in_segment = 0;
      // scan_v2_blocks already parsed these payloads (to rebuild zones);
      // a second pass over the in-memory strings cannot fail.
      for (const std::string& payload : scan.payloads) {
        for_each_payload_record(
            payload, scratch, [&](const LogRecord& l) {
              ++records_in_segment;
              ++store.num_records_;
              const bool ended = scratch.name(l.activity) == kEndActivity;
              const IsLsn next = ended ? 0 : l.is_lsn + 1;
              store.next_is_lsn_[l.wid] = next;
              last_watermark[l.wid] = next;
            });
      }
      store.tail_records_ = records_in_segment;
      last_zones = scan.zones;

      if (!scan.corrupt_reason.empty()) {
        corrupt = true;
        corrupt_segment = s;
        corrupt_offset = scan.good_bytes;
        corrupt_reason = scan.corrupt_reason;
      } else if (scan.torn) {
        if (!final_segment) {
          // Rolls seal and sync a segment before its successor exists, so
          // torn data mid-store cannot come from a crash.
          corrupt = true;
          corrupt_segment = s;
          corrupt_offset = scan.good_bytes;
          corrupt_reason = "torn data in non-final segment";
        } else {
          store.io_->truncate(seg_path, scan.good_bytes);
          rec.torn_tail_truncated = true;
          rec.notes.push_back("truncated torn tail of '" + seg_path.string() +
                              "' at byte " +
                              std::to_string(scan.good_bytes));
          WFLOG_TELEMETRY(t) {
            t->store_truncations_total->inc();
            t->store_footer_recoveries_total->inc();
          }
        }
      }
      if (!corrupt) {
        if (final_segment) {
          store.tail_zones_ = std::move(scan.zones);
          store.tail_watermark_ = last_watermark;
        } else {
          // A clean, unsealed segment mid-store: its footer was lost
          // (e.g. the store was truncated here by an earlier quarantine).
          // Synthesize the zone table in memory from the scan — reads and
          // pruning work; the next compaction rewrites it sealed.
          SegmentFooter synth;
          synth.blocks = std::move(scan.zones);
          synth.record_count = records_in_segment;
          for (const auto& [wid, next] : last_watermark) {
            synth.next_is_lsn.emplace_back(wid, next);
          }
          store.footers_[s] = std::move(synth);
          rec.notes.push_back("rebuilt zone maps of unsealed segment '" +
                              seg_path.string() + "' by block scan");
          WFLOG_TELEMETRY(t) { t->store_footer_recoveries_total->inc(); }
        }
      }
      continue;
    }

    // ----- v1 JSONL segment ------------------------------------------------
    const std::string data = read_whole_file(seg_path);
    std::size_t records_in_segment = 0;
    std::size_t good_bytes = 0;
    std::size_t pos = 0;
    std::size_t torn_at = std::string::npos;
    while (pos < data.size()) {
      const std::size_t nl = data.find('\n', pos);
      const bool complete = nl != std::string::npos;
      const std::string_view text{data.data() + pos,
                                  (complete ? nl : data.size()) - pos};
      const std::size_t line_end = complete ? nl + 1 : data.size();
      if (!complete) {
        // No newline: the line's write never finished (or its tail was
        // lost); even a CRC-clean prefix is unacknowledged. Truncate so
        // the next append starts on a clean line.
        torn_at = pos;
        break;
      }
      if (trim(text).empty()) {
        good_bytes = line_end;
        pos = line_end;
        continue;
      }
      LogRecord l;
      try {
        l = parse_store_line(trim(text), scratch);
      } catch (const IoError& e) {
        // A complete (newline-terminated) line that fails to parse or
        // checksum is corruption, not tearing: a crash cut leaves either a
        // clean line boundary or a line missing its newline.
        corrupt = true;
        corrupt_segment = s;
        corrupt_offset = pos;
        corrupt_reason = e.what();
        break;
      }
      good_bytes = line_end;
      pos = line_end;
      ++records_in_segment;
      ++store.num_records_;
      const bool ended = scratch.name(l.activity) == kEndActivity;
      store.next_is_lsn_[l.wid] = ended ? 0 : l.is_lsn + 1;
    }
    store.tail_records_ = records_in_segment;

    if (torn_at != std::string::npos) {
      if (!final_segment && !corrupt) {
        // A torn line before the final segment cannot come from a crash
        // (rolls sync the old tail first): treat it as corruption.
        corrupt = true;
        corrupt_segment = s;
        corrupt_offset = torn_at;
        corrupt_reason = "torn line in non-final segment";
      } else if (!corrupt) {
        store.io_->truncate(seg_path, good_bytes);
        rec.torn_tail_truncated = true;
        rec.notes.push_back("truncated torn tail of '" + seg_path.string() +
                            "' at byte " + std::to_string(good_bytes));
        WFLOG_TELEMETRY(t) { t->store_truncations_total->inc(); }
      }
    }
  }

  if (corrupt) {
    const fs::path seg_path = store.segment_path(corrupt_segment);
    if (!store.options_.quarantine_corruption) {
      throw IoError("LogStore: corrupt record in segment '" +
                    seg_path.string() + "' at byte " +
                    std::to_string(corrupt_offset) + " (" + corrupt_reason +
                    "); reopen with quarantine_corruption to recover the "
                    "readable prefix");
    }
    // Quarantine: move every byte from the corruption onward — the rest of
    // this segment plus all later segments — into a QUARANTINE file, then
    // truncate the store to its readable prefix.
    fs::path qpath;
    for (std::size_t i = 1;; ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "QUARANTINE-%06zu", i);
      qpath = dir / buf;
      if (!fs::exists(qpath)) break;
    }
    std::size_t dropped = 0;
    std::uintmax_t qbytes = 0;
    {
      WriteFilePtr q = store.io_->open_trunc(qpath);
      const auto quarantine_bytes = [&](std::string_view bytes,
                                        SegmentFormat format,
                                        bool whole_file) {
        if (format == SegmentFormat::kV1Jsonl) {
          dropped += count_record_lines(bytes);
        } else if (whole_file) {
          dropped += count_v2_records(bytes);
        }
        // A v2 suffix cut mid-file has no parseable structure to count;
        // the byte tally still records exactly what was set aside.
        qbytes += bytes.size();
        std::size_t off = 0;
        while (off < bytes.size()) off += q->write(bytes.substr(off));
      };
      const std::string head = read_whole_file(seg_path);
      quarantine_bytes(std::string_view(head).substr(corrupt_offset),
                       format_of(store.segments_[corrupt_segment]),
                       corrupt_offset == 0);
      for (std::size_t s = corrupt_segment + 1; s < store.segments_.size();
           ++s) {
        quarantine_bytes(read_whole_file(store.segment_path(s)),
                         format_of(store.segments_[s]),
                         /*whole_file=*/true);
      }
      q->flush();
      q->sync();
      q->close();
    }
    rec.records_dropped = dropped;
    rec.bytes_quarantined = qbytes;
    rec.segments_quarantined = store.segments_.size() - corrupt_segment;
    rec.notes.push_back("quarantined " + std::to_string(qbytes) +
                        " corrupt bytes (" + std::to_string(dropped) +
                        " record lines) from '" + seg_path.string() +
                        "' byte " + std::to_string(corrupt_offset) +
                        " onward into '" + qpath.string() + "': " +
                        corrupt_reason);
    store.io_->truncate(seg_path, corrupt_offset);
    for (std::size_t s = store.segments_.size(); s-- > corrupt_segment + 1;) {
      store.io_->remove(store.segment_path(s));
    }
    store.segments_.resize(corrupt_segment + 1);
    store.footers_.erase(store.footers_.lower_bound(corrupt_segment),
                         store.footers_.end());
    store.write_manifest();
    // Writer state was accumulated only over the readable prefix; recount
    // the kept tail segment's records for the roll bookkeeping.
    store.tail_sealed_ = false;
    if (format_of(store.segments_.back()) == SegmentFormat::kV2Blocks) {
      store.tail_records_ = 0;
      for (const BlockZone& z : last_zones) store.tail_records_ += z.record_count;
      store.tail_zones_ = std::move(last_zones);
      store.tail_watermark_ = std::move(last_watermark);
    } else {
      const std::string kept = read_whole_file(seg_path);
      store.tail_records_ = count_record_lines(kept);
    }
    WFLOG_TELEMETRY(t) { t->store_corrupt_records_total->add(dropped); }
  }

  // Open the tail for appending. A sealed v2 tail (crash between seal and
  // successor creation) stays closed: the next append rolls first.
  store.tail_format_ = format_of(store.segments_.back());
  {
    std::error_code ec;
    const std::uintmax_t size =
        fs::file_size(store.segment_path(store.segments_.size() - 1), ec);
    store.tail_bytes_ = ec ? 0 : size;
  }
  if (!(store.tail_format_ == SegmentFormat::kV2Blocks &&
        store.tail_sealed_)) {
    store.with_retries("open tail segment", [&] {
      store.tail_ = store.io_->open_append(
          store.segment_path(store.segments_.size() - 1));
    });
    if (store.tail_format_ == SegmentFormat::kV2Blocks &&
        store.tail_bytes_ < kSegV2FileMagic.size()) {
      // The tail was created but its magic never became durable (crash
      // right after the roll): rewrite it so appends land in a valid file.
      store.with_retries("rewrite tail segment magic", [&] {
        store.tail_->close();
        store.tail_ = store.io_->open_trunc(
            store.segment_path(store.segments_.size() - 1));
        store.tail_bytes_ = 0;
        std::size_t off = 0;
        store.write_all(kSegV2FileMagic, off);
        store.tail_->flush();
      });
      store.tail_records_ = 0;
      store.tail_zones_.clear();
      store.tail_watermark_.clear();
    }
  }
  store.recovery_.records_recovered = store.num_records_;
  if (report != nullptr) *report = store.recovery_;
  if (span.active()) {
    span.arg("segments", static_cast<std::uint64_t>(store.segments_.size()));
    span.arg("records", static_cast<std::uint64_t>(store.num_records_));
    span.arg("torn_tail",
             static_cast<std::uint64_t>(rec.torn_tail_truncated ? 1 : 0));
    span.arg("dropped", static_cast<std::uint64_t>(rec.records_dropped));
  }
  return store;
}

LogStore::~LogStore() {
  if (tail_ == nullptr) return;
  // Best-effort durable shutdown; destructors must not throw.
  try {
    if (tail_format_ == SegmentFormat::kV2Blocks && !pending_.empty() &&
        !poisoned_) {
      flush_pending_block();
    }
    tail_->flush();
    if (options_.fsync_policy != FsyncPolicy::kOff) tail_->sync();
    tail_->close();
  } catch (...) {
  }
}

Wid LogStore::begin_instance() {
  while (next_is_lsn_.contains(next_wid_)) ++next_wid_;
  const Wid wid = next_wid_;
  next_is_lsn_.emplace(wid, 1);
  Interner scratch;
  try {
    append_record(wid, kStartActivity, {}, {}, scratch);
  } catch (...) {
    next_is_lsn_.erase(wid);  // the instance never existed
    throw;
  }
  return wid;
}

void LogStore::record(Wid wid, std::string_view activity,
                      const NamedAttrs& in, const NamedAttrs& out) {
  const auto it = next_is_lsn_.find(wid);
  if (it == next_is_lsn_.end() || it->second == 0) {
    throw Error("LogStore: instance " + std::to_string(wid) +
                " is not open");
  }
  if (activity == kStartActivity || activity == kEndActivity) {
    throw Error("LogStore: activity name '" + std::string(activity) +
                "' is reserved");
  }
  Interner scratch;
  AttrMap in_map;
  for (const auto& [name, value] : in) {
    in_map.set(scratch.intern(name), value);
  }
  AttrMap out_map;
  for (const auto& [name, value] : out) {
    out_map.set(scratch.intern(name), value);
  }
  append_record(wid, activity, in_map, out_map, scratch);
}

void LogStore::end_instance(Wid wid) {
  const auto it = next_is_lsn_.find(wid);
  if (it == next_is_lsn_.end() || it->second == 0) {
    throw Error("LogStore: instance " + std::to_string(wid) +
                " is not open");
  }
  Interner scratch;
  append_record(wid, kEndActivity, {}, {}, scratch);
  next_is_lsn_[wid] = 0;
}

void LogStore::sync() {
  if (tail_ == nullptr) return;
  if (tail_format_ == SegmentFormat::kV2Blocks) flush_pending_block();
  with_retries("fsync", [&] {
    tail_->flush();
    tail_->sync();
  });
  records_since_sync_ = 0;
}

void LogStore::append_record(Wid wid, std::string_view activity,
                             const AttrMap& in, const AttrMap& out,
                             Interner& interner) {
  obs::Telemetry* telemetry = obs::telemetry();
  const auto t0 = telemetry != nullptr
                      ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};

  if (poisoned_) {
    throw IoError(
        "LogStore: store failed after a structural write error; reopen '" +
        dir_.string() + "' to recover");
  }
  if (tail_records_ >= options_.records_per_segment || tail_sealed_ ||
      tail_ == nullptr) {
    roll_segment();
  }

  LogRecord l;
  l.lsn = static_cast<Lsn>(num_records_ + 1);
  l.wid = wid;
  l.is_lsn = next_is_lsn_.at(wid);
  l.activity = interner.intern(activity);
  l.in = in;
  l.out = out;

  const std::string line = to_store_line(l, interner);
  const bool want_sync =
      options_.fsync_policy == FsyncPolicy::kPerAppend ||
      (options_.fsync_policy == FsyncPolicy::kInterval &&
       records_since_sync_ + 1 >= options_.fsync_interval_records);

  if (tail_format_ == SegmentFormat::kV2Blocks) {
    // BlockBuilder frames lines itself; hand it the line sans newline.
    pending_.add(l, activity,
                 std::string_view(line).substr(0, line.size() - 1));
    const bool flush =
        want_sync || pending_.payload_bytes() >= options_.block_target_bytes;
    try {
      // The fsync rides inside flush_pending_block's guarded scope: if it
      // fails after the block hit the file, the block is truncated away
      // again, so the builder below is never empty when we unwind.
      if (flush) flush_pending_block(want_sync);
    } catch (const IoError&) {
      // The failed block's records stay buffered; only the current —
      // unacknowledged — record must leave the buffer.
      pending_.remove_last();
      throw;
    }
    if (want_sync) {
      records_since_sync_ = 0;
    } else {
      ++records_since_sync_;
    }
  } else {
    const std::uintmax_t good = tail_bytes_;
    try {
      // Short writes resume from the accepted offset; transient errors are
      // retried in place, so a record is written at most once.
      std::size_t off = 0;
      with_retries("append record", [&] {
        write_all(line, off);
        tail_->flush();
      });
      if (want_sync) {
        with_retries("fsync after append", [&] { tail_->sync(); });
        records_since_sync_ = 0;
      } else {
        ++records_since_sync_;
      }
    } catch (const IoError&) {
      // Leave no partial line behind: truncate the tail back to the last
      // acknowledged record so in-process writing can continue cleanly.
      recover_tail_to(good);
      throw;
    }
  }

  ++next_is_lsn_.at(wid);
  ++tail_records_;
  ++num_records_;
  if (tail_format_ == SegmentFormat::kV2Blocks) {
    const bool ended = activity == kEndActivity;
    tail_watermark_[wid] = ended ? 0 : next_is_lsn_.at(wid);
  }

  if (telemetry != nullptr) {
    telemetry->store_appends_total->inc();
    telemetry->store_flushes_total->inc();
    if (want_sync) telemetry->store_syncs_total->inc();
    telemetry->store_append_seconds->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
}

void LogStore::recover_tail_to(std::uintmax_t good_bytes) noexcept {
  const fs::path path = segment_path(segments_.size() - 1);
  try {
    tail_->close();
  } catch (...) {
    // Close failure does not prevent the truncate below.
  }
  tail_.reset();
  try {
    io_->truncate(path, good_bytes);
    tail_ = io_->open_append(path);
    tail_bytes_ = good_bytes;
  } catch (...) {
    poisoned_ = true;
  }
}

Log LogStore::load() const { return load_pruned({}).log; }

LogStore::PrunedLoad LogStore::load_pruned(
    const std::vector<std::string>& required) const {
  WFLOG_SPAN(span, "store.load");
  PrunedLoad out;
  out.pruned = !required.empty();
  for (const auto& [s, footer] : footers_) {
    out.blocks_total += footer.blocks.size();
  }

  // Pass 1, serial, in file order: one chunk per sealed block, and the
  // regions without zone maps decoded in full. Their instances are
  // "opaque": candidates no zone map can rule out. An error is kept on
  // its chunk, so the load reports the earliest one in file order.
  std::vector<LoadChunk> chunks;
  std::size_t unsealed_blocks = 0;
  WidIntervals opaque;
  for (std::size_t s = 0; s <= segments_.size(); ++s) {
    if (const auto it = footers_.find(s); it != footers_.end()) {
      for (const BlockZone& zone : it->second.blocks) {
        LoadChunk& c = chunks.emplace_back();
        c.segment = s;
        c.zone = &zone;
      }
      continue;
    }
    LoadChunk& c = chunks.emplace_back();
    try {
      if (s == segments_.size()) {
        // Acknowledged records still buffered for the next block live
        // only in memory; a load must see them (read-your-writes).
        decode_unmapped(pending_.payload(), c);
      } else if (format_of(segments_[s]) == SegmentFormat::kV2Blocks) {
        // A torn tail mid-session (an in-process write failure) is
        // benign, like v1's unterminated final line.
        const BlockScan scan =
            scan_v2_blocks(read_whole_file(segment_path(s)));
        if (!scan.corrupt_reason.empty()) {
          throw IoError("LogStore: segment '" + segment_path(s).string() +
                        "' is corrupt: " + scan.corrupt_reason);
        }
        for (const std::string& payload : scan.payloads) {
          decode_unmapped(payload, c);
        }
        unsealed_blocks += scan.payloads.size();
      } else {
        std::ifstream seg(segment_path(s));
        if (!seg) {
          throw IoError("LogStore: missing segment '" +
                        segment_path(s).string() + "'");
        }
        std::string line;
        while (std::getline(seg, line)) {
          if (trim(line).empty()) continue;
          try {
            c.unmapped.push_back(parse_store_line(trim(line), c.interner));
          } catch (const IoError&) {
            // An unparseable last line of the final segment: torn append.
            if (s + 1 == segments_.size() && seg.peek() == EOF) break;
            throw;
          }
        }
      }
    } catch (...) {
      c.error = std::current_exception();
    }
    for (const LogRecord& l : c.unmapped) opaque.add(l.wid, l.wid);
  }
  opaque.normalize();

  // Pass 2: candidate instances. For each required activity, the
  // instances that could contain it are bounded by the wid ranges of the
  // zone-mapped blocks whose bloom admits it, plus every opaque instance.
  // An incident needs ALL required activities: intersect.
  WidIntervals candidates;
  bool first = true;
  for (const std::string& activity : required) {
    WidIntervals admits;
    for (const auto& [s, footer] : footers_) {
      for (const BlockZone& zone : footer.blocks) {
        if (zone.record_count == 0) continue;
        if (zone.bloom.may_contain(activity)) {
          admits.add(zone.wid_min, zone.wid_max);
        }
      }
    }
    admits.normalize();
    WidIntervals could = WidIntervals::unite(admits, opaque);
    candidates = first ? std::move(could)
                       : WidIntervals::intersect(candidates, could);
    first = false;
    if (candidates.empty()) break;
  }

  // Pass 3: slot layout. A prefix sum over the chunks gives each its
  // range of one pre-sized record vector; a sealed block takes its zone's
  // record count, if its bytes can hold that many (a record is a
  // non-empty line plus its newline). Segments are read once each, and
  // only those with a block to decode.
  std::map<std::size_t, std::string> files;
  std::vector<std::size_t> tasks;  // chunk indices of the blocks to decode
  std::size_t total = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    LoadChunk& c = chunks[i];
    c.begin = total;
    c.count = c.unmapped.size();
    if (c.zone != nullptr) {
      const BlockZone& zone = *c.zone;
      if (out.pruned && (zone.record_count == 0 ||
                         !candidates.overlaps(zone.wid_min, zone.wid_max))) {
        ++out.blocks_skipped;  // an empty chunk
        continue;
      }
      ++out.blocks_read;
      const std::size_t most =
          (std::min<std::size_t>(zone.uncompressed_size,
                                 max_inflated_size(zone.compressed_size)) +
           1) / 2;
      if (zone.record_count > most) {
        c.error = std::make_exception_ptr(block_count_error(
            segment_path(c.segment), zone, "at most " + std::to_string(most)));
        continue;
      }
      std::string& file = files[c.segment];
      if (file.empty()) file = read_whole_file(segment_path(c.segment));
      c.file = file;
      c.count = zone.record_count;
      tasks.push_back(i);
    }
    total += c.count;
  }
  std::vector<LogRecord> records(total);
  for (LoadChunk& c : chunks) {
    std::move(c.unmapped.begin(), c.unmapped.end(),
              records.begin() + static_cast<std::ptrdiff_t>(c.begin));
    c.unmapped = {};
  }

  // The blocks, on a transient pool when there are enough of them. Each
  // task writes only its own chunk and slots: header-vs-zone check,
  // payload CRC and strict inflate (read_v2_block_payload), per-line CRC
  // and parse. A block holding any other number of records than its
  // zone declares is corrupt.
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers =
      tasks.size() >= kParallelBlocksPerCore * cores ? cores - 1 : 0;
  ShardPool(workers).run(tasks.size(), [&](std::size_t t) {
    LoadChunk& c = chunks[tasks[t]];
    try {
      const std::string payload = read_v2_block_payload(c.file, *c.zone);
      std::size_t n = 0;
      for_each_payload_record(payload, c.interner, [&](LogRecord&& l) {
        if (n < c.count) records[c.begin + n] = std::move(l);
        ++n;
      });
      if (n != c.count) {
        throw block_count_error(segment_path(c.segment), *c.zone,
                                std::to_string(n));
      }
    } catch (...) {
      c.error = std::current_exception();
    }
  });
  files.clear();

  // After the join, in file order: the earliest error wins; each chunk's
  // local symbols are interned globally by ascending local id, which
  // gives exactly the ids of one serial decode; non-candidate records
  // are compacted away (stably) and, when pruned, lsns renumbered so the
  // result is a valid Log. Instance-local coordinates (wid, is-lsn) —
  // what incidents are made of — are untouched.
  Interner interner;
  std::vector<Symbol> to;
  std::size_t kept = 0;
  for (LoadChunk& c : chunks) {
    if (c.error != nullptr) std::rethrow_exception(c.error);
    to.clear();
    for (Symbol sym = 0; sym < c.interner.size(); ++sym) {
      to.push_back(interner.intern(c.interner.name(sym)));
    }
    for (std::size_t i = c.begin; i < c.begin + c.count; ++i) {
      LogRecord& l = records[i];
      if (out.pruned && !candidates.contains(l.wid)) continue;
      l.activity = to[l.activity];
      l.in.remap(to);
      l.out.remap(to);
      if (out.pruned) l.lsn = static_cast<Lsn>(kept + 1);
      if (kept != i) records[kept] = std::move(l);
      ++kept;
    }
  }
  records.resize(kept);
  // A pruned load that dropped most slots gives the rest back.
  if (kept < total / 2) records.shrink_to_fit();
  chunks = {};
#if defined(__GLIBC__)
  // The workers' malloc arenas now hold the decode's freed transients
  // (inflated payloads, parse scratch, block interners) between the
  // records they allocated; glibc returns such free pages only on request.
  if (workers > 0) malloc_trim(0);
#endif

  blocks_read_ += out.blocks_read + unsealed_blocks;
  blocks_skipped_ += out.blocks_skipped;
  WFLOG_TELEMETRY(t) {
    t->store_blocks_read_total->add(out.blocks_read + unsealed_blocks);
    t->store_blocks_skipped_total->add(out.blocks_skipped);
  }
  out.records_kept = records.size();
  // A pruned load may rightly keep nothing; an empty store is not a Log.
  out.log = out.pruned && records.empty()
                ? Log::from_records_unchecked({}, std::move(interner))
                : Log::from_records(std::move(records), std::move(interner));
  if (span.active()) {
    span.arg("segments", static_cast<std::uint64_t>(segments_.size()));
    span.arg("blocks_read", static_cast<std::uint64_t>(out.blocks_read));
    span.arg("blocks_skipped",
             static_cast<std::uint64_t>(out.blocks_skipped));
    span.arg("records_kept", static_cast<std::uint64_t>(out.records_kept));
  }
  return out;
}

LogStore::StorageStats LogStore::storage_stats() const {
  StorageStats stats;
  for (const std::string& name : segments_) {
    if (format_of(name) == SegmentFormat::kV2Blocks) {
      ++stats.segments_v2;
    } else {
      ++stats.segments_v1;
    }
  }
  for (const auto& [s, footer] : footers_) {
    stats.sealed_blocks += footer.blocks.size();
    for (const BlockZone& zone : footer.blocks) {
      stats.compressed_payload_bytes += zone.compressed_size;
      stats.uncompressed_payload_bytes += zone.uncompressed_size;
    }
  }
  for (const BlockZone& zone : tail_zones_) {
    stats.compressed_payload_bytes += zone.compressed_size;
    stats.uncompressed_payload_bytes += zone.uncompressed_size;
  }
  stats.blocks_read = blocks_read_;
  stats.blocks_skipped = blocks_skipped_;
  return stats;
}

LogStore::CompactionReport LogStore::compact(
    const std::filesystem::path& dir) {
  return compact(dir, Options{});
}

LogStore::CompactionReport LogStore::compact(
    const std::filesystem::path& dir, Options options) {
  WFLOG_SPAN(span, "store.compact");
  CompactionReport report;
  std::shared_ptr<FileIo> io =
      options.io != nullptr ? options.io : real_file_io();
  options.io = io;

  std::vector<std::string> old_names;
  std::size_t records_per_segment = 0;
  std::size_t base_id = 0;
  std::size_t block_target = 0;
  Log log = Log::from_records_unchecked({}, {});
  {
    LogStore store = open(dir, options);
    old_names = store.segments_;
    records_per_segment = store.options_.records_per_segment;
    block_target = store.options_.block_target_bytes;
    base_id = store.next_segment_id();
    report.segments_before = old_names.size();
    for (const std::string& name : old_names) {
      std::error_code ec;
      const std::uintmax_t size = fs::file_size(dir / name, ec);
      if (!ec) report.bytes_before += size;
    }
    if (store.num_records() == 0) {
      // Nothing to rewrite; leave the (empty) store untouched.
      report.segments_after = report.segments_before;
      report.bytes_after = report.bytes_before;
      return report;
    }
    log = store.load();
  }  // close the store before files move underneath it
  report.records = log.size();

  // Vacuum orphan segment files left by crashed rolls or compactions: any
  // seg-* file the manifest does not name is invisible to every reader.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("seg-")) continue;
    if (std::find(old_names.begin(), old_names.end(), name) !=
        old_names.end()) {
      continue;
    }
    io->remove(entry.path());
  }

  // Write the replacement segments: full blocks, sealed footers, fully
  // fsynced before the manifest swap makes any of them visible.
  std::vector<std::string> new_names;
  std::size_t next = 0;  // record index into the log
  while (next < log.size()) {
    const std::string name = segment_name(base_id + new_names.size(),
                                          SegmentFormat::kV2Blocks);
    std::string file{kSegV2FileMagic};
    SegmentFooter footer;
    std::map<Wid, IsLsn> watermark;
    BlockBuilder builder;
    std::size_t in_segment = 0;
    const auto cut_block = [&] {
      if (builder.empty()) return;
      EncodedBlock block = builder.encode(file.size());
      file += block.bytes;
      footer.blocks.push_back(std::move(block.zone));
      builder.clear();
      ++report.blocks_written;
      WFLOG_TELEMETRY(t) {
        t->store_blocks_written_total->inc();
        t->store_compressed_bytes_total->add(
            footer.blocks.back().compressed_size);
        t->store_uncompressed_bytes_total->add(
            footer.blocks.back().uncompressed_size);
      }
    };
    while (next < log.size() && in_segment < records_per_segment) {
      const LogRecord& l = log.record(static_cast<Lsn>(next + 1));
      const std::string_view activity = log.activity_name(l.activity);
      const std::string line = to_store_line(l, log.interner());
      builder.add(l, activity,
                  std::string_view(line).substr(0, line.size() - 1));
      watermark[l.wid] =
          activity == kEndActivity ? 0 : static_cast<IsLsn>(l.is_lsn + 1);
      ++in_segment;
      ++next;
      if (builder.payload_bytes() >= block_target) cut_block();
    }
    cut_block();
    footer.record_count = in_segment;
    for (const auto& [wid, next_is] : watermark) {
      footer.next_is_lsn.emplace_back(wid, next_is);
    }
    file += encode_v2_footer(footer);

    WriteFilePtr f = io->open_trunc(dir / name);
    std::size_t off = 0;
    std::size_t stalls = 0;
    while (off < file.size()) {
      const std::size_t n = f->write(std::string_view(file).substr(off));
      off += n;
      if (n == 0 && ++stalls > 8) {
        throw IoError("LogStore: compaction write made no progress");
      }
    }
    f->flush();
    f->sync();
    f->close();
    new_names.push_back(name);
  }
  io->sync_dir(dir);

  // The swap: after this rename + dir fsync, readers see only the new
  // segments; before it, only the old. Never a mix.
  write_manifest_file(*io, dir,
                      manifest_text(records_per_segment, new_names));

  for (const std::string& name : old_names) {
    io->remove(dir / name);
  }
  io->sync_dir(dir);

  report.segments_after = new_names.size();
  for (const std::string& name : new_names) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(dir / name, ec);
    if (!ec) report.bytes_after += size;
  }
  if (span.active()) {
    span.arg("records", static_cast<std::uint64_t>(report.records));
    span.arg("bytes_before",
             static_cast<std::uint64_t>(report.bytes_before));
    span.arg("bytes_after", static_cast<std::uint64_t>(report.bytes_after));
  }
  return report;
}

}  // namespace wflog
