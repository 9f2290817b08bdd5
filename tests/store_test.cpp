#include "log/store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "core/engine.h"
#include "log/validate.h"

namespace wflog {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wflog-store-test-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Options pinning the v1 JSONL segment format — for the tests below
  /// that poke v1 file internals (line framing, .jsonl names). The v2
  /// format's own internals tests live in segfmt_test.cpp.
  static LogStore::Options v1_options() {
    LogStore::Options options;
    options.segment_format = SegmentFormat::kV1Jsonl;
    return options;
  }

  fs::path dir_;
};

TEST_F(StoreTest, CreateAppendLoad) {
  LogStore store = LogStore::create(dir_);
  const Wid w = store.begin_instance();
  store.record(w, "GetRefer", {},
               {{"balance", Value{std::int64_t{1000}}}});
  store.record(w, "CheckIn");
  store.end_instance(w);
  EXPECT_EQ(store.num_records(), 4u);

  const Log log = store.load();
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.activity_name(log.record(2).activity), "GetRefer");
  EXPECT_EQ(*log.record(2).out.get(log.interner().find("balance")),
            Value{std::int64_t{1000}});
  const std::vector<LogRecord> records(log.begin(), log.end());
  EXPECT_TRUE(check_well_formed(records, log.interner()).empty());
}

TEST_F(StoreTest, EmptyStoreLoadsAsTheEmptyLog) {
  // Both loads of a store with no records give the same empty log, for a
  // fresh store and a reopened one alike.
  for (const bool reopen : {false, true}) {
    const LogStore store =
        reopen ? LogStore::open(dir_) : LogStore::create(dir_);
    const Log full = store.load();
    EXPECT_TRUE(full.empty());
    EXPECT_TRUE(full.wids().empty());
    const LogStore::PrunedLoad unpruned = store.load_pruned({});
    EXPECT_FALSE(unpruned.pruned);
    EXPECT_TRUE(unpruned.log.empty());
    const LogStore::PrunedLoad pruned = store.load_pruned({"GetRefer"});
    EXPECT_TRUE(pruned.pruned);
    EXPECT_TRUE(pruned.log.empty());
    EXPECT_EQ(pruned.records_kept, 0u);
  }
}

TEST_F(StoreTest, CreateRefusesExistingStore) {
  { LogStore store = LogStore::create(dir_); }
  EXPECT_THROW(LogStore::create(dir_), IoError);
}

TEST_F(StoreTest, OpenMissingStoreThrows) {
  EXPECT_THROW(LogStore::open(dir_), IoError);
}

TEST_F(StoreTest, ReopenResumesWriting) {
  Wid w1 = 0;
  {
    LogStore store = LogStore::create(dir_);
    w1 = store.begin_instance();
    store.record(w1, "a");
    // Instance left open; store dropped (simulates process exit).
  }
  {
    LogStore store = LogStore::open(dir_);
    EXPECT_EQ(store.num_records(), 2u);
    store.record(w1, "b");  // resume the open instance
    store.end_instance(w1);
    const Wid w2 = store.begin_instance();
    EXPECT_NE(w2, w1);  // completed/open wids are never reused
    store.end_instance(w2);
  }
  const Log log = LogStore::open(dir_).load();
  EXPECT_EQ(log.size(), 6u);
  const std::vector<LogRecord> records(log.begin(), log.end());
  EXPECT_TRUE(check_well_formed(records, log.interner()).empty());
  QueryEngine engine(log);
  EXPECT_EQ(engine.count("a . b"), 1u);
}

TEST_F(StoreTest, ReopenRejectsWritesToEndedInstances) {
  Wid w = 0;
  {
    LogStore store = LogStore::create(dir_);
    w = store.begin_instance();
    store.end_instance(w);
  }
  LogStore store = LogStore::open(dir_);
  EXPECT_THROW(store.record(w, "a"), Error);
  EXPECT_THROW(store.end_instance(w), Error);
}

TEST_F(StoreTest, SegmentsRollAtCapacity) {
  LogStore::Options options = v1_options();
  options.records_per_segment = 5;
  LogStore store = LogStore::create(dir_, options);
  const Wid w = store.begin_instance();
  for (int i = 0; i < 12; ++i) store.record(w, "a");
  EXPECT_EQ(store.num_records(), 13u);
  EXPECT_EQ(store.num_segments(), 3u);  // 5 + 5 + 3

  // Segment files exist and the manifest lists them.
  std::size_t seg_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".jsonl") ++seg_files;
  }
  EXPECT_EQ(seg_files, 3u);
  EXPECT_EQ(store.load().size(), 13u);
}

TEST_F(StoreTest, CapacityPersistsAcrossReopen) {
  LogStore::Options options;
  options.records_per_segment = 3;
  {
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    store.record(w, "a");
  }
  LogStore store = LogStore::open(dir_);
  const Wid w2 = store.begin_instance();
  for (int i = 0; i < 6; ++i) store.record(w2, "b");
  EXPECT_GE(store.num_segments(), 3u);  // capacity 3 still enforced
}

TEST_F(StoreTest, TornTailLineDroppedOnOpen) {
  fs::path tail;
  {
    LogStore store = LogStore::create(dir_, v1_options());
    const Wid w = store.begin_instance();
    store.record(w, "a");
    tail = dir_ / "seg-000001.jsonl";
  }
  // Simulate a crash mid-append: garbage partial line without newline.
  {
    std::ofstream out(tail, std::ios::app);
    out << "{\"lsn\":3,\"wid\":1,\"is_l";  // torn
  }
  LogStore store = LogStore::open(dir_);
  EXPECT_EQ(store.num_records(), 2u);  // torn line dropped
  // open() truncates the torn bytes, so writing continues on a clean line
  // and load() sees exactly the recovered records plus the new one.
  store.record(1, "b");
  const Log log = store.load();
  EXPECT_EQ(log.size(), 3u);
}

TEST_F(StoreTest, TornTailTruncatedMidRecordResumesAtCorrectIsLsn) {
  // Crash simulation the hard way: chop a VALID record in half with
  // resize_file, exactly what a half-flushed page leaves behind.
  Wid w = 0;
  fs::path tail;
  std::uintmax_t full_size = 0;
  {
    LogStore::Options options = v1_options();
    options.records_per_segment = 3;  // the torn segment is not the first
    LogStore store = LogStore::create(dir_, options);
    w = store.begin_instance();
    store.record(w, "a");  // is-lsn 2
    store.record(w, "b");  // is-lsn 3
    store.record(w, "c");  // is-lsn 4, torn below; rolled to segment 2
    EXPECT_EQ(store.num_segments(), 2u);
    tail = dir_ / "seg-000002.jsonl";
    full_size = fs::file_size(tail);
  }
  fs::resize_file(tail, full_size - 7);  // mid-record cut

  LogStore store = LogStore::open(dir_);
  EXPECT_EQ(store.num_records(), 3u);  // START, a, b — torn "c" dropped
  EXPECT_EQ(fs::file_size(tail), 0u);  // torn bytes physically gone

  // Appends resume exactly where the surviving prefix stopped.
  store.record(w, "d");  // must claim is-lsn 4 again
  store.end_instance(w);

  const Log log = store.load();
  EXPECT_EQ(log.size(), 5u);  // START a b d END
  const std::vector<LogRecord> records(log.begin(), log.end());
  EXPECT_TRUE(check_well_formed(records, log.interner()).empty());
  const LogIndex index(log);
  EXPECT_EQ(index.instance_length(w), 5u);
  EXPECT_EQ(index.find(w, 4)->activity, log.activity_symbol("d"));

  QueryEngine engine(log);
  EXPECT_EQ(engine.count("b . d"), 1u);
  EXPECT_FALSE(engine.exists("c"));
}

TEST_F(StoreTest, CorruptMiddleSegmentRejected) {
  {
    LogStore::Options options = v1_options();
    options.records_per_segment = 2;
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    for (int i = 0; i < 4; ++i) store.record(w, "a");
  }
  // Corrupt the FIRST segment (not the tail): open must fail loudly, not
  // silently drop data.
  {
    std::ofstream out(dir_ / "seg-000001.jsonl", std::ios::app);
    out << "garbage line\n";
  }
  EXPECT_THROW(LogStore::open(dir_), IoError);
}

TEST_F(StoreTest, InterleavedInstancesAndQueries) {
  LogStore store = LogStore::create(dir_);
  const Wid w1 = store.begin_instance();
  const Wid w2 = store.begin_instance();
  store.record(w1, "GetRefer");
  store.record(w2, "GetRefer");
  store.record(w1, "GetReimburse");
  store.record(w2, "UpdateRefer");
  store.record(w2, "GetReimburse");
  store.end_instance(w1);
  store.end_instance(w2);

  const Log log = store.load();
  QueryEngine engine(log);
  EXPECT_EQ(engine.count("UpdateRefer -> GetReimburse"), 1u);
  EXPECT_FALSE(engine.exists("GetReimburse -> UpdateRefer"));
}

TEST_F(StoreTest, ManifestIsAtomicallyReplaced) {
  LogStore::Options options;
  options.records_per_segment = 1;
  LogStore store = LogStore::create(dir_, options);
  const Wid w = store.begin_instance();
  store.record(w, "a");  // forces several manifest rewrites
  store.record(w, "b");
  EXPECT_FALSE(fs::exists(dir_ / "MANIFEST.tmp"));
  EXPECT_TRUE(fs::exists(dir_ / "MANIFEST"));
}

// ----- structured open() errors --------------------------------------------

namespace {

/// Runs `fn`, expecting an IoError whose message contains every needle.
template <typename Fn>
void expect_io_error(Fn&& fn, std::initializer_list<std::string> needles) {
  try {
    fn();
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "message '" << what << "' lacks '" << needle << "'";
    }
  }
}

}  // namespace

TEST_F(StoreTest, OpenMissingManifestNamesThePath) {
  fs::create_directories(dir_);  // a directory, but no store inside
  expect_io_error([&] { LogStore::open(dir_); },
                  {"missing", (dir_ / "MANIFEST").string()});
}

TEST_F(StoreTest, OpenEmptyManifestNamesThePath) {
  { LogStore store = LogStore::create(dir_); }
  std::ofstream(dir_ / "MANIFEST", std::ios::trunc);
  expect_io_error([&] { LogStore::open(dir_); },
                  {"empty MANIFEST", (dir_ / "MANIFEST").string()});
}

TEST_F(StoreTest, OpenTruncatedManifestNamesTheMissingField) {
  { LogStore store = LogStore::create(dir_); }
  std::ofstream(dir_ / "MANIFEST", std::ios::trunc) << "wflog-store v1\n";
  expect_io_error([&] { LogStore::open(dir_); },
                  {"records_per_segment", (dir_ / "MANIFEST").string()});
}

TEST_F(StoreTest, OpenMalformedRecordsPerSegmentRejected) {
  { LogStore store = LogStore::create(dir_); }
  std::ofstream(dir_ / "MANIFEST", std::ios::trunc)
      << "wflog-store v1\nrecords_per_segment=abc\nseg-000001.jsonl\n";
  // Must surface as a structured IoError, not std::invalid_argument.
  expect_io_error([&] { LogStore::open(dir_); },
                  {"malformed records_per_segment", "abc"});
}

TEST_F(StoreTest, OpenManifestListingNoSegmentsRejected) {
  { LogStore store = LogStore::create(dir_); }
  std::ofstream(dir_ / "MANIFEST", std::ios::trunc)
      << "wflog-store v1\nrecords_per_segment=100\n";
  expect_io_error([&] { LogStore::open(dir_); }, {"lists no segments"});
}

TEST_F(StoreTest, OpenMissingSegmentNamesThePath) {
  {
    LogStore store = LogStore::create(dir_, v1_options());
    const Wid w = store.begin_instance();
    store.record(w, "a");
    store.end_instance(w);
  }
  fs::remove(dir_ / "seg-000001.jsonl");
  expect_io_error(
      [&] { LogStore::open(dir_); },
      {(dir_ / "seg-000001.jsonl").string(), "listed in MANIFEST but missing"});
}

// ----- fault injection: transient errors, ENOSPC, short writes -------------

namespace {

LogStore::Options fault_options(std::shared_ptr<FileIo> io) {
  LogStore::Options options;
  options.max_io_retries = 2;
  options.retry_backoff = std::chrono::milliseconds{0};
  options.io = std::move(io);
  return options;
}

}  // namespace

TEST_F(StoreTest, TransientWriteErrorIsRetried) {
  auto io = std::make_shared<FaultIo>();
  LogStore store = LogStore::create(dir_, fault_options(io));
  const Wid w = store.begin_instance();
  // The very next op (the record's write) fails once, then recovers; the
  // bounded retry must absorb it without surfacing an error.
  io->set_fault({io->ops() + 1, FaultIo::Fault::Kind::kError, 1});
  store.record(w, "a");
  store.end_instance(w);
  EXPECT_EQ(store.load().size(), 3u);
}

TEST_F(StoreTest, StickyEnospcSurfacesStructuredErrorAndPoisons) {
  auto io = std::make_shared<FaultIo>();
  std::optional<LogStore> store(LogStore::create(dir_, fault_options(io)));
  const Wid w = store->begin_instance();
  store->record(w, "a");
  // Disk full: every op from here on fails, forever.
  io->set_fault(
      {io->ops() + 1, FaultIo::Fault::Kind::kError, FaultIo::Fault::kSticky});
  expect_io_error([&] { store->record(w, "b"); }, {"retries"});
  // Tail recovery could not run either: the store is poisoned and says so.
  EXPECT_TRUE(store->failed());
  expect_io_error([&] { store->record(w, "c"); },
                  {"structural write error", dir_.string()});
  store.reset();  // destructor must swallow the sticky failure

  // "Freeing space": reopen with the real filesystem. Everything that was
  // acknowledged before the disk filled is still there.
  LogStore reopened = LogStore::open(dir_);
  const Log log = reopened.load();
  ASSERT_EQ(log.size(), 2u);  // START + "a"
  const Wid w2 = reopened.begin_instance();
  reopened.record(w2, "after-enospc");
  reopened.end_instance(w2);
  EXPECT_EQ(reopened.load().size(), 5u);
}

TEST_F(StoreTest, ShortWriteIsContinuedToCompletion) {
  auto io = std::make_shared<FaultIo>();
  LogStore store = LogStore::create(dir_, fault_options(io));
  const Wid w = store.begin_instance();
  // The record's write accepts only half its bytes; write_all must loop.
  io->set_fault({io->ops() + 1, FaultIo::Fault::Kind::kShortWrite});
  store.record(w, "an-activity-name-long-enough-to-split");
  store.end_instance(w);

  const Log log = LogStore::open(dir_).load();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.activity_name(log.record(2).activity),
            "an-activity-name-long-enough-to-split");
}

// ----- corruption: checksums + quarantine recovery -------------------------

namespace {

/// Flips one JSON character of the `line`-th line (0-based) of `path`,
/// invalidating that record's CRC without touching the framing.
void corrupt_line(const fs::path& path, std::size_t line) {
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    data = ss.str();
  }
  std::size_t pos = 0;
  for (std::size_t i = 0; i < line; ++i) pos = data.find('\n', pos) + 1;
  const std::size_t colon = data.find("\"wid\"", pos);
  ASSERT_NE(colon, std::string::npos);
  data[colon + 1] = 'X';  // "wid" -> "Xid": parse/CRC must notice
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;
}

}  // namespace

TEST_F(StoreTest, ChecksumDetectsBitFlipInCompleteRecord) {
  {
    LogStore store = LogStore::create(dir_, v1_options());
    const Wid w = store.begin_instance();
    store.record(w, "a");
    store.record(w, "b");
    store.end_instance(w);
  }
  corrupt_line(dir_ / "seg-000001.jsonl", 1);  // a complete, non-final line
  expect_io_error([&] { LogStore::open(dir_); },
                  {"corrupt record", (dir_ / "seg-000001.jsonl").string(),
                   "quarantine_corruption"});
}

TEST_F(StoreTest, QuarantineRecoversReadablePrefix) {
  LogStore::Options options = v1_options();
  options.records_per_segment = 2;
  {
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    for (const char* a : {"a", "b", "c", "d"}) store.record(w, a);
    store.end_instance(w);  // 6 records -> 3 segments
  }
  corrupt_line(dir_ / "seg-000002.jsonl", 0);  // mid-store corruption

  LogStore::Options recover = options;
  recover.quarantine_corruption = true;
  RecoveryReport report;
  {
    LogStore store = LogStore::open(dir_, recover, &report);
    // Readable prefix: START + "a" from segment 1; everything from the
    // corrupt byte onward (4 record lines) was quarantined.
    EXPECT_EQ(store.num_records(), 2u);
    EXPECT_EQ(report.records_dropped, 4u);
    EXPECT_EQ(report.segments_quarantined, 2u);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(fs::exists(dir_ / "QUARANTINE-000001"));
    ASSERT_FALSE(report.notes.empty());

    // The recovered store accepts appends again (instance 1 is open: its
    // END record was quarantined with the suffix).
    store.record(1, "replayed-b");
    store.end_instance(1);
  }

  // The quarantined store is clean now: a strict reopen succeeds.
  RecoveryReport second;
  LogStore store = LogStore::open(dir_, options, &second);
  EXPECT_TRUE(second.clean());
  const Log log = store.load();
  ASSERT_EQ(log.size(), 4u);  // START, a, replayed-b, END
  EXPECT_EQ(log.activity_name(log.record(3).activity), "replayed-b");
}

}  // namespace
}  // namespace wflog
