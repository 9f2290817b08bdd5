// The v2 segment format suite: DEFLATE codec properties, block/footer
// framing, torn-vs-corrupt classification, sealed-reopen fast path,
// compaction, and the zone-map pruning soundness harness (random logs x
// random patterns, pruned vs unpruned incident sets must be identical).

#include "log/segfmt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if WFLOG_HAVE_ZLIB
#include <zlib.h>
#endif

#include "common/crc32.h"
#include "common/error.h"
#include "core/engine.h"
#include "core/parser.h"
#include "core/pattern.h"
#include "log/compress.h"
#include "log/io_jsonl.h"
#include "log/store.h"
#include "log/validate.h"
#include "log/zonemap.h"
#include "obs/telemetry.h"

namespace wflog {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

void write_file(const fs::path& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Deterministic xorshift64* — test-local randomness, stable across runs.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 2685821657736338717ULL + 1) {}
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 2685821657736338717ULL;
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

// ----- codec ---------------------------------------------------------------

TEST(Compress, RoundTripsRepresentativePayloads) {
  Rng rng(7);
  std::vector<std::string> payloads;
  payloads.emplace_back();                    // empty
  payloads.emplace_back("x");                 // single byte
  payloads.emplace_back(100'000, 'a');        // long run
  {
    std::string jsonl;                        // realistic store lines
    for (int i = 0; i < 500; ++i) {
      jsonl += "{\"lsn\":" + std::to_string(i + 1) +
               ",\"wid\":" + std::to_string(i % 7 + 1) +
               ",\"activity\":\"CheckIn\",\"in\":{},\"out\":{}}\n";
    }
    payloads.push_back(std::move(jsonl));
  }
  {
    std::string random(70'000, '\0');         // incompressible
    for (char& c : random) c = static_cast<char>(rng.next() & 0xff);
    payloads.push_back(std::move(random));
  }
  for (const std::string& p : payloads) {
    const std::string packed = deflate_compress(p);
    EXPECT_EQ(deflate_decompress(packed, p.size()), p);
  }
}

TEST(Compress, CompressesRedundantText) {
  std::string jsonl;
  for (int i = 0; i < 1000; ++i) {
    jsonl += "{\"activity\":\"GetReimburse\",\"in\":{},\"out\":{}}\n";
  }
  const std::string packed = deflate_compress(jsonl);
  EXPECT_LT(packed.size(), jsonl.size() / 5);  // highly repetitive input
}

TEST(Compress, RejectsTruncationCorruptionAndSizeLies) {
  const std::string original(4096, 'z');
  const std::string packed = deflate_compress(original);
  // Truncation at every prefix must error, never return wrong data.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, packed.size() / 2,
                          packed.size() - 1}) {
    EXPECT_THROW(deflate_decompress(packed.substr(0, cut), original.size()),
                 InflateError)
        << "cut at " << cut;
  }
  // Declared-size mismatch in both directions.
  EXPECT_THROW(deflate_decompress(packed, original.size() - 1), InflateError);
  EXPECT_THROW(deflate_decompress(packed, original.size() + 1), InflateError);
  // Trailing garbage after the final block.
  EXPECT_THROW(deflate_decompress(packed + "junk", original.size()),
               InflateError);
}

#if WFLOG_HAVE_ZLIB
TEST(Compress, CrossValidatesAgainstZlib) {
  Rng rng(99);
  std::vector<std::string> payloads;
  {
    std::string jsonl;
    for (int i = 0; i < 800; ++i) {
      jsonl += "{\"lsn\":" + std::to_string(i) +
               ",\"activity\":\"SeeDoctor\",\"in\":{},\"out\":{}}\n";
    }
    payloads.push_back(std::move(jsonl));
  }
  {
    std::string random(50'000, '\0');
    for (char& c : random) c = static_cast<char>(rng.next() & 0xff);
    payloads.push_back(std::move(random));
  }
  payloads.emplace_back();  // empty stream

  for (const std::string& original : payloads) {
    // Ours -> zlib: our streams are conforming raw-deflate.
    {
      const std::string packed = deflate_compress(original);
      z_stream zs{};
      ASSERT_EQ(inflateInit2(&zs, -15), Z_OK);  // -15: raw, no zlib header
      std::string out(original.size() + 64, '\0');
      zs.next_in =
          reinterpret_cast<Bytef*>(const_cast<char*>(packed.data()));
      zs.avail_in = static_cast<uInt>(packed.size());
      zs.next_out = reinterpret_cast<Bytef*>(out.data());
      zs.avail_out = static_cast<uInt>(out.size());
      const int rc = inflate(&zs, Z_FINISH);
      EXPECT_EQ(rc, Z_STREAM_END);
      out.resize(zs.total_out);
      inflateEnd(&zs);
      EXPECT_EQ(out, original);
    }
    // zlib -> ours: our inflater accepts any conforming raw stream within
    // its declared subset (stored + fixed-Huffman blocks; dynamic-Huffman
    // is rejected loudly, never misdecoded). Z_FIXED forces zlib to emit
    // fixed-Huffman codes with full LZ77 matching — far richer
    // match/length streams than our own writer produces — and level 0
    // exercises the stored-block path.
    for (const auto& [level, strategy] :
         {std::pair{Z_BEST_COMPRESSION, Z_FIXED},
          std::pair{Z_NO_COMPRESSION, Z_DEFAULT_STRATEGY}}) {
      z_stream zs{};
      ASSERT_EQ(deflateInit2(&zs, level, Z_DEFLATED, -15, 8, strategy),
                Z_OK);
      std::string packed(deflateBound(&zs, original.size()), '\0');
      zs.next_in =
          reinterpret_cast<Bytef*>(const_cast<char*>(original.data()));
      zs.avail_in = static_cast<uInt>(original.size());
      zs.next_out = reinterpret_cast<Bytef*>(packed.data());
      zs.avail_out = static_cast<uInt>(packed.size());
      ASSERT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
      packed.resize(zs.total_out);
      deflateEnd(&zs);
      EXPECT_EQ(deflate_decompress(packed, original.size()), original);
    }
  }
}
#endif  // WFLOG_HAVE_ZLIB

/// Writes raw deflate bits LSB-first, Huffman codes MSB-first — for
/// hand-built malformed streams.
struct TestBits {
  std::string out;
  std::uint64_t acc = 0;
  unsigned filled = 0;
  void bits(std::uint32_t value, unsigned n) {
    acc |= static_cast<std::uint64_t>(value) << filled;
    filled += n;
    while (filled >= 8) {
      out.push_back(static_cast<char>(acc & 0xFFu));
      acc >>= 8;
      filled -= 8;
    }
  }
  void code(std::uint32_t value, unsigned n) {
    for (unsigned i = n; i-- > 0;) bits((value >> i) & 1u, 1);
  }
  std::string done() {
    if (filled > 0) bits(0, 8 - filled);
    return out;
  }
};

std::string inflate_error(std::string_view stream, std::size_t declared) {
  try {
    deflate_decompress(stream, declared);
  } catch (const InflateError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Compress, EveryMalformedStreamKeepsItsMessage) {
  // Fixed-Huffman final block header: BFINAL=1, BTYPE=01.
  const auto fixed = [] {
    TestBits b;
    b.bits(1, 1);
    b.bits(1, 2);
    return b;
  };
  {  // reserved length code 286 (8-bit code 0xC0 + 6)
    TestBits b = fixed();
    b.code(0xC6, 8);
    EXPECT_EQ(inflate_error(b.done(), 10),
              "inflate: reserved length code 286");
  }
  {  // literal 'a', then length 3 with reserved distance code 30
    TestBits b = fixed();
    b.code(0x30 + 'a', 8);
    b.code(0x01, 7);
    b.code(30, 5);
    EXPECT_EQ(inflate_error(b.done(), 10),
              "inflate: reserved distance code 30");
  }
  {  // a back-reference as the first symbol
    TestBits b = fixed();
    b.code(0x01, 7);
    b.code(0, 5);
    EXPECT_EQ(inflate_error(b.done(), 10),
              "inflate: back-reference before start of output (dist 1, "
              "have 0)");
  }
  {  // truncated mid-symbol and out of bits
    TestBits b = fixed();
    b.code(0x30 + 'a', 8);
    EXPECT_EQ(inflate_error(b.done(), 10),
              "inflate: truncated stream mid-symbol");
    EXPECT_EQ(inflate_error("", 10),
              "inflate: truncated stream (out of input bits)");
  }
  const std::string run(300, 'q');  // literal + overlapping matches
  const std::string packed = deflate_compress(run);
  EXPECT_EQ(inflate_error(packed, 299),
            "inflate: output exceeds declared size 299");
  EXPECT_EQ(inflate_error(packed, 301),
            "inflate: output size 300 != declared 301");
  EXPECT_EQ(inflate_error(packed + "x", 300),
            "inflate: trailing garbage after final block");
  // A declared size far beyond what the input can inflate to is the same
  // size error, not a buffer of that size.
  EXPECT_EQ(inflate_error(packed, 0xFFFFFFFFu),
            "inflate: output size 300 != declared 4294967295");
  {  // stored blocks: LEN/~LEN, truncation, size
    const std::string stored = std::string("\x01\x05\x00\xfa\xff", 5) + "hello";
    EXPECT_EQ(deflate_decompress(stored, 5), "hello");
    EXPECT_EQ(inflate_error(stored.substr(0, 7), 5),
              "inflate: truncated stored block");
    EXPECT_EQ(inflate_error(stored, 4),
              "inflate: output exceeds declared size 4");
    std::string bad = stored;
    bad[3] = 0;
    EXPECT_EQ(inflate_error(bad, 5),
              "inflate: stored block LEN/~LEN mismatch");
  }
  EXPECT_EQ(inflate_error(std::string(1, '\x05'), 1),
            "inflate: dynamic-Huffman block (not produced by this writer)");
  EXPECT_EQ(inflate_error(std::string(1, '\x07'), 1),
            "inflate: reserved block type 3");
}

// ----- checksum ------------------------------------------------------------

/// Byte-at-a-time CRC-32, the definition the sliced kernel must match.
std::uint32_t crc32_reference(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheCheckValueAndTheBytewiseDefinition) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  Rng rng(5);
  std::string buf(72, '\0');
  for (char& c : buf) c = static_cast<char>(rng.next() & 0xff);
  // Every length 0..64 at every start offset 0..7: all head/tail splits
  // around the 8-byte steps.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view view = std::string_view(buf).substr(offset, len);
      ASSERT_EQ(crc32(view), crc32_reference(view))
          << "offset " << offset << " length " << len;
    }
  }
}

#if WFLOG_HAVE_ZLIB
TEST(Crc32, AgreesWithZlib) {
  Rng rng(11);
  for (int round = 0; round < 50; ++round) {
    std::string buf(rng.below(5000), '\0');
    for (char& c : buf) c = static_cast<char>(rng.next() & 0xff);
    const uLong want = ::crc32(
        ::crc32(0L, Z_NULL, 0), reinterpret_cast<const Bytef*>(buf.data()),
        static_cast<uInt>(buf.size()));
    ASSERT_EQ(crc32(buf), static_cast<std::uint32_t>(want))
        << "length " << buf.size();
  }
}
#endif  // WFLOG_HAVE_ZLIB

// ----- zone maps -----------------------------------------------------------

TEST(ZoneMap, BloomNeverFalseNegative) {
  ActivityBloom bloom = ActivityBloom::sized_for(16);
  const std::vector<std::string> in = {"CheckIn", "SeeDoctor", "Pay", "END"};
  for (const std::string& a : in) bloom.add(a);
  for (const std::string& a : in) EXPECT_TRUE(bloom.may_contain(a));
  // Round-trip through serialized words preserves answers.
  ActivityBloom copy = ActivityBloom::from_words(bloom.words());
  for (const std::string& a : in) EXPECT_TRUE(copy.may_contain(a));
  // Not everything passes (sanity that bits are actually selective).
  std::size_t admitted = 0;
  for (int i = 0; i < 200; ++i) {
    if (bloom.may_contain("absent-" + std::to_string(i))) ++admitted;
  }
  EXPECT_LT(admitted, 40u);
}

TEST(ZoneMap, WidIntervalsSetAlgebra) {
  WidIntervals a;
  a.add(5, 9);
  a.add(1, 2);
  a.add(8, 12);  // overlaps [5,9]
  a.add(3, 3);   // adjacent to [1,2]
  a.normalize();
  ASSERT_EQ(a.intervals().size(), 2u);  // [1,3] [5,12]
  EXPECT_TRUE(a.contains(1) && a.contains(3) && a.contains(7) &&
              a.contains(12));
  EXPECT_FALSE(a.contains(4));
  EXPECT_TRUE(a.overlaps(4, 5));
  EXPECT_FALSE(a.overlaps(4, 4));

  WidIntervals b;
  b.add(3, 6);
  b.normalize();
  const WidIntervals both = WidIntervals::intersect(a, b);
  ASSERT_EQ(both.intervals().size(), 2u);  // [3,3] [5,6]
  EXPECT_TRUE(both.contains(3) && both.contains(5) && both.contains(6));
  EXPECT_FALSE(both.contains(4));

  const WidIntervals either = WidIntervals::unite(a, b);
  ASSERT_EQ(either.intervals().size(), 1u);  // [1,12]
  EXPECT_TRUE(either.contains(4));
}

TEST(ZoneMap, FooterEncodeDecodeRoundTrip) {
  SegmentFooter footer;
  for (int i = 0; i < 3; ++i) {
    BlockZone z;
    z.file_offset = 8 + static_cast<std::uint64_t>(i) * 100;
    z.compressed_size = 64 + static_cast<std::uint32_t>(i);
    z.uncompressed_size = 256;
    z.codec = 1;
    z.record_count = 10;
    z.wid_min = static_cast<std::uint64_t>(i) * 5 + 1;
    z.wid_max = z.wid_min + 4;
    z.lsn_min = static_cast<std::uint64_t>(i) * 10 + 1;
    z.lsn_max = z.lsn_min + 9;
    z.payload_crc = 0xdeadbeef;
    z.bloom.add("activity-" + std::to_string(i));
    footer.blocks.push_back(std::move(z));
  }
  footer.next_is_lsn = {{1, 4}, {2, 0}, {9, 7}};
  footer.record_count = 30;

  const SegmentFooter decoded = SegmentFooter::decode(footer.encode());
  EXPECT_EQ(decoded.record_count, 30u);
  EXPECT_EQ(decoded.next_is_lsn, footer.next_is_lsn);
  ASSERT_EQ(decoded.blocks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.blocks[i].file_offset, footer.blocks[i].file_offset);
    EXPECT_EQ(decoded.blocks[i].payload_crc, footer.blocks[i].payload_crc);
    EXPECT_TRUE(decoded.blocks[i].bloom.may_contain(
        "activity-" + std::to_string(i)));
  }
  // Structural damage is rejected, not misparsed.
  const std::string body = footer.encode();
  EXPECT_THROW(SegmentFooter::decode(body.substr(0, body.size() - 3)),
               IoError);
  EXPECT_THROW(SegmentFooter::decode(body + "x"), IoError);
}

// ----- block framing + scan classification ---------------------------------

namespace {

/// A block of `n` synthetic records starting at (wid, lsn) — activity
/// names cycle through `acts`.
EncodedBlock make_block(std::uint64_t file_offset, std::uint64_t wid,
                        std::uint64_t lsn0, int n,
                        const std::vector<std::string>& acts) {
  BlockBuilder builder;
  Interner interner;
  for (int i = 0; i < n; ++i) {
    LogRecord l;
    l.lsn = lsn0 + static_cast<std::uint64_t>(i);
    l.wid = wid;
    l.is_lsn = static_cast<IsLsn>(i + 1);
    const std::string& act = acts[static_cast<std::size_t>(i) % acts.size()];
    l.activity = interner.intern(act);
    const std::string line = to_store_line(l, interner);
    builder.add(l, act, std::string_view(line).substr(0, line.size() - 1));
  }
  return builder.encode(file_offset);
}

}  // namespace

TEST(SegScan, CleanFileRoundTrips) {
  std::string file{kSegV2FileMagic};
  const EncodedBlock b1 =
      make_block(file.size(), 1, 1, 20, {"START", "a", "b", "END"});
  file += b1.bytes;
  const EncodedBlock b2 = make_block(file.size(), 2, 21, 5, {"START", "c"});
  file += b2.bytes;

  const BlockScan scan = scan_v2_blocks(file);
  EXPECT_FALSE(scan.torn);
  EXPECT_TRUE(scan.corrupt_reason.empty());
  EXPECT_EQ(scan.good_bytes, file.size());
  ASSERT_EQ(scan.zones.size(), 2u);
  EXPECT_EQ(scan.zones[0].record_count, 20u);
  EXPECT_EQ(scan.zones[0].wid_min, 1u);
  EXPECT_EQ(scan.zones[1].wid_max, 2u);
  EXPECT_TRUE(scan.zones[0].bloom.may_contain("a"));
  EXPECT_FALSE(scan.zones[1].bloom.may_contain("a"));

  // read_v2_block_payload agrees with the scan's payloads.
  EXPECT_EQ(read_v2_block_payload(file, scan.zones[0]), scan.payloads[0]);
  EXPECT_EQ(read_v2_block_payload(file, scan.zones[1]), scan.payloads[1]);
}

TEST(SegScan, ClassifiesTearingVsCorruption) {
  std::string file{kSegV2FileMagic};
  const EncodedBlock b1 = make_block(file.size(), 1, 1, 8, {"START", "a"});
  file += b1.bytes;
  const std::size_t clean = file.size();

  // (1) A few garbage bytes (< header size): always a tear.
  {
    BlockScan s = scan_v2_blocks(file + "abc");
    EXPECT_TRUE(s.torn);
    EXPECT_TRUE(s.corrupt_reason.empty());
    EXPECT_EQ(s.good_bytes, clean);
  }
  // (2) A full-length garbage region that fingerprints as neither a block
  // header nor this segment's footer: corruption (silent truncation here
  // would drop acknowledged data).
  {
    BlockScan s = scan_v2_blocks(file + std::string(64, '\xaa'));
    EXPECT_FALSE(s.torn);
    EXPECT_FALSE(s.corrupt_reason.empty());
    EXPECT_EQ(s.good_bytes, clean);
  }
  // (3) A valid header whose payload was cut: a tear.
  {
    const EncodedBlock b2 = make_block(clean, 2, 9, 8, {"START", "b"});
    const std::string torn =
        file + b2.bytes.substr(0, kSegV2BlockHeaderSize + 3);
    BlockScan s = scan_v2_blocks(torn);
    EXPECT_TRUE(s.torn);
    EXPECT_TRUE(s.corrupt_reason.empty());
    EXPECT_EQ(s.good_bytes, clean);
  }
  // (4) A torn FOOTER — starts with this segment's record/zone counts —
  // is a tear (crash mid-seal), even at >= header size.
  {
    SegmentFooter footer;
    footer.blocks.push_back(b1.zone);
    footer.record_count = 8;
    const std::string encoded = encode_v2_footer(footer);
    BlockScan s = scan_v2_blocks(file + encoded.substr(0, 40));
    EXPECT_TRUE(s.torn);
    EXPECT_TRUE(s.corrupt_reason.empty());
    EXPECT_EQ(s.good_bytes, clean);
  }
  // (5) A complete block whose payload was bit-flipped: corruption.
  {
    std::string flipped = file;
    flipped[flipped.size() - 3] ^= 0x40;
    BlockScan s = scan_v2_blocks(flipped);
    EXPECT_FALSE(s.torn);
    EXPECT_FALSE(s.corrupt_reason.empty());
    EXPECT_EQ(s.good_bytes, kSegV2FileMagic.size());
  }
  // (6) A complete, sealed file parses via the footer fast path and the
  // footer tiles exactly.
  {
    SegmentFooter footer;
    footer.blocks.push_back(b1.zone);
    footer.record_count = 8;
    footer.next_is_lsn = {{1, 9}};
    const std::string sealed = file + encode_v2_footer(footer);
    const auto fr = try_read_v2_footer(sealed);
    ASSERT_TRUE(fr.has_value());
    EXPECT_EQ(fr->footer.record_count, 8u);
    EXPECT_EQ(fr->footer_start, clean);
    // A flipped footer byte fails the footer CRC -> no fast path.
    std::string bad = sealed;
    bad[clean + 2] ^= 1;
    EXPECT_FALSE(try_read_v2_footer(bad).has_value());
  }
}

// ----- store-level v2 behavior --------------------------------------------

class SegStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wflog-segfmt-test-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static LogStore::Options fast_options() {
    LogStore::Options options;
    options.fsync_policy = FsyncPolicy::kOff;  // keep the suite quick
    return options;
  }

  fs::path dir_;
};

TEST_F(SegStoreTest, V2SegmentsRollSealAndReload) {
  LogStore::Options options = fast_options();
  options.records_per_segment = 5;
  {
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    for (int i = 0; i < 12; ++i) store.record(w, "a");
    EXPECT_EQ(store.num_records(), 13u);
    EXPECT_EQ(store.num_segments(), 3u);
    EXPECT_EQ(store.load().size(), 13u);  // includes the pending buffer
  }
  std::size_t wfseg = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".wfseg") ++wfseg;
  }
  EXPECT_EQ(wfseg, 3u);
  // Rolled-over segments are sealed: their footers parse standalone.
  EXPECT_TRUE(
      try_read_v2_footer(read_file(dir_ / "seg-000001.wfseg")).has_value());
  EXPECT_TRUE(
      try_read_v2_footer(read_file(dir_ / "seg-000002.wfseg")).has_value());

  LogStore reopened = LogStore::open(dir_, fast_options());
  EXPECT_EQ(reopened.num_records(), 13u);
  const Log log = reopened.load();
  EXPECT_EQ(log.size(), 13u);
  const std::vector<LogRecord> records(log.begin(), log.end());
  EXPECT_TRUE(check_well_formed(records, log.interner()).empty());
  // Appends resume against the recovered instance state.
  reopened.record(1, "b");
  reopened.end_instance(1);
  EXPECT_EQ(reopened.load().size(), 15u);
}

TEST_F(SegStoreTest, SealedReopenSkipsBlockScan) {
  LogStore::Options options = fast_options();
  options.records_per_segment = 4;
  {
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    for (int i = 0; i < 11; ++i) store.record(w, "a");  // 3 segments
  }
  obs::Telemetry t;
  obs::ScopedTelemetry scope(t);
  LogStore store = LogStore::open(dir_, fast_options());
  // Two sealed segments took the footer fast path; zero blocks inflated.
  EXPECT_EQ(t.store_sealed_reopen_skips_total->value(), 2u);
  EXPECT_EQ(t.store_blocks_read_total->value(), 0u);
  EXPECT_EQ(store.num_records(), 12u);
  // Payload CRCs still guard the actual reads.
  EXPECT_EQ(store.load().size(), 12u);
  EXPECT_GT(t.store_blocks_read_total->value(), 0u);
}

TEST_F(SegStoreTest, TornV2TailTruncatedOnOpen) {
  LogStore::Options options = fast_options();
  options.block_target_bytes = 1;  // one block per record
  fs::path tail;
  {
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    for (const char* a : {"a", "b", "c", "d"}) store.record(w, a);
    tail = dir_ / "seg-000001.wfseg";
  }
  const std::uintmax_t full = fs::file_size(tail);
  fs::resize_file(tail, full - 7);  // cut into the final block

  LogStore store = LogStore::open(dir_, fast_options());
  EXPECT_EQ(store.num_records(), 4u);  // START a b c — torn "d" dropped
  EXPECT_TRUE(store.recovery_report().torn_tail_truncated);
  EXPECT_LT(fs::file_size(tail), full - 7);  // torn bytes physically gone
  // Appends resume exactly where the durable prefix stopped.
  store.record(1, "d2");
  store.end_instance(1);
  const Log log = store.load();
  EXPECT_EQ(log.size(), 6u);
  const std::vector<LogRecord> records(log.begin(), log.end());
  EXPECT_TRUE(check_well_formed(records, log.interner()).empty());
}

TEST_F(SegStoreTest, TornFooterRecoveredBlockByBlock) {
  LogStore::Options options = fast_options();
  options.block_target_bytes = 1;
  fs::path tail;
  {
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    for (const char* a : {"a", "b"}) store.record(w, a);
    tail = dir_ / "seg-000001.wfseg";
  }
  // Simulate a crash mid-seal: append a PREFIX of a real footer.
  {
    const std::string data = read_file(tail);
    const BlockScan scan = scan_v2_blocks(data);
    ASSERT_FALSE(scan.torn);
    SegmentFooter footer;
    footer.blocks = scan.zones;
    footer.record_count = 3;
    footer.next_is_lsn = {{1, 4}};
    const std::string encoded = encode_v2_footer(footer);
    write_file(tail, data + encoded.substr(0, encoded.size() / 2));
  }
  obs::Telemetry t;
  obs::ScopedTelemetry scope(t);
  LogStore store = LogStore::open(dir_, fast_options());
  EXPECT_EQ(store.num_records(), 3u);  // every block survived
  EXPECT_TRUE(store.recovery_report().torn_tail_truncated);
  EXPECT_GT(t.store_footer_recoveries_total->value(), 0u);
  store.record(1, "c");
  EXPECT_EQ(store.load().size(), 4u);
}

TEST_F(SegStoreTest, GarbageTailIsCorruptionNotTearing) {
  LogStore::Options options = fast_options();
  {
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    store.record(w, "a");
    store.sync();
  }
  const fs::path tail = dir_ / "seg-000001.wfseg";
  // 64 bytes that are neither a block header nor this segment's footer:
  // open must refuse (truncating here could hide real corruption) ...
  write_file(tail, read_file(tail) + std::string(64, '\xcc'));
  EXPECT_THROW(LogStore::open(dir_, fast_options()), IoError);
  // ... unless quarantine recovery is asked for, which keeps the prefix.
  LogStore::Options recover = fast_options();
  recover.quarantine_corruption = true;
  RecoveryReport report;
  LogStore store = LogStore::open(dir_, recover, &report);
  EXPECT_EQ(store.num_records(), 2u);
  EXPECT_GT(report.bytes_quarantined, 0u);
  store.record(1, "b");
  EXPECT_EQ(store.load().size(), 3u);
}

TEST_F(SegStoreTest, CorruptSealedBlockDetectedAtReadTime) {
  LogStore::Options options = fast_options();
  options.records_per_segment = 3;
  {
    LogStore store = LogStore::create(dir_, options);
    const Wid w = store.begin_instance();
    for (int i = 0; i < 5; ++i) store.record(w, "a");  // seg 1 sealed
  }
  // Flip a payload byte inside the sealed first segment. The footer fast
  // path (by design) does not re-CRC payloads, so open succeeds ...
  const fs::path seg = dir_ / "seg-000001.wfseg";
  std::string data = read_file(seg);
  data[kSegV2FileMagic.size() + kSegV2BlockHeaderSize + 2] ^= 0x10;
  write_file(seg, data);
  LogStore store = LogStore::open(dir_, fast_options());
  // ... and the per-block CRC catches the damage on first read.
  EXPECT_THROW(store.load(), IoError);
}

TEST_F(SegStoreTest, CompactionRewritesV1HistoryIntoSealedV2) {
  LogStore::Options v1 = fast_options();
  v1.segment_format = SegmentFormat::kV1Jsonl;
  v1.records_per_segment = 16;
  {
    LogStore store = LogStore::create(dir_, v1);
    for (int w = 0; w < 30; ++w) {
      const Wid wid = store.begin_instance();
      store.record(wid, "CheckIn");
      store.record(wid, "SeeDoctor", {{"fee", Value{std::int64_t{40}}}});
      store.end_instance(wid);
    }
  }
  // A stray file from a hypothetical crashed roll: vacuumed by compaction.
  write_file(dir_ / "seg-009999.jsonl", "orphan\n");

  const Log before = LogStore::open(dir_, fast_options()).load();
  const LogStore::CompactionReport report = LogStore::compact(dir_);
  EXPECT_EQ(report.records, before.size());
  EXPECT_GT(report.blocks_written, 0u);
  EXPECT_LT(report.bytes_after, report.bytes_before);
  EXPECT_FALSE(fs::exists(dir_ / "seg-009999.jsonl"));

  // Every live segment is now sealed v2; the log is unchanged.
  LogStore store = LogStore::open(dir_, fast_options());
  const LogStore::StorageStats stats = store.storage_stats();
  EXPECT_EQ(stats.segments_v1, 0u);
  EXPECT_GT(stats.segments_v2, 0u);
  EXPECT_GT(stats.sealed_blocks, 0u);
  EXPECT_LT(stats.compressed_payload_bytes, stats.uncompressed_payload_bytes);
  const Log after = store.load();
  ASSERT_EQ(after.size(), before.size());
  for (Lsn n = 1; n <= after.size(); ++n) {
    EXPECT_EQ(after.activity_name(after.record(n).activity),
              before.activity_name(before.record(n).activity));
    EXPECT_EQ(after.record(n).wid, before.record(n).wid);
    EXPECT_EQ(after.record(n).is_lsn, before.record(n).is_lsn);
  }
  // Idempotent: compacting a compacted store keeps the same records.
  const LogStore::CompactionReport again = LogStore::compact(dir_);
  EXPECT_EQ(again.records, before.size());
  EXPECT_EQ(LogStore::open(dir_, fast_options()).load().size(),
            before.size());
  // The compacted store keeps accepting appends.
  LogStore writable = LogStore::open(dir_, fast_options());
  const Wid w = writable.begin_instance();
  writable.record(w, "after-compaction");
  writable.end_instance(w);
  EXPECT_EQ(writable.load().size(), before.size() + 3);
}

TEST_F(SegStoreTest, CompactionOfEmptyStoreIsANoOp) {
  { LogStore store = LogStore::create(dir_, fast_options()); }
  const LogStore::CompactionReport report = LogStore::compact(dir_);
  EXPECT_EQ(report.records, 0u);
  LogStore store = LogStore::open(dir_, fast_options());
  EXPECT_EQ(store.num_records(), 0u);
  const Wid w = store.begin_instance();
  store.end_instance(w);
  EXPECT_EQ(store.load().size(), 2u);
}

// ----- zone-map pruning: soundness -----------------------------------------

namespace {

/// Store shaped to produce many small sealed blocks so pruning has real
/// decisions to make.
LogStore::Options pruning_options() {
  LogStore::Options options;
  options.fsync_policy = FsyncPolicy::kOff;
  options.records_per_segment = 16;
  options.block_target_bytes = 192;  // a handful of records per block
  return options;
}

const std::vector<std::string> kAlphabet = {"Alpha", "Bravo", "Charlie",
                                            "Delta", "Echo",  "Foxtrot",
                                            "Golf",  "Hotel"};

/// Writes a random log: `instances` workflows, each 1..6 records over a
/// per-instance 3-activity sub-alphabet (so blocks get selective blooms),
/// ~1 in 5 instances left open.
void fill_random(LogStore& store, Rng& rng, std::size_t instances) {
  for (std::size_t i = 0; i < instances; ++i) {
    const Wid w = store.begin_instance();
    const std::size_t base = rng.below(kAlphabet.size());
    const std::size_t len = 1 + rng.below(6);
    for (std::size_t r = 0; r < len; ++r) {
      store.record(w, kAlphabet[(base + rng.below(3)) % kAlphabet.size()]);
    }
    if (rng.below(5) != 0) store.end_instance(w);
  }
}

const std::vector<std::string> kPatterns = {
    "Alpha",
    "Hotel",
    "Alpha -> Bravo",
    "Charlie . Delta",
    "Alpha | Echo",
    "Bravo & Charlie",
    "!Alpha -> Bravo",
    "(Alpha -> Bravo) | (Charlie -> Delta)",
    "Alpha -> (Bravo | Charlie)",
    "Alpha & (Bravo | Delta)",
    "!Charlie . Alpha",
    "Echo -> Echo",
};

}  // namespace

TEST_F(SegStoreTest, PrunedLoadsYieldIdenticalIncidentSets) {
  // >= 200 random (log, pattern) combinations: evaluating over the pruned
  // load must give incident sets identical to evaluating over the full
  // load — pruning is invisible to query semantics.
  std::size_t combos = 0;
  std::size_t skipped_blocks_total = 0;
  for (std::uint64_t seed = 1; seed <= 18; ++seed) {
    const fs::path dir = dir_ / ("log-" + std::to_string(seed));
    Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    LogStore store = LogStore::create(dir, pruning_options());
    fill_random(store, rng, 8 + rng.below(20));
    store.sync();

    const Log full = store.load();
    QueryEngine full_engine(full);
    for (const std::string& text : kPatterns) {
      const PatternPtr pattern = parse_pattern(text);
      const LogStore::PrunedLoad pruned =
          store.load_pruned(required_activities(*pattern));
      skipped_blocks_total += pruned.blocks_skipped;
      ASSERT_EQ(pruned.blocks_read + pruned.blocks_skipped,
                pruned.blocks_total);

      // The pruned load is itself a well-formed log.
      const std::vector<LogRecord> records(pruned.log.begin(),
                                           pruned.log.end());
      ASSERT_TRUE(check_well_formed(records, pruned.log.interner()).empty())
          << "seed " << seed << " pattern '" << text << "'";

      QueryEngine pruned_engine(pruned.log);
      const QueryResult want = full_engine.run(text);
      const QueryResult got = pruned_engine.run(text);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(want.incidents, got.incidents)
          << "seed " << seed << " pattern '" << text << "'";
      ++combos;
    }
  }
  EXPECT_GE(combos, 200u);
  // The suite must actually exercise skipping, not vacuously pass.
  EXPECT_GT(skipped_blocks_total, 0u);
}

TEST_F(SegStoreTest, PruningEdgeCases) {
  // Empty store: load_pruned of anything is an empty, unpruned-safe log.
  {
    const fs::path dir = dir_ / "empty";
    LogStore store = LogStore::create(dir, pruning_options());
    const LogStore::PrunedLoad pruned = store.load_pruned({"Alpha"});
    EXPECT_TRUE(pruned.log.empty());
    EXPECT_EQ(pruned.records_kept, 0u);
  }
  // Single-record instances and an all-one-activity store: the required
  // activity appears in every block, so nothing is skipped and nothing
  // is lost.
  {
    const fs::path dir = dir_ / "uniform";
    LogStore store = LogStore::create(dir, pruning_options());
    for (int i = 0; i < 30; ++i) {
      const Wid w = store.begin_instance();
      store.record(w, "Alpha");
      store.end_instance(w);
    }
    store.sync();
    const LogStore::PrunedLoad pruned = store.load_pruned({"Alpha"});
    EXPECT_EQ(pruned.log.size(), store.load().size());
    // A required activity nowhere in the store prunes everything sealed.
    const LogStore::PrunedLoad none = store.load_pruned({"Zulu"});
    QueryEngine engine(none.log);
    EXPECT_FALSE(engine.exists("Zulu"));
  }
  // Empty required set: explicitly not pruned.
  {
    const fs::path dir = dir_ / "unpruned";
    LogStore store = LogStore::create(dir, pruning_options());
    const Wid w = store.begin_instance();
    store.record(w, "Alpha");
    store.end_instance(w);
    const LogStore::PrunedLoad pruned = store.load_pruned({});
    EXPECT_FALSE(pruned.pruned);
    EXPECT_EQ(pruned.log.size(), 3u);
  }
}

TEST_F(SegStoreTest, LyingZoneMapChangesAnswers) {
  // Prove the pruner consults the zone maps: falsify one sealed block's
  // bloom so it denies every activity — the instances whose only
  // occurrence of "Charlie" lives in that block must vanish from the
  // pruned load. (Zone maps are trusted, not revalidated; their own CRC
  // protects them from accidental damage. This test would fail if the
  // pruner read blocks it was told to skip.)
  LogStore::Options options = pruning_options();
  {
    LogStore store = LogStore::create(dir_, options);
    for (int i = 0; i < 24; ++i) {
      const Wid w = store.begin_instance();
      store.record(w, "Charlie");
      store.end_instance(w);
    }
  }
  LogStore honest = LogStore::open(dir_, options);
  const std::size_t honest_kept =
      honest.load_pruned({"Charlie"}).records_kept;
  ASSERT_GT(honest_kept, 0u);

  // Tamper: rewrite the first sealed segment's footer with zeroed blooms.
  const fs::path seg = dir_ / "seg-000001.wfseg";
  const std::string data = read_file(seg);
  const std::optional<FooterRead> fr = try_read_v2_footer(data);
  ASSERT_TRUE(fr.has_value());
  SegmentFooter lying = fr->footer;
  for (BlockZone& zone : lying.blocks) {
    zone.bloom = ActivityBloom::from_words(
        std::vector<std::uint64_t>(zone.bloom.words().size(), 0));
  }
  write_file(seg, data.substr(0, fr->footer_start) + encode_v2_footer(lying));

  LogStore lied_to = LogStore::open(dir_, options);
  const LogStore::PrunedLoad pruned = lied_to.load_pruned({"Charlie"});
  EXPECT_LT(pruned.records_kept, honest_kept);
  EXPECT_GT(pruned.blocks_skipped, 0u);
}


// ----- parallel load -------------------------------------------------------

/// The serial decode a load must reproduce: one interner, the store's
/// regions in MANIFEST order — sealed blocks one by one via
/// read_v2_block_payload (zone-map pruned when `required` is non-empty,
/// exactly as LogStore documents it), v1 segments and unsealed v2
/// segments line by line — records parsed with parse_store_line.
struct SerialLoad {
  std::vector<LogRecord> records;
  Interner interner;
  std::size_t blocks_read = 0;
  std::size_t blocks_skipped = 0;
};

SerialLoad serial_load(const fs::path& dir,
                       const std::vector<std::string>& required) {
  struct Region {
    std::string file;
    std::optional<FooterRead> footer;
    bool v1 = false;
  };
  std::vector<Region> regions;
  {
    std::ifstream manifest(dir / "MANIFEST");
    std::string line;
    std::getline(manifest, line);  // magic
    std::getline(manifest, line);  // records_per_segment
    while (std::getline(manifest, line)) {
      if (line.empty()) continue;
      Region r;
      r.file = read_file(dir / line);
      r.v1 = line.ends_with(".jsonl");
      if (!r.v1) r.footer = try_read_v2_footer(r.file);
      regions.push_back(std::move(r));
    }
  }
  const auto lines_of = [](std::string_view text, const auto& fn) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t nl = text.find('\n', pos);
      if (nl == std::string_view::npos) nl = text.size();
      const std::string_view line = text.substr(pos, nl - pos);
      pos = nl + 1;
      if (!line.empty()) fn(line);
    }
  };
  // Opaque instances: those of regions without zone maps.
  WidIntervals opaque;
  for (const Region& r : regions) {
    if (r.footer.has_value()) continue;
    Interner scratch;
    const auto add = [&](std::string_view line) {
      const Wid wid = parse_store_line(line, scratch).wid;
      opaque.add(wid, wid);
    };
    if (r.v1) {
      lines_of(r.file, add);
    } else {
      for (const std::string& p : scan_v2_blocks(r.file).payloads) {
        lines_of(p, add);
      }
    }
  }
  opaque.normalize();
  std::optional<WidIntervals> candidates;
  for (const std::string& activity : required) {
    WidIntervals admits;
    for (const Region& r : regions) {
      if (!r.footer.has_value()) continue;
      for (const BlockZone& z : r.footer->footer.blocks) {
        if (z.record_count != 0 && z.bloom.may_contain(activity)) {
          admits.add(z.wid_min, z.wid_max);
        }
      }
    }
    admits.normalize();
    WidIntervals could = WidIntervals::unite(admits, opaque);
    candidates = candidates.has_value()
                     ? WidIntervals::intersect(*candidates, could)
                     : std::move(could);
  }

  SerialLoad out;
  const auto take = [&](std::string_view line) {
    LogRecord l = parse_store_line(line, out.interner);
    if (!candidates.has_value() || candidates->contains(l.wid)) {
      if (candidates.has_value()) {
        l.lsn = static_cast<Lsn>(out.records.size() + 1);
      }
      out.records.push_back(std::move(l));
    }
  };
  for (const Region& r : regions) {
    if (r.v1) {
      lines_of(r.file, take);
    } else if (!r.footer.has_value()) {
      for (const std::string& p : scan_v2_blocks(r.file).payloads) {
        lines_of(p, take);
      }
    } else {
      for (const BlockZone& z : r.footer->footer.blocks) {
        if (candidates.has_value() &&
            (z.record_count == 0 ||
             !candidates->overlaps(z.wid_min, z.wid_max))) {
          ++out.blocks_skipped;
          continue;
        }
        lines_of(read_v2_block_payload(r.file, z), take);
        ++out.blocks_read;
      }
    }
  }
  return out;
}

void expect_same_load(const Log& got, const SerialLoad& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.records.size()) << what;
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    const LogRecord& g = got.record(static_cast<Lsn>(i + 1));
    const LogRecord& w = want.records[i];
    ASSERT_TRUE(g.lsn == w.lsn && g.wid == w.wid && g.is_lsn == w.is_lsn &&
                g.activity == w.activity && g.in == w.in && g.out == w.out)
        << what << ": record " << i;
  }
  ASSERT_EQ(got.interner().size(), want.interner.size()) << what;
  for (Symbol sym = 0; sym < want.interner.size(); ++sym) {
    ASSERT_EQ(got.interner().name(sym), want.interner.name(sym))
        << what << ": symbol " << sym;
  }
}

/// The last segment the MANIFEST of `dir` names.
std::string last_segment(const fs::path& dir) {
  std::ifstream manifest(dir / "MANIFEST");
  std::string line;
  std::string last;
  while (std::getline(manifest, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

/// Sealed blocks enough to cross the load's parallel threshold on this
/// host (2 per core), with margin.
std::size_t parallel_block_count() {
  return 4 * std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

/// Appends `instances` instances with attributes named `prefix` + digit,
/// so remapped attribute symbols are compared too, and a region's own
/// prefix makes symbol ids depend on the order regions are interned in.
/// Each instance's activities come from a window of the alphabet that
/// drifts with `base`, so blooms differ.
void fill_attributed(LogStore& store, std::size_t instances,
                     std::size_t base, const std::string& prefix = "attr") {
  for (std::size_t i = 0; i < instances; ++i) {
    const Wid w = store.begin_instance();
    const std::size_t k = (base + i) / 4;
    const std::string a = kAlphabet[k % kAlphabet.size()];
    const std::string b = kAlphabet[(k + 1) % kAlphabet.size()];
    const std::string attr = prefix + std::to_string(k % 5);
    store.record(w, a, {{"amount", Value(static_cast<std::int64_t>(i))}},
                 {{attr, Value("v" + std::to_string(i % 3))}});
    store.record(w, b, {{attr, Value(1.5)}});
    if (i % 3 != 0) store.end_instance(w);
  }
}

TEST_F(SegStoreTest, ParallelLoadEqualsSerialDecode) {
  // A mixed store: v1 history, sealed v2 segments, a v1 segment after
  // them, more sealed v2, an unsealed v2 tail and a pending buffer.
  LogStore::Options v2 = fast_options();
  v2.records_per_segment = 60;
  v2.block_target_bytes = 256;  // a few records per block
  LogStore::Options v1 = v2;
  v1.segment_format = SegmentFormat::kV1Jsonl;
  const std::size_t want_blocks = parallel_block_count();
  {
    LogStore store = LogStore::create(dir_, v1);
    fill_attributed(store, 40, 0, "history");
  }
  {
    LogStore store = LogStore::open(dir_, v2);
    std::size_t base = 40;
    while (store.storage_stats().sealed_blocks < want_blocks / 2) {
      fill_attributed(store, 10, base, "sealed");
      base += 10;
    }
  }
  {
    LogStore store = LogStore::open(dir_, v1);
    store.end_instance(store.begin_instance());
    // Rolls: the v1 segment is mid-store.
    fill_attributed(store, 70, 1000, "middle");
  }
  LogStore store = LogStore::open(dir_, v2);
  std::size_t base = 2000;
  while (last_segment(dir_).ends_with(".jsonl") ||
         store.storage_stats().sealed_blocks < want_blocks) {
    fill_attributed(store, 10, base, "late");
    base += 10;
  }
  fill_attributed(store, 7, base, "tail");  // unsealed tail blocks
  store.sync();
  store.begin_instance();  // one short record: stays in the pending buffer

  const LogStore::StorageStats stats = store.storage_stats();
  ASSERT_GE(stats.segments_v1, 2u);
  ASSERT_GE(stats.sealed_blocks, want_blocks);

  // What the live store loads, pending buffer included ...
  const Log live = store.load();
  std::vector<std::pair<std::vector<std::string>, LogStore::PrunedLoad>>
      pruned;
  const std::vector<std::vector<std::string>> requests = {
      {}, {"Alpha"}, {"Charlie", "Delta"}, {"Hotel", "Alpha"}, {"Zulu"},
      {"START"}};
  for (const auto& req : requests) {
    pruned.emplace_back(req, store.load_pruned(req));
  }
  // ... must be what the serial decode reads once the pending buffer is on
  // disk as the tail's last block (same file order, same records).
  const fs::path tail = dir_ / last_segment(dir_);
  const auto before = fs::file_size(tail);
  store.sync();
  ASSERT_GT(fs::file_size(tail), before) << "no pending records were loaded";

  expect_same_load(live, serial_load(dir_, {}), "load()");
  expect_same_load(store.load(), serial_load(dir_, {}), "load() after sync");
  std::size_t skipped = 0;
  for (const auto& [req, got] : pruned) {
    const SerialLoad want = serial_load(dir_, req);
    std::string what = "load_pruned({";
    for (const std::string& a : req) what += a + ",";
    what += "})";
    EXPECT_EQ(got.pruned, !req.empty()) << what;
    EXPECT_EQ(got.blocks_total, stats.sealed_blocks) << what;
    if (req.empty()) {
      EXPECT_EQ(got.blocks_read, stats.sealed_blocks) << what;
    } else {
      EXPECT_EQ(got.blocks_read, want.blocks_read) << what;
      EXPECT_EQ(got.blocks_skipped, want.blocks_skipped) << what;
    }
    EXPECT_EQ(got.records_kept, want.records.size()) << what;
    if (want.records.empty()) {
      EXPECT_TRUE(got.log.empty()) << what;
    } else {
      expect_same_load(got.log, want, what);
    }
    skipped += got.blocks_skipped;
  }
  EXPECT_GT(skipped, 0u);  // the requests really prune
}

/// Rewrites one zone of the sealed segment `seg` through `edit` and
/// re-seals its footer with a valid CRC: a doctored, not a damaged, file.
template <typename Edit>
void doctor_zone(const fs::path& seg, std::size_t block, Edit edit) {
  const std::string data = read_file(seg);
  const std::optional<FooterRead> fr = try_read_v2_footer(data);
  ASSERT_TRUE(fr.has_value());
  SegmentFooter footer = fr->footer;
  ASSERT_LT(block, footer.blocks.size());
  edit(footer.blocks[block]);
  write_file(seg, data.substr(0, fr->footer_start) + encode_v2_footer(footer));
}

std::string load_error(const LogStore& store,
                       const std::vector<std::string>& required) {
  try {
    if (required.empty()) {
      store.load();
    } else {
      store.load_pruned(required);
    }
  } catch (const IoError& e) {
    return e.what();
  }
  return "no error";
}

TEST_F(SegStoreTest, ZoneRecordCountDisagreeingWithBlockIsCorruption) {
  LogStore::Options options = fast_options();
  options.records_per_segment = 80;
  options.block_target_bytes = 512;
  {
    LogStore store = LogStore::create(dir_, options);
    fill_attributed(store, 50, 0);
  }
  const fs::path seg = dir_ / "seg-000001.wfseg";
  const std::optional<FooterRead> fr = try_read_v2_footer(read_file(seg));
  ASSERT_TRUE(fr.has_value());
  ASSERT_GE(fr->footer.blocks.size(), 3u);
  const BlockZone zone = fr->footer.blocks[1];
  ASSERT_GE(zone.record_count, 2u);
  for (const std::uint32_t lie :
       {zone.record_count + 1, zone.record_count - 1, 0xFFFFFFFFu}) {
    doctor_zone(seg, 1, [&](BlockZone& z) { z.record_count = lie; });
    LogStore store = LogStore::open(dir_, options);
    const std::string where = "block at byte " +
                              std::to_string(zone.file_offset) +
                              " of segment '" + seg.string() + "'";
    for (const auto& req : {std::vector<std::string>{},
                            std::vector<std::string>{"START"}}) {
      const std::string error = load_error(store, req);
      EXPECT_NE(error.find(where), std::string::npos) << error;
      EXPECT_NE(error.find("declares " + std::to_string(lie)),
                std::string::npos)
          << error;
    }
  }
  doctor_zone(seg, 1,
              [&](BlockZone& z) { z.record_count = zone.record_count; });
  EXPECT_EQ(load_error(LogStore::open(dir_, options), {}), "no error");
}

TEST_F(SegStoreTest, EarliestCorruptBlockInFileOrderIsReported) {
  LogStore::Options options = fast_options();
  options.records_per_segment = 80;
  options.block_target_bytes = 256;
  const std::size_t want_blocks = parallel_block_count();
  std::vector<std::pair<fs::path, BlockZone>> blocks;  // file order
  {
    LogStore store = LogStore::create(dir_, options);
    std::size_t base = 0;
    while (store.storage_stats().sealed_blocks < want_blocks) {
      fill_attributed(store, 10, base);
      base += 10;
    }
  }
  {
    std::ifstream manifest(dir_ / "MANIFEST");
    std::string line;
    std::getline(manifest, line);
    std::getline(manifest, line);
    while (std::getline(manifest, line)) {
      const std::optional<FooterRead> fr =
          try_read_v2_footer(read_file(dir_ / line));
      if (!fr.has_value()) continue;
      for (const BlockZone& z : fr->footer.blocks) {
        blocks.emplace_back(dir_ / line, z);
      }
    }
  }
  ASSERT_GE(blocks.size(), want_blocks);
  const std::string pristine = dir_.string() + "-pristine";
  fs::remove_all(pristine);
  fs::copy(dir_, pristine);
  const std::size_t n = blocks.size();
  // Pairs (k, j > k): same segment and different segments, near the
  // start, middle and end; a damaged payload byte and a doctored count.
  const std::vector<std::pair<std::size_t, std::size_t>> pairs = {
      {0, 1}, {0, n - 1}, {n / 2, n / 2 + 1}, {1, n / 2}, {n - 2, n - 1}};
  for (const auto& [k, j] : pairs) {
    for (int kind = 0; kind < 2; ++kind) {
      fs::remove_all(dir_);
      fs::copy(pristine, dir_);
      const auto damage = [&](std::size_t b) {
        const auto& [seg, zone] = blocks[b];
        if (kind == 0) {
          std::string data = read_file(seg);
          data[zone.file_offset + kSegV2BlockHeaderSize + 1] ^= 0x20;
          write_file(seg, data);
        } else {
          std::size_t index = 0;
          for (std::size_t i = 0; i < b; ++i) index += blocks[i].first == seg;
          doctor_zone(seg, index,
                      [](BlockZone& z) { ++z.record_count; });
        }
      };
      damage(j);  // the later block first: report order is not damage order
      damage(k);
      const LogStore store = LogStore::open(dir_, options);
      const std::string offset = std::to_string(blocks[k].second.file_offset);
      for (int rep = 0; rep < 3; ++rep) {
        const std::string error = load_error(store, {});
        if (kind == 0) {
          EXPECT_EQ(error,
                    "segfmt: block payload CRC mismatch at byte " + offset)
              << "k " << k << " j " << j;
        } else {
          EXPECT_NE(error.find("block at byte " + offset + " of segment '" +
                               blocks[k].first.string() + "'"),
                    std::string::npos)
              << "k " << k << " j " << j << ": " << error;
        }
      }
    }
  }
  fs::remove_all(pristine);
}

}  // namespace
}  // namespace wflog
