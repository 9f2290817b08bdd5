#include "log/compress.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

namespace wflog {
namespace {

// ----- RFC 1951 fixed tables -----------------------------------------------

// Length codes 257..285: base match length and extra bits.
constexpr std::array<std::uint16_t, 29> kLenBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, 29> kLenExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// Distance codes 0..29: base distance and extra bits.
constexpr std::array<std::uint16_t, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,    9,    13,    17,    25,
    33,   49,   65,   97,   129,  193,  257,  385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577};
constexpr std::array<std::uint8_t, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2,  2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr std::size_t kWindowSize = 32768;
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;

/// Reverses the low `len` bits of `code` — deflate stores Huffman codes
/// MSB-first while the bitstream packs LSB-first.
std::uint32_t bit_reverse(std::uint32_t code, unsigned len) {
  std::uint32_t out = 0;
  for (unsigned i = 0; i < len; ++i) {
    out = (out << 1) | ((code >> i) & 1u);
  }
  return out;
}

struct HuffCode {
  std::uint16_t code = 0;
  std::uint8_t len = 0;
};

/// Fixed litlen code for symbol `sym` (0..287): canonical code + length.
HuffCode fixed_litlen_code(unsigned sym) {
  if (sym <= 143) return {static_cast<std::uint16_t>(0x30 + sym), 8};
  if (sym <= 255) return {static_cast<std::uint16_t>(0x190 + (sym - 144)), 9};
  if (sym <= 279) return {static_cast<std::uint16_t>(sym - 256), 7};
  return {static_cast<std::uint16_t>(0xC0 + (sym - 280)), 8};
}

// ----- bit IO ---------------------------------------------------------------

class BitWriter {
 public:
  explicit BitWriter(std::string& out) : out_(out) {}

  /// Appends the low `n` bits of `value`, LSB first.
  void write_bits(std::uint32_t value, unsigned n) {
    acc_ |= static_cast<std::uint64_t>(value & ((1u << n) - 1u)) << filled_;
    filled_ += n;
    while (filled_ >= 8) {
      out_.push_back(static_cast<char>(acc_ & 0xFFu));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  /// Huffman codes are emitted MSB-first: reverse then write.
  void write_huffman(std::uint32_t code, unsigned len) {
    write_bits(bit_reverse(code, len), len);
  }

  /// Flushes any partial final byte (zero-padded).
  void finish() {
    if (filled_ > 0) {
      out_.push_back(static_cast<char>(acc_ & 0xFFu));
      acc_ = 0;
      filled_ = 0;
    }
  }

 private:
  std::string& out_;
  std::uint64_t acc_ = 0;
  unsigned filled_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  std::uint32_t read_bits(unsigned n) {
    fill();
    if (filled_ < n) {
      throw InflateError("inflate: truncated stream (out of input bits)");
    }
    const std::uint32_t value =
        static_cast<std::uint32_t>(acc_ & ((1u << n) - 1u));
    consume(n);
    return value;
  }

  /// Returns the next up-to-`n` bits without consuming them, zero-padded
  /// past end of input. `avail` reports how many of them are real.
  std::uint32_t peek_bits(unsigned n, unsigned& avail) {
    fill();
    avail = std::min<unsigned>(filled_, n);
    return static_cast<std::uint32_t>(acc_ & ((1u << n) - 1u));
  }

  /// Drops `n` already-peeked bits. Caller must ensure n <= filled bits.
  void consume(unsigned n) {
    acc_ >>= n;
    filled_ -= n;
  }

  /// Drops bits up to the next byte boundary (stored-block alignment).
  void align_to_byte() { consume(filled_ % 8); }

  /// The next `n` raw input bytes; requires byte alignment.
  std::string_view read_bytes(std::size_t n) {
    // Aligned, the accumulator holds exactly the whole bytes just before
    // pos_: give them back and read straight from the input.
    pos_ -= filled_ / 8;
    acc_ = 0;
    filled_ = 0;
    if (data_.size() - pos_ < n) {
      throw InflateError("inflate: truncated stored block");
    }
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  /// True when fewer than 8 bits of input remain — i.e. nothing but the
  /// zero padding of the final byte. Whole unconsumed bytes are garbage.
  bool exhausted() const {
    return (data_.size() - pos_) * 8 + filled_ < 8;
  }

 private:
  void fill() {
    while (filled_ <= 56 && pos_ < data_.size()) {
      acc_ |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(data_[pos_++]))
              << filled_;
      filled_ += 8;
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned filled_ = 0;
};

// ----- compressor -----------------------------------------------------------

unsigned length_symbol(std::size_t len) {
  // Largest code whose base <= len; scan from the top (once per match).
  for (unsigned i = static_cast<unsigned>(kLenBase.size()); i-- > 0;) {
    if (kLenBase[i] <= len) return i;
  }
  return 0;
}

unsigned distance_symbol(std::size_t dist) {
  for (unsigned i = static_cast<unsigned>(kDistBase.size()); i-- > 0;) {
    if (kDistBase[i] <= dist) return i;
  }
  return 0;
}

void emit_literal(BitWriter& bw, unsigned char byte) {
  const HuffCode c = fixed_litlen_code(byte);
  bw.write_huffman(c.code, c.len);
}

void emit_match(BitWriter& bw, std::size_t len, std::size_t dist) {
  const unsigned ls = length_symbol(len);
  const HuffCode c = fixed_litlen_code(257 + ls);
  bw.write_huffman(c.code, c.len);
  if (kLenExtra[ls] > 0) {
    bw.write_bits(static_cast<std::uint32_t>(len - kLenBase[ls]),
                  kLenExtra[ls]);
  }
  const unsigned ds = distance_symbol(dist);
  bw.write_huffman(ds, 5);
  if (kDistExtra[ds] > 0) {
    bw.write_bits(static_cast<std::uint32_t>(dist - kDistBase[ds]),
                  kDistExtra[ds]);
  }
}

/// One fixed-Huffman final block over the whole input. Greedy LZ77 with a
/// 3-byte hash head + prev chain, bounded chain walks.
std::string deflate_fixed(std::string_view data) {
  std::string out;
  out.reserve(data.size() / 2 + 16);
  BitWriter bw(out);
  bw.write_bits(1, 1);  // BFINAL
  bw.write_bits(1, 2);  // BTYPE 01: fixed Huffman

  constexpr std::size_t kHashBits = 15;
  constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
  constexpr std::size_t kMaxChain = 128;
  const std::size_t n = data.size();
  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(n, -1);
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());

  const auto hash3 = [bytes](std::size_t i) {
    const std::uint32_t h = (static_cast<std::uint32_t>(bytes[i]) << 16) ^
                            (static_cast<std::uint32_t>(bytes[i + 1]) << 8) ^
                            static_cast<std::uint32_t>(bytes[i + 2]);
    return (h * 2654435761u) >> (32 - kHashBits);
  };
  const auto insert = [&](std::size_t i) {
    if (i + kMinMatch <= n) {
      const std::uint32_t h = hash3(i);
      prev[i] = head[h];
      head[h] = static_cast<std::int32_t>(i);
    }
  };

  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      std::int32_t cand = head[hash3(i)];
      const std::size_t limit = std::min(kMaxMatch, n - i);
      std::size_t chain = 0;
      while (cand >= 0 && chain < kMaxChain) {
        const std::size_t c = static_cast<std::size_t>(cand);
        const std::size_t dist = i - c;
        if (dist > kWindowSize) break;  // chain entries only get older
        std::size_t len = 0;
        while (len < limit && bytes[c + len] == bytes[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == limit) break;
        }
        cand = prev[c];
        ++chain;
      }
    }

    if (best_len >= kMinMatch) {
      emit_match(bw, best_len, best_dist);
      // Insert every matched position so later data can reference into it.
      for (const std::size_t end = i + best_len; i < end; ++i) insert(i);
    } else {
      emit_literal(bw, bytes[i]);
      insert(i);
      ++i;
    }
  }

  const HuffCode eob = fixed_litlen_code(256);
  bw.write_huffman(eob.code, eob.len);
  bw.finish();
  return out;
}

/// Stored (BTYPE 00) stream: 5 bytes of framing per 65535-byte chunk.
std::string deflate_stored(std::string_view data) {
  std::string out;
  out.reserve(data.size() + data.size() / 65535 * 5 + 8);
  std::size_t pos = 0;
  do {
    const std::size_t chunk = std::min<std::size_t>(data.size() - pos, 65535);
    const bool final_block = pos + chunk == data.size();
    out.push_back(final_block ? 1 : 0);  // BFINAL + BTYPE 00, byte-aligned
    const auto len = static_cast<std::uint16_t>(chunk);
    out.push_back(static_cast<char>(len & 0xFF));
    out.push_back(static_cast<char>(len >> 8));
    out.push_back(static_cast<char>(~len & 0xFF));
    out.push_back(static_cast<char>((~len >> 8) & 0xFF));
    out.append(data.substr(pos, chunk));
    pos += chunk;
  } while (pos < data.size());
  return out;
}

// ----- decoder --------------------------------------------------------------

/// Direct-lookup decode table for the fixed litlen alphabet: index by the
/// next 9 stream bits (LSB-first as read), get symbol + code length.
struct LitlenEntry {
  std::uint16_t symbol = 0;
  std::uint8_t len = 0;
};

const std::array<LitlenEntry, 512>& fixed_litlen_table() {
  static const std::array<LitlenEntry, 512> table = [] {
    std::array<LitlenEntry, 512> t{};
    for (unsigned sym = 0; sym < 288; ++sym) {
      const HuffCode c = fixed_litlen_code(sym);
      // The code occupies the low c.len bits (reversed); every setting of
      // the remaining high bits maps to the same symbol.
      const std::uint32_t rev = bit_reverse(c.code, c.len);
      for (std::uint32_t high = 0; high < (1u << (9 - c.len)); ++high) {
        t[(high << c.len) | rev] = {static_cast<std::uint16_t>(sym), c.len};
      }
    }
    return t;
  }();
  return table;
}

/// The inflater's output: one buffer sized up front, written through a
/// cursor. Its capacity is the declared size, or less when the input is
/// too short to ever produce that many bytes (see deflate_decompress).
class OutBuffer {
 public:
  OutBuffer(std::size_t capacity, std::size_t declared)
      : buf_(capacity, '\0'), declared_(declared) {}

  std::size_t size() const noexcept { return pos_; }

  /// Claims the next `n` bytes; throws when they would pass the declared
  /// size.
  char* claim(std::size_t n) {
    if (n > buf_.size() - pos_) {
      throw InflateError("inflate: output exceeds declared size " +
                         std::to_string(declared_));
    }
    char* at = buf_.data() + pos_;
    pos_ += n;
    return at;
  }

  std::string take() && {
    buf_.resize(pos_);
    return std::move(buf_);
  }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t declared_ = 0;
};

void inflate_fixed_block(BitReader& br, OutBuffer& out) {
  const auto& table = fixed_litlen_table();
  for (;;) {
    unsigned avail = 0;
    const std::uint32_t peek = br.peek_bits(9, avail);
    const LitlenEntry e = table[peek & 0x1FF];
    if (e.len > avail) {
      throw InflateError("inflate: truncated stream mid-symbol");
    }
    br.consume(e.len);
    const unsigned sym = e.symbol;
    if (sym < 256) {
      *out.claim(1) = static_cast<char>(sym);
    } else if (sym == 256) {
      return;  // end of block
    } else {
      const unsigned ls = sym - 257;
      if (ls >= kLenBase.size()) {
        throw InflateError("inflate: reserved length code " +
                           std::to_string(sym));
      }
      std::size_t len = kLenBase[ls];
      if (kLenExtra[ls] > 0) len += br.read_bits(kLenExtra[ls]);
      // Distance codes are 5-bit fixed Huffman codes, MSB-first.
      const unsigned ds = bit_reverse(br.read_bits(5), 5);
      if (ds >= kDistBase.size()) {
        throw InflateError("inflate: reserved distance code " +
                           std::to_string(ds));
      }
      std::size_t dist = kDistBase[ds];
      if (kDistExtra[ds] > 0) dist += br.read_bits(kDistExtra[ds]);
      if (dist > out.size()) {
        throw InflateError(
            "inflate: back-reference before start of output (dist " +
            std::to_string(dist) + ", have " + std::to_string(out.size()) +
            ")");
      }
      char* dst = out.claim(len);
      const char* src = dst - dist;
      if (dist >= len) {
        std::memcpy(dst, src, len);
      } else {
        // Overlapping reference (dist < len): byte by byte, deliberately
        // reusing just-written bytes.
        for (std::size_t k = 0; k < len; ++k) dst[k] = src[k];
      }
    }
  }
}

}  // namespace

std::string deflate_compress(std::string_view data) {
  std::string fixed = deflate_fixed(data);
  if (fixed.size() > data.size() + 5) {
    return deflate_stored(data);
  }
  return fixed;
}

std::size_t max_inflated_size(std::size_t compressed_size) noexcept {
  return (compressed_size * 8 / 13 + 1) * kMaxMatch;
}

std::string deflate_decompress(std::string_view data,
                               std::size_t expected_size) {
  // A declared size beyond what `data` can inflate to is never reached:
  // the buffer never needs to be larger.
  OutBuffer out(std::min(expected_size, max_inflated_size(data.size())),
                expected_size);
  BitReader br(data);
  bool final_block = false;
  while (!final_block) {
    final_block = br.read_bits(1) != 0;
    const std::uint32_t btype = br.read_bits(2);
    switch (btype) {
      case 0: {  // stored
        br.align_to_byte();
        const std::string_view hdr = br.read_bytes(4);
        const auto byte_at = [&](int i) {
          return static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[i]));
        };
        const auto len =
            static_cast<std::uint16_t>(byte_at(0) | byte_at(1) << 8);
        const auto nlen =
            static_cast<std::uint16_t>(byte_at(2) | byte_at(3) << 8);
        if (static_cast<std::uint16_t>(~len) != nlen) {
          throw InflateError("inflate: stored block LEN/~LEN mismatch");
        }
        if (out.size() + len > expected_size) {
          throw InflateError("inflate: output exceeds declared size " +
                             std::to_string(expected_size));
        }
        const std::string_view bytes = br.read_bytes(len);
        if (len > 0) std::memcpy(out.claim(len), bytes.data(), len);
        break;
      }
      case 1:  // fixed Huffman
        inflate_fixed_block(br, out);
        break;
      case 2:
        throw InflateError(
            "inflate: dynamic-Huffman block (not produced by this writer)");
      default:
        throw InflateError("inflate: reserved block type 3");
    }
  }
  if (!br.exhausted()) {
    throw InflateError("inflate: trailing garbage after final block");
  }
  if (out.size() != expected_size) {
    throw InflateError("inflate: output size " + std::to_string(out.size()) +
                       " != declared " + std::to_string(expected_size));
  }
  return std::move(out).take();
}

}  // namespace wflog
