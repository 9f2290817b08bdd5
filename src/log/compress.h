#pragma once

// DEFLATE-style block compression for the v2 segment format (log/segfmt.h).
//
// A hand-rolled RFC 1951 subset: the compressor emits one fixed-Huffman
// deflate block (LZ77 over a 32 KiB window, hash-chain matching, greedy
// parse) or falls back to a stored block when the data does not shrink;
// the inflater accepts stored (BTYPE 00) and fixed-Huffman (BTYPE 01)
// blocks — everything this writer can produce — and treats anything else
// as corruption. In the spirit of a strict streaming inflater, every
// failure mode is an explicit error, never silent truncation:
//
//   * truncated input (bits missing mid-symbol, mid-stored-block),
//   * invalid symbols (reserved length/distance codes),
//   * back-references reaching before the start of the output,
//   * output disagreeing with the caller-declared uncompressed size,
//   * trailing garbage after the final block.
//
// The segment format frames each compressed block with its own CRC-32, so
// inflate() is only reached with bytes that already checksum clean; the
// strict decoder is the second line of defense (and the first one for a
// doctored file whose CRC was recomputed).

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"

namespace wflog {

/// Thrown by inflate() on any malformed stream. Derived from IoError so
/// store recovery treats undecodable blocks exactly like CRC mismatches.
class InflateError : public IoError {
 public:
  using IoError::IoError;
};

/// Compresses `data` into a self-terminating deflate stream (one final
/// block, fixed-Huffman or stored — whichever is smaller). Deterministic:
/// equal input yields equal output.
std::string deflate_compress(std::string_view data);

/// The most bytes any stream of `compressed_size` bytes can inflate to.
/// The cheapest output per input bit is a 258-byte match coded in 13 bits
/// (8-bit length code 285, 5-bit distance code 0). Bounds the inflater's
/// buffer and, in the store, what a block's declared sizes can claim.
std::size_t max_inflated_size(std::size_t compressed_size) noexcept;

/// Decompresses a stream produced by deflate_compress (any conforming
/// stored/fixed-Huffman deflate stream, in fact). `expected_size` is the
/// caller-known uncompressed size (from the block header); a stream that
/// inflates to any other size, or leaves undecoded trailing bytes, throws
/// InflateError.
std::string deflate_decompress(std::string_view data,
                               std::size_t expected_size);

}  // namespace wflog
