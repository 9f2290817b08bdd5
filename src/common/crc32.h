#pragma once

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum the
// durable store stamps on every record line so that bit rot, torn writes,
// and partially-synced pages are detected on recovery instead of being
// parsed as (wrong) data. Header-only; the tables are built once per
// process.
//
// Slice-by-8: eight 256-entry tables fold eight input bytes per step with
// eight independent lookups (table k advances a byte's contribution by k
// further zero bytes), about 4x the byte-at-a-time loop. A tail shorter
// than a step uses the byte table; results are identical.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wflog {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

inline const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian 32-bit load; compiles to one load on little-endian hosts.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC-32 of `data` (matching zlib's crc32 over the same bytes).
inline std::uint32_t crc32(std::string_view data) noexcept {
  const auto& t = detail::crc32_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace wflog
