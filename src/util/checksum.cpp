#include "util/checksum.hpp"

#include <array>

namespace gc {

namespace {

using CrcTables = std::array<std::array<u32, 256>, 16>;

/// Slicing-by-16 tables: t[0] is the classic byte-at-a-time table;
/// t[k][b] is the CRC contribution of byte b followed by k zero bytes,
/// so 16 independent lookups fold 16 input bytes per iteration.
constexpr CrcTables build_tables() {
  CrcTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    for (int k = 1; k < 16; ++k) {
      const u32 prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = build_tables();

/// Little-endian u32 from four bytes, independent of host byte order.
inline u32 load_le32(const unsigned char* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

}  // namespace

u32 crc32(const void* data, std::size_t n, u32 seed) {
  const auto& t = kTables;
  const auto* p = static_cast<const unsigned char*>(data);
  u32 c = seed ^ 0xFFFFFFFFu;
  for (; n >= 16; n -= 16, p += 16) {
    c ^= load_le32(p);
    c = t[15][c & 0xFFu] ^ t[14][(c >> 8) & 0xFFu] ^
        t[13][(c >> 16) & 0xFFu] ^ t[12][c >> 24] ^ t[11][p[4]] ^
        t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]] ^ t[6][p[9]] ^
        t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^ t[2][p[13]] ^
        t[1][p[14]] ^ t[0][p[15]];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace gc
