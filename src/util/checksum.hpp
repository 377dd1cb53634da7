// CRC32 (the zlib/IEEE 802.3 polynomial) for integrity checking of
// checkpoint files and message envelopes. Slicing-by-16: sixteen
// 256-entry tables, built at compile time, fold 16 input bytes per
// iteration with independent lookups (several-fold faster than the
// byte-at-a-time form), and a byte-wise tail handles the rest. Portable
// C++ with no intrinsics; the result does not depend on host byte order
// and equals the byte-at-a-time CRC for every input, offset and seed.
#pragma once

#include <cstddef>

#include "util/common.hpp"

namespace gc {

/// CRC32 of `n` bytes starting at `data`. Pass a previous result as
/// `seed` to checksum a stream in chunks: crc32(b, nb, crc32(a, na)).
u32 crc32(const void* data, std::size_t n, u32 seed = 0);

}  // namespace gc
