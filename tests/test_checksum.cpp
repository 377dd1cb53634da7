// CRC32: known answers, chunked streaming, agreement with a bit-at-a-time
// reference at every short length and alignment, and the checksum of a
// fixed checkpoint — the value every existing checkpoint, manifest,
// envelope and FlowCache key digest depends on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace gc {
namespace {

/// The CRC32 definition itself: one bit at a time, reflected polynomial.
u32 crc32_bitwise(const unsigned char* p, std::size_t n, u32 seed) {
  u32 c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

// A checkpoint of the fixture in GoldenCheckpointHeaderCrc, as written by
// the byte-at-a-time CRC32: total file size, the body CRC in the header,
// and the CRC of the whole file.
constexpr std::size_t kGoldenFileBytes = 4699;
constexpr u32 kGoldenBodyCrc = 0x0E126628u;
constexpr u32 kGoldenFileCrc = 0x9EB1AA13u;

std::vector<unsigned char> random_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<unsigned char> b(n);
  for (unsigned char& x : b) x = static_cast<unsigned char>(rng.next_u64());
  return b;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("", 0), 0u);
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, ChunkedEqualsWholeAtEverySplit) {
  const std::vector<unsigned char> b = random_bytes(1024, 11);
  const u32 whole = crc32(b.data(), b.size());
  for (std::size_t split = 0; split <= b.size(); ++split) {
    ASSERT_EQ(crc32(b.data() + split, b.size() - split,
                    crc32(b.data(), split)),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> b = random_bytes(64 + 16, 29);
  for (const u32 seed : {0u, 0x9e3779b9u, 0xFFFFFFFFu}) {
    for (std::size_t off = 0; off < 16; ++off) {
      for (std::size_t len = 0; len <= 64; ++len) {
        ASSERT_EQ(crc32(b.data() + off, len, seed),
                  crc32_bitwise(b.data() + off, len, seed))
            << "offset " << off << " length " << len << " seed " << seed;
      }
    }
  }
  // A long buffer through the 16-byte main loop and a ragged tail.
  const std::vector<unsigned char> big = random_bytes(100003, 31);
  EXPECT_EQ(crc32(big.data() + 3, big.size() - 3),
            crc32_bitwise(big.data() + 3, big.size() - 3, 0));
}

TEST(Crc32, GoldenCheckpointHeaderCrc) {
  // A fixed small checkpoint whose values are exact binary fractions, so
  // its bytes do not depend on floating-point code generation. A changed
  // checksum would orphan every checkpoint and FlowCache entry on disk.
  lbm::Lattice lat(Int3{5, 4, 3});
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMAX, lbm::FaceBc::FreeSlip);
  lat.set_inlet(Real(1), Vec3{0.0625f, 0, 0});
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, Real(i + 1) * 0.0625f + Real(c) * 0.001953125f);
    }
  }
  lat.fill_solid_box(Int3{1, 1, 1}, Int3{3, 3, 2});
  lat.add_curved_link({lat.idx(0, 0, 0), 1, Real(0.5)});

  const std::string path =
      std::string(::testing::TempDir()) + "/golden_crc.gclb";
  io::save_checkpoint(path, lat);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());

  ASSERT_EQ(bytes.size(), kGoldenFileBytes);
  u32 header_crc = 0;
  std::memcpy(&header_crc, bytes.data() + 16, sizeof(header_crc));
  EXPECT_EQ(header_crc, kGoldenBodyCrc);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), kGoldenFileCrc);
}

}  // namespace
}  // namespace gc
