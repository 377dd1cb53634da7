// Domain decomposition: exact tiling, neighbor queries, face areas, and
// the cube-vs-slab surface argument of Section 4.3.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/border_exchange.hpp"
#include "core/decomposition.hpp"

namespace gc::core {
namespace {

class DecompCase
    : public ::testing::TestWithParam<std::tuple<Int3, Int3>> {};

TEST_P(DecompCase, TilesDomainExactly) {
  const auto [dim, grid_dims] = GetParam();
  const Decomposition3 d(dim, netsim::NodeGrid{grid_dims});
  EXPECT_TRUE(d.tiles_domain());
  i64 total = 0;
  for (const SubDomain& b : d.blocks()) total += b.num_cells();
  EXPECT_EQ(total, dim.volume());
}

TEST_P(DecompCase, BlockSizesDifferByAtMostOnePerAxis) {
  const auto [dim, grid_dims] = GetParam();
  const Decomposition3 d(dim, netsim::NodeGrid{grid_dims});
  for (int a = 0; a < 3; ++a) {
    int mn = 1 << 30, mx = 0;
    for (const SubDomain& b : d.blocks()) {
      mn = std::min(mn, b.size()[a]);
      mx = std::max(mx, b.size()[a]);
    }
    EXPECT_LE(mx - mn, 1) << "axis " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DecompCase,
    ::testing::Values(
        std::tuple{Int3{80, 80, 80}, Int3{1, 1, 1}},
        std::tuple{Int3{160, 80, 80}, Int3{2, 1, 1}},
        std::tuple{Int3{160, 160, 80}, Int3{4, 4, 1}},
        std::tuple{Int3{480, 400, 80}, Int3{6, 5, 1}},
        std::tuple{Int3{100, 90, 77}, Int3{3, 2, 2}},
        std::tuple{Int3{17, 13, 11}, Int3{5, 3, 2}}));

TEST(Decomposition, WeakScalingBlocksAreUniform) {
  // The Table-1 setup: 80^3 per node on a 2D arrangement.
  const Decomposition3 d(Int3{640, 320, 80}, netsim::NodeGrid{Int3{8, 4, 1}});
  for (const SubDomain& b : d.blocks()) {
    EXPECT_EQ(b.size(), (Int3{80, 80, 80}));
  }
}

TEST(Decomposition, NeighborQueries) {
  const Decomposition3 d(Int3{40, 40, 40}, netsim::NodeGrid{Int3{2, 2, 1}});
  EXPECT_EQ(d.neighbor(0, Int3{1, 0, 0}), 1);
  EXPECT_EQ(d.neighbor(0, Int3{0, 1, 0}), 2);
  EXPECT_EQ(d.neighbor(0, Int3{1, 1, 0}), 3);   // diagonal
  EXPECT_EQ(d.neighbor(0, Int3{-1, 0, 0}), -1); // outside
  EXPECT_EQ(d.axial_neighbors(0).size(), 2u);
  EXPECT_EQ(d.axial_neighbors(3).size(), 2u);
}

TEST(Decomposition, DiagonalNeighbors) {
  const Decomposition3 d2(Int3{40, 40, 20}, netsim::NodeGrid{Int3{2, 2, 1}});
  for (int node = 0; node < d2.num_nodes(); ++node) {
    const auto diag = d2.diagonal_neighbors(node);
    ASSERT_EQ(diag.size(), 1u) << "node " << node;
    const auto& [off, nb] = diag[0];
    EXPECT_EQ(nb, d2.neighbor(node, off));
    EXPECT_EQ(off.z, 0);
    EXPECT_NE(off.x, 0);
    EXPECT_NE(off.y, 0);
  }
  EXPECT_EQ(d2.diagonal_neighbors(0)[0].second, 3);

  const netsim::NodeGrid g3{Int3{3, 3, 3}};
  const Decomposition3 d3(Int3{30, 30, 30}, g3);
  const auto centre = d3.diagonal_neighbors(g3.id(Int3{1, 1, 1}));
  EXPECT_EQ(centre.size(), 12u);
  for (const auto& [off, nb] : centre) {
    EXPECT_EQ(std::abs(off.x) + std::abs(off.y) + std::abs(off.z), 2);
    EXPECT_EQ(nb, d3.neighbor(g3.id(Int3{1, 1, 1}), off));
  }
  EXPECT_EQ(d3.diagonal_neighbors(g3.id(Int3{0, 0, 0})).size(), 3u);
  EXPECT_EQ(d3.diagonal_neighbors(g3.id(Int3{2, 2, 2})).size(), 3u);
}

TEST(Decomposition, InteriorNodeHasFourNeighborsIn2d) {
  const Decomposition3 d(Int3{80, 80, 20}, netsim::NodeGrid{Int3{4, 4, 1}});
  const int interior = netsim::NodeGrid{Int3{4, 4, 1}}.id(Int3{1, 1, 0});
  EXPECT_EQ(d.axial_neighbors(interior).size(), 4u);
}

TEST(Decomposition, FaceAreasMatchBlockGeometry) {
  const Decomposition3 d(Int3{160, 80, 80}, netsim::NodeGrid{Int3{2, 1, 1}});
  // Node 0's +x face: 80x80.
  EXPECT_EQ(d.face_area(0, 1), 80 * 80);
  EXPECT_EQ(d.face_area(0, 0), 0);  // no -x neighbor
  EXPECT_EQ(d.face_area(0, 3), 0);  // no +y neighbor
}

TEST(Decomposition, MaxFaceBytesIsFiveDistributionsPerCell) {
  const Decomposition3 d(Int3{160, 80, 80}, netsim::NodeGrid{Int3{2, 1, 1}});
  EXPECT_EQ(d.max_face_bytes(),
            i64(80) * 80 * 5 * static_cast<i64>(sizeof(Real)));
}

TEST(Decomposition, CubesBeatSlabsOnSurfaceToVolume) {
  // Section 4.3: "the cube has the smallest ratio between boundary
  // surface area and volume". Decomposing 8 nodes as 2x2x2 must move
  // fewer border bytes than 8x1x1 over the same lattice.
  const Int3 lattice{160, 160, 160};
  auto total_border_cells = [&lattice](Int3 grid_dims) {
    const Decomposition3 d(lattice, netsim::NodeGrid{grid_dims});
    i64 total = 0;
    for (const SubDomain& b : d.blocks()) {
      for (int face = 0; face < 6; ++face) {
        total += d.face_area(b.node, face);
      }
    }
    return total;
  };
  const i64 cube = total_border_cells(Int3{2, 2, 2});
  const i64 slab = total_border_cells(Int3{8, 1, 1});
  EXPECT_LT(cube, slab);
}

TEST(Decomposition, RejectsGridLargerThanLattice) {
  EXPECT_THROW(Decomposition3(Int3{4, 4, 4}, netsim::NodeGrid{Int3{8, 1, 1}}),
               Error);
}

TEST(LocalDomain, GhostLayersOnlyTowardNeighbors) {
  const Decomposition3 d(Int3{40, 40, 20}, netsim::NodeGrid{Int3{2, 2, 1}});
  const LocalDomain ld0 = LocalDomain::make(d, 0);
  EXPECT_EQ(ld0.ghost_lo, (Int3{0, 0, 0}));
  EXPECT_EQ(ld0.ghost_hi, (Int3{1, 1, 0}));
  EXPECT_EQ(ld0.local_dim(), (Int3{21, 21, 20}));
  EXPECT_EQ(ld0.own_lo(), (Int3{0, 0, 0}));

  const LocalDomain ld3 = LocalDomain::make(d, 3);
  EXPECT_EQ(ld3.ghost_lo, (Int3{1, 1, 0}));
  EXPECT_EQ(ld3.ghost_hi, (Int3{0, 0, 0}));
  EXPECT_EQ(ld3.to_local(Int3{20, 20, 0}), (Int3{1, 1, 0}));
}

}  // namespace
}  // namespace gc::core
