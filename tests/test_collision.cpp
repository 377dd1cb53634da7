// BGK collision: conservation laws, equilibrium fixed point, Guo forcing,
// the batched collide core against the scalar reference in every storage
// mode, and equivalence of the fused stream+collide kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"

namespace gc::lbm {
namespace {

void randomize_positive(Lattice& lat, u64 seed) {
  Rng rng(seed);
  for (int i = 0; i < Q; ++i) {
    Real* p = lat.plane_ptr(i);
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      p[c] = W[i] * Real(rng.uniform(0.7, 1.3));
    }
  }
}

class CollisionTau : public ::testing::TestWithParam<Real> {};

TEST_P(CollisionTau, ConservesMassAndMomentumPerCell) {
  const Real tau = GetParam();
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    Real f[Q];
    double rho0 = 0, m0[3] = {0, 0, 0};
    for (int i = 0; i < Q; ++i) {
      f[i] = W[i] * Real(rng.uniform(0.5, 1.5));
      rho0 += f[i];
      for (int a = 0; a < 3; ++a) m0[a] += f[i] * C[i][a];
    }
    collide_bgk_cell(f, tau, Vec3{});
    double rho1 = 0, m1[3] = {0, 0, 0};
    for (int i = 0; i < Q; ++i) {
      rho1 += f[i];
      for (int a = 0; a < 3; ++a) m1[a] += f[i] * C[i][a];
    }
    EXPECT_NEAR(rho1, rho0, 1e-5);
    for (int a = 0; a < 3; ++a) EXPECT_NEAR(m1[a], m0[a], 1e-5);
  }
}

TEST_P(CollisionTau, EquilibriumIsFixedPoint) {
  const Real tau = GetParam();
  Real f[Q], g[Q];
  equilibrium_all(Real(1.05), Vec3{0.04f, -0.03f, 0.06f}, f);
  for (int i = 0; i < Q; ++i) g[i] = f[i];
  collide_bgk_cell(g, tau, Vec3{});
  for (int i = 0; i < Q; ++i) {
    EXPECT_NEAR(g[i], f[i], 3e-6) << "i=" << i;
  }
}

TEST_P(CollisionTau, RelaxesTowardEquilibrium) {
  const Real tau = GetParam();
  Real f[Q];
  equilibrium_all(Real(1), Vec3{0.05f, 0, 0}, f);
  f[1] += Real(0.02);  // perturb one direction, breaking equilibrium
  f[2] += Real(0.02);  // symmetric so momentum is unchanged

  // Distance to equilibrium must shrink monotonically for tau > 1/2.
  auto distance = [&f] {
    Real rho = 0;
    Vec3 mom{};
    for (int i = 0; i < Q; ++i) {
      rho += f[i];
      mom.x += f[i] * C[i].x;
      mom.y += f[i] * C[i].y;
      mom.z += f[i] * C[i].z;
    }
    Real feq[Q];
    equilibrium_all(rho, mom / rho, feq);
    double d = 0;
    for (int i = 0; i < Q; ++i) d += std::abs(double(f[i]) - feq[i]);
    return d;
  };
  double prev = distance();
  for (int s = 0; s < 5; ++s) {
    collide_bgk_cell(f, tau, Vec3{});
    const double now = distance();
    EXPECT_LE(now, prev * (1.0 + 1e-6)) << "step " << s;
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, CollisionTau,
                         ::testing::Values(Real(0.6), Real(0.8), Real(1.0),
                                           Real(1.5), Real(1.9)));

TEST(Collision, GuoForcingAddsMomentum) {
  // One collision with force F adds exactly F to the cell's momentum
  // (Guo's scheme splits it half before, half after; net per step is F).
  const Vec3 F{Real(1e-4), Real(-2e-4), Real(3e-4)};
  Real f[Q];
  equilibrium_all(Real(1), Vec3{}, f);
  double m0[3] = {0, 0, 0};
  for (int i = 0; i < Q; ++i) {
    for (int a = 0; a < 3; ++a) m0[a] += f[i] * C[i][a];
  }
  collide_bgk_cell(f, Real(0.9), F);
  double m1[3] = {0, 0, 0};
  double rho1 = 0;
  for (int i = 0; i < Q; ++i) {
    rho1 += f[i];
    for (int a = 0; a < 3; ++a) m1[a] += f[i] * C[i][a];
  }
  EXPECT_NEAR(rho1, 1.0, 1e-6);  // mass unchanged
  EXPECT_NEAR(m1[0] - m0[0], F.x, 1e-7);
  EXPECT_NEAR(m1[1] - m0[1], F.y, 1e-7);
  EXPECT_NEAR(m1[2] - m0[2], F.z, 1e-7);
}

constexpr StorageMode kModes[] = {StorageMode::DoubleBuffer,
                                  StorageMode::Sparse, StorageMode::AA};

/// Random positive state through the mode-transparent accessor.
void randomize_positive_any(Lattice& lat, u64 seed) {
  Rng rng(seed);
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    for (int i = 0; i < Q; ++i) {
      lat.set_f(i, c, W[i] * Real(rng.uniform(0.7, 1.3)));
    }
  }
}

bool same_bits(Real a, Real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Collision, RegionVariantMatchesFull) {
  for (const StorageMode mode : kModes) {
    SCOPED_TRACE(storage_mode_name(mode));
    Lattice a(Int3{6, 6, 6}, mode), b(Int3{6, 6, 6}, mode);
    for (Lattice* lat : {&a, &b}) {
      lat->fill_solid_box(Int3{2, 2, 2}, Int3{3, 4, 3});
      lat->set_flag(Int3{4, 1, 3}, CellType::Outflow);
      randomize_positive_any(*lat, 5);
    }
    const BgkParams p{Real(0.8), Vec3{}};
    collide_bgk(a, p);
    collide_bgk_region(b, p, Int3{0, 0, 0}, Int3{6, 6, 6});
    for (int i = 0; i < Q; ++i) {
      for (i64 c = 0; c < a.num_cells(); ++c) {
        ASSERT_TRUE(same_bits(a.f(i, c), b.f(i, c)))
            << "i=" << i << " cell=" << c << ": " << a.f(i, c)
            << " vs " << b.f(i, c);
      }
    }
  }
}

// The batched collide core against the scalar reference: every fluid
// cell's post-collision values must be the bytes collide_bgk_cell makes
// from that cell's gathered pre-collision values, in every storage mode,
// force policy and walker path. Comparing modes against each other would
// miss a kernel that drifts the same way everywhere.
TEST(Collision, BatchedCoreMatchesScalarReference) {
  const Int3 dim{64, 9, 7};
  const Real tau = Real(0.7);
  // Forces large enough that the forcing term moves the low bits of f.
  const Vec3 uniform{Real(0.01), Real(-0.02), Real(0.005)};
  enum class Force { None, Uniform, PerCell };
  enum class Path { Full, Region };
  const Int3 lo{3, 2, 1}, hi{57, 8, 6};

  // Per-cell field: a quarter of the cells unforced (one with a -0
  // component, which is still unforced).
  std::vector<Vec3> field(static_cast<std::size_t>(dim.volume()));
  {
    Rng rng(77);
    for (Vec3& v : field) {
      if (rng.uniform() < 0.25) continue;
      v = Vec3{Real(rng.uniform(-0.02, 0.02)), Real(rng.uniform(-0.02, 0.02)),
               Real(rng.uniform(-0.02, 0.02))};
    }
    field[100] = Vec3{Real(-0.0), Real(0), Real(0)};
  }

  for (const StorageMode mode : kModes) {
    for (const Force force : {Force::None, Force::Uniform, Force::PerCell}) {
      for (const Path path : {Path::Full, Path::Region}) {
        SCOPED_TRACE(::testing::Message()
                     << storage_mode_name(mode) << " force="
                     << static_cast<int>(force)
                     << " path=" << static_cast<int>(path));
        Lattice lat(dim, mode);
        Rng rng(31);
        for (i64 c = 0; c < lat.num_cells(); ++c) {
          if (rng.uniform() < 0.01) lat.set_flag(c, CellType::Solid);
        }
        lat.set_flag(Int3{10, 4, 3}, CellType::Inlet);
        lat.set_flag(Int3{20, 5, 3}, CellType::Outflow);
        randomize_positive_any(lat, 13);

        std::set<i32> residues;
        for (const CellSpan& sp : lat.cell_class().spans) {
          residues.insert(sp.len % 16);
        }
        ASSERT_EQ(residues.size(), 16u) << "span lengths miss a remainder";

        std::vector<Real> pre(static_cast<std::size_t>(Q * lat.num_cells()));
        for (i64 c = 0; c < lat.num_cells(); ++c) {
          lat.gather_cell(c, pre.data() + c * Q);
        }

        // Region path has no per-cell-force entry point: that case runs
        // the pooled full pass instead.
        ThreadPool pool(2);
        const BgkParams p{tau, force == Force::Uniform ? uniform : Vec3{}};
        bool clipped = false;
        if (force == Force::PerCell) {
          StepContext ctx;
          if (path == Path::Region) ctx.pool = &pool;
          collide_bgk_forced(lat, tau, field.data(), ctx);
        } else if (path == Path::Region) {
          collide_bgk_region(lat, p, lo, hi);
          clipped = true;
        } else {
          collide_bgk(lat, p);
        }

        for (i64 c = 0; c < lat.num_cells(); ++c) {
          if (lat.flag(c) == CellType::Solid) continue;
          const Int3 q = lat.coords(c);
          const bool inside = !clipped || (q.x >= lo.x && q.x < hi.x &&
                                           q.y >= lo.y && q.y < hi.y &&
                                           q.z >= lo.z && q.z < hi.z);
          // AA leaves cells outside the box un-advanced: their logical
          // values are undefined until the exchange rewrites them.
          if (!inside && mode == StorageMode::AA) continue;
          Real want[Q] = {};
          std::memcpy(want, pre.data() + c * Q, sizeof want);
          if (inside && lat.flag(c) == CellType::Fluid) {
            const Vec3 fc = force == Force::PerCell
                                ? field[static_cast<std::size_t>(c)]
                                : p.force;
            collide_bgk_cell(want, tau, fc);
          }
          Real got[Q] = {};
          lat.gather_cell(c, got);
          ASSERT_EQ(std::memcmp(got, want, sizeof got), 0)
              << "cell " << q << " flag " << static_cast<int>(lat.flag(c));
        }
      }
    }
  }
}

TEST(Collision, RegionVariantTouchesOnlyRegion) {
  Lattice lat(Int3{6, 6, 6});
  randomize_positive(lat, 9);
  const Real before = lat.f(1, lat.idx(0, 0, 0));
  collide_bgk_region(lat, BgkParams{Real(0.8), Vec3{}}, Int3{2, 2, 2},
                     Int3{4, 4, 4});
  EXPECT_FLOAT_EQ(lat.f(1, lat.idx(0, 0, 0)), before);
  // A cell inside the region did change.
  Lattice ref(Int3{6, 6, 6});
  randomize_positive(ref, 9);
  EXPECT_NE(lat.f(1, lat.idx(3, 3, 3)), ref.f(1, ref.idx(3, 3, 3)));
}

TEST(Collision, SkipsSolidAndInletCells) {
  Lattice lat(Int3{4, 4, 4});
  randomize_positive(lat, 3);
  lat.set_flag(Int3{1, 1, 1}, CellType::Solid);
  lat.set_flag(Int3{2, 2, 2}, CellType::Inlet);
  const Real fs = lat.f(5, lat.idx(1, 1, 1));
  const Real fi = lat.f(5, lat.idx(2, 2, 2));
  collide_bgk(lat, BgkParams{Real(0.7), Vec3{}});
  EXPECT_FLOAT_EQ(lat.f(5, lat.idx(1, 1, 1)), fs);
  EXPECT_FLOAT_EQ(lat.f(5, lat.idx(2, 2, 2)), fi);
}

TEST(Collision, FusedEquivalentToSeparatePasses) {
  // With g0 = C f0: (S.C)^n f0 has C (S C)^n f0 = (C S)^n g0. So applying
  // one collide to the separate-pass state must match n fused steps from
  // the collided start.
  const Int3 dim{8, 6, 5};
  const BgkParams p{Real(0.8), Vec3{}};
  const int steps = 5;

  Lattice sep(dim);
  sep.init_equilibrium(Real(1), Vec3{});
  // Non-trivial but stable initial condition with an obstacle.
  sep.fill_solid_box(Int3{3, 2, 1}, Int3{5, 4, 3});
  for (i64 c = 0; c < sep.num_cells(); ++c) {
    const Int3 q = sep.coords(c);
    Real f[Q];
    equilibrium_all(Real(1) + Real(0.01) * Real(q.x % 3),
                    Vec3{Real(0.02) * Real(q.y % 2), 0, 0}, f);
    for (int i = 0; i < Q; ++i) sep.set_f(i, c, f[i]);
  }
  Lattice fused(dim);
  fused.fill_solid_box(Int3{3, 2, 1}, Int3{5, 4, 3});
  for (i64 c = 0; c < sep.num_cells(); ++c) {
    for (int i = 0; i < Q; ++i) fused.set_f(i, c, sep.f(i, c));
  }

  // Separate: n x (collide; stream), then one extra collide.
  for (int s = 0; s < steps; ++s) {
    collide_bgk(sep, p);
    stream(sep);
  }
  collide_bgk(sep, p);

  // Fused: pre-collide once, then n fused (stream; collide) steps.
  collide_bgk(fused, p);
  for (int s = 0; s < steps; ++s) fused_stream_collide(fused, p);

  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < sep.num_cells(); ++c) {
      ASSERT_FLOAT_EQ(sep.f(i, c), fused.f(i, c))
          << "i=" << i << " cell=" << c;
    }
  }
}

TEST(Collision, FusedRejectsCurvedLinks) {
  Lattice lat(Int3{4, 4, 4});
  lat.add_curved_link({0, 1, Real(0.5)});
  EXPECT_THROW(fused_stream_collide(lat, BgkParams{}), Error);
}

}  // namespace
}  // namespace gc::lbm
