// Tracer dispersion: determinism, advection with the flow, wall blocking,
// escape accounting, density deposition, and the memoized hop table
// against the per-hop reference it replaced.
#include <gtest/gtest.h>

#include <algorithm>

#include "lbm/lattice.hpp"
#include "tracer/tracer.hpp"
#include "util/rng.hpp"

namespace gc::tracer {
namespace {

using lbm::FaceBc;
using lbm::Lattice;

TEST(Tracer, ReleaseAddsParticles) {
  TracerCloud cloud;
  cloud.release(Int3{2, 2, 2}, 100);
  EXPECT_EQ(cloud.num_particles(), 100);
  EXPECT_EQ(cloud.num_escaped(), 0);
}

TEST(Tracer, DeterministicForSameSeed) {
  Lattice lat(Int3{16, 16, 8});
  lat.init_equilibrium(Real(1), Vec3{0.1f, 0, 0});
  TracerParams p;
  p.seed = 5;
  TracerCloud a(p), b(p);
  a.release(Int3{8, 8, 4}, 50);
  b.release(Int3{8, 8, 4}, 50);
  for (int s = 0; s < 10; ++s) {
    a.step(lat);
    b.step(lat);
  }
  ASSERT_EQ(a.particles().size(), b.particles().size());
  for (std::size_t k = 0; k < a.particles().size(); ++k) {
    EXPECT_EQ(a.particles()[k], b.particles()[k]);
  }
}

TEST(Tracer, DriftsWithTheMeanFlow) {
  // In a uniform flow u, the mean tracer displacement per step must be u
  // (the Lowe-Succi transition probabilities are f_i / rho, whose first
  // moment is exactly u).
  Lattice lat(Int3{64, 16, 16});
  const Vec3 u{0.15f, 0, 0};
  lat.init_equilibrium(Real(1), u);
  TracerCloud cloud;
  cloud.release(Int3{8, 8, 8}, 2000);
  const int steps = 40;
  for (int s = 0; s < steps; ++s) cloud.step(lat);

  double mean_x = 0;
  for (const Int3& p : cloud.particles()) mean_x += p.x;
  mean_x /= static_cast<double>(cloud.particles().size());
  EXPECT_NEAR(mean_x - 8.0, double(u.x) * steps, 0.8);
}

TEST(Tracer, StationaryFluidSpreadsSymmetrically) {
  Lattice lat(Int3{32, 32, 32});
  lat.init_equilibrium(Real(1), Vec3{});
  TracerCloud cloud;
  cloud.release(Int3{16, 16, 16}, 3000);
  for (int s = 0; s < 20; ++s) cloud.step(lat);
  double mx = 0, my = 0, mz = 0;
  for (const Int3& p : cloud.particles()) {
    mx += p.x - 16;
    my += p.y - 16;
    mz += p.z - 16;
  }
  const double n = static_cast<double>(cloud.particles().size());
  EXPECT_NEAR(mx / n, 0.0, 0.4);
  EXPECT_NEAR(my / n, 0.0, 0.4);
  EXPECT_NEAR(mz / n, 0.0, 0.4);
}

TEST(Tracer, BuildingsBlockParticles) {
  Lattice lat(Int3{16, 16, 8});
  for (int f = 0; f < 6; ++f) {
    lat.set_face_bc(static_cast<lbm::Face>(f), FaceBc::Wall);
  }
  lat.init_equilibrium(Real(1), Vec3{0.2f, 0, 0});
  // A wall right of the release point, spanning the full cross-section.
  lat.fill_solid_box(Int3{10, 0, 0}, Int3{12, 16, 8});
  TracerCloud cloud;
  cloud.release(Int3{8, 8, 4}, 500);
  for (int s = 0; s < 30; ++s) cloud.step(lat);
  for (const Int3& p : cloud.particles()) {
    EXPECT_NE(lat.flag(p), lbm::CellType::Solid);
    EXPECT_LT(p.x, 10);  // nobody crossed the building wall
  }
}

TEST(Tracer, OutflowFaceRemovesParticles) {
  Lattice lat(Int3{12, 8, 8});
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
  lat.init_equilibrium(Real(1), Vec3{0.2f, 0, 0});
  TracerCloud cloud;
  cloud.release(Int3{10, 4, 4}, 300);
  for (int s = 0; s < 40; ++s) cloud.step(lat);
  EXPECT_GT(cloud.num_escaped(), 250);
  EXPECT_EQ(cloud.num_particles() + cloud.num_escaped(), 300);
}

TEST(Tracer, WallsReflect) {
  Lattice lat(Int3{8, 8, 8});
  for (int f = 0; f < 6; ++f) {
    lat.set_face_bc(static_cast<lbm::Face>(f), FaceBc::Wall);
  }
  lat.init_equilibrium(Real(1), Vec3{});
  TracerCloud cloud;
  cloud.release(Int3{0, 0, 0}, 200);
  for (int s = 0; s < 25; ++s) cloud.step(lat);
  EXPECT_EQ(cloud.num_escaped(), 0);
  EXPECT_EQ(cloud.num_particles(), 200);
}

/// The per-hop loop the HopTable replaced, kept verbatim as the
/// reference: gathers Q values per particle per step and scans linearly.
struct ReferenceCloud {
  Rng rng;
  std::vector<Int3> particles;
  i64 escaped = 0;

  void step(const Lattice& lat) {
    using lbm::C;
    using lbm::Q;
    const Int3 d = lat.dim();
    std::vector<Int3> kept;
    for (Int3 p : particles) {
      const i64 cell = lat.idx(p);
      Real rho = 0;
      Real f[Q];
      for (int i = 0; i < Q; ++i) {
        f[i] = std::max(Real(0), lat.f(i, cell));
        rho += f[i];
      }
      int dir = 0;
      if (rho > Real(0)) {
        const Real r = Real(rng.uniform()) * rho;
        Real acc = 0;
        for (int i = 0; i < Q; ++i) {
          acc += f[i];
          if (r < acc) {
            dir = i;
            break;
          }
        }
      }
      Int3 q = p + C[dir];
      bool out = false;
      for (int a = 0; a < 3; ++a) {
        if (q[a] >= 0 && q[a] < d[a]) continue;
        const auto face = static_cast<lbm::Face>(2 * a + (q[a] < 0 ? 0 : 1));
        switch (lat.face_bc(face)) {
          case FaceBc::Periodic:
            q[a] = (q[a] + d[a]) % d[a];
            break;
          case FaceBc::Outflow:
          case FaceBc::Inlet:
            out = true;
            break;
          default:
            q[a] = p[a];
            break;
        }
      }
      if (out) {
        ++escaped;
        continue;
      }
      if (lat.flag(q) == lbm::CellType::Solid) q = p;
      kept.push_back(q);
    }
    particles.swap(kept);
  }
};

TEST(Tracer, HopTableMatchesReferenceHop) {
  // Every face kind the hop distinguishes, a building, a cell with
  // rho = 0 (no RNG draw), and tiny negative distributions to clamp.
  Lattice lat(Int3{12, 10, 8});
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Periodic);
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Periodic);
  lat.set_face_bc(lbm::FACE_YMIN, FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_YMAX, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::FreeSlip);
  Rng fill(17);
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    for (int i = 0; i < lbm::Q; ++i) {
      const double u = fill.uniform();
      lat.set_f(i, c, u < 0.1 ? Real(-1e-7 * u) : Real(0.1 * u));
    }
  }
  lat.fill_solid_box(Int3{5, 4, 0}, Int3{7, 6, 4});
  const Int3 still{2, 2, 2};
  for (int i = 0; i < lbm::Q; ++i) lat.set_f(i, lat.idx(still), Real(0));
  const Int3 sites[] = {still, Int3{0, 5, 4}, Int3{11, 1, 7}, Int3{4, 5, 1}};

  for (u64 seed = 1; seed <= 5; ++seed) {
    TracerParams p;
    p.seed = seed;
    TracerCloud memo(p);
    TracerCloud one_step(p);
    ReferenceCloud ref{Rng(seed), {}, 0};
    for (const Int3 s : sites) {
      memo.release(s, 40);
      one_step.release(s, 40);
      ref.particles.insert(ref.particles.end(), 40, s);
    }
    HopTable hops(lat);
    for (int s = 0; s < 50; ++s) {
      memo.step(hops);
      one_step.step(lat);
      ref.step(lat);
      ASSERT_EQ(memo.particles(), ref.particles) << "seed " << seed
                                                  << " step " << s;
      ASSERT_EQ(one_step.particles(), ref.particles);
      ASSERT_EQ(memo.num_escaped(), ref.escaped);
      ASSERT_EQ(one_step.num_escaped(), ref.escaped);
    }
    EXPECT_GT(ref.escaped, 0);
    EXPECT_LT(ref.escaped, 160);
  }
}

TEST(Tracer, DepositAccumulatesCounts) {
  Lattice lat(Int3{4, 4, 4});
  lat.init_equilibrium(Real(1), Vec3{});
  TracerCloud cloud;
  cloud.release(Int3{1, 2, 3}, 7);
  cloud.release(Int3{0, 0, 0}, 3);
  std::vector<float> density;
  cloud.deposit(lat, density);
  EXPECT_FLOAT_EQ(density[static_cast<std::size_t>(lat.idx(1, 2, 3))], 7.0f);
  EXPECT_FLOAT_EQ(density[static_cast<std::size_t>(lat.idx(0, 0, 0))], 3.0f);
  float total = 0;
  for (float v : density) total += v;
  EXPECT_FLOAT_EQ(total, 10.0f);
}

}  // namespace
}  // namespace gc::tracer
