#include "tracer/tracer.hpp"

#include <algorithm>
#include <limits>

namespace gc::tracer {

using lbm::C;
using lbm::CellType;
using lbm::FaceBc;
using lbm::Q;

TracerCloud::TracerCloud(TracerParams params)
    : params_(params), rng_(params.seed) {}

void TracerCloud::release(Int3 site, int count) {
  GC_CHECK(count >= 0);
  particles_.insert(particles_.end(), static_cast<std::size_t>(count), site);
}

HopTable::HopTable(const lbm::Lattice& lat)
    : lat_(lat), slot_(static_cast<std::size_t>(lat.num_cells()), -1) {
  GC_CHECK_MSG(lat.num_cells() <= std::numeric_limits<i32>::max(),
               "HopTable indexes at most 2^31-1 cells");
}

const std::array<Real, Q>& HopTable::cdf(i64 cell) {
  i32& slot = slot_[static_cast<std::size_t>(cell)];
  if (slot < 0) {
    Real f[Q];
    lat_.gather_cell(cell, f);
    std::array<Real, Q>& acc = sums_.emplace_back();
    Real sum = 0;
    for (int i = 0; i < Q; ++i) {
      sum += std::max(Real(0), f[i]);  // guard tiny negatives
      acc[i] = sum;
    }
    slot = static_cast<i32>(sums_.size() - 1);
  }
  return sums_[static_cast<std::size_t>(slot)];
}

void TracerCloud::step(const lbm::Lattice& lat) {
  HopTable hops(lat);
  step(hops);
}

void TracerCloud::step(HopTable& hops) {
  const lbm::Lattice& lat = hops.lattice();
  const Int3 d = lat.dim();
  std::vector<Int3> kept;
  kept.reserve(particles_.size());

  for (Int3 p : particles_) {
    // Sample a link with probability f_i / rho: the first link whose
    // running sum exceeds r. The sums never decrease, so a binary search
    // finds the same link as a linear scan; none (r rounded up to rho)
    // leaves the particle on the rest link.
    const std::array<Real, Q>& acc = hops.cdf(lat.idx(p));
    const Real rho = acc[Q - 1];
    int dir = 0;
    if (rho > Real(0)) {
      const Real r = Real(rng_.uniform()) * rho;
      const auto it = std::upper_bound(acc.begin(), acc.end(), r);
      if (it != acc.end()) dir = static_cast<int>(it - acc.begin());
    }

    Int3 q = p + C[dir];
    bool escaped = false;
    for (int a = 0; a < 3; ++a) {
      if (q[a] >= 0 && q[a] < d[a]) continue;
      const auto face =
          static_cast<lbm::Face>(2 * a + (q[a] < 0 ? 0 : 1));
      switch (lat.face_bc(face)) {
        case FaceBc::Periodic:
          q[a] = (q[a] + d[a]) % d[a];
          break;
        case FaceBc::Outflow:
        case FaceBc::Inlet:
          escaped = true;
          break;
        default:
          q[a] = p[a];  // reflect off walls / slip faces
          break;
      }
    }
    if (escaped) {
      ++escaped_;
      continue;
    }
    if (lat.flag(q) == CellType::Solid) {
      q = p;  // the hop is blocked by a building
    }
    kept.push_back(q);
  }
  particles_.swap(kept);
}

void TracerCloud::deposit(const lbm::Lattice& lat,
                          std::vector<float>& density) const {
  density.assign(static_cast<std::size_t>(lat.num_cells()), 0.0f);
  for (const Int3& p : particles_) {
    density[static_cast<std::size_t>(lat.idx(p))] += 1.0f;
  }
}

}  // namespace gc::tracer
