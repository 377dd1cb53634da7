// Tracer-particle dispersion (Section 5, after Lowe & Succi's
// "go with the flow" method): pollution tracers sit on lattice sites and
// hop along lattice links with transition probabilities taken from the
// LBM velocity distributions, p_i = f_i / rho.
#pragma once

#include <array>
#include <vector>

#include "lbm/lattice.hpp"
#include "util/rng.hpp"

namespace gc::tracer {

struct TracerParams {
  u64 seed = 7;
  /// Particles hitting a Solid cell stay put this step (reflective walls).
  bool stick_to_walls = false;
};

/// Memoized hop distributions over one fixed flow. For each cell a
/// particle visits it stores, on first visit, the Q running sums of
/// max(0, f_i) in link order — the cumulative distribution a hop samples,
/// whose last entry is rho. Later visits read 19 contiguous values
/// instead of gathering Q planes. Valid only while the lattice's
/// distributions stay unchanged: build a new table after every LBM step.
class HopTable {
 public:
  explicit HopTable(const lbm::Lattice& lat);

  const lbm::Lattice& lattice() const { return lat_; }
  /// The running sums at `cell` (computed on first use). The reference
  /// stays valid until the next cdf() call.
  const std::array<Real, lbm::Q>& cdf(i64 cell);

 private:
  const lbm::Lattice& lat_;
  std::vector<i32> slot_;  ///< cell -> index into sums_, -1 if unvisited
  std::vector<std::array<Real, lbm::Q>> sums_;
};

class TracerCloud {
 public:
  explicit TracerCloud(TracerParams params = TracerParams{});

  /// Releases `count` particles at a lattice site.
  void release(Int3 site, int count);

  i64 num_particles() const { return static_cast<i64>(particles_.size()); }
  i64 num_escaped() const { return escaped_; }
  const std::vector<Int3>& particles() const { return particles_; }

  /// One dispersion step: every particle samples a link with probability
  /// f_i / rho and hops along it. Particles leaving the domain through
  /// Outflow/Inlet faces are removed (counted as escaped); other faces
  /// reflect. Solid targets cancel the hop. Stepping a table built once
  /// over a fixed flow gives the same particles and RNG draws as stepping
  /// the lattice itself; the lattice form builds a one-step table.
  void step(HopTable& hops);
  void step(const lbm::Lattice& lat);

  /// Accumulates particle counts onto a per-cell density grid.
  void deposit(const lbm::Lattice& lat, std::vector<float>& density) const;

 private:
  TracerParams params_;
  Rng rng_;
  std::vector<Int3> particles_;
  i64 escaped_ = 0;
};

}  // namespace gc::tracer
