// BGK (single-relaxation-time) collision, Section 4.1: a statistical
// redistribution of momentum toward equilibrium that conserves mass and
// momentum. Optional body force uses the Guo forcing scheme (needed by the
// thermal Boussinesq coupling and by channel-flow tests).
#pragma once

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"
#include "util/thread_pool.hpp"

namespace gc::lbm {

struct BgkParams {
  Real tau = Real(0.8);  ///< relaxation time; nu = (tau - 1/2)/3
  Vec3 force{};          ///< uniform body force density (Guo scheme)
};

/// Collides every Fluid cell in place (current buffer); Solid, Inlet and
/// Outflow cells keep their values.
void collide_bgk(Lattice& lat, const BgkParams& p);

/// Multithreaded variant (z-slabs on the pool; collision is per-cell
/// local, so this is bit-identical to the serial kernel).
void collide_bgk(Lattice& lat, const BgkParams& p, ThreadPool& pool);

/// Collides cells in the box [lo, hi) only. Used by the overlap pipeline
/// (inner cells collide while the border exchange is in flight) and by
/// per-thread partitioning.
void collide_bgk_region(Lattice& lat, const BgkParams& p, Int3 lo, Int3 hi);

/// Collides one cell given its 19 distribution values (in/out). Exposed so
/// the simulated-GPU fragment program and the CPU kernel share one
/// definition — keeping the two paths bit-identical.
void collide_bgk_cell(Real f[Q], Real tau, Vec3 force);

/// Per-cell spatially varying force field variant (e.g., Boussinesq
/// buoyancy from the thermal module). `force[cell]` is the force at a cell.
/// Runs on ctx.pool when set (z-slabs, bit-identical to serial) and emits
/// a "collide" span on ctx.trace when attached.
void collide_bgk_forced(Lattice& lat, Real tau, const Vec3* force,
                        const StepContext& ctx = {});

/// Fused stream+collide ("pull then collide"), the memory-traffic
/// optimization of Massaioli & Amati cited in Section 4.4. Handles the same
/// boundary conditions as the separate passes. Swaps buffers itself. Runs
/// on ctx.pool when set (z-slabs pull+collide concurrently; the pull
/// pattern has no write conflicts, so this is bit-identical to serial) and
/// emits a "fused" span on ctx.trace when attached.
void fused_stream_collide(Lattice& lat, const BgkParams& p,
                          const StepContext& ctx = {});

}  // namespace gc::lbm
