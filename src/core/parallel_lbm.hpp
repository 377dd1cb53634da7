// The distributed LBM of Section 4.3, functionally: each logical cluster
// node owns a block of the lattice (plus ghost layers), collides locally,
// exchanges border distributions (core::exchange_borders) — diagonal
// traffic routed indirectly in two axial hops along the pairwise
// schedule — and streams. Produces results identical to the serial lbm
// reference; the matching *timing* comes from core::ClusterSimulator.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/border_exchange.hpp"
#include "core/decomposition.hpp"
#include "lbm/collision.hpp"
#include "lbm/solver.hpp"
#include "netsim/mpilite.hpp"
#include "netsim/schedule.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace gc::core {

/// Embeds lbm::RunParams (tau / collision / storage — see run_params.hpp);
/// `storage` selects the per-node backend: double-buffered or the
/// in-place AA pattern (half the footprint per rank, bit-exact,
/// wire-compatible — pack/unpack go through the phase-transparent
/// accessors).
struct ParallelConfig : lbm::RunParams {
  netsim::NodeGrid grid;
  /// Hybrid thermal model (forces MRT): the finite-difference temperature
  /// field runs distributed too, exchanging one ghost value per border
  /// cell per step (the 7-point stencil needs axial faces only).
  std::optional<lbm::ThermalParams> thermal;
  /// Initial global temperature field (cell-indexed); defaults to t_ref.
  const std::vector<Real>* initial_temperature = nullptr;
  /// When false, diagonal data is exchanged directly between second-
  /// nearest neighbors instead of the paper's two-hop indirect routing
  /// (functional results are identical; used by the schedule ablation).
  bool indirect_diagonals = true;
  /// Places the decomposition's cut planes on per-axis fluid-cell counts
  /// (hemelb-style coordinate partitioning) instead of uniformly, so
  /// solid-heavy geometry stops inflating one rank's fluid load. Pure
  /// load-balance knob: the node-grid topology and every simulated value
  /// are unchanged.
  bool fluid_balanced = false;
  /// Executes the paper's §4.4 compute–communication overlap for real:
  /// the border exchange (core::exchange_borders) streams the inner cells
  /// (those that cannot read a ghost texel) while the messages are in
  /// flight, then unpacks the ghosts and streams the outer shell. When
  /// false the same exchange runs with an empty inner window, followed by
  /// a full-lattice stream. Bit-identical either way — the pull pattern
  /// writes each cell exactly once, so phase order cannot change a value
  /// — and wire-identical: the same messages on the same channels.
  bool overlap = false;
  /// When set, every rank emits a collide span per step plus either
  /// overlap.pack / overlap.inner / overlap.wait / overlap.unpack /
  /// overlap.outer (overlap mode) or pack / exchange (the wait) / unpack
  /// / stream (synchronous mode) — tid = rank; thermal runs add one
  /// exchange span for the temperature ghosts. run() publishes per-rank
  /// mpi.messages / mpi.bytes / mpi.barrier_waits counters, the
  /// reliable exchange's ft.retransmits / ft.corrupt_detected /
  /// ft.duplicates_dropped / ft.recv_timeouts counters and, in overlap
  /// mode, the mpi.overlap_hidden_ms gauge. Null = zero
  /// instrumentation cost. Not owned.
  obs::TraceRecorder* trace = nullptr;
  /// Fault injection: when set, MpiLite applies the spec's message faults
  /// to its envelope stream and the run honours its rank faults. Not
  /// owned (and mutable: crash faults are one-shot, counters accumulate).
  /// Null = perfect network; the exchange runs the same sequence/CRC
  /// envelope either way.
  netsim::FaultSpec* faults = nullptr;
  /// Retransmit and receive-timeout policy of the reliable exchange.
  netsim::ReliabilityConfig reliability;
  /// When set, each rank scans its owned region after every
  /// `sentinel->every`-th step and throws DivergenceError on NaN or
  /// density blow-up. Unset = zero cost.
  std::optional<lbm::SentinelThresholds> sentinel;
};

class ParallelLbm {
 public:
  /// Scatters `global` (flags, boundary setup, current distributions)
  /// across the node grid. Decomposed axes must not be periodic, and the
  /// global lattice must not use curved links.
  ParallelLbm(const lbm::Lattice& global, ParallelConfig cfg);

  const Decomposition3& decomposition() const { return decomp_; }
  const netsim::CommSchedule& schedule() const { return sched_; }

  /// Advances all nodes `steps` LBM steps, one MpiLite rank per node.
  /// The summary carries wall time and, when a recorder is attached,
  /// per-phase span totals for just this run. Under an attached
  /// FaultSpec this may throw CommError / RankCrashError /
  /// DivergenceError; the step counter only advances on success, and
  /// reset_comm() + restore_local() roll the simulation back.
  obs::RunStats run(int steps);

  /// Global LBM steps completed so far (advances only on successful
  /// run() calls; the recovery layer rewinds it on rollback).
  i64 current_step() const { return step_; }
  void set_current_step(i64 step) { step_ = step; }

  /// Overwrites node `node`'s distributions with `saved` (same local
  /// dimensions; flags/BCs are configuration and stay untouched). The
  /// restore half of a checkpoint rollback.
  void restore_local(int node, const lbm::Lattice& saved);

  /// Clears the communicator after a failed run (abort flag, in-flight
  /// messages, protocol state), so a restored simulation can run again.
  void reset_comm();

  /// Aborts the communicator world from outside the run: every rank
  /// blocked in recv/barrier wakes with CommAborted and the run() call
  /// fails promptly. The cancellation hook for deadline watchdogs; pair
  /// with reset_comm() before running again.
  void abort_comm() GC_EXCLUDES(netsim::MpiLite::mu_) { world_.abort(); }

  /// Reassembles the owned regions into a global lattice.
  void gather(lbm::Lattice& out) const;

  /// Reassembles the temperature field (thermal runs only).
  void gather_temperature(std::vector<Real>& out) const;

  /// Access to a node's local lattice (tests).
  const lbm::Lattice& local(int node) const { return *locals_[static_cast<std::size_t>(node)]; }

  bool has_thermal() const { return !thermals_.empty(); }

  const ParallelConfig& config() const { return cfg_; }

  /// Total payload values routed through MpiLite so far.
  i64 total_payload_values() const { return world_.total_payload_values(); }

  /// The underlying communicator world (read-only): per-rank traffic and
  /// reliability tallies for the determinism/equivalence harnesses.
  const netsim::MpiLite& world() const { return world_; }

  /// Cumulative network time node `node` hid under its inner-cell
  /// streaming window (overlap mode only; 0 otherwise). Measured from
  /// message enqueue stamps, not modeled: the overlap of the
  /// comm-in-flight interval with the inner-compute window.
  double overlap_hidden_ms(int node) const;

 private:
  void node_step(netsim::Comm& comm, int node, i64 global_step);

  ParallelConfig cfg_;
  Decomposition3 decomp_;
  netsim::CommSchedule sched_;
  std::vector<netsim::IndirectRoute> routes_;
  std::vector<LocalDomain> domains_;
  std::vector<std::unique_ptr<lbm::Lattice>> locals_;
  /// Per-node inner/outer split of the bulk spans (overlap mode only;
  /// built once in the ctor — node flags never change afterwards).
  std::vector<lbm::InnerOuterClass> splits_;
  /// Per-node cumulative hidden network time (0 outside overlap mode).
  std::vector<double> hidden_ms_;
  std::vector<std::unique_ptr<lbm::ThermalField>> thermals_;
  std::vector<std::vector<Vec3>> scratch_u_;
  std::vector<std::vector<Vec3>> scratch_force_;
  netsim::MpiLite world_;
  i64 step_ = 0;
};

}  // namespace gc::core
