// The full-stack functional reproduction of the paper's system: each
// logical cluster node owns a *simulated GPU* (texture stacks + fragment
// programs) running the LBM, border distributions are gathered on-GPU and
// read back over the simulated AGP bus, exchanged across MpiLite by the
// same border-exchange pipeline as core::ParallelLbm (two-hop diagonal
// routing along the pairwise schedule), written back into the neighbor
// GPUs' ghost layers, and streaming proceeds on-GPU.
// Produces results bit-identical to both the host distributed solver
// (core::ParallelLbm) and the serial reference — the payload wire format
// is byte-compatible with ParallelLbm's, node for node.
#pragma once

#include <memory>
#include <vector>

#include "core/border_exchange.hpp"
#include "core/decomposition.hpp"
#include "gpulbm/gpu_solver.hpp"
#include "netsim/mpilite.hpp"
#include "netsim/schedule.hpp"
#include "obs/trace.hpp"

namespace gc::core {

struct GpuClusterConfig {
  Real tau = Real(0.8);
  /// Node arrangement; 2D only (dims.z == 1), as in the paper's Table 1.
  netsim::NodeGrid grid;
  gpusim::GpuSpec gpu = gpusim::GpuSpec::geforce_fx5800_ultra();
  gpusim::BusSpec bus = gpusim::BusSpec::agp8x();
  /// Executed §4.4 overlap: the border exchange (core::exchange_borders)
  /// renders the inner streaming rectangle while messages are in flight,
  /// then writes the ghosts and renders the outer strips. When false the
  /// same exchange runs with an empty inner window, then one full
  /// streaming pass. Bit-identical either way (same per-texel programs,
  /// each texel rendered exactly once) and wire-identical.
  bool overlap = false;
  /// Fluid-cell-balanced cut placement (same semantics as
  /// ParallelConfig::fluid_balanced): the cut planes follow the global
  /// lattice's marginal non-solid histograms instead of uniform splits.
  /// Topology and results are unchanged; only block extents move.
  bool fluid_balanced = false;
  /// When set, every node emits overlap.pack / overlap.inner /
  /// overlap.wait / overlap.unpack / overlap.outer spans (overlap mode) or
  /// pack / exchange (the wait) / unpack / stream spans (synchronous
  /// mode) per step, tid = node, and run() publishes the
  /// mpi.overlap_hidden_ms gauge in overlap mode. Not owned.
  obs::TraceRecorder* trace = nullptr;
};

class GpuClusterLbm {
 public:
  /// Scatters `global` across the node grid; one simulated GPU per node.
  /// Like the single-GPU solver, requires a uniform inlet velocity.
  GpuClusterLbm(const lbm::Lattice& global, GpuClusterConfig cfg);

  const Decomposition3& decomposition() const { return decomp_; }
  const netsim::CommSchedule& schedule() const { return sched_; }

  /// Advances every node `steps` LBM steps (one MpiLite rank per node).
  void run(int steps);

  /// Reassembles the owned regions into a global lattice.
  void gather(lbm::Lattice& out) const;

  /// Sum of all nodes' simulated-GPU time ledgers.
  gpusim::GpuTimeLedger total_ledger() const;

  /// Cumulative network time node `node` hid under its inner streaming
  /// render (overlap mode only; 0 otherwise).
  double overlap_hidden_ms(int node) const;

 private:
  void node_step(netsim::Comm& comm, int node);

  GpuClusterConfig cfg_;
  Decomposition3 decomp_;
  netsim::CommSchedule sched_;
  std::vector<netsim::IndirectRoute> routes_;
  std::vector<LocalDomain> domains_;
  std::vector<std::unique_ptr<gpusim::GpuDevice>> devices_;
  std::vector<std::unique_ptr<gpulbm::GpuLbmSolver>> gpus_;
  netsim::MpiLite world_;
  /// Per-node cumulative hidden network time (0 outside overlap mode).
  std::vector<double> hidden_ms_;
};

}  // namespace gc::core
