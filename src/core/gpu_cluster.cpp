#include "core/gpu_cluster.hpp"

#include <array>

namespace gc::core {

using gpulbm::outgoing_directions;
using lbm::Face;
using lbm::FaceBc;
using netsim::Comm;
using netsim::Payload;

namespace {

/// Index of direction `dir` within outgoing_directions(face).
int dir_slot(Face face, int dir) {
  const auto dirs = outgoing_directions(face);
  for (int k = 0; k < 5; ++k) {
    if (dirs[static_cast<std::size_t>(k)] == dir) return k;
  }
  GC_CHECK_MSG(false, "direction " << dir << " does not leave face " << face);
  return -1;
}

/// Tangent axis of an x/y face's in-slice border line.
int tangent_axis(int face) { return face / 2 == 0 ? 1 : 0; }

/// The simulated GPU's border codec. Every neighbor face's post-collision
/// border is gathered on-GPU and read back over the simulated AGP bus
/// once, at construction (the Section 4.3 single-read optimization); the
/// diagonal chunks are cut from the x-face read-back, and received data is
/// written straight into the ghost texels.
class GpuBorderCodec final : public BorderCodec {
 public:
  GpuBorderCodec(gpulbm::GpuLbmSolver& gpu, const LocalDomain& ld,
                 const Decomposition3& decomp, int node)
      : gpu_(gpu), ld_(ld), dz_(ld.local_dim().z) {
    for (const auto& [face, nb] : decomp.axial_neighbors(node)) {
      (void)nb;
      const int t = tangent_axis(face);
      planes_[static_cast<std::size_t>(face)] = gpu_.read_border_plane(
          static_cast<Face>(face), ld_.own_border_coord(face),
          ld_.own_lo()[t], ld_.own_hi()[t], 0, dz_);
    }
  }

  Payload pack_face(int face) override {
    return planes_[static_cast<std::size_t>(face)];
  }

  /// The corner line toward `off` is part of the x-face border.
  Payload pack_edge(Int3 off) override {
    const int fx = off.x > 0 ? lbm::FACE_XMAX : lbm::FACE_XMIN;
    const Payload& plane = planes_[static_cast<std::size_t>(fx)];
    const int t0 = ld_.own_lo().y;
    const int bw = ld_.own_hi().y - t0;
    const int t = (off.y > 0 ? ld_.own_hi().y - 1 : ld_.own_lo().y) - t0;
    const int k = dir_slot(static_cast<Face>(fx), lbm::direction_index(off));
    Payload chunk;
    chunk.reserve(static_cast<std::size_t>(dz_));
    for (int z = 0; z < dz_; ++z) {
      chunk.push_back(plane[(static_cast<std::size_t>(z) * bw + t) * 5 +
                            static_cast<std::size_t>(k)]);
    }
    return chunk;
  }

  void unpack_face(int face, const Payload& data) override {
    const int t = tangent_axis(face);
    gpu_.write_ghost_plane(static_cast<Face>(face), ld_.ghost_coord(face),
                           ld_.own_lo()[t], ld_.own_hi()[t], 0, dz_, data);
  }

  void unpack_edge(Int3 off, const Payload& data) override {
    const int gx = off.x > 0 ? ld_.own_hi().x : ld_.own_lo().x - 1;
    const int gy = off.y > 0 ? ld_.own_hi().y : ld_.own_lo().y - 1;
    const int dir = lbm::direction_index(Int3{-off.x, -off.y, 0});
    gpu_.write_ghost_line_z(gx, gy, dir, 0, dz_, data);
  }

 private:
  gpulbm::GpuLbmSolver& gpu_;
  const LocalDomain& ld_;
  const int dz_;
  std::array<Payload, 4> planes_;  ///< x/y faces only (dims.z == 1)
};

}  // namespace

GpuClusterLbm::GpuClusterLbm(const lbm::Lattice& global, GpuClusterConfig cfg)
    : cfg_(cfg),
      decomp_(cfg.fluid_balanced
                  ? Decomposition3(global.dim(), cfg.grid, global.flags())
                  : Decomposition3(global.dim(), cfg.grid)),
      sched_(netsim::CommSchedule::pairwise(cfg.grid)),
      world_(cfg.grid.num_nodes()) {
  GC_CHECK_MSG(cfg.grid.dims.z == 1,
               "GpuClusterLbm decomposes in 2D (dims.z must be 1)");
  GC_CHECK(global.curved_links().empty());
  for (int a = 0; a < 2; ++a) {
    if (cfg.grid.dims[a] > 1) {
      GC_CHECK_MSG(
          global.face_bc(static_cast<Face>(2 * a)) != FaceBc::Periodic &&
              global.face_bc(static_cast<Face>(2 * a + 1)) !=
                  FaceBc::Periodic,
          "decomposed axis " << a << " cannot be periodic");
    }
  }
  routes_ = netsim::plan_indirect_routes(sched_);

  const int n = decomp_.num_nodes();
  hidden_ms_.assign(static_cast<std::size_t>(n), 0.0);
  for (int node = 0; node < n; ++node) {
    const LocalDomain ld = LocalDomain::make(decomp_, node);
    domains_.push_back(ld);
    // The same local host lattice core::ParallelLbm starts from, handed to
    // a fresh simulated GPU.
    devices_.push_back(
        std::make_unique<gpusim::GpuDevice>(cfg.gpu, cfg.bus));
    gpus_.push_back(std::make_unique<gpulbm::GpuLbmSolver>(
        *devices_.back(), scatter_local(global, ld), cfg.tau));
  }
}

void GpuClusterLbm::node_step(Comm& comm, int node) {
  gpulbm::GpuLbmSolver& gpu = *gpus_[static_cast<std::size_t>(node)];
  const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
  obs::TraceRecorder* rec = cfg_.trace;

  gpu.collide_pass();
  GpuBorderCodec codec(gpu, ld, decomp_, node);
  if (cfg_.overlap) {
    // Inner streaming rectangle: inset two texels (ghost layer + the shell
    // that reads it) on every side that has a neighbor; z is undecomposed.
    const Int3 dl = ld.local_dim();
    gpusim::Rect inner;
    inner.x0 = ld.ghost_lo.x ? 2 : 0;
    inner.y0 = ld.ghost_lo.y ? 2 : 0;
    inner.x1 = dl.x - (ld.ghost_hi.x ? 2 : 0);
    inner.y1 = dl.y - (ld.ghost_hi.y ? 2 : 0);
    hidden_ms_[static_cast<std::size_t>(node)] += exchange_borders(
        comm, decomp_, &routes_, codec, [&] { gpu.stream_pass_inner(inner); },
        rec);
    obs::ScopedSpan span(rec, "overlap.outer", node, "overlap");
    gpu.stream_pass_outer(inner);
  } else {
    exchange_borders(comm, decomp_, &routes_, codec, {}, rec);
    obs::ScopedSpan span(rec, "stream", node, "lbm");
    gpu.stream_pass();
  }
}

void GpuClusterLbm::run(int steps) {
  world_.run([this, steps](Comm& comm) {
    for (int s = 0; s < steps; ++s) node_step(comm, comm.rank());
  });
  if (cfg_.trace && cfg_.overlap) {
    for (int r = 0; r < world_.size(); ++r) {
      cfg_.trace->set_gauge("mpi.overlap_hidden_ms", r,
                            hidden_ms_[static_cast<std::size_t>(r)]);
    }
  }
}

double GpuClusterLbm::overlap_hidden_ms(int node) const {
  GC_CHECK_MSG(node >= 0 && node < decomp_.num_nodes(),
               "invalid node " << node);
  return hidden_ms_[static_cast<std::size_t>(node)];
}

void GpuClusterLbm::gather(lbm::Lattice& out) const {
  GC_CHECK(out.dim() == decomp_.lattice_dim());
  for (int node = 0; node < decomp_.num_nodes(); ++node) {
    const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
    lbm::Lattice local(ld.local_dim());
    gpus_[static_cast<std::size_t>(node)]->copy_state_to_host(local);
    gather_owned(local, ld, out);
  }
}

gpusim::GpuTimeLedger GpuClusterLbm::total_ledger() const {
  gpusim::GpuTimeLedger total;
  for (const auto& dev : devices_) {
    const gpusim::GpuTimeLedger& l = dev->ledger();
    total.compute_s += l.compute_s;
    total.download_s += l.download_s;
    total.readback_s += l.readback_s;
    total.passes += l.passes;
    total.fragments += l.fragments;
    total.tex_fetches += l.tex_fetches;
  }
  return total;
}

}  // namespace gc::core
