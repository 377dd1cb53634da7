#include "core/parallel_lbm.hpp"

#include <algorithm>

#include "lbm/mrt.hpp"
#include "lbm/stream.hpp"
#include "netsim/tags.hpp"
#include "util/timer.hpp"

namespace gc::core {

using lbm::FaceBc;
using netsim::Comm;

namespace {

/// The host border codec: packs from and unpacks into a node-local
/// lattice.
class LatticeBorderCodec final : public BorderCodec {
 public:
  LatticeBorderCodec(lbm::Lattice& local, const LocalDomain& ld)
      : local_(local), ld_(ld) {}
  netsim::Payload pack_face(int face) override {
    return core::pack_face(local_, ld_, face);
  }
  netsim::Payload pack_edge(Int3 off) override {
    return core::pack_edge(local_, ld_, off);
  }
  void unpack_face(int face, const netsim::Payload& data) override {
    core::unpack_face(local_, ld_, face, data);
  }
  void unpack_edge(Int3 off, const netsim::Payload& data) override {
    core::unpack_edge(local_, ld_, off, data);
  }

 private:
  lbm::Lattice& local_;
  const LocalDomain& ld_;
};

Decomposition3 make_decomposition(const lbm::Lattice& global,
                                  const ParallelConfig& cfg) {
  return cfg.fluid_balanced
             ? Decomposition3(global.dim(), cfg.grid, global.flags())
             : Decomposition3(global.dim(), cfg.grid);
}
}  // namespace

ParallelLbm::ParallelLbm(const lbm::Lattice& global, ParallelConfig cfg)
    : cfg_(cfg),
      decomp_(make_decomposition(global, cfg)),
      sched_(netsim::CommSchedule::pairwise(cfg.grid)),
      world_(cfg.grid.num_nodes()) {
  GC_CHECK_MSG(global.curved_links().empty(),
               "the distributed solver supports flag-based boundaries only");
  for (int a = 0; a < 3; ++a) {
    if (cfg.grid.dims[a] > 1) {
      GC_CHECK_MSG(
          global.face_bc(static_cast<lbm::Face>(2 * a)) != FaceBc::Periodic &&
              global.face_bc(static_cast<lbm::Face>(2 * a + 1)) !=
                  FaceBc::Periodic,
          "axis " << a << " is decomposed across nodes and cannot be periodic");
    }
  }
  if (cfg_.indirect_diagonals) {
    routes_ = netsim::plan_indirect_routes(sched_);
  }
  world_.set_fault_spec(cfg_.faults);
  world_.set_reliability(cfg_.reliability);
  if (cfg_.thermal) {
    GC_CHECK_MSG(cfg_.collision == lbm::CollisionKind::MRT,
                 "the hybrid thermal model couples to the MRT collision");
    GC_CHECK_MSG(cfg_.grid.dims.z == 1 || !cfg_.thermal->dirichlet_z,
                 "Dirichlet plates need an undecomposed z axis");
  }

  const int n = decomp_.num_nodes();
  domains_.reserve(static_cast<std::size_t>(n));
  locals_.reserve(static_cast<std::size_t>(n));
  hidden_ms_.assign(static_cast<std::size_t>(n), 0.0);

  for (int node = 0; node < n; ++node) {
    const LocalDomain ld = LocalDomain::make(decomp_, node);
    domains_.push_back(ld);
    // Seed in the natural double-buffered layout — the scatter
    // interleaves flag and value writes, which would thrash a sparse
    // remap — and convert to the requested storage once the local
    // geometry is final.
    auto lat = std::make_unique<lbm::Lattice>(scatter_local(global, ld));
    if (cfg_.storage != lbm::StorageMode::DoubleBuffer) {
      lat->convert_storage(cfg_.storage);
    }
    if (cfg_.thermal) {
      auto field = std::make_unique<lbm::ThermalField>(ld.local_dim(),
                                                       *cfg_.thermal);
      if (cfg_.initial_temperature) {
        const Int3 dl = ld.local_dim();
        GC_CHECK(static_cast<i64>(cfg_.initial_temperature->size()) ==
                 global.num_cells());
        for (int z = 0; z < dl.z; ++z) {
          for (int y = 0; y < dl.y; ++y) {
            for (int x = 0; x < dl.x; ++x) {
              const Int3 g = Int3{x, y, z} + ld.global.lo - ld.ghost_lo;
              field->set_t(lat->idx(x, y, z),
                           (*cfg_.initial_temperature)[static_cast<
                               std::size_t>(global.idx(g))]);
            }
          }
        }
      }
      thermals_.push_back(std::move(field));
      scratch_u_.emplace_back(
          static_cast<std::size_t>(ld.local_dim().volume()));
      scratch_force_.emplace_back();
    }
    locals_.push_back(std::move(lat));
  }

  if (cfg_.overlap) {
    splits_.resize(static_cast<std::size_t>(n));
    for (int node = 0; node < n; ++node) {
      splits_[static_cast<std::size_t>(node)].build(
          *locals_[static_cast<std::size_t>(node)],
          domains_[static_cast<std::size_t>(node)].ghost_lo,
          domains_[static_cast<std::size_t>(node)].ghost_hi);
    }
  }
}

double ParallelLbm::overlap_hidden_ms(int node) const {
  GC_CHECK_MSG(node >= 0 && node < decomp_.num_nodes(),
               "invalid node " << node);
  return hidden_ms_[static_cast<std::size_t>(node)];
}

void ParallelLbm::node_step(Comm& comm, int node, i64 global_step) {
  lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
  const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
  obs::TraceRecorder* rec = cfg_.trace;

  if (cfg_.faults && cfg_.faults->should_crash(node, global_step)) {
    if (rec) rec->add_counter("ft.crashes", node, 1);
    throw netsim::RankCrashError("injected crash of rank " +
                                 std::to_string(node) + " at step " +
                                 std::to_string(global_step));
  }

  if (cfg_.thermal) {
    // Hybrid thermal step, matching lbm::Solver::step's ordering exactly:
    // (1) refresh the temperature ghosts with the neighbors' end-of-step
    // values, (2) FD temperature update using the pre-collision velocity,
    // (3) MRT collision, (4) Boussinesq force on owned cells.
    lbm::ThermalField& T = *thermals_[static_cast<std::size_t>(node)];
    {
      obs::ScopedSpan ex(rec, "exchange", node, "net");
      const auto axial = decomp_.axial_neighbors(node);
      for (const auto& [face, nb] : axial) {
        comm.send(nb, netsim::kThermalFace,
                  pack_face_scalar(T, lat, ld, face));
      }
      for (const auto& [face, nb] : axial) {
        unpack_face_scalar(T, lat, ld, face,
                           comm.recv(nb, netsim::kThermalFace));
      }
    }
    obs::ScopedSpan collide_span(rec, "collide", node, "lbm");
    auto& u = scratch_u_[static_cast<std::size_t>(node)];
    lbm::compute_velocity_region(lat, u, ld.own_lo(), ld.own_hi());
    T.step(lat, u);
    lbm::collide_mrt_region(lat, lbm::MrtParams::standard(cfg_.tau),
                            ld.own_lo(), ld.own_hi());
    auto& force = scratch_force_[static_cast<std::size_t>(node)];
    T.buoyancy_force(lat, force);
    lbm::apply_force_first_order_region(lat, force, ld.own_lo(),
                                        ld.own_hi());
  } else if (cfg_.collision == lbm::CollisionKind::MRT) {
    obs::ScopedSpan collide_span(rec, "collide", node, "lbm");
    lbm::collide_mrt_region(lat, lbm::MrtParams::standard(cfg_.tau),
                            ld.own_lo(), ld.own_hi());
  } else {
    obs::ScopedSpan collide_span(rec, "collide", node, "lbm");
    lbm::collide_bgk_region(lat, lbm::BgkParams{cfg_.tau, Vec3{}},
                            ld.own_lo(), ld.own_hi());
  }

  LatticeBorderCodec codec(lat, ld);
  const std::vector<netsim::IndirectRoute>* routes =
      cfg_.indirect_diagonals ? &routes_ : nullptr;
  if (cfg_.overlap) {
    const lbm::InnerOuterClass& split = splits_[static_cast<std::size_t>(node)];
    hidden_ms_[static_cast<std::size_t>(node)] += exchange_borders(
        comm, decomp_, routes, codec, [&] { lbm::stream_inner(lat, split); },
        rec);
    obs::ScopedSpan outer(rec, "overlap.outer", node, "overlap");
    lbm::stream_outer(lat, split);
  } else {
    exchange_borders(comm, decomp_, routes, codec, {}, rec);
    obs::ScopedSpan stream_span(rec, "stream", node, "lbm");
    lbm::stream(lat);
  }

  if (cfg_.sentinel &&
      (global_step + 1) % std::max(1, cfg_.sentinel->every) == 0) {
    obs::ScopedSpan span(rec, "sentinel", node, "ft");
    if (auto report =
            lbm::scan_divergence(lat, ld.own_lo(), ld.own_hi(),
                                 *cfg_.sentinel)) {
      if (rec) rec->add_counter("ft.divergences", node, 1);
      throw lbm::DivergenceError(*report, global_step + 1, node);
    }
  }
}

obs::RunStats ParallelLbm::run(int steps) {
  obs::RunStats rs;
  obs::TraceRecorder* rec = cfg_.trace;
  const std::size_t ev0 = rec ? rec->num_events() : 0;
  std::vector<netsim::RankTraffic> before;
  std::vector<netsim::ReliabilityStats> rel_before;
  if (rec) {
    for (int r = 0; r < world_.size(); ++r) {
      before.push_back(world_.rank_traffic(r));
      rel_before.push_back(world_.reliability_stats(r));
    }
  }

  const i64 step0 = step_;
  Timer t;
  world_.run([this, steps, step0](Comm& comm) {
    for (int s = 0; s < steps; ++s) {
      node_step(comm, comm.rank(), step0 + s);
    }
  });
  step_ += steps;  // only reached when every rank succeeded
  rs.steps = steps;
  rs.wall_ms = t.millis();

  if (rec) {
    rs.phases = rec->phase_totals(ev0);
    const auto real_bytes = static_cast<i64>(sizeof(Real));
    for (int r = 0; r < world_.size(); ++r) {
      const netsim::RankTraffic d = world_.rank_traffic(r);
      const netsim::RankTraffic& b = before[static_cast<std::size_t>(r)];
      rec->add_counter("mpi.messages", r, d.messages - b.messages);
      rec->add_counter("mpi.bytes", r,
                       (d.payload_values - b.payload_values) * real_bytes);
      rec->add_counter("mpi.barrier_waits", r,
                       d.barrier_waits - b.barrier_waits);
      const netsim::ReliabilityStats rd = world_.reliability_stats(r);
      const netsim::ReliabilityStats& rb =
          rel_before[static_cast<std::size_t>(r)];
      rec->add_counter("ft.retransmits", r, rd.retransmits - rb.retransmits);
      rec->add_counter("ft.corrupt_detected", r,
                       rd.corrupt_detected - rb.corrupt_detected);
      rec->add_counter("ft.duplicates_dropped", r,
                       rd.duplicates_dropped - rb.duplicates_dropped);
      rec->add_counter("ft.recv_timeouts", r, rd.timeouts - rb.timeouts);
      if (cfg_.overlap) {
        rec->set_gauge("mpi.overlap_hidden_ms", r,
                       hidden_ms_[static_cast<std::size_t>(r)]);
      }
      rec->set_gauge(
          "lattice.bytes_allocated", r,
          static_cast<double>(
              locals_[static_cast<std::size_t>(r)]->storage_bytes()));
    }
  }
  return rs;
}

void ParallelLbm::restore_local(int node, const lbm::Lattice& saved) {
  GC_CHECK_MSG(node >= 0 && node < decomp_.num_nodes(),
               "invalid node " << node);
  lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
  GC_CHECK_MSG(saved.dim() == lat.dim(),
               "checkpoint dimensions " << saved.dim()
                                        << " do not match local lattice "
                                        << lat.dim());
  lat.copy_distributions_from(saved);
}

void ParallelLbm::reset_comm() {
  world_.reset();
}

void ParallelLbm::gather(lbm::Lattice& out) const {
  GC_CHECK(out.dim() == decomp_.lattice_dim());
  for (int node = 0; node < decomp_.num_nodes(); ++node) {
    gather_owned(*locals_[static_cast<std::size_t>(node)],
                 domains_[static_cast<std::size_t>(node)], out);
  }
}

void ParallelLbm::gather_temperature(std::vector<Real>& out) const {
  GC_CHECK_MSG(!thermals_.empty(), "no thermal field in this run");
  out.assign(static_cast<std::size_t>(decomp_.lattice_dim().volume()),
             Real(0));
  for (int node = 0; node < decomp_.num_nodes(); ++node) {
    const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
    const lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
    const lbm::ThermalField& T = *thermals_[static_cast<std::size_t>(node)];
    const SubDomain& b = ld.global;
    const Int3 d = decomp_.lattice_dim();
    for (int z = b.lo.z; z < b.hi.z; ++z) {
      for (int y = b.lo.y; y < b.hi.y; ++y) {
        for (int x = b.lo.x; x < b.hi.x; ++x) {
          out[static_cast<std::size_t>(x + i64(d.x) * (y + i64(d.y) * z))] =
              T.t(lat.idx(ld.to_local(Int3{x, y, z})));
        }
      }
    }
  }
}

}  // namespace gc::core
