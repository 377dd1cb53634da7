#include "core/border_exchange.hpp"

#include <algorithm>

#include "gpulbm/programs.hpp"
#include "netsim/tags.hpp"

namespace gc::core {

using gpulbm::outgoing_directions;
using lbm::Face;
using lbm::FaceBc;
using netsim::Request;

LocalDomain LocalDomain::make(const Decomposition3& decomp, int node) {
  LocalDomain ld;
  ld.global = decomp.block(node);
  for (int a = 0; a < 3; ++a) {
    Int3 lo_off{0, 0, 0}, hi_off{0, 0, 0};
    lo_off[a] = -1;
    hi_off[a] = +1;
    ld.ghost_lo[a] = decomp.neighbor(node, lo_off) >= 0 ? 1 : 0;
    ld.ghost_hi[a] = decomp.neighbor(node, hi_off) >= 0 ? 1 : 0;
  }
  return ld;
}

lbm::Lattice scatter_local(const lbm::Lattice& global, const LocalDomain& ld) {
  lbm::Lattice lat(ld.local_dim());
  for (int face = 0; face < 6; ++face) {
    const int axis = face / 2;
    const bool has_neighbor =
        (face % 2 == 0) ? ld.ghost_lo[axis] == 1 : ld.ghost_hi[axis] == 1;
    lat.set_face_bc(static_cast<Face>(face),
                    has_neighbor ? FaceBc::Outflow
                                 : global.face_bc(static_cast<Face>(face)));
  }
  lat.set_inlet(global.inlet_density(), global.inlet_velocity());
  // Local coordinates shift by the block origin minus the ghost rim.
  const Int3 shift = ld.global.lo - ld.ghost_lo;
  if (global.has_inlet_profile()) {
    // Copied by value: the global lattice need not outlive the local one.
    lat.set_inlet_profile(
        [profile = global.inlet_profile(), shift](Int3 local) {
          return profile(local + shift);
        });
  }
  const Int3 dl = ld.local_dim();
  for (int z = 0; z < dl.z; ++z) {
    for (int y = 0; y < dl.y; ++y) {
      for (int x = 0; x < dl.x; ++x) {
        const Int3 g = Int3{x, y, z} + shift;
        GC_CHECK(global.in_bounds(g));
        const i64 lc = lat.idx(x, y, z);
        const i64 gcell = global.idx(g);
        lat.set_flag(lc, global.flag(gcell));
        for (int i = 0; i < lbm::Q; ++i) lat.set_f(i, lc, global.f(i, gcell));
      }
    }
  }
  return lat;
}

void gather_owned(const lbm::Lattice& local, const LocalDomain& ld,
                  lbm::Lattice& out) {
  const SubDomain& b = ld.global;
  for (int z = b.lo.z; z < b.hi.z; ++z) {
    for (int y = b.lo.y; y < b.hi.y; ++y) {
      for (int x = b.lo.x; x < b.hi.x; ++x) {
        const i64 lc = local.idx(ld.to_local(Int3{x, y, z}));
        const i64 gcell = out.idx(x, y, z);
        for (int i = 0; i < lbm::Q; ++i) out.set_f(i, gcell, local.f(i, lc));
      }
    }
  }
}

namespace {

/// Tangent axes of a face's axis, in ascending order.
void tangent_axes(int axis, int* t1, int* t2) {
  *t1 = axis == 0 ? 1 : 0;
  *t2 = axis == 2 ? 1 : 2;
}

}  // namespace

i64 face_payload_size(const LocalDomain& ld, int face) {
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  const Int3 s = ld.global.size();
  return i64(s[t1]) * s[t2] * 5;
}

i64 edge_payload_size(const LocalDomain& ld, Int3 off) {
  int free_axis = -1;
  for (int a = 0; a < 3; ++a) {
    if (off[a] == 0) free_axis = a;
  }
  GC_CHECK(free_axis >= 0);
  return ld.global.size()[free_axis];
}

netsim::Payload pack_face(const lbm::Lattice& local, const LocalDomain& ld,
                          int face) {
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  const auto dirs = outgoing_directions(static_cast<Face>(face));
  const int bc = ld.own_border_coord(face);

  netsim::Payload out;
  out.reserve(static_cast<std::size_t>(face_payload_size(ld, face)));
  Int3 p;
  p[axis] = bc;
  for (int c2 = ld.own_lo()[t2]; c2 < ld.own_hi()[t2]; ++c2) {
    p[t2] = c2;
    for (int c1 = ld.own_lo()[t1]; c1 < ld.own_hi()[t1]; ++c1) {
      p[t1] = c1;
      const i64 cell = local.idx(p);
      for (int i : dirs) out.push_back(local.f(i, cell));
    }
  }
  return out;
}

void unpack_face(lbm::Lattice& local, const LocalDomain& ld, int face,
                 const netsim::Payload& data) {
  GC_CHECK(static_cast<i64>(data.size()) == face_payload_size(ld, face));
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  // The neighbor across `face` sent the distributions *entering* through
  // it — its outgoing directions across the opposite face.
  const int opposite = (face % 2 == 0) ? face + 1 : face - 1;
  const auto dirs = outgoing_directions(static_cast<Face>(opposite));
  const int gc_coord = ld.ghost_coord(face);

  std::size_t k = 0;
  Int3 p;
  p[axis] = gc_coord;
  for (int c2 = ld.own_lo()[t2]; c2 < ld.own_hi()[t2]; ++c2) {
    p[t2] = c2;
    for (int c1 = ld.own_lo()[t1]; c1 < ld.own_hi()[t1]; ++c1) {
      p[t1] = c1;
      const i64 cell = local.idx(p);
      for (int i : dirs) local.set_f(i, cell, data[k++]);
    }
  }
}

netsim::Payload pack_face_scalar(const lbm::ThermalField& field,
                                 const lbm::Lattice& local,
                                 const LocalDomain& ld, int face) {
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  const int bc = ld.own_border_coord(face);

  netsim::Payload out;
  out.reserve(static_cast<std::size_t>(face_payload_size(ld, face) / 5));
  Int3 p;
  p[axis] = bc;
  for (int c2 = ld.own_lo()[t2]; c2 < ld.own_hi()[t2]; ++c2) {
    p[t2] = c2;
    for (int c1 = ld.own_lo()[t1]; c1 < ld.own_hi()[t1]; ++c1) {
      p[t1] = c1;
      out.push_back(field.t(local.idx(p)));
    }
  }
  return out;
}

void unpack_face_scalar(lbm::ThermalField& field, const lbm::Lattice& local,
                        const LocalDomain& ld, int face,
                        const netsim::Payload& data) {
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  GC_CHECK(static_cast<i64>(data.size()) == face_payload_size(ld, face) / 5);
  const int gc_coord = ld.ghost_coord(face);

  std::size_t k = 0;
  Int3 p;
  p[axis] = gc_coord;
  for (int c2 = ld.own_lo()[t2]; c2 < ld.own_hi()[t2]; ++c2) {
    p[t2] = c2;
    for (int c1 = ld.own_lo()[t1]; c1 < ld.own_hi()[t1]; ++c1) {
      p[t1] = c1;
      field.set_t(local.idx(p), data[k++]);
    }
  }
}

netsim::Payload pack_edge(const lbm::Lattice& local, const LocalDomain& ld,
                          Int3 off) {
  const int dir = lbm::direction_index(off);
  GC_CHECK_MSG(dir >= 0, "edge offset " << off << " is not a lattice link");
  int free_axis = -1;
  for (int a = 0; a < 3; ++a) {
    if (off[a] == 0) free_axis = a;
  }
  GC_CHECK(free_axis >= 0);

  Int3 p;
  for (int a = 0; a < 3; ++a) {
    if (a == free_axis) continue;
    p[a] = off[a] > 0 ? ld.own_hi()[a] - 1 : ld.own_lo()[a];
  }
  netsim::Payload out;
  out.reserve(static_cast<std::size_t>(edge_payload_size(ld, off)));
  for (int c = ld.own_lo()[free_axis]; c < ld.own_hi()[free_axis]; ++c) {
    p[free_axis] = c;
    out.push_back(local.f(dir, local.idx(p)));
  }
  return out;
}

void unpack_edge(lbm::Lattice& local, const LocalDomain& ld, Int3 off,
                 const netsim::Payload& data) {
  GC_CHECK(static_cast<i64>(data.size()) == edge_payload_size(ld, off));
  // The sender sits at grid offset `off`; it sent its f_d with d = -off
  // (the direction pointing from it toward us). We store d at the ghost
  // corner line toward the sender.
  const int dir = lbm::direction_index(Int3{-off.x, -off.y, -off.z});
  GC_CHECK(dir >= 0);
  int free_axis = -1;
  for (int a = 0; a < 3; ++a) {
    if (off[a] == 0) free_axis = a;
  }
  GC_CHECK(free_axis >= 0);

  Int3 p;
  for (int a = 0; a < 3; ++a) {
    if (a == free_axis) continue;
    p[a] = off[a] > 0 ? ld.own_hi()[a] : ld.own_lo()[a] - 1;
  }
  std::size_t k = 0;
  for (int c = ld.own_lo()[free_axis]; c < ld.own_hi()[free_axis]; ++c) {
    p[free_axis] = c;
    local.set_f(dir, local.idx(p), data[k++]);
  }
}


namespace {

/// The span names of one pipeline mode.
struct PhaseSpans {
  const char* pack;
  const char* wait;
  const char* unpack;
  const char* cat;
};
constexpr PhaseSpans kSyncSpans{"pack", "exchange", "unpack", "net"};
constexpr PhaseSpans kOverlapSpans{"overlap.pack", "overlap.wait",
                                   "overlap.unpack", "overlap"};

}  // namespace

double exchange_borders(netsim::Comm& comm, const Decomposition3& decomp,
                        const std::vector<netsim::IndirectRoute>* routes,
                        BorderCodec& codec, const std::function<void()>& inner,
                        obs::TraceRecorder* rec) {
  const int node = comm.rank();
  const netsim::NodeGrid& grid = decomp.grid();
  const Int3 myc = grid.coords(node);
  const PhaseSpans& spans = inner ? kOverlapSpans : kSyncSpans;
  const auto axial = decomp.axial_neighbors(node);
  const auto diagonal =
      routes ? std::vector<std::pair<Int3, int>>{}
             : decomp.diagonal_neighbors(node);

  struct FaceRecv {
    int face;
    Request req;
  };
  struct EdgeRecv {
    Int3 off;  // sender-relative offset, as unpack_edge expects
    Request req;
  };
  struct Hop1Recv {
    const netsim::IndirectRoute* route;
    Request req;
  };
  std::vector<FaceRecv> face_recvs;
  std::vector<EdgeRecv> edge_recvs;  // hop-2 or direct diagonal chunks
  std::vector<Hop1Recv> hop1_recvs;  // chunks to forward as the via node

  {
    obs::ScopedSpan span(rec, spans.pack, node, spans.cat);
    for (const auto& [face, nb] : axial) {
      comm.isend(nb, netsim::kFace, codec.pack_face(face));
    }
    if (routes) {
      for (const netsim::IndirectRoute& r : *routes) {
        if (r.src == node) {
          comm.isend(r.via, netsim::kHop1Base + r.dst,
                     codec.pack_edge(grid.coords(r.dst) - myc));
        }
      }
    }
    for (const auto& [off, nb] : diagonal) {
      comm.isend(nb, netsim::kDirectBase + node, codec.pack_edge(off));
    }

    for (const auto& [face, nb] : axial) {
      face_recvs.push_back({face, comm.irecv(nb, netsim::kFace)});
    }
    if (routes) {
      for (const netsim::IndirectRoute& r : *routes) {
        if (r.via == node) {
          hop1_recvs.push_back(
              {&r, comm.irecv(r.src, netsim::kHop1Base + r.dst)});
        }
        if (r.dst == node) {
          edge_recvs.push_back({grid.coords(r.src) - myc,
                                comm.irecv(r.via, netsim::kHop2Base + r.src)});
        }
      }
    }
    for (const auto& [off, nb] : diagonal) {
      edge_recvs.push_back({off, comm.irecv(nb, netsim::kDirectBase + nb)});
    }
  }

  // The compute window the paper hides the network under (§4.4); empty
  // in the synchronous mode.
  const double t_post_us = comm.now_us();
  double t_window_us = t_post_us;
  if (inner) {
    {
      obs::ScopedSpan span(rec, "overlap.inner", node, "overlap");
      inner();
    }
    t_window_us = comm.now_us();
  }

  double t_arrival_us = t_post_us;
  {
    obs::ScopedSpan span(rec, spans.wait, node, spans.cat);
    std::vector<Request> batch;
    for (const FaceRecv& fr : face_recvs) batch.push_back(fr.req);
    for (const Hop1Recv& hr : hop1_recvs) batch.push_back(hr.req);
    comm.wait_all(batch);
    // Second hop of the indirect diagonal routes: forward the chunks this
    // node carries for others before waiting on its own.
    for (Hop1Recv& hr : hop1_recvs) {
      comm.send(hr.route->dst, netsim::kHop2Base + hr.route->src,
                comm.wait(hr.req));
    }
    std::vector<Request> batch2;
    for (const EdgeRecv& er : edge_recvs) batch2.push_back(er.req);
    comm.wait_all(batch2);

    for (const Request& r : batch) {
      t_arrival_us = std::max(t_arrival_us, r.complete_time_us());
    }
    for (const Request& r : batch2) {
      t_arrival_us = std::max(t_arrival_us, r.complete_time_us());
    }
  }

  {
    obs::ScopedSpan span(rec, spans.unpack, node, spans.cat);
    for (FaceRecv& fr : face_recvs) {
      codec.unpack_face(fr.face, comm.wait(fr.req));
    }
    for (EdgeRecv& er : edge_recvs) {
      codec.unpack_edge(er.off, comm.wait(er.req));
    }
  }
  // Hidden network time: the slice of the comm-in-flight interval that
  // fell inside the inner-compute window (measured, not modeled).
  return std::max(0.0, std::min(t_arrival_us, t_window_us) - t_post_us) *
         1e-3;
}

}  // namespace gc::core
