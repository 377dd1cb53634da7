// The border exchange of the distributed LBM (Section 4.3): a node sends
// the 5 outgoing distributions of each border cell to the axial neighbor
// behind that face (5N^2 values for an N^3 block), and a single
// distribution per cell of each border edge line to the diagonal
// (second-nearest) neighbor (N values) — routed indirectly in two axial
// hops along the pairwise schedule, or directly in the ablation mode.
//
// exchange_borders() is the one pipeline both distributed backends run
// each step; a backend only supplies a BorderCodec (how its sub-domain's
// border becomes a payload and back) and, for the §4.4 overlap, the
// inner-cell compute that runs while the messages are in flight.
#pragma once

#include <functional>
#include <vector>

#include "core/decomposition.hpp"
#include "lbm/lattice.hpp"
#include "lbm/thermal.hpp"
#include "netsim/mpilite.hpp"
#include "netsim/schedule.hpp"
#include "obs/trace.hpp"

namespace gc::core {

/// Geometry of one node's local lattice: the owned global block plus a
/// one-cell ghost ("proxy point", Figure 14) layer on every side that has
/// a neighbor.
struct LocalDomain {
  SubDomain global;
  Int3 ghost_lo{};  ///< 1 where a lower neighbor exists, else 0
  Int3 ghost_hi{};

  Int3 local_dim() const { return global.size() + ghost_lo + ghost_hi; }
  /// Local coordinates of the owned region (half-open box).
  Int3 own_lo() const { return ghost_lo; }
  Int3 own_hi() const { return ghost_lo + global.size(); }
  /// Global -> local coordinate shift.
  Int3 to_local(Int3 g) const { return g - global.lo + ghost_lo; }
  /// Local coordinate, along the face's axis, of the owned border layer
  /// at `face`.
  int own_border_coord(int face) const {
    const int axis = face / 2;
    return (face % 2 == 0) ? own_lo()[axis] : own_hi()[axis] - 1;
  }
  /// Local coordinate, along the face's axis, of the ghost layer beyond
  /// `face`.
  int ghost_coord(int face) const {
    const int axis = face / 2;
    return (face % 2 == 0) ? own_lo()[axis] - 1 : own_hi()[axis];
  }

  static LocalDomain make(const Decomposition3& decomp, int node);
};

/// Builds a node's local lattice from `global` in the double-buffered
/// layout: faces toward a neighbor get Outflow (the ghost layer covers
/// them, so owned-cell pulls never consult the BC), the others keep the
/// global BC; the inlet (a profile shifted into local coordinates) is
/// copied, and so are the flags and distributions of every local cell,
/// ghosts included.
lbm::Lattice scatter_local(const lbm::Lattice& global, const LocalDomain& ld);

/// Copies the owned region of a node's local lattice into `out`.
void gather_owned(const lbm::Lattice& local, const LocalDomain& ld,
                  lbm::Lattice& out);

/// Packs the 5 outgoing post-collision distributions of every owned border
/// cell at `face` (ordering: outer tangent axis, inner tangent axis, then
/// the 5 directions of outgoing_directions(face)).
netsim::Payload pack_face(const lbm::Lattice& local, const LocalDomain& ld,
                          int face);

/// Writes a payload received from the axial neighbor across `face` into
/// the ghost layer beyond that face.
void unpack_face(lbm::Lattice& local, const LocalDomain& ld, int face,
                 const netsim::Payload& data);

/// Packs the single diagonal distribution of the border edge line facing
/// the neighbor at grid offset `off` (exactly two nonzero components).
netsim::Payload pack_edge(const lbm::Lattice& local, const LocalDomain& ld,
                          Int3 off);

/// Writes an edge payload received from the diagonal neighbor at grid
/// offset `off` into the ghost corner line toward that neighbor.
void unpack_edge(lbm::Lattice& local, const LocalDomain& ld, Int3 off,
                 const netsim::Payload& data);

/// Expected payload sizes (cells, not bytes) for validation.
i64 face_payload_size(const LocalDomain& ld, int face);
i64 edge_payload_size(const LocalDomain& ld, Int3 off);

/// Scalar-field (temperature) border exchange for the hybrid thermal
/// model: one value per owned border cell of `face` / per ghost cell
/// beyond it. The 7-point FD stencil needs axial faces only.
netsim::Payload pack_face_scalar(const lbm::ThermalField& field,
                                 const lbm::Lattice& local,
                                 const LocalDomain& ld, int face);
void unpack_face_scalar(lbm::ThermalField& field, const lbm::Lattice& local,
                        const LocalDomain& ld, int face,
                        const netsim::Payload& data);

/// One backend's border codec: how its sub-domain's border becomes a
/// payload and a received payload becomes ghost data. Payload layouts are
/// those of pack_face / pack_edge above, so backends are wire-compatible
/// node for node.
class BorderCodec {
 public:
  virtual netsim::Payload pack_face(int face) = 0;
  virtual netsim::Payload pack_edge(Int3 off) = 0;
  virtual void unpack_face(int face, const netsim::Payload& data) = 0;
  virtual void unpack_edge(Int3 off, const netsim::Payload& data) = 0;

 protected:
  ~BorderCodec() = default;
};

/// One step's border exchange for rank comm.rank():
///   1. packs and isends every face payload and every first-hop (or, with
///      `routes` null, direct) diagonal chunk;
///   2. posts the matching irecvs;
///   3. runs `inner` — the compute the §4.4 overlap hides the network
///      under — when one is given;
///   4. waits, forwards the second-hop chunks this node carries, and waits
///      for its own diagonal chunks;
///   5. unpacks everything into the ghost layer.
/// `routes` are the pairwise schedule's two-hop diagonal routes. Every
/// mode sends the same payloads over the same (src, dst, tag) channels,
/// one message per channel per step. With `inner` the phases emit
/// overlap.pack / overlap.inner / overlap.wait / overlap.unpack spans;
/// without it (the synchronous mode: an empty inner window) pack /
/// exchange (the wait) / unpack. Returns the network time (ms) that fell
/// inside the inner window — measured from message enqueue stamps; 0
/// without `inner`.
double exchange_borders(netsim::Comm& comm, const Decomposition3& decomp,
                        const std::vector<netsim::IndirectRoute>* routes,
                        BorderCodec& codec, const std::function<void()>& inner,
                        obs::TraceRecorder* rec);

}  // namespace gc::core
