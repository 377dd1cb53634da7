#include "lbm/stream.hpp"

#include "lbm/boundary.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {
namespace detail {

namespace {

/// Wraps src along every periodic axis; returns false if src remains out of
/// bounds on some non-periodic axis (the crossed face index goes to *face).
bool resolve_periodic(const Lattice& lat, Int3& src, int* face) {
  const Int3 d = lat.dim();
  *face = -1;
  for (int a = 0; a < 3; ++a) {
    const int lo_face = 2 * a;      // FACE_{X,Y,Z}MIN
    const int hi_face = 2 * a + 1;  // FACE_{X,Y,Z}MAX
    if (src[a] < 0) {
      if (lat.face_bc(static_cast<Face>(lo_face)) == FaceBc::Periodic) {
        src[a] += d[a];
      } else if (*face < 0) {
        *face = lo_face;
      }
    } else if (src[a] >= d[a]) {
      if (lat.face_bc(static_cast<Face>(hi_face)) == FaceBc::Periodic) {
        src[a] -= d[a];
      } else if (*face < 0) {
        *face = hi_face;
      }
    }
  }
  return *face < 0;
}

}  // namespace

Real pull_value(const Lattice& lat, Int3 p, int i) {
  Int3 src = p - C[i];
  int face = -1;
  if (!resolve_periodic(lat, src, &face)) {
    // The pull crosses a non-periodic domain face.
    const FaceBc bc = lat.face_bc(static_cast<Face>(face));
    switch (bc) {
      case FaceBc::Inlet:
        return equilibrium(i, lat.inlet_density(), lat.inlet_velocity_at(p));
      case FaceBc::Wall:
        return lat.f(OPP[i], lat.idx(p));  // half-way bounce-back
      case FaceBc::Outflow:
        return lat.f(i, lat.idx(p));  // zero gradient
      case FaceBc::FreeSlip: {
        // Specular reflection: pull the mirrored direction from the same
        // boundary row — only the tangential offset applies.
        const int axis = face / 2;
        const int m = mirror_direction(i, axis);
        Int3 cm = C[m];
        cm[axis] = 0;
        Int3 srcm = p - cm;
        int face2 = -1;
        if (resolve_periodic(lat, srcm, &face2) &&
            lat.flag(srcm) != CellType::Solid) {
          return lat.f(m, lat.idx(srcm));
        }
        return lat.f(OPP[i], lat.idx(p));  // corner fallback: bounce-back
      }
      case FaceBc::Periodic:
        break;  // unreachable: periodic was resolved above
    }
    return lat.f(OPP[i], lat.idx(p));
  }

  switch (lat.flag(src)) {
    case CellType::Solid:
      return lat.f(OPP[i], lat.idx(p));  // half-way bounce-back at obstacle
    case CellType::Inlet:
      return equilibrium(i, lat.inlet_density(), lat.inlet_velocity_at(src));
    case CellType::Outflow:
      return lat.f(i, lat.idx(p));
    case CellType::Fluid:
      break;
  }
  return lat.f(i, lat.idx(src));
}

bool is_interior_fluid(const Lattice& lat, Int3 p) {
  const Int3 d = lat.dim();
  if (p.x < 1 || p.y < 1 || p.z < 1 || p.x >= d.x - 1 || p.y >= d.y - 1 ||
      p.z >= d.z - 1) {
    return false;
  }
  if (lat.flag(p) != CellType::Fluid) return false;
  for (int i = 1; i < Q; ++i) {
    if (lat.flag(p - C[i]) != CellType::Fluid) return false;
  }
  return true;
}

Pull::Pull(Lattice& lat) {
  const bool sparse = lat.storage_mode() == StorageMode::Sparse;
  const Int3 d = lat.dim();
  for (int i = 0; i < Q; ++i) {
    src[i] = sparse ? lat.sparse_plane_ptr(i) : lat.plane_ptr(i);
    dst[i] = sparse ? lat.sparse_back_plane_ptr(i) : lat.back_plane_ptr(i);
    shift[i] = pull_shift(d, i);
  }
  if (sparse) id.sparse = &lat;
}

void Pull::zero_solids(const i64* cells, i64 n) const {
  if (id.sparse) return;
  for (i64 k = 0; k < n; ++k) {
    for (int i = 0; i < Q; ++i) dst[i][cells[k]] = Real(0);
  }
}

}  // namespace detail

namespace {

/// Streams an explicit cell selection from the current into the back
/// buffer (DoubleBuffer or Sparse): solid cells are zeroed, bulk-fast
/// spans are branch-free shifted copies, and only the slow minority walks
/// the general pull_value path. No per-cell flag scanning. The unit both
/// the z-sliced full-lattice pass and the inner/outer partitioned passes
/// are built on.
void stream_cells(const Lattice& lat, const detail::Pull& pull,
                  const CellSpan* spans, i64 nspans, const i64* slow,
                  i64 nslow, const i64* solid, i64 nsolid) {
  pull.zero_solids(solid, nsolid);

  const Real* rd[Q] = {};
  Real* wr[Q] = {};
  for (i64 s = 0; s < nspans; ++s) {
    const CellSpan sp = spans[s];
    pull.bases(sp.begin, rd, wr);
    for (int i = 0; i < Q; ++i) {
      Real* GC_RESTRICT out = wr[i];
      const Real* GC_RESTRICT in = rd[i];
      for (i32 k = 0; k < sp.len; ++k) out[k] = in[k];
    }
  }

  for (i64 k = 0; k < nslow; ++k) {
    const i64 cell = slow[k];
    const i64 m = pull.id(cell);  // slow cells are never solid
    const Int3 p = lat.coords(cell);
    for (int i = 0; i < Q; ++i) {
      pull.dst[i][m] = detail::pull_value(lat, p, i);
    }
  }
}

/// Re-imposes the inlet equilibrium on inlet-flagged cells (the tail of
/// every streaming pass, both storage modes). The uniform-inlet
/// equilibrium is computed once outside the loop, and a profiled inlet
/// recomputes per cell into its own scratch so the two cases never share
/// (and clobber) one feq buffer.
void impose_inlets(Lattice& lat) {
  const CellClass& cc = lat.cell_class();
  if (cc.inlet.empty()) return;
  if (lat.has_inlet_profile()) {
    Real feq[Q];
    for (const i64 c : cc.inlet) {
      equilibrium_all(lat.inlet_density(),
                      lat.inlet_velocity_at(lat.coords(c)), feq);
      for (int i = 0; i < Q; ++i) lat.set_f(i, c, feq[i]);
    }
  } else {
    Real feq[Q];
    equilibrium_all(lat.inlet_density(), lat.inlet_velocity(), feq);
    for (const i64 c : cc.inlet) {
      for (int i = 0; i < Q; ++i) lat.set_f(i, c, feq[i]);
    }
  }
}

/// Buffer swap + inlet re-imposition + curved-boundary corrections
/// (double-buffered mode).
void finish_stream(Lattice& lat) {
  lat.swap_buffers();
  impose_inlets(lat);
  apply_curved_bounce(lat);
}

// ---- AA-pattern streaming -------------------------------------------
// The bulk stream is the parity flip inside lat.swap_buffers(): the flip
// shifts slot ownership by one lattice hop, so after it every bulk
// cell's logical value already equals the periodic pull from its
// upwind neighbor — zero bytes moved. Only the classification's slow
// cells need real work: their 19 pulled values are computed BEFORE the
// flip (reading the post-collide field through the accessors, exactly
// what the double-buffered pull reads) and scattered AFTER the flip
// through the new mapping. Solid cells are zeroed and inlet cells
// re-imposed, matching the double-buffered pass value-for-value.
//
// Thread-safety mirrors the double-buffered pass: the collect phase is
// read-only, and the scatter/zero phase writes each cell's own slot
// group (slot ownership is a bijection), so chunks of the slow/solid
// lists never overlap.

void aa_collect_fixups(const Lattice& lat, const i64* cells, i64 n,
                       Real* out) {
  for (i64 k = 0; k < n; ++k) {
    const Int3 p = lat.coords(cells[k]);
    Real* v = out + k * Q;
    for (int i = 0; i < Q; ++i) v[i] = detail::pull_value(lat, p, i);
  }
}

void aa_scatter_fixups(Lattice& lat, const i64* cells, i64 n,
                       const Real* vals) {
  for (i64 k = 0; k < n; ++k) lat.scatter_cell(cells[k], vals + k * Q);
}

void aa_zero_solids(Lattice& lat, const i64* cells, i64 n) {
  const Real zeros[Q] = {};
  for (i64 k = 0; k < n; ++k) lat.scatter_cell(cells[k], zeros);
}

void aa_stream(Lattice& lat, ThreadPool* pool) {
  GC_CHECK_MSG(lat.curved_links().empty(),
               "AA storage does not support curved boundary links");
  const CellClass& cc = lat.cell_class();  // build before dispatch
  const i64 nslow = static_cast<i64>(cc.slow.size());
  auto& fix = lat.aa_fix_scratch();
  fix.resize(static_cast<std::size_t>(nslow * Q));

  if (pool) {
    pool->parallel_for_chunks(
        0, nslow,
        [&lat, &cc, &fix](i64 k0, i64 k1) {
          aa_collect_fixups(lat, cc.slow.data() + k0, k1 - k0,
                            fix.data() + k0 * Q);
        },
        ThreadPool::min_chunk_indices(256));
  } else {
    aa_collect_fixups(lat, cc.slow.data(), nslow, fix.data());
  }

  lat.swap_buffers();  // the zero-copy bulk stream: flip parity

  const i64 nsolid = static_cast<i64>(cc.solid.size());
  if (pool) {
    pool->parallel_for_chunks(
        0, nslow,
        [&lat, &cc, &fix](i64 k0, i64 k1) {
          aa_scatter_fixups(lat, cc.slow.data() + k0, k1 - k0,
                            fix.data() + k0 * Q);
        },
        ThreadPool::min_chunk_indices(256));
  } else {
    aa_scatter_fixups(lat, cc.slow.data(), nslow, fix.data());
  }
  aa_zero_solids(lat, cc.solid.data(), nsolid);
  impose_inlets(lat);
}

}  // namespace

void stream(Lattice& lat) { stream(lat, StepContext{}); }

void stream(Lattice& lat, ThreadPool& pool) {
  stream(lat, StepContext{&pool});
}

void stream_inner(Lattice& lat, const InnerOuterClass& split) {
  if (lat.storage_mode() == StorageMode::AA) {
    // Collect the inner fixups only — no flip, no writes. Inner cells
    // never pull from ghost layers, so this is safe to run while border
    // messages are still in flight; stream_outer completes the step.
    auto& pend = lat.aa_pending_scratch();
    const i64 n = static_cast<i64>(split.inner_slow.size());
    pend.resize(static_cast<std::size_t>(n * Q));
    aa_collect_fixups(lat, split.inner_slow.data(), n, pend.data());
    return;
  }
  stream_cells(lat, detail::Pull(lat), split.inner_spans.data(),
               static_cast<i64>(split.inner_spans.size()),
               split.inner_slow.data(),
               static_cast<i64>(split.inner_slow.size()),
               split.inner_solid.data(),
               static_cast<i64>(split.inner_solid.size()));
}

void stream_outer(Lattice& lat, const InnerOuterClass& split) {
  if (lat.storage_mode() == StorageMode::AA) {
    GC_CHECK_MSG(lat.curved_links().empty(),
                 "AA storage does not support curved boundary links");
    auto& pend = lat.aa_pending_scratch();
    auto& fix = lat.aa_fix_scratch();
    const i64 ni = static_cast<i64>(split.inner_slow.size());
    const i64 no = static_cast<i64>(split.outer_slow.size());
    GC_CHECK_MSG(pend.size() == static_cast<std::size_t>(ni * Q),
                 "stream_outer(AA) requires a matching stream_inner first");
    fix.resize(static_cast<std::size_t>(no * Q));
    aa_collect_fixups(lat, split.outer_slow.data(), no, fix.data());
    lat.swap_buffers();
    aa_scatter_fixups(lat, split.inner_slow.data(), ni, pend.data());
    aa_scatter_fixups(lat, split.outer_slow.data(), no, fix.data());
    aa_zero_solids(lat, split.inner_solid.data(),
                   static_cast<i64>(split.inner_solid.size()));
    aa_zero_solids(lat, split.outer_solid.data(),
                   static_cast<i64>(split.outer_solid.size()));
    impose_inlets(lat);
    return;
  }
  stream_cells(lat, detail::Pull(lat), split.outer_spans.data(),
               static_cast<i64>(split.outer_spans.size()),
               split.outer_slow.data(),
               static_cast<i64>(split.outer_slow.size()),
               split.outer_solid.data(),
               static_cast<i64>(split.outer_solid.size()));
  finish_stream(lat);
}

void stream(Lattice& lat, const StepContext& ctx) {
  if (lat.storage_mode() == StorageMode::AA) {
    obs::ScopedSpan span(ctx.trace, "stream", ctx.rank, "lbm");
    aa_stream(lat, ctx.pool);
    return;
  }
  const CellClass& cc = lat.cell_class();  // build before dispatch
  const detail::Pull pull(lat);
  {
    obs::ScopedSpan span(ctx.trace, "stream", ctx.rank, "lbm");
    const Int3 d = lat.dim();
    detail::over_slabs(ctx.pool, d, 0, d.z, [&](int z0, int z1) {
      stream_cells(lat, pull, cc.spans.data() + cc.span_z[z0],
                   cc.span_z[z1] - cc.span_z[z0],
                   cc.slow.data() + cc.slow_z[z0],
                   cc.slow_z[z1] - cc.slow_z[z0],
                   cc.solid.data() + cc.solid_z[z0],
                   cc.solid_z[z1] - cc.solid_z[z0]);
    });
  }
  obs::ScopedSpan span(ctx.trace, "finish", ctx.rank, "lbm");
  finish_stream(lat);
}

}  // namespace gc::lbm
