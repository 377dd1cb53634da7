#include "lbm/collision.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "lbm/stream.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {

void collide_bgk_cell(Real f[Q], Real tau, Vec3 force) {
  Real rho = 0;
  Vec3 mom{};
  for (int i = 0; i < Q; ++i) {
    rho += f[i];
    mom.x += f[i] * Real(C[i].x);
    mom.y += f[i] * Real(C[i].y);
    mom.z += f[i] * Real(C[i].z);
  }
  const Real inv_rho = Real(1) / rho;
  // Guo forcing: velocity shifted by half the force impulse.
  Vec3 u = (mom + force * Real(0.5)) * inv_rho;

  const Real omega = Real(1) / tau;
  const Real uu15 = Real(1.5) * dot(u, u);
  const bool forced = force.x != 0 || force.y != 0 || force.z != 0;
  const Real fpref = forced ? (Real(1) - Real(0.5) * omega) : Real(0);

  for (int i = 0; i < Q; ++i) {
    const Vec3 c{Real(C[i].x), Real(C[i].y), Real(C[i].z)};
    const Real cu = dot(c, u);
    const Real feq =
        W[i] * rho * (Real(1) + Real(3) * cu + Real(4.5) * cu * cu - uu15);
    Real fi = f[i] - omega * (f[i] - feq);
    if (forced) {
      // Guo: F_i = (1 - 1/(2tau)) w_i [3(c - u) + 9(c.u)c] . F
      const Vec3 term = (c - u) * Real(3) + c * (Real(9) * cu);
      fi += fpref * W[i] * dot(term, force);
    }
    f[i] = fi;
  }
}

namespace {

bool is_forced(Vec3 force) {
  return force.x != 0 || force.y != 0 || force.z != 0;
}

// ---- the batched collide core ---------------------------------------
// Every BGK pass (in-place, region-clipped, per-cell forced, fused pull,
// AA advancing) runs its bulk spans through collide_run: B cells at a
// time, a moments pass over all lanes, then an equilibrium-and-relax
// pass. Each lane performs collide_bgk_cell's operation sequence exactly
// (same summation order, same Guo half-force shift), so the result is
// bit-identical to the scalar reference; the lane loops have a constant
// trip count and no aliasing, which is what lets -O2 vectorize them.
// See DESIGN.md "Collide core".

constexpr int B = 16;  ///< lanes per batch

/// Force policies: kForced selects the Guo forcing term at compile time;
/// at(cell) is the force on a dense cell.
struct NoForce {
  static constexpr bool kForced = false;
  Vec3 at(i64) const { return {}; }
};
struct UniformForce {
  static constexpr bool kForced = true;
  Vec3 force;
  Vec3 at(i64) const { return force; }
};
struct FieldForce {
  static constexpr bool kForced = true;
  const Vec3* force;
  Vec3 at(i64 cell) const { return force[cell]; }
};

/// Calls fn with the force policy for a uniform body force.
template <class Fn>
void with_force(Vec3 force, Fn&& fn) {
  if (is_forced(force)) {
    fn(UniformForce{force});
  } else {
    fn(NoForce{});
  }
}

/// Collides the B lanes of f in place. Lanes [n, B) are padding; `cell0`
/// is the dense id of lane 0 (lanes are consecutive dense cells).
template <class Force>
void collide_lanes(Real (&f)[Q][B], Real omega, const Force& frc, i64 cell0,
                   int n) {
  alignas(64) Real rho[B] = {}, ux[B] = {}, uy[B] = {}, uz[B] = {};
  alignas(64) Real uu15[B] = {};
  alignas(64) Real fx[B] = {}, fy[B] = {}, fz[B] = {};
  alignas(64) std::int32_t forced[B] = {};  // all-ones bit mask per lane
  if constexpr (Force::kForced) {
    for (int l = 0; l < n; ++l) {
      const Vec3 F = frc.at(cell0 + l);
      fx[l] = F.x;
      fy[l] = F.y;
      fz[l] = F.z;
      forced[l] = is_forced(F) ? -1 : 0;
    }
  }
  const Real fpref = Real(1) - Real(0.5) * omega;  // used by forced lanes

  for (int i = 0; i < Q; ++i) {
    const Real cx = Real(C[i].x), cy = Real(C[i].y), cz = Real(C[i].z);
    for (int l = 0; l < B; ++l) {
      rho[l] += f[i][l];
      ux[l] += f[i][l] * cx;
      uy[l] += f[i][l] * cy;
      uz[l] += f[i][l] * cz;
    }
  }
  for (int l = 0; l < B; ++l) {
    const Real inv_rho = Real(1) / rho[l];
    ux[l] = (ux[l] + fx[l] * Real(0.5)) * inv_rho;
    uy[l] = (uy[l] + fy[l] * Real(0.5)) * inv_rho;
    uz[l] = (uz[l] + fz[l] * Real(0.5)) * inv_rho;
    uu15[l] = Real(1.5) * (ux[l] * ux[l] + uy[l] * uy[l] + uz[l] * uz[l]);
  }

  for (int i = 0; i < Q; ++i) {
    const Real cx = Real(C[i].x), cy = Real(C[i].y), cz = Real(C[i].z);
    for (int l = 0; l < B; ++l) {
      const Real cu = cx * ux[l] + cy * uy[l] + cz * uz[l];
      const Real feq = W[i] * rho[l] *
                       (Real(1) + Real(3) * cu + Real(4.5) * cu * cu - uu15[l]);
      Real fi = f[i][l] - omega * (f[i][l] - feq);
      if constexpr (Force::kForced) {
        // An unforced lane keeps fi untouched (selected, not fi + 0).
        const Real tx = (cx - ux[l]) * Real(3) + cx * (Real(9) * cu);
        const Real ty = (cy - uy[l]) * Real(3) + cy * (Real(9) * cu);
        const Real tz = (cz - uz[l]) * Real(3) + cz * (Real(9) * cu);
        const Real g =
            fi + fpref * W[i] * (tx * fx[l] + ty * fy[l] + tz * fz[l]);
        fi = std::bit_cast<Real>((std::bit_cast<std::int32_t>(g) & forced[l]) |
                                 (std::bit_cast<std::int32_t>(fi) & ~forced[l]));
      }
      f[i][l] = fi;
    }
  }
}

/// Collides `len` consecutive cells whose value i is read at rd[i][k] and
/// written to wr[i][k]. Each batch is loaded whole before any store, so
/// rd and wr may alias (in-place, AA slot maps).
template <class Force>
void collide_run(const Real* const rd[Q], Real* const wr[Q], i64 cell0,
                 i32 len, Real omega, const Force& frc) {
  // A full batch copies with a constant trip count (straight 64 B moves);
  // a span's tail copies only its n cells.
  alignas(64) Real f[Q][B] = {};
  for (i32 k = 0; k < len; k += B) {
    const int n = std::min<i32>(B, len - k);
    if (n == B) {
      for (int i = 0; i < Q; ++i)
        for (int l = 0; l < B; ++l) f[i][l] = rd[i][k + l];
    } else {
      // Padding lanes hold the rest state: finite, no denormals.
      for (int i = 0; i < Q; ++i)
        for (int l = 0; l < B; ++l) f[i][l] = l < n ? rd[i][k + l] : W[i];
    }
    collide_lanes(f, omega, frc, cell0 + k, n);
    if (n == B) {
      for (int i = 0; i < Q; ++i)
        for (int l = 0; l < B; ++l) wr[i][k + l] = f[i][l];
    } else {
      for (int i = 0; i < Q; ++i)
        for (int l = 0; l < n; ++l) wr[i][k + l] = f[i][l];
    }
  }
}

// ---- addressing policies --------------------------------------------
// bases(begin, rd, wr) resolves the 19 read and write bases of the bulk
// span starting at dense cell `begin`; collide_run does the rest.

/// Dense id for DoubleBuffer, compact id for Sparse.
struct CellIds {
  const Lattice* sparse = nullptr;  ///< set in Sparse mode
  i64 operator()(i64 cell) const {
    return sparse ? sparse->sparse_index(cell) : cell;
  }
};

/// In place on the current buffer (DoubleBuffer or Sparse): a span is
/// one contiguous base per plane.
struct InPlace {
  Real* planes[Q];
  CellIds id;

  explicit InPlace(Lattice& lat) {
    const bool sparse = lat.storage_mode() == StorageMode::Sparse;
    for (int i = 0; i < Q; ++i)
      planes[i] = sparse ? lat.sparse_plane_ptr(i) : lat.plane_ptr(i);
    if (sparse) id.sparse = &lat;
  }
  void bases(i64 begin, const Real* rd[Q], Real* wr[Q]) const {
    const i64 m = id(begin);
    for (int i = 0; i < Q; ++i) rd[i] = wr[i] = planes[i] + m;
  }
};

/// Fused pull (DoubleBuffer or Sparse): 19 shifted source bases in the
/// current buffer, the back buffer written.
struct Pull {
  const Real* src[Q];
  Real* dst[Q];
  i64 shift[Q];
  CellIds id;

  explicit Pull(Lattice& lat) {
    const bool sparse = lat.storage_mode() == StorageMode::Sparse;
    const Int3 d = lat.dim();
    for (int i = 0; i < Q; ++i) {
      src[i] = sparse ? lat.sparse_plane_ptr(i) : lat.plane_ptr(i);
      dst[i] = sparse ? lat.sparse_back_plane_ptr(i) : lat.back_plane_ptr(i);
      shift[i] = -(C[i].x + i64(d.x) * (C[i].y + i64(d.y) * C[i].z));
    }
    if (sparse) id.sparse = &lat;
  }
  void bases(i64 begin, const Real* rd[Q], Real* wr[Q]) const {
    const i64 m = id(begin);
    for (int i = 0; i < Q; ++i) {
      rd[i] = src[i] + id(begin + shift[i]);
      wr[i] = dst[i] + m;
    }
  }
};

/// AA slot maps: read through the current mapping, write the slots the
/// post-collide mapping assigns. At odd parity rd[i] and wr[OPP[i]] are
/// the same pointer, which collide_run's load-then-store order allows.
struct AaSlots {
  const Real* rd[Q];
  Real* wr[Q];

  explicit AaSlots(Lattice& lat) {
    for (int i = 0; i < Q; ++i) {
      rd[i] = lat.aa_bulk_read_ptr(i);
      wr[i] = lat.aa_bulk_write_ptr(i);
    }
  }
  void bases(i64 begin, const Real* r[Q], Real* w[Q]) const {
    for (int i = 0; i < Q; ++i) {
      r[i] = rd[i] + begin;
      w[i] = wr[i] + begin;
    }
  }
};

// ---- the region walker ----------------------------------------------

/// Collides the bulk spans of slices [lo.z, hi.z) clipped to the box: a
/// span lives in one row, so only its x extent needs clipping once the
/// row's y is inside.
template <class Addr, class Force>
void collide_spans(const CellClass& cc, Int3 d, const Addr& addr, Real omega,
                   const Force& frc, Int3 lo, Int3 hi) {
  const Real* rd[Q] = {};
  Real* wr[Q] = {};
  for (i64 s = cc.span_z[lo.z]; s < cc.span_z[hi.z]; ++s) {
    const CellSpan sp = cc.spans[static_cast<std::size_t>(s)];
    const int y = static_cast<int>((sp.begin / d.x) % d.y);
    if (y < lo.y || y >= hi.y) continue;
    const int x0 = static_cast<int>(sp.begin % d.x);
    const int xb = std::max(x0, lo.x);
    const int xe = std::min(x0 + sp.len, hi.x);
    if (xb >= xe) continue;
    const i64 begin = sp.begin + (xb - x0);
    addr.bases(begin, rd, wr);
    collide_run(rd, wr, begin, static_cast<i32>(xe - xb), omega, frc);
  }
}

/// Calls fn(cell) for the cells of a z-partitioned list inside the box.
template <class Fn>
void for_each_listed(const Lattice& lat, const std::vector<i64>& list,
                     const std::vector<i64>& list_z, Int3 lo, Int3 hi,
                     Fn&& fn) {
  // An unclipped box skips the per-cell coords() divisions.
  const Int3 d = lat.dim();
  const bool all = lo.x <= 0 && lo.y <= 0 && hi.x >= d.x && hi.y >= d.y;
  for (i64 k = list_z[lo.z]; k < list_z[hi.z]; ++k) {
    const i64 c = list[static_cast<std::size_t>(k)];
    if (!all) {
      const Int3 p = lat.coords(c);
      if (p.x < lo.x || p.x >= hi.x || p.y < lo.y || p.y >= hi.y) continue;
    }
    fn(c);
  }
}

/// The collide pass over the box [lo, hi): bulk spans through the batched
/// core, slow cells through collide_bgk_cell. In place, only fluid cells
/// change. AA advances every cell instead: non-fluid slow cells and
/// solids copy through into the post-collide slots (solid border cells
/// hold the init equilibrium until first streamed, and the exchange pack
/// sends border values of any flag). Ghost cells outside the box stay
/// un-advanced, which is safe because nothing reads their logical values
/// until unpack rewrites them under the post-collide mapping.
template <class Addr, class Force>
void collide_box(Lattice& lat, const CellClass& cc, const Addr& addr,
                 Real tau, const Force& frc, Int3 lo, Int3 hi) {
  collide_spans(cc, lat.dim(), addr, Real(1) / tau, frc, lo, hi);
  Real f[Q] = {};
  if constexpr (std::is_same_v<Addr, AaSlots>) {
    for_each_listed(lat, cc.slow, cc.slow_z, lo, hi, [&](i64 c) {
      lat.gather_cell(c, f);
      if (lat.flag(c) == CellType::Fluid) {
        collide_bgk_cell(f, tau, frc.at(c));
      }
      lat.scatter_cell_collided(c, f);
    });
    for_each_listed(lat, cc.solid, cc.solid_z, lo, hi, [&](i64 c) {
      lat.gather_cell(c, f);
      lat.scatter_cell_collided(c, f);
    });
  } else {
    for_each_listed(lat, cc.fluid_slow, cc.fluid_slow_z, lo, hi, [&](i64 c) {
      const i64 m = addr.id(c);
      for (int i = 0; i < Q; ++i) f[i] = addr.planes[i][m];
      collide_bgk_cell(f, tau, frc.at(c));
      for (int i = 0; i < Q; ++i) addr.planes[i][m] = f[i];
    });
  }
}

/// Runs body over slices [z0, z1): z-slab chunks on the pool when given,
/// one call otherwise.
template <class Body>
void over_slabs(ThreadPool* pool, Int3 d, int z0, int z1, const Body& body) {
  if (!pool) {
    body(z0, z1);
    return;
  }
  pool->parallel_for_chunks(
      z0, z1,
      [&body](i64 a, i64 b) {
        body(static_cast<int>(a), static_cast<int>(b));
      },
      ThreadPool::min_chunk_indices(i64(d.x) * d.y));
}

/// The collide pass over [lo, hi) in any storage mode, z-slabs on `pool`
/// when given (collision is per-cell local, so bit-identical to serial).
template <class Force>
void collide_pass(Lattice& lat, Real tau, const Force& frc, Int3 lo, Int3 hi,
                  ThreadPool* pool) {
  const CellClass& cc = lat.cell_class();  // build before dispatch
  auto run = [&](const auto& addr) {
    over_slabs(pool, lat.dim(), lo.z, hi.z, [&](int z0, int z1) {
      collide_box(lat, cc, addr, tau, frc, Int3{lo.x, lo.y, z0},
                  Int3{hi.x, hi.y, z1});
    });
  };
  if (lat.storage_mode() == StorageMode::AA) {
    run(AaSlots(lat));
    lat.aa_mark_collided();
  } else {
    run(InPlace(lat));  // resolves the sparse layout on this thread
  }
}

}  // namespace

void collide_bgk(Lattice& lat, const BgkParams& p) {
  with_force(p.force, [&](const auto& frc) {
    collide_pass(lat, p.tau, frc, Int3{0, 0, 0}, lat.dim(), nullptr);
  });
}

void collide_bgk(Lattice& lat, const BgkParams& p, ThreadPool& pool) {
  with_force(p.force, [&](const auto& frc) {
    collide_pass(lat, p.tau, frc, Int3{0, 0, 0}, lat.dim(), &pool);
  });
}

void collide_bgk_region(Lattice& lat, const BgkParams& p, Int3 lo, Int3 hi) {
  with_force(p.force, [&](const auto& frc) {
    collide_pass(lat, p.tau, frc, lo, hi, nullptr);
  });
}

void collide_bgk_forced(Lattice& lat, Real tau, const Vec3* force,
                        const StepContext& ctx) {
  obs::ScopedSpan span(ctx.trace, "collide", ctx.rank, "lbm");
  collide_pass(lat, tau, FieldForce{force}, Int3{0, 0, 0}, lat.dim(),
               ctx.pool);
}

namespace {

/// One slow cell's fused value: pull, then per-flag handling (collide a
/// fluid cell, impose the inlet equilibrium, pass an outflow through).
void fused_slow_cell(const Lattice& lat, const BgkParams& p, i64 cell,
                     Real f[Q]) {
  const Int3 pos = lat.coords(cell);
  for (int i = 0; i < Q; ++i) f[i] = detail::pull_value(lat, pos, i);
  const CellType t = lat.flag(cell);
  if (t == CellType::Fluid) {
    collide_bgk_cell(f, p.tau, p.force);
  } else if (t == CellType::Inlet) {
    equilibrium_all(lat.inlet_density(), lat.inlet_velocity_at(pos), f);
  }
}

/// Fused pull+collide over slices [z0, z1) (DoubleBuffer or Sparse):
/// bulk spans through the batched core with shifted source bases, the
/// slow minority through fused_slow_cell; solids are zeroed (and have no
/// storage in Sparse mode).
template <class Force>
void fused_z_range(const Lattice& lat, const CellClass& cc, const Pull& pull,
                   const BgkParams& p, const Force& frc, int z0, int z1) {
  const Int3 d = lat.dim();
  for (i64 k = cc.solid_z[z0]; k < cc.solid_z[z1]; ++k) {
    const i64 m = pull.id(cc.solid[static_cast<std::size_t>(k)]);
    if (m < 0) continue;
    for (int i = 0; i < Q; ++i) pull.dst[i][m] = Real(0);
  }
  collide_spans(cc, d, pull, Real(1) / p.tau, frc, Int3{0, 0, z0},
                Int3{d.x, d.y, z1});
  Real f[Q] = {};
  for (i64 k = cc.slow_z[z0]; k < cc.slow_z[z1]; ++k) {
    const i64 cell = cc.slow[static_cast<std::size_t>(k)];
    fused_slow_cell(lat, p, cell, f);
    const i64 m = pull.id(cell);  // slow cells are never solid
    for (int i = 0; i < Q; ++i) pull.dst[i][m] = f[i];
  }
}

void check_fused_supported(const Lattice& lat) {
  // The fused pass cannot interpose the Bouzidi correction between
  // streaming and collision; use the separate passes for curved boundaries.
  GC_CHECK_MSG(lat.curved_links().empty(),
               "fused_stream_collide does not support curved links");
}

/// AA fused step. The slow cells' fused values (pull + per-flag
/// handling, exactly the double-buffered slow path) are computed BEFORE
/// the parity flip into scratch; the flip then streams the bulk for
/// free; the bulk is collided in place and the slow/solid results are
/// scattered through the post-collide mapping. The lattice ends the
/// step collided — the next fused call flips first.
template <class Force>
void aa_fused(Lattice& lat, const BgkParams& p, const Force& frc,
              const StepContext& ctx) {
  if (!lat.aa_collided()) lat.aa_adopt_collided_layout();
  const CellClass& cc = lat.cell_class();  // build before dispatch
  const Int3 d = lat.dim();
  const i64 nslow = static_cast<i64>(cc.slow.size());
  auto& fix = lat.aa_fix_scratch();
  fix.resize(static_cast<std::size_t>(nslow * Q));

  auto slow_values = [&lat, &cc, &p, &fix](i64 k0, i64 k1) {
    for (i64 k = k0; k < k1; ++k) {
      fused_slow_cell(lat, p, cc.slow[static_cast<std::size_t>(k)],
                      fix.data() + k * Q);
    }
  };
  if (ctx.pool) {
    ctx.pool->parallel_for_chunks(0, nslow, slow_values,
                                  ThreadPool::min_chunk_indices(256));
  } else {
    slow_values(0, nslow);
  }

  lat.swap_buffers();  // flip parity: the zero-copy bulk stream

  // The pulled values are already in place (the flip put them there), so
  // the bulk is the AA advancing collide of the classified spans.
  const AaSlots slots(lat);
  const Real omega = Real(1) / p.tau;
  over_slabs(ctx.pool, d, 0, d.z, [&](int z0, int z1) {
    collide_spans(cc, d, slots, omega, frc, Int3{0, 0, z0},
                  Int3{d.x, d.y, z1});
  });

  for (i64 k = 0; k < nslow; ++k) {
    lat.scatter_cell_collided(cc.slow[static_cast<std::size_t>(k)],
                              fix.data() + k * Q);
  }
  const Real zeros[Q] = {};
  for (const i64 c : cc.solid) lat.scatter_cell_collided(c, zeros);
  lat.aa_mark_collided();
}

}  // namespace

void fused_stream_collide(Lattice& lat, const BgkParams& p,
                          const StepContext& ctx) {
  check_fused_supported(lat);
  obs::ScopedSpan span(ctx.trace, "fused", ctx.rank, "lbm");
  with_force(p.force, [&](const auto& frc) {
    if (lat.storage_mode() == StorageMode::AA) {
      aa_fused(lat, p, frc, ctx);
      return;
    }
    const CellClass& cc = lat.cell_class();  // build before dispatch
    const Pull pull(lat);  // resolves the sparse layout on this thread
    over_slabs(ctx.pool, lat.dim(), 0, lat.dim().z, [&](int z0, int z1) {
      fused_z_range(lat, cc, pull, p, frc, z0, z1);
    });
    lat.swap_buffers();
  });
}

}  // namespace gc::lbm
