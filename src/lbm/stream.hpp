// Streaming (propagation) step, Section 4.1: particles move synchronously
// along their links in discrete time. Implemented as a "pull": the new
// f_i at x is fetched from x - c_i in the previous buffer — exactly the
// gather operation the paper's fragment programs perform on the GPU
// (Section 4.2), which is why the simulated-GPU path reuses pull_value().
#pragma once

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"
#include "util/thread_pool.hpp"

namespace gc::lbm {

/// Streams every cell from the current buffer into the back buffer,
/// applying face boundary conditions, half-way bounce-back at solids,
/// inlet equilibria and outflow copies; then swaps buffers and applies
/// curved-boundary (Bouzidi) corrections for registered links.
void stream(Lattice& lat);

/// Multithreaded variant: z-slabs stream concurrently on the pool (the
/// pull pattern has no write conflicts). Bit-identical to stream().
void stream(Lattice& lat, ThreadPool& pool);

/// Context variant: runs on ctx.pool when set and emits "stream" (pull
/// pass) and "finish" (swap + inlet + curved corrections) spans on
/// ctx.trace when attached. Bit-identical to stream().
void stream(Lattice& lat, const StepContext& ctx);

/// Streams only the inner partition of `split` into the back buffer —
/// cells guaranteed not to read any ghost-margin texel — so it can run
/// while border messages are still in flight. No buffer swap, no
/// boundary finishing: always pair with stream_outer() afterwards.
/// stream_inner + stream_outer is bit-identical to stream(): the pull
/// pattern writes each cell exactly once, so phase order cannot change
/// any value.
void stream_inner(Lattice& lat, const InnerOuterClass& split);

/// Streams the outer partition (ghost margins plus the one-cell shell
/// inside them) after the ghost layers are written, then swaps buffers
/// and applies inlet re-imposition and curved-boundary corrections.
void stream_outer(Lattice& lat, const InnerOuterClass& split);

namespace detail {

/// Value pulled for direction i at cell position p, with all boundary
/// handling. Reads the *current* buffer; callers write the back buffer.
Real pull_value(const Lattice& lat, Int3 p, int i);

/// True when all 19 pull sources of p are in-bounds fluid cells — the fast
/// path where streaming is a plain shifted copy.
bool is_interior_fluid(const Lattice& lat, Int3 p);

/// Storage id of a dense cell: the cell itself for DoubleBuffer, its
/// compact id for Sparse (-1 for a solid, which has no storage there).
struct CellIds {
  const Lattice* sparse = nullptr;  ///< set in Sparse mode
  i64 operator()(i64 cell) const {
    return sparse ? sparse->sparse_index(cell) : cell;
  }
};

/// Pull addressing of a DoubleBuffer or Sparse lattice, shared by the
/// stream pass and the fused pass: a bulk cell's direction-i value comes
/// from dense cell + shift[i] in the current buffer and goes to the back
/// buffer. The compact list keeps ascending dense order, so a bulk span
/// and each of its 19 source runs map to contiguous ids in both modes:
/// only a span's base goes through the id mapping.
struct Pull {
  const Real* src[Q];
  Real* dst[Q];
  i64 shift[Q];
  CellIds id;

  /// Resolves the layout (building the compact one) on the calling thread.
  explicit Pull(Lattice& lat);

  /// The 19 read and write bases of the bulk span starting at `begin`.
  void bases(i64 begin, const Real* rd[Q], Real* wr[Q]) const {
    const i64 m = id(begin);
    for (int i = 0; i < Q; ++i) {
      rd[i] = src[i] + id(begin + shift[i]);
      wr[i] = dst[i] + m;
    }
  }

  /// Zeroes the back-buffer values of `n` solid cells. Sparse solids have
  /// no storage, so in Sparse mode the list is not walked at all.
  void zero_solids(const i64* cells, i64 n) const;
};

/// Runs body(z0, z1) over slices [z0, z1): z-slab chunks on the pool when
/// given, one call otherwise.
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

}  // namespace detail
}  // namespace gc::lbm
