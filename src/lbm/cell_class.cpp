#include "lbm/cell_class.hpp"

#include <algorithm>

#include "lbm/lattice.hpp"

namespace gc::lbm {

void CellClass::build(const Lattice& lat) {
  const Int3 d = lat.dim();

  spans.clear();
  slow.clear();
  fluid_slow.clear();
  solid.clear();
  inlet.clear();
  span_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  slow_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  fluid_slow_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  solid_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  bulk_cells = 0;

  i64 shift[Q];
  for (int i = 0; i < Q; ++i) shift[i] = pull_shift(d, i);

  const auto& flags = lat.flags();
  const u8 fluid = static_cast<u8>(CellType::Fluid);
  const u8 solid_flag = static_cast<u8>(CellType::Solid);
  const u8 inlet_flag = static_cast<u8>(CellType::Inlet);

  for (int z = 0; z < d.z; ++z) {
    span_z[static_cast<std::size_t>(z)] = static_cast<i64>(spans.size());
    slow_z[static_cast<std::size_t>(z)] = static_cast<i64>(slow.size());
    fluid_slow_z[static_cast<std::size_t>(z)] =
        static_cast<i64>(fluid_slow.size());
    solid_z[static_cast<std::size_t>(z)] = static_cast<i64>(solid.size());

    const bool z_interior = z >= 1 && z < d.z - 1;
    for (int y = 0; y < d.y; ++y) {
      const bool row_interior = z_interior && y >= 1 && y < d.y - 1;
      i64 open = -1;  // first cell of the span currently being extended
      i64 cell = lat.idx(0, y, z);
      for (int x = 0; x < d.x; ++x, ++cell) {
        const u8 t = flags[static_cast<std::size_t>(cell)];
        bool fast = row_interior && x >= 1 && x < d.x - 1 && t == fluid;
        if (fast) {
          for (int i = 1; i < Q; ++i) {
            if (flags[static_cast<std::size_t>(cell + shift[i])] != fluid) {
              fast = false;
              break;
            }
          }
        }
        if (fast) {
          if (open < 0) open = cell;
          ++bulk_cells;
          continue;
        }
        if (open >= 0) {
          spans.push_back({open, static_cast<i32>(cell - open)});
          open = -1;
        }
        if (t == solid_flag) {
          solid.push_back(cell);
        } else {
          slow.push_back(cell);
          if (t == fluid) {
            fluid_slow.push_back(cell);
          } else if (t == inlet_flag) {
            inlet.push_back(cell);
          }
        }
      }
      if (open >= 0) {
        const i64 row_end = lat.idx(0, y, z) + d.x;
        spans.push_back({open, static_cast<i32>(row_end - open)});
      }
    }
  }
  span_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(spans.size());
  slow_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(slow.size());
  fluid_slow_z[static_cast<std::size_t>(d.z)] =
      static_cast<i64>(fluid_slow.size());
  solid_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(solid.size());
}

void InnerOuterClass::build(const Lattice& lat, Int3 gl, Int3 gh) {
  ghost_lo = gl;
  ghost_hi = gh;
  inner_spans.clear();
  outer_spans.clear();
  inner_slow.clear();
  outer_slow.clear();
  inner_solid.clear();
  outer_solid.clear();
  inner_cells = 0;
  outer_cells = 0;

  const Int3 d = lat.dim();
  // A coordinate is outer on axis `a` when the cell or one of its pull
  // sources (Chebyshev distance <= 1) lies inside that axis's margin.
  auto outer_coord = [&](int v, int a) {
    return (gl[a] > 0 && v <= gl[a]) || (gh[a] > 0 && v >= d[a] - gh[a] - 1);
  };
  auto is_outer = [&](Int3 p) {
    return outer_coord(p.x, 0) || outer_coord(p.y, 1) || outer_coord(p.z, 2);
  };

  const CellClass& cc = lat.cell_class();
  // First / one-past-last inner x, for splitting spans along their row.
  const int x_lo = gl.x > 0 ? gl.x + 1 : 0;
  const int x_hi = gh.x > 0 ? d.x - gh.x - 1 : d.x;
  for (const CellSpan& sp : cc.spans) {
    const Int3 a = lat.coords(sp.begin);
    if (outer_coord(a.y, 1) || outer_coord(a.z, 2)) {
      outer_spans.push_back(sp);
      continue;
    }
    const int x0 = a.x;
    const int x1 = a.x + sp.len;
    const int m0 = std::max(x0, x_lo);
    const int m1 = std::min(x1, x_hi);
    if (m1 <= m0) {
      outer_spans.push_back(sp);
      continue;
    }
    if (m0 > x0) {
      outer_spans.push_back({sp.begin, static_cast<i32>(m0 - x0)});
    }
    inner_spans.push_back({sp.begin + (m0 - x0), static_cast<i32>(m1 - m0)});
    if (x1 > m1) {
      outer_spans.push_back({sp.begin + (m1 - x0), static_cast<i32>(x1 - m1)});
    }
  }
  for (const i64 c : cc.slow) {
    (is_outer(lat.coords(c)) ? outer_slow : inner_slow).push_back(c);
  }
  for (const i64 c : cc.solid) {
    (is_outer(lat.coords(c)) ? outer_solid : inner_solid).push_back(c);
  }

  for (const CellSpan& sp : inner_spans) inner_cells += sp.len;
  inner_cells += static_cast<i64>(inner_slow.size() + inner_solid.size());
  for (const CellSpan& sp : outer_spans) outer_cells += sp.len;
  outer_cells += static_cast<i64>(outer_slow.size() + outer_solid.size());
}

}  // namespace gc::lbm
