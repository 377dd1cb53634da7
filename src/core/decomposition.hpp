// Block domain decomposition (Section 4.3, Figure 6): the LBM lattice is
// split into 3D blocks, one per GPU node, arranged on a logical node grid.
// Cube-like blocks minimize the boundary-surface-to-volume ratio and thus
// the communicated bytes.
#pragma once

#include <vector>

#include "netsim/schedule.hpp"
#include "util/common.hpp"
#include "util/vec3.hpp"

namespace gc::core {

/// One node's block: the half-open global cell range [lo, hi).
struct SubDomain {
  int node = -1;
  Int3 lo{};
  Int3 hi{};
  Int3 size() const { return hi - lo; }
  i64 num_cells() const { return size().volume(); }
};

class Decomposition3 {
 public:
  /// Splits `lattice_dim` across `grid`; remainders spread over the first
  /// blocks of each axis so block sizes differ by at most one cell.
  Decomposition3(Int3 lattice_dim, netsim::NodeGrid grid);

  /// Fluid-cell-balanced coordinate partitioning (hemelb's xyzpart idea):
  /// per-axis cut planes are placed on the marginal non-solid cell counts
  /// instead of uniformly, so ranks of an urban geometry get near-equal
  /// fluid loads. `flags` are the global lattice's per-cell flags
  /// (lbm::CellType as u8, x fastest). The node-grid topology — and with
  /// it every neighbor/face/exchange relation — is exactly the uniform
  /// decomposition's; only the cut positions move, so this cannot change
  /// any simulated value, just who computes it.
  Decomposition3(Int3 lattice_dim, netsim::NodeGrid grid,
                 const std::vector<u8>& flags);

  Int3 lattice_dim() const { return dim_; }
  const netsim::NodeGrid& grid() const { return grid_; }
  int num_nodes() const { return grid_.num_nodes(); }

  const SubDomain& block(int node) const;
  const std::vector<SubDomain>& blocks() const { return blocks_; }

  /// Node id of the neighbor at grid offset `off` from `node`, or -1.
  int neighbor(int node, Int3 off) const;

  /// Axial neighbors of a node (up to 6), as (face, neighbor id).
  std::vector<std::pair<int, int>> axial_neighbors(int node) const;

  /// Diagonal (second-nearest) neighbors of a node (up to 12), as (grid
  /// offset with exactly two nonzero components, neighbor id).
  std::vector<std::pair<Int3, int>> diagonal_neighbors(int node) const {
    return grid_.diagonal_neighbors(node);
  }

  /// Area (cells) of the face shared with the axial neighbor across
  /// `face` (0..5 as lbm::Face); 0 if no neighbor.
  i64 face_area(int node, int face) const;

  /// Verifies the blocks tile the lattice exactly (used by tests).
  bool tiles_domain() const;

  /// Largest bytes one node sends across one face per step
  /// (5 outgoing distributions per border cell, sizeof(Real) each).
  i64 max_face_bytes() const;

 private:
  Int3 dim_;
  netsim::NodeGrid grid_;
  std::vector<SubDomain> blocks_;
};

}  // namespace gc::core
