// D3Q19 lattice Boltzmann model constants and equilibrium (Section 4.1 of
// the paper): 19 velocities per site (rest + 6 axial + 12 minor-diagonal),
// BGK equilibrium, speed of sound cs^2 = 1/3.
#pragma once

#include <array>

#include "util/common.hpp"
#include "util/vec3.hpp"

namespace gc::lbm {

/// Number of discrete velocities in D3Q19.
inline constexpr int Q = 19;

/// Index of the rest velocity.
inline constexpr int REST = 0;

/// First axial direction index (1..6 are the nearest-neighbor links).
inline constexpr int AXIAL_BEGIN = 1;
inline constexpr int AXIAL_END = 7;

/// First diagonal direction index (7..18 are second-nearest links).
inline constexpr int DIAG_BEGIN = 7;
inline constexpr int DIAG_END = 19;

/// Link vectors c_i. Order: rest; +x,-x,+y,-y,+z,-z; then the 12 diagonals
/// (xy, xz, yz planes, all sign combinations).
inline constexpr std::array<Int3, Q> C = {{
    {0, 0, 0},                                                    // 0
    {1, 0, 0},  {-1, 0, 0},  {0, 1, 0},  {0, -1, 0},              // 1-4
    {0, 0, 1},  {0, 0, -1},                                       // 5-6
    {1, 1, 0},  {-1, -1, 0}, {1, -1, 0}, {-1, 1, 0},              // 7-10
    {1, 0, 1},  {-1, 0, -1}, {1, 0, -1}, {-1, 0, 1},              // 11-14
    {0, 1, 1},  {0, -1, -1}, {0, 1, -1}, {0, -1, 1},              // 15-18
}};

/// Quadrature weights w_i: 1/3 rest, 1/18 axial, 1/36 diagonal.
inline constexpr std::array<Real, Q> W = {{
    Real(1.0 / 3.0),
    Real(1.0 / 18.0), Real(1.0 / 18.0), Real(1.0 / 18.0),
    Real(1.0 / 18.0), Real(1.0 / 18.0), Real(1.0 / 18.0),
    Real(1.0 / 36.0), Real(1.0 / 36.0), Real(1.0 / 36.0), Real(1.0 / 36.0),
    Real(1.0 / 36.0), Real(1.0 / 36.0), Real(1.0 / 36.0), Real(1.0 / 36.0),
    Real(1.0 / 36.0), Real(1.0 / 36.0), Real(1.0 / 36.0), Real(1.0 / 36.0),
}};

/// Index of the opposite direction: C[OPP[i]] == -C[i].
inline constexpr std::array<int, Q> OPP = {{
    0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
}};

/// Linear-index offset from a cell to its direction-i pull source x - c_i
/// in a lattice of extent d (x fastest). Valid for a cell whose source is
/// in bounds; the stream, fused and classification passes all use it.
inline i64 pull_shift(Int3 d, int i) {
  return -(C[i].x + i64(d.x) * (C[i].y + i64(d.y) * C[i].z));
}

/// Lattice speed of sound squared.
inline constexpr Real CS2 = Real(1.0 / 3.0);

/// BGK equilibrium distribution for direction i at density rho, velocity u:
///   f_i^eq = w_i rho (1 + 3 c.u + 4.5 (c.u)^2 - 1.5 u.u)
inline Real equilibrium(int i, Real rho, Vec3 u) {
  const Vec3 c{Real(C[i].x), Real(C[i].y), Real(C[i].z)};
  const Real cu = dot(c, u);
  const Real uu = dot(u, u);
  return W[i] * rho *
         (Real(1) + Real(3) * cu + Real(4.5) * cu * cu - Real(1.5) * uu);
}

/// Fills all 19 equilibrium values at once (shared subexpressions hoisted).
void equilibrium_all(Real rho, Vec3 u, Real out[Q]);

/// Kinematic viscosity for BGK relaxation time tau: nu = (tau - 1/2)/3.
inline Real viscosity_from_tau(Real tau) { return (tau - Real(0.5)) * CS2; }

/// Relaxation time for a target kinematic viscosity.
inline Real tau_from_viscosity(Real nu) { return nu / CS2 + Real(0.5); }

/// Returns the direction index matching the given offset, or -1.
int direction_index(Int3 offset);

/// Mirror of direction i across the plane with unit normal along `axis`
/// (0=x,1=y,2=z): the axis component of c flips sign. Used by free-slip.
int mirror_direction(int i, int axis);

/// Validates the model tables (opposites, weight sum, first moments).
/// Used by tests and called once from debug assertions.
bool model_tables_consistent();

}  // namespace gc::lbm

// Compile-time proofs over C/W/OPP — any edit to the tables above that
// breaks a model invariant fails to compile here (see model_audit.hpp).
#include "lbm/model_audit.hpp"
