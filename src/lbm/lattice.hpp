#pragma once
// Lattice constants for the LBM solvers (paper §VI-A): D3Q19 for the 3-D
// lid-driven cavity and D2Q9 for the 2-D Karman vortex street.

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/stencil.hpp"

namespace neon::lbm {

struct D3Q19
{
    static constexpr int Q = 19;

    /// Discrete velocities; index 0 is the rest population.
    static constexpr std::array<std::array<int, 3>, Q> c = {{
        {0, 0, 0},                                                        // 0
        {1, 0, 0},  {-1, 0, 0},  {0, 1, 0},  {0, -1, 0},                  // 1-4
        {0, 0, 1},  {0, 0, -1},                                           // 5-6
        {1, 1, 0},  {-1, -1, 0}, {1, -1, 0}, {-1, 1, 0},                  // 7-10
        {1, 0, 1},  {-1, 0, -1}, {1, 0, -1}, {-1, 0, 1},                  // 11-14
        {0, 1, 1},  {0, -1, -1}, {0, 1, -1}, {0, -1, 1},                  // 15-18
    }};

    /// Opposite direction of each velocity.
    static constexpr std::array<int, Q> opp = {0, 2,  1,  4,  3,  6,  5,  8,  7, 10,
                                               9, 12, 11, 14, 13, 16, 15, 18, 17};

    static constexpr double wRest = 1.0 / 3.0;
    static constexpr double wAxis = 1.0 / 18.0;
    static constexpr double wDiag = 1.0 / 36.0;

    static constexpr double weight(int i)
    {
        if (i == 0) {
            return wRest;
        }
        return i <= 6 ? wAxis : wDiag;
    }

    /// The 18 non-rest directions as a Neon stencil.
    static Stencil stencil()
    {
        std::vector<index_3d> pts;
        for (int i = 1; i < Q; ++i) {
            pts.push_back({c[static_cast<size_t>(i)][0], c[static_cast<size_t>(i)][1],
                           c[static_cast<size_t>(i)][2]});
        }
        return Stencil(std::move(pts), "d3q19");
    }
};

struct D2Q9
{
    static constexpr int Q = 9;

    static constexpr std::array<std::array<int, 3>, Q> c = {{
        {0, 0, 0},                                          // 0
        {1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0},       // 1-4
        {1, 1, 0}, {-1, -1, 0}, {1, -1, 0}, {-1, 1, 0},     // 5-8
    }};

    static constexpr std::array<int, Q> opp = {0, 2, 1, 4, 3, 6, 5, 8, 7};

    static constexpr double weight(int i)
    {
        if (i == 0) {
            return 4.0 / 9.0;
        }
        return i <= 4 ? 1.0 / 9.0 : 1.0 / 36.0;
    }

    static Stencil stencil()
    {
        std::vector<index_3d> pts;
        for (int i = 1; i < Q; ++i) {
            pts.push_back({c[static_cast<size_t>(i)][0], c[static_cast<size_t>(i)][1], 0});
        }
        return Stencil(std::move(pts), "d2q9");
    }

    /// Variant with the lattice's second axis mapped to the grid's z axis,
    /// so a 2-D channel is partitionable by Neon's z decomposition.
    static Stencil stencilXZ()
    {
        std::vector<index_3d> pts;
        for (int i = 1; i < Q; ++i) {
            pts.push_back({c[static_cast<size_t>(i)][0], 0, c[static_cast<size_t>(i)][1]});
        }
        return Stencil(std::move(pts), "d2q9xz");
    }
};

/// Calls fn(std::integral_constant<int, i>{}) for i = 0 ... Q-1, in order.
/// Each call sees its direction as a compile-time constant, so a kernel
/// body written once per direction unrolls into straight-line code with
/// c[i], opp[i] and weight(i) folded to literals; GCC leaves a runtime
/// loop of Q = 19 rolled (it fully peels at most 16 iterations).
template <typename Lattice, typename Fn>
inline void forEachDirection(Fn&& fn)
{
    [&]<int... I>(std::integer_sequence<int, I...>) {
        (fn(std::integral_constant<int, I>{}), ...);
    }(std::make_integer_sequence<int, Lattice::Q>{});
}

/// BGK equilibrium, shared by every solver and baseline so results are
/// bit-comparable across implementations. `Dir` is an `int` or a
/// forEachDirection constant; the arithmetic is the same for both.
template <typename Lattice, typename Real, typename Dir>
inline Real equilibrium(Dir i, Real rho, Real ux, Real uy, Real uz)
{
    const Real cu = static_cast<Real>(Lattice::c[static_cast<size_t>(i)][0]) * ux +
                    static_cast<Real>(Lattice::c[static_cast<size_t>(i)][1]) * uy +
                    static_cast<Real>(Lattice::c[static_cast<size_t>(i)][2]) * uz;
    const Real usq = ux * ux + uy * uy + uz * uz;
    return static_cast<Real>(Lattice::weight(i)) * rho *
           (Real(1) + Real(3) * cu + Real(4.5) * cu * cu - Real(1.5) * usq);
}

}  // namespace neon::lbm
