#pragma once
// Hand-written flat-array D3Q19 baselines for the paper's Table II:
//   - Fused      : "cuboltz-like" native code — raw SoA buffers, fused
//                  collide+stream pull, a z/y/x cell walk that reads each
//                  pull source at a per-direction linear delta; interior
//                  rows run unchecked in a vectorizable loop, every other
//                  cell behind one bounds test.
//   - TwoPopIdx  : "stlbm twoPop (C++ parallel algorithms)-like" — the same
//                  physics but iterating a cell-index array through a
//                  generic accessor, reproducing the indirection overhead
//                  of the CPA formulation.
//   - AA         : "stlbm AA-pattern-like" — single population buffer with
//                  the Bailey AA addressing (even step: in-place collide
//                  with reversed write; odd step: gather from neighbours,
//                  scatter back).
// All variants share lattice constants, forEachDirection and the
// equilibrium with the Neon solver, so results are directly comparable
// (bit-identical for Fused/TwoPopIdx).

#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/index3d.hpp"
#include "lbm/lattice.hpp"

namespace neon::lbm::native {

enum class Variant : uint8_t
{
    Fused,      ///< cuboltz-like
    TwoPopIdx,  ///< stlbm twoPop-like (indexed indirection)
    AA,         ///< stlbm AA-pattern-like (single buffer)
};

enum class Boundary : uint8_t
{
    Cavity,    ///< half-way bounce-back walls + moving +z lid
    Periodic,  ///< all faces periodic (used to validate the AA pattern)
};

template <typename Real = float>
class NativeCavityD3Q19
{
   public:
    NativeCavityD3Q19(index_3d dim, double tau, double lidVelocity, Variant variant,
                      Boundary boundary = Boundary::Cavity)
        : mDim(dim),
          mCells(dim.size()),
          mOmega(static_cast<Real>(1.0 / tau)),
          mLidU(static_cast<Real>(lidVelocity)),
          mVariant(variant),
          mBoundary(boundary)
    {
        mF[0].assign(mCells * D3Q19::Q, Real(0));
        if (variant != Variant::AA) {
            mF[1].assign(mCells * D3Q19::Q, Real(0));
        }
        for (size_t x = 0; x < mCells; ++x) {
            for (int i = 0; i < D3Q19::Q; ++i) {
                mF[0][slot(x, i)] = equilibrium<D3Q19, Real>(i, 1, 0, 0, 0);
                if (variant != Variant::AA) {
                    mF[1][slot(x, i)] = mF[0][slot(x, i)];
                }
            }
        }
        if (variant == Variant::TwoPopIdx) {
            mCellIndex.resize(mCells);
            std::iota(mCellIndex.begin(), mCellIndex.end(), 0);
        }
    }

    /// Deterministically perturb the initial populations (call before any
    /// run()): scales each cell by 1 + eps*sin(...). Used to give variant
    /// cross-checks a non-trivial state on periodic domains.
    void perturbDensity(double eps)
    {
        NEON_CHECK(mIter == 0, "perturb before running");
        for (size_t x = 0; x < mCells; ++x) {
            const index_3d g = mDim.fromPitch(x);
            const Real     factor = static_cast<Real>(
                1.0 + eps * std::sin(0.7 * g.x + 0.31 * g.y + 0.113 * g.z));
            for (int i = 0; i < D3Q19::Q; ++i) {
                mF[0][slot(x, i)] *= factor;
            }
        }
    }

    void run(int n)
    {
        for (int it = 0; it < n; ++it) {
            switch (mVariant) {
                case Variant::Fused: stepFused(); break;
                case Variant::TwoPopIdx: stepIndexed(); break;
                case Variant::AA: stepAA(); break;
            }
            ++mIter;
        }
    }

    [[nodiscard]] int iteration() const { return mIter; }

    [[nodiscard]] double totalMass() const
    {
        const auto& f = currentBuffer();
        double      mass = 0.0;
        for (Real v : f) {
            mass += v;
        }
        return mass;
    }

    struct Macro
    {
        double rho = 0.0;
        std::array<double, 3> u{};
    };

    /// Macroscopic values; only meaningful for the two-population variants
    /// (the AA buffer stores populations in mixed locations at odd steps).
    [[nodiscard]] Macro macroAt(const index_3d& g) const
    {
        NEON_CHECK(mVariant != Variant::AA || (mIter % 2 == 0),
                   "AA macro readout requires an even iteration count");
        const auto&  f = currentBuffer();
        const size_t x = mDim.pitch(g);
        Macro        m;
        for (int i = 0; i < D3Q19::Q; ++i) {
            // AA at an even iteration count: every population is home.
            const double fi = f[slot(x, i)];
            m.rho += fi;
            for (int d = 0; d < 3; ++d) {
                m.u[static_cast<size_t>(d)] += fi * D3Q19::c[static_cast<size_t>(i)][d];
            }
        }
        for (int d = 0; d < 3; ++d) {
            m.u[static_cast<size_t>(d)] /= m.rho;
        }
        return m;
    }

    [[nodiscard]] const index_3d& dim() const { return mDim; }

   private:
    [[nodiscard]] size_t slot(size_t cell, int i) const
    {
        return static_cast<size_t>(i) * mCells + cell;  // SoA
    }

    [[nodiscard]] const std::vector<Real>& currentBuffer() const
    {
        if (mVariant == Variant::AA) {
            return mF[0];
        }
        return mF[static_cast<size_t>(mIter & 1)];
    }

    /// Source cell for the pull of direction i at g; returns false when the
    /// source is a wall (cavity) — never false for periodic.
    template <typename Dir>
    bool pullSource(const index_3d& g, Dir i, index_3d& src) const
    {
        src = {g.x - D3Q19::c[i][0], g.y - D3Q19::c[i][1], g.z - D3Q19::c[i][2]};
        if (mDim.contains(src)) {
            return true;
        }
        if (mBoundary == Boundary::Periodic) {
            src = {(src.x + mDim.x) % mDim.x, (src.y + mDim.y) % mDim.y,
                   (src.z + mDim.z) % mDim.z};
            return true;
        }
        return false;
    }

    /// Pulled population i (> 0) of the cell at g, linear index x: the
    /// source cell's, or half-way bounce-back of the cell's own opposite
    /// population when the source is a wall, plus the moving lid's momentum.
    template <typename Dir>
    Real pull(const std::vector<Real>& in, const index_3d& g, size_t x, Dir i) const
    {
        index_3d src;
        if (pullSource(g, i, src)) {
            return in[slot(mDim.pitch(src), i)];
        }
        Real v = in[slot(x, D3Q19::opp[i])];
        if (g.z == mDim.z - 1 && D3Q19::c[i][2] < 0) {
            v += Real(6) * static_cast<Real>(D3Q19::weight(i)) * mLidU *
                 static_cast<Real>(D3Q19::c[i][0]);
        }
        return v;
    }

    /// BGK collision of the gathered populations f; hands each
    /// post-collision population to store(i, value), in direction order.
    template <typename Store>
    void collide(const Real* f, Store&& store) const
    {
        Real rho = 0;
        Real ux = 0;
        Real uy = 0;
        Real uz = 0;
        forEachDirection<D3Q19>([&](auto i) {
            rho += f[i];
            ux += f[i] * static_cast<Real>(D3Q19::c[i][0]);
            uy += f[i] * static_cast<Real>(D3Q19::c[i][1]);
            uz += f[i] * static_cast<Real>(D3Q19::c[i][2]);
        });
        ux /= rho;
        uy /= rho;
        uz /= rho;
        forEachDirection<D3Q19>([&](auto i) {
            const Real feq = equilibrium<D3Q19, Real>(i, rho, ux, uy, uz);
            store(i, f[i] + mOmega * (feq - f[i]));
        });
    }

    /// cuboltz-like: walk the cells in z/y/x order. A row with gy in
    /// [1, dimY-1) of a plane with gz in [1, dimZ-1) splits like Neon's
    /// dense span: its interior cells x in [1, dimX-1) pull every source
    /// unchecked in one vectorizable loop; every other cell reads each
    /// in-box pull source at the cell's linear index minus the direction's
    /// linear delta, behind one bounds test. flatten inlines the cell body
    /// at every call site, as on Neon's plane visit.
    [[gnu::flatten]] void stepFused()
    {
        const auto& in = mF[static_cast<size_t>(mIter & 1)];
        auto&       out = mF[static_cast<size_t>(1 - (mIter & 1))];
        std::array<int64_t, D3Q19::Q> delta{};
        forEachDirection<D3Q19>([&](auto i) {
            delta[i] = (static_cast<int64_t>(D3Q19::c[i][2]) * mDim.y + D3Q19::c[i][1]) * mDim.x +
                       D3Q19::c[i][0];
        });
        auto edgeCell = [&](int32_t gx, int32_t gy, int32_t gz, size_t x) {
            Real f[D3Q19::Q];
            forEachDirection<D3Q19>([&](auto i) {
                constexpr auto& ci = D3Q19::c[i];
                // One branch: a negative coordinate wraps above the extent.
                const auto sx = static_cast<uint32_t>(gx - ci[0]);
                const auto sy = static_cast<uint32_t>(gy - ci[1]);
                const auto sz = static_cast<uint32_t>(gz - ci[2]);
                if ((sx < static_cast<uint32_t>(mDim.x)) & (sy < static_cast<uint32_t>(mDim.y)) &
                    (sz < static_cast<uint32_t>(mDim.z))) {
                    f[i] = in[slot(x - static_cast<size_t>(delta[i]), i)];
                } else {
                    f[i] = pull(in, {gx, gy, gz}, x, i);
                }
            });
            collide(f, [&](auto i, Real v) { out[slot(x, i)] = v; });
        };
        size_t x = 0;
        for (int32_t gz = 0; gz < mDim.z; ++gz) {
            const bool interiorPlane = gz >= 1 && gz < mDim.z - 1 && mDim.x >= 3;
            for (int32_t gy = 0; gy < mDim.y; ++gy) {
                if (!interiorPlane || gy < 1 || gy >= mDim.y - 1) {
                    for (int32_t gx = 0; gx < mDim.x; ++gx, ++x) {
                        edgeCell(gx, gy, gz, x);
                    }
                    continue;
                }
                edgeCell(0, gy, gz, x);
                const size_t end = x + static_cast<size_t>(mDim.x - 1);
                const Real*  src = in.data();
                Real*        dst = out.data();
                // Every pull source is in the box, and `in` and `out` are
                // distinct buffers: no iteration depends on another.
#pragma GCC ivdep
                for (size_t cell = x + 1; cell < end; ++cell) {
                    Real f[D3Q19::Q];
                    forEachDirection<D3Q19>([&](auto i) {
                        f[i] = src[slot(cell - static_cast<size_t>(delta[i]), i)];
                    });
                    collide(f, [&](auto i, Real v) { dst[slot(cell, i)] = v; });
                }
                x = end;
                edgeCell(mDim.x - 1, gy, gz, x);
                ++x;
            }
        }
    }

    /// stlbm twoPop-like: iterate the cell-index array and address every
    /// pull source through the coordinate helpers.
    void stepIndexed()
    {
        const auto& in = mF[static_cast<size_t>(mIter & 1)];
        auto&       out = mF[static_cast<size_t>(1 - (mIter & 1))];
        Real        f[D3Q19::Q];
        for (const int32_t xi : mCellIndex) {
            const auto     x = static_cast<size_t>(xi);
            const index_3d g = mDim.fromPitch(x);
            forEachDirection<D3Q19>(
                [&](auto i) { f[i] = i == 0 ? in[slot(x, 0)] : pull(in, g, x, i); });
            collide(f, [&](auto i, Real v) { out[slot(x, i)] = v; });
        }
    }

    /// AA pattern (single buffer). Even step: read home slots, collide,
    /// write each post-collision population to the *opposite* home slot.
    /// Odd step: gather f_i from (x - c_i, opp(i)), collide, scatter
    /// f*_i to (x + c_i, i).
    void stepAA()
    {
        auto& buf = mF[0];
        Real  f[D3Q19::Q];
        if (mIter % 2 == 0) {
            for (size_t x = 0; x < mCells; ++x) {
                forEachDirection<D3Q19>([&](auto i) { f[i] = buf[slot(x, i)]; });
                collide(f, [&](auto i, Real v) { buf[slot(x, D3Q19::opp[i])] = v; });
            }
        } else {
            // In-place is safe: slot (z, i) is read only by cell z - c_i
            // (its gather) and written only by the same cell (its scatter),
            // and each cell completes all reads before its writes. Wall
            // bounce-back writes go to (x, opp(i)), whose nominal owner is
            // the wall itself — also conflict-free.
            for (size_t x = 0; x < mCells; ++x) {
                const index_3d g = mDim.fromPitch(x);
                forEachDirection<D3Q19>([&](auto i) {
                    index_3d src;
                    if (i == 0) {
                        f[0] = buf[slot(x, 0)];
                    } else if (pullSource(g, i, src)) {
                        f[i] = buf[slot(mDim.pitch(src), D3Q19::opp[i])];
                    } else {
                        f[i] = buf[slot(x, i)];
                        if (g.z == mDim.z - 1 && D3Q19::c[i][2] < 0) {
                            f[i] += Real(6) * static_cast<Real>(D3Q19::weight(i)) * mLidU *
                                    static_cast<Real>(D3Q19::c[i][0]);
                        }
                    }
                });
                collide(f, [&](auto i, Real v) {
                    if (i == 0) {
                        buf[slot(x, 0)] = v;
                        return;
                    }
                    index_3d dst{g.x + D3Q19::c[i][0], g.y + D3Q19::c[i][1],
                                 g.z + D3Q19::c[i][2]};
                    if (mDim.contains(dst)) {
                        buf[slot(mDim.pitch(dst), i)] = v;
                    } else if (mBoundary == Boundary::Periodic) {
                        dst = {(dst.x + mDim.x) % mDim.x, (dst.y + mDim.y) % mDim.y,
                               (dst.z + mDim.z) % mDim.z};
                        buf[slot(mDim.pitch(dst), i)] = v;
                    } else {
                        // Wall: the population bounces straight back home,
                        // into direction opp(i); the moving lid adds its
                        // momentum with the bounced direction's sign.
                        if (g.z == mDim.z - 1 && D3Q19::c[i][2] > 0) {
                            v -= Real(6) * static_cast<Real>(D3Q19::weight(i)) * mLidU *
                                 static_cast<Real>(D3Q19::c[i][0]);
                        }
                        buf[slot(x, D3Q19::opp[i])] = v;
                    }
                });
            }
        }
    }

    index_3d             mDim;
    size_t               mCells;
    Real                 mOmega;
    Real                 mLidU;
    Variant              mVariant;
    Boundary             mBoundary;
    std::array<std::vector<Real>, 2> mF;
    std::vector<int32_t> mCellIndex;
    int                  mIter = 0;
};

}  // namespace neon::lbm::native
