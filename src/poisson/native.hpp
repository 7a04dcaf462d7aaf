#pragma once
// Hand-written flat-array Poisson CG: the stand-in for the paper's
// "CUDA + cuBLAS" baseline (§VI-B). No framework machinery: raw buffers,
// fused index arithmetic, no per-access bounds bookkeeping beyond the
// minimum. Used for correctness cross-checks and for the wall-clock
// baseline rows in the Fig. 8 bench.

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/index3d.hpp"
#include "poisson/poisson.hpp"

namespace neon::poisson::native {

struct Result
{
    int    iterations = 0;
    double relativeResidual = 0.0;
    bool   converged = false;
};

class NativeCg
{
   public:
    explicit NativeCg(index_3d dim)
        : mDim(dim),
          mX(dim.size(), 0.0),
          mB(dim.size(), 0.0),
          mR(dim.size(), 0.0),
          mP(dim.size(), 0.0),
          mAp(dim.size(), 0.0)
    {
    }

    [[nodiscard]] std::vector<double>&       rhs() { return mB; }
    [[nodiscard]] const std::vector<double>& solution() const { return mX; }

    void setupSineProblem()
    {
        const SineProblem problem(mDim);
        mDim.forEach([&](const index_3d& g) { mB[mDim.pitch(g)] = problem.rhs(g); });
    }

    /// out = A*in, 7-point negated Laplacian, Dirichlet-0 outside.
    void apply(const std::vector<double>& in, std::vector<double>& out) const
    {
        const int32_t nx = mDim.x;
        const int32_t ny = mDim.y;
        const int32_t nz = mDim.z;
        const size_t  sx = 1;
        const size_t  sy = static_cast<size_t>(nx);
        const size_t  sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
        for (int32_t z = 0; z < nz; ++z) {
            for (int32_t y = 0; y < ny; ++y) {
                for (int32_t x = 0; x < nx; ++x) {
                    const size_t i = static_cast<size_t>(x) + sy * static_cast<size_t>(y) +
                                     sz * static_cast<size_t>(z);
                    double acc = 6.0 * in[i];
                    if (x + 1 < nx) acc -= in[i + sx];
                    if (x > 0) acc -= in[i - sx];
                    if (y + 1 < ny) acc -= in[i + sy];
                    if (y > 0) acc -= in[i - sy];
                    if (z + 1 < nz) acc -= in[i + sz];
                    if (z > 0) acc -= in[i - sz];
                    out[i] = acc;
                }
            }
        }
    }

    /// Four accumulators, element i into lane i % 4, folded as
    /// (l0 + l1) + (l2 + l3): the lane order of Neon's dense reductions
    /// (docs/performance.md, "Flat planes and lane reductions"), so the
    /// baseline gets the same four add chains instead of one.
    [[nodiscard]] static double dot(const std::vector<double>& a, const std::vector<double>& b)
    {
        // A signed index, as in Neon's plane walk: with size_t, GCC 12
        // vectorized the loop two quads at a time through shuffles and
        // kept the adds scalar, and out of line it ran no faster than one
        // chain; with int64_t it packs lanes (0, 1) and (2, 3) into two
        // SSE2 registers, as it does for Neon's lanes.
        const auto    n = static_cast<int64_t>(a.size());
        const double* pa = a.data();
        const double* pb = b.data();
        double        l0 = 0.0;
        double        l1 = 0.0;
        double        l2 = 0.0;
        double        l3 = 0.0;
        int64_t       i = 0;
        for (; i + 4 <= n; i += 4) {
            l0 += pa[i] * pb[i];
            l1 += pa[i + 1] * pb[i + 1];
            l2 += pa[i + 2] * pb[i + 2];
            l3 += pa[i + 3] * pb[i + 3];
        }
        if (i < n) {
            l0 += pa[i] * pb[i];
        }
        if (i + 1 < n) {
            l1 += pa[i + 1] * pb[i + 1];
        }
        if (i + 2 < n) {
            l2 += pa[i + 2] * pb[i + 2];
        }
        return (l0 + l1) + (l2 + l3);
    }

    Result solve(int maxIterations, double tolerance)
    {
        const size_t n = mDim.size();
        apply(mX, mAp);
        for (size_t i = 0; i < n; ++i) {
            mR[i] = mB[i] - mAp[i];
            mP[i] = mR[i];
        }
        double       rsold = dot(mR, mR);
        const double bb = dot(mB, mB);
        const double bScale = bb > 0 ? std::sqrt(bb) : 1.0;

        Result result;
        result.relativeResidual = std::sqrt(rsold) / bScale;
        if (result.relativeResidual <= tolerance) {
            result.converged = true;
            return result;
        }
        for (int it = 1; it <= maxIterations; ++it) {
            apply(mP, mAp);
            const double alpha = rsold / dot(mP, mAp);
            for (size_t i = 0; i < n; ++i) {
                mX[i] += alpha * mP[i];
            }
            for (size_t i = 0; i < n; ++i) {
                mR[i] -= alpha * mAp[i];
            }
            const double rsnew = dot(mR, mR);
            result.iterations = it;
            result.relativeResidual = std::sqrt(rsnew) / bScale;
            if (result.relativeResidual <= tolerance) {
                result.converged = true;
                break;
            }
            const double beta = rsnew / rsold;
            for (size_t i = 0; i < n; ++i) {
                mP[i] = mR[i] + beta * mP[i];
            }
            rsold = rsnew;
        }
        return result;
    }

   private:
    index_3d            mDim;
    std::vector<double> mX, mB, mR, mP, mAp;
};

}  // namespace neon::poisson::native
