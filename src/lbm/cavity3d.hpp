#pragma once
// Neon D3Q19 lid-driven cavity solver, twoPop variant (paper §VI-A,
// Table II / Fig. 7): two populations fields, fused collide+stream kernel
// (pull scheme), buffers swapped every iteration by alternating between two
// skeletons. Walls are half-way bounce-back served by the fields'
// out-of-domain reads; the moving lid is the z = N-1 face.

#include <array>
#include <cmath>

#include "lbm/lattice.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::lbm {

/// Lid-driven cavity on any Neon grid. The entire box is fluid; the six
/// walls live half a cell outside the domain (half-way bounce-back), and
/// the +z wall moves with `lidVelocity` along +x.
template <typename Grid, typename Real = float>
class CavityD3Q19
{
   public:
    using Field = typename Grid::template FieldType<Real>;

    CavityD3Q19(Grid grid, double tau, double lidVelocity, Occ occ = Occ::NONE,
                MemLayout layout = MemLayout::structOfArrays)
        : mGrid(grid),
          mOmega(static_cast<Real>(1.0 / tau)),
          mLidU(static_cast<Real>(lidVelocity)),
          mStep{skeleton::Skeleton(grid.backend()), skeleton::Skeleton(grid.backend())}
    {
        mF[0] = grid.template newField<Real>("lbm.f0", D3Q19::Q, Real(0), layout);
        mF[1] = grid.template newField<Real>("lbm.f1", D3Q19::Q, Real(0), layout);
        if (!grid.backend().isDryRun()) {
            initEquilibrium();
        }
        for (int parity = 0; parity < 2; ++parity) {
            mStep[parity].sequence(
                {collideStream(mF[static_cast<size_t>(parity)],
                               mF[static_cast<size_t>(1 - parity)])},
                skeleton::SequenceOptions()
                    .withName(parity == 0 ? "lbm.even" : "lbm.odd")
                    .withOcc(occ));
        }
    }

    /// Advance `n` iterations (asynchronous; call sync() before reading).
    void run(int n)
    {
        for (int i = 0; i < n; ++i) {
            mStep[static_cast<size_t>(mIter & 1)].run();
            ++mIter;
        }
    }

    void sync() { mGrid.backend().sync(); }

    [[nodiscard]] int iteration() const { return mIter; }

    /// Current input population field (the one holding the latest state).
    [[nodiscard]] Field& current() { return mF[static_cast<size_t>(mIter & 1)]; }

    /// Total mass (host-side; syncs and downloads).
    [[nodiscard]] double totalMass()
    {
        sync();
        auto&  f = current();
        f.updateHost();
        double mass = 0.0;
        f.forEachActiveHost([&](const index_3d&, int, Real& v) { mass += v; });
        return mass;
    }

    /// Macroscopic density and velocity at a cell (host-side; call after
    /// sync() + current().updateHost()).
    struct Macro
    {
        double rho = 0.0;
        std::array<double, 3> u{};
    };

    [[nodiscard]] Macro macroAt(const index_3d& g)
    {
        auto& f = current();
        Macro m;
        for (int i = 0; i < D3Q19::Q; ++i) {
            const double fi = f.hVal(g, i);
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

    [[nodiscard]] Grid& grid() { return mGrid; }

   private:
    void initEquilibrium()
    {
        for (auto& f : mF) {
            f.forEachActiveHost([](const index_3d&, int i, Real& v) {
                v = equilibrium<D3Q19, Real>(i, Real(1), Real(0), Real(0), Real(0));
            });
            f.updateDev();
        }
    }

    /// Fused collide+stream container, pull scheme with half-way
    /// bounce-back at the domain faces and a moving +z lid.
    set::Container collideStream(Field fin, Field fout)
    {
        const Real    omega = mOmega;
        const Real    lidU = mLidU;
        const int32_t topZ = mGrid.dim().z - 1;
        return mGrid.newContainer("collideStream", [fin, fout, omega, lidU,
                                                    topZ](auto& l) mutable {
            auto in = l.load(fin, Access::READ, Compute::STENCIL);
            auto out = l.load(fout, Access::WRITE);
            // flatten: the directions unroll into one body too large for
            // the inliner's budget, so the partition reads and the
            // equilibrium would stay out-of-line calls per direction.
            return [=](const auto& cell) mutable __attribute__((flatten)) {
                Real f[D3Q19::Q];
                const index_3d g = in.globalIdx(cell);
                forEachDirection<D3Q19>([&](auto i) {
                    constexpr auto& ci = D3Q19::c[i];
                    const index_3d  pullOff{-ci[0], -ci[1], -ci[2]};
                    const auto      ngh = in.nghData(cell, pullOff, i);
                    if (i != 0 && !ngh.isValid) {
                        // Source cell is a wall: half-way bounce-back.
                        f[i] = in(cell, D3Q19::opp[i]);
                        if (g.z == topZ && ci[2] < 0) {
                            // Moving lid: population re-entering from +z.
                            f[i] += Real(6) * static_cast<Real>(D3Q19::weight(i)) * lidU *
                                    static_cast<Real>(ci[0]);
                        }
                    } else {
                        f[i] = i == 0 ? in(cell, 0) : ngh.value;
                    }
                });
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
                    out(cell, i) = f[i] + omega * (feq - f[i]);
                });
            };
        });
    }

    Grid                    mGrid;
    Real                    mOmega;
    Real                    mLidU;
    std::array<Field, 2>    mF;
    std::array<skeleton::Skeleton, 2> mStep;
    int                     mIter = 0;
};

}  // namespace neon::lbm
