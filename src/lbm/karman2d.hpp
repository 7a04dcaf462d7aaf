#pragma once
// Neon D2Q9 Karman vortex street (paper Table I / §V-D): channel flow past
// a circular cylinder. The 2-D lattice lives in the z = 0 plane of a
// (nx, ny, 1) grid. Boundary handling through a flag field:
//   Bulk    - BGK collide + stream
//   Wall    - cylinder / channel walls, half-way bounce-back
//   Inlet   - prescribed equilibrium at (rho = 1, u = (u0, 0))
//   Outlet  - zero-gradient copy from the neighbour column
// The flag field itself is stencil-read, so Neon inserts exactly one halo
// update for it (flags never change after init).
//
// Layout note: Neon partitions along z, so the channel height is mapped to
// the grid's z axis — the Neon domain is (nx, 1, ny). This makes the 2-D
// problem multi-GPU-partitionable exactly like the paper's 2-D benchmark.

#include <cmath>

#include "lbm/lattice.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::lbm {

enum class CellFlag : uint8_t
{
    Bulk = 0,
    Wall = 1,
    Inlet = 2,
    Outlet = 3,
};

struct KarmanConfig
{
    int32_t nx = 256;
    int32_t ny = 64;
    double  inflow = 0.04;     ///< lattice inlet velocity u0
    double  reynolds = 150.0;  ///< Re = u0 * D / nu

    [[nodiscard]] double cylinderRadius() const { return ny / 9.0; }
    [[nodiscard]] double cylinderX() const { return nx / 5.0; }
    [[nodiscard]] double cylinderY() const { return ny / 2.0 + 0.5; /* slight offset seeds shedding */ }
    [[nodiscard]] double tau() const
    {
        const double nu = inflow * (2.0 * cylinderRadius()) / reynolds;
        return 3.0 * nu + 0.5;
    }

    /// Flag from channel coordinates (x along the flow, h across it).
    [[nodiscard]] bool isWall(int32_t x, int32_t h) const
    {
        const double dx = x - cylinderX();
        const double dy = h - cylinderY();
        if (dx * dx + dy * dy <= cylinderRadius() * cylinderRadius()) {
            return true;
        }
        return h == 0 || h == ny - 1;
    }

    [[nodiscard]] CellFlag flagOf(int32_t x, int32_t h) const
    {
        if (isWall(x, h)) {
            return CellFlag::Wall;
        }
        if (x == 0) {
            return CellFlag::Inlet;
        }
        if (x == nx - 1) {
            return CellFlag::Outlet;
        }
        return CellFlag::Bulk;
    }
};

template <typename Grid, typename Real = float>
class KarmanD2Q9
{
   public:
    using Field = typename Grid::template FieldType<Real>;
    using FlagField = typename Grid::template FieldType<uint8_t>;

    KarmanD2Q9(Grid grid, KarmanConfig config, Occ occ = Occ::NONE)
        : mGrid(grid),
          mConfig(config),
          mOmega(static_cast<Real>(1.0 / config.tau())),
          mStep{skeleton::Skeleton(grid.backend()), skeleton::Skeleton(grid.backend())}
    {
        mF[0] = grid.template newField<Real>("k.f0", D2Q9::Q, Real(0));
        mF[1] = grid.template newField<Real>("k.f1", D2Q9::Q, Real(0));
        mFlags = grid.template newField<uint8_t>("k.flags", 1,
                                                 static_cast<uint8_t>(CellFlag::Wall));
        if (!grid.backend().isDryRun()) {
            // Channel height lives on the grid's z axis (nx x 1 x ny).
            mFlags.forEachActiveHost([&](const index_3d& g, int, uint8_t& v) {
                v = static_cast<uint8_t>(config.flagOf(g.x, g.z));
            });
            mFlags.updateDev();
            initEquilibrium();
        }
        for (int parity = 0; parity < 2; ++parity) {
            mStep[parity].sequence(
                {collideStream(mF[static_cast<size_t>(parity)],
                               mF[static_cast<size_t>(1 - parity)])},
                skeleton::SequenceOptions()
                    .withName(parity == 0 ? "karman.even" : "karman.odd")
                    .withOcc(occ));
        }
    }

    void run(int n)
    {
        for (int i = 0; i < n; ++i) {
            mStep[static_cast<size_t>(mIter & 1)].run();
            ++mIter;
        }
    }

    void sync() { mGrid.backend().sync(); }

    [[nodiscard]] int    iteration() const { return mIter; }
    [[nodiscard]] Field& current() { return mF[static_cast<size_t>(mIter & 1)]; }
    [[nodiscard]] Grid&  grid() { return mGrid; }
    [[nodiscard]] const KarmanConfig& config() const { return mConfig; }

    /// (rho, ux, uy) at a cell; host-side after sync + updateHost.
    [[nodiscard]] std::array<double, 3> macroAt(const index_3d& g)
    {
        auto&  f = current();
        double rho = 0;
        double ux = 0;
        double uy = 0;
        for (int i = 0; i < D2Q9::Q; ++i) {
            const double fi = f.hVal(g, i);
            rho += fi;
            ux += fi * D2Q9::c[static_cast<size_t>(i)][0];
            uy += fi * D2Q9::c[static_cast<size_t>(i)][1];
        }
        return {rho, ux / rho, uy / rho};
    }

   private:
    void initEquilibrium()
    {
        const Real u0 = static_cast<Real>(mConfig.inflow);
        for (auto& f : mF) {
            f.forEachActiveHost([&](const index_3d&, int i, Real& v) {
                v = equilibrium<D2Q9, Real>(i, Real(1), u0, Real(0), Real(0));
            });
            f.updateDev();
        }
    }

    set::Container collideStream(Field fin, Field fout)
    {
        const Real omega = mOmega;
        const Real u0 = static_cast<Real>(mConfig.inflow);
        auto       flags = mFlags;
        return mGrid.newContainer("collideStream2d", [fin, fout, flags, omega,
                                                      u0](auto& l) mutable {
            auto in = l.load(fin, Access::READ, Compute::STENCIL);
            auto flag = l.load(flags, Access::READ, Compute::STENCIL);
            auto out = l.load(fout, Access::WRITE);
            // flatten, as in CavityD3Q19: the partition reads and the
            // equilibrium inline into the unrolled directions.
            return [=](const auto& cell) mutable __attribute__((flatten)) {
                const auto myFlag = static_cast<CellFlag>(flag(cell));
                if (myFlag == CellFlag::Wall) {
                    // Solid cells carry no dynamics.
                    forEachDirection<D2Q9>([&](auto i) { out(cell, i) = in(cell, i); });
                    return;
                }
                if (myFlag == CellFlag::Inlet) {
                    forEachDirection<D2Q9>([&](auto i) {
                        out(cell, i) = equilibrium<D2Q9, Real>(i, Real(1), u0, Real(0), Real(0));
                    });
                    return;
                }
                if (myFlag == CellFlag::Outlet) {
                    // Zero gradient: copy the upstream neighbour.
                    forEachDirection<D2Q9>(
                        [&](auto i) { out(cell, i) = in.nghVal(cell, {-1, 0, 0}, i); });
                    return;
                }
                Real f[D2Q9::Q];
                forEachDirection<D2Q9>([&](auto i) {
                    if constexpr (i == 0) {
                        f[0] = in(cell, 0);
                    } else {
                        constexpr auto& ci = D2Q9::c[i];
                        const index_3d  pullOff{-ci[0], 0, -ci[1]};
                        // The flag field's outsideValue is Wall, so one flag
                        // read both classifies the neighbour and proves the
                        // population read is in-bounds (unchecked fast path).
                        const auto nghFlag = flag.nghData(cell, pullOff, 0);
                        if (static_cast<CellFlag>(nghFlag.value) == CellFlag::Wall) {
                            f[i] = in(cell, D2Q9::opp[i]);
                        } else {
                            f[i] = in.nghValUnchecked(cell, pullOff, i);
                        }
                    }
                });
                Real rho = 0;
                Real ux = 0;
                Real uy = 0;
                forEachDirection<D2Q9>([&](auto i) {
                    rho += f[i];
                    ux += f[i] * static_cast<Real>(D2Q9::c[i][0]);
                    uy += f[i] * static_cast<Real>(D2Q9::c[i][1]);
                });
                ux /= rho;
                uy /= rho;
                forEachDirection<D2Q9>([&](auto i) {
                    const Real feq = equilibrium<D2Q9, Real>(i, rho, ux, uy, Real(0));
                    out(cell, i) = f[i] + omega * (feq - f[i]);
                });
            };
        });
    }

    Grid         mGrid;
    KarmanConfig mConfig;
    Real         mOmega;
    std::array<Field, 2>              mF;
    FlagField                         mFlags;
    std::array<skeleton::Skeleton, 2> mStep;
    int mIter = 0;
};

/// Flat-array D2Q9 baseline — the stand-in for the paper's Taichi
/// comparison (Table I): same physics, plain loops over a contiguous
/// buffer, no framework machinery.
template <typename Real = float>
class NativeKarmanD2Q9
{
   public:
    explicit NativeKarmanD2Q9(KarmanConfig config)
        : mConfig(config),
          mDim{config.nx, config.ny, 1},
          mCells(mDim.size()),
          mOmega(static_cast<Real>(1.0 / config.tau()))
    {
        mFlags.resize(mCells);
        mDim.forEach([&](const index_3d& g) {
            mFlags[mDim.pitch(g)] = static_cast<uint8_t>(config.flagOf(g.x, g.y));
        });
        const Real u0 = static_cast<Real>(config.inflow);
        for (auto& f : mF) {
            f.assign(mCells * D2Q9::Q, Real(0));
            for (size_t x = 0; x < mCells; ++x) {
                for (int i = 0; i < D2Q9::Q; ++i) {
                    f[slot(x, i)] = equilibrium<D2Q9, Real>(i, Real(1), u0, Real(0), Real(0));
                }
            }
        }
    }

    void run(int n)
    {
        for (int it = 0; it < n; ++it) {
            step();
            ++mIter;
        }
    }

    [[nodiscard]] std::array<double, 3> macroAt(const index_3d& g) const
    {
        const auto&  f = mF[static_cast<size_t>(mIter & 1)];
        const size_t x = mDim.pitch(g);
        double       rho = 0;
        double       ux = 0;
        double       uy = 0;
        for (int i = 0; i < D2Q9::Q; ++i) {
            const double fi = f[slot(x, i)];
            rho += fi;
            ux += fi * D2Q9::c[static_cast<size_t>(i)][0];
            uy += fi * D2Q9::c[static_cast<size_t>(i)][1];
        }
        return {rho, ux / rho, uy / rho};
    }

    [[nodiscard]] const index_3d& dim() const { return mDim; }
    [[nodiscard]] int             iteration() const { return mIter; }

   private:
    [[nodiscard]] size_t slot(size_t cell, int i) const
    {
        return static_cast<size_t>(i) * mCells + cell;
    }

    void step()
    {
        const Real  u0 = static_cast<Real>(mConfig.inflow);
        const auto& in = mF[static_cast<size_t>(mIter & 1)];
        auto&       out = mF[static_cast<size_t>(1 - (mIter & 1))];
        Real        f[D2Q9::Q];
        for (size_t x = 0; x < mCells; ++x) {
            const index_3d g = mDim.fromPitch(x);
            const auto     myFlag = static_cast<CellFlag>(mFlags[x]);
            if (myFlag == CellFlag::Wall) {
                forEachDirection<D2Q9>([&](auto i) { out[slot(x, i)] = in[slot(x, i)]; });
                continue;
            }
            if (myFlag == CellFlag::Inlet) {
                forEachDirection<D2Q9>([&](auto i) {
                    out[slot(x, i)] = equilibrium<D2Q9, Real>(i, Real(1), u0, Real(0), Real(0));
                });
                continue;
            }
            if (myFlag == CellFlag::Outlet) {
                const size_t left = mDim.pitch({g.x - 1, g.y, 0});
                forEachDirection<D2Q9>([&](auto i) { out[slot(x, i)] = in[slot(left, i)]; });
                continue;
            }
            forEachDirection<D2Q9>([&](auto i) {
                const index_3d src{g.x - D2Q9::c[i][0], g.y - D2Q9::c[i][1], 0};
                const bool     valid = mDim.contains(src);
                const bool     solid =
                    !valid || static_cast<CellFlag>(mFlags[mDim.pitch(src)]) == CellFlag::Wall;
                if (i != 0 && solid) {
                    f[i] = in[slot(x, D2Q9::opp[i])];
                } else {
                    f[i] = i == 0 ? in[slot(x, 0)] : in[slot(mDim.pitch(src), i)];
                }
            });
            Real rho = 0;
            Real ux = 0;
            Real uy = 0;
            forEachDirection<D2Q9>([&](auto i) {
                rho += f[i];
                ux += f[i] * static_cast<Real>(D2Q9::c[i][0]);
                uy += f[i] * static_cast<Real>(D2Q9::c[i][1]);
            });
            ux /= rho;
            uy /= rho;
            forEachDirection<D2Q9>([&](auto i) {
                const Real feq = equilibrium<D2Q9, Real>(i, rho, ux, uy, Real(0));
                out[slot(x, i)] = f[i] + mOmega * (feq - f[i]);
            });
        }
    }

    KarmanConfig         mConfig;
    index_3d             mDim;
    size_t               mCells;
    Real                 mOmega;
    std::array<std::vector<Real>, 2> mF;
    std::vector<uint8_t> mFlags;
    int                  mIter = 0;
};

}  // namespace neon::lbm
