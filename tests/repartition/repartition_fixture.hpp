#pragma once
// Shared harness for the repartition/recovery differential battery.
//
// One pipeline (stencil diffuse + map relax), three grids behind a traits
// shim, dense decomposition-independent snapshots and a bitwise comparator:
// everything the differential property needs — "run k steps, repartition
// (or lose a device), run to completion, compare bitwise against an
// unrepartitioned single-device reference".

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bgrid/bfield.hpp"
#include "bgrid/bgrid.hpp"
#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "egrid/efield.hpp"
#include "egrid/egrid.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::repartition {

template <typename Grid>
struct GridMaker;

template <>
struct GridMaker<dgrid::DGrid>
{
    static dgrid::DGrid make(set::Backend b)
    {
        return dgrid::DGrid(std::move(b), {6, 5, 24}, Stencil::laplace7());
    }
};

template <>
struct GridMaker<egrid::EGrid>
{
    static egrid::EGrid make(set::Backend b)
    {
        return egrid::EGrid(
            std::move(b), {6, 5, 24},
            [](const index_3d& g) { return (g.x + g.y + g.z) % 7 != 0; },
            Stencil::laplace7());
    }
};

template <>
struct GridMaker<bgrid::BGrid>
{
    static bgrid::BGrid make(set::Backend b)
    {
        return bgrid::BGrid(
            std::move(b), {8, 6, 24},
            [](const index_3d& g) { return (g.x + g.y + g.z) % 5 != 0; },
            Stencil::laplace7(), 2);
    }
};

/// diffuse (stencil f->g) then relax (map g->f): every cell's new value is
/// a pure per-cell function of the previous state — no reductions — so the
/// trajectory is bitwise identical across decompositions and engines.
template <typename Grid, typename Field>
std::vector<set::Container> makePipeline(const Grid& grid, Field f, Field g)
{
    using Cell = typename Grid::Cell;
    std::vector<set::Container> seq;
    seq.push_back(grid.newContainer("diffuse", [f, g](auto& l) mutable {
        auto in = l.load(f, Access::READ, Compute::STENCIL);
        auto out = l.load(g, Access::WRITE);
        return [=](const Cell& c) mutable {
            double acc = -6.0 * in(c);
            for (const auto& off : Stencil::laplace7().points()) {
                acc += in.nghVal(c, off);
            }
            out(c) = in(c) + 0.05 * acc;
        };
    }));
    seq.push_back(grid.newContainer("relax", [f, g](auto& l) mutable {
        auto in = l.load(g, Access::READ);
        auto out = l.load(f, Access::WRITE);
        return [=](const Cell& c) mutable { out(c) = 0.7 * out(c) + 0.3 * in(c); };
    }));
    return seq;
}

template <typename Grid>
struct Harness
{
    using Field = typename Grid::template FieldType<double>;

    Grid                        grid;
    Field                       f;
    Field                       g;
    std::vector<set::Container> seq;

    explicit Harness(set::Backend backend)
        : grid(GridMaker<Grid>::make(std::move(backend))),
          f(grid.template newField<double>("f", 1, 0.0)),
          g(grid.template newField<double>("g", 1, 0.0))
    {
        f.forEachActiveHost([](const index_3d& gc, int, double& v) {
            v = 0.01 * (gc.x + 2 * gc.y + 3 * gc.z) + 0.05;
        });
        f.updateDev();
        seq = makePipeline(grid, f, g);
    }
};

/// Dense global snapshot (inactive cells 0): decomposition-independent.
template <typename Field>
std::vector<double> snapshot(const Field& fld)
{
    const index_3d      dim = fld.grid().dim();
    std::vector<double> out(static_cast<size_t>(dim.size()), 0.0);
    fld.updateHost();
    fld.forEachActiveHost([&](const index_3d& gc, int, double& v) {
        out[static_cast<size_t>(
            (static_cast<int64_t>(gc.z) * dim.y + gc.y) * dim.x + gc.x)] = v;
    });
    return out;
}

inline void expectBitwiseEqual(const std::vector<double>& got,
                               const std::vector<double>& want, const char* what)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << what << ": diverged at flat index " << i;
    }
}

/// Move every unit device 0 can spare onto the last device — the most
/// aggressive legal re-slice.
template <typename Grid>
domain::PartitionPlan skewedPlan(const Grid& grid)
{
    domain::PartitionPlan plan = grid.currentPlan();
    const int64_t         give = plan.unitsPerDev.front() - grid.minUnitsPerDev();
    plan.unitsPerDev.front() -= give;
    plan.unitsPerDev.back() += give;
    return plan;
}

/// Final `f` of an unfaulted, unrepartitioned single-device run — the
/// reference trajectory every differential test compares against.
template <typename Grid>
std::vector<double> referenceRun(int steps)
{
    Harness<Grid>      ref(set::Backend::make(set::BackendSpec::cpu(1)));
    skeleton::Skeleton skl(ref.grid.backend());
    auto               compiled =
        skl.sequence(ref.seq, skeleton::SequenceOptions().withName("ref"));
    for (int i = 0; i < steps; ++i) {
        compiled.run();
    }
    skl.sync();
    return snapshot(ref.f);
}

}  // namespace neon::repartition
