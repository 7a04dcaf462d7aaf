// Dense cell addressing: DPartition addresses memory from the cell's linear
// index and the strides getPartition() fixes, never from x/y/z directly.
// These cases pin that fast path to the coordinate formula — bufIdx for
// own-cell accesses, the global-coordinate ground truth for neighbour
// reads — across layouts, cardinalities, an uneven repartitioned slab
// plan and every data view, including reads served from halo planes.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "dgrid/dfield.hpp"
#include "set/container.hpp"

namespace neon::dgrid {

using set::Backend;
using set::Container;
using set::StreamSet;

namespace {

constexpr index_3d kDim{5, 4, 14};
constexpr double   kOutside = -1.0;
constexpr DataView kViews[] = {DataView::STANDARD, DataView::INTERNAL, DataView::BOUNDARY};

double truth(const index_3d& g, int c)
{
    return 1.0 + g.x + 10.0 * g.y + 100.0 * g.z + 10000.0 * c;
}

/// Every radius-1 offset (26), plus z +-2 when the grid has radius 2.
std::vector<index_3d> offsets(int radius)
{
    std::vector<index_3d> out;
    for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx != 0 || dy != 0 || dz != 0) {
                    out.emplace_back(dx, dy, dz);
                }
            }
        }
    }
    if (radius == 2) {
        out.emplace_back(0, 0, 2);
        out.emplace_back(0, 0, -2);
    }
    return out;
}

Stencil stencilOfRadius(int radius)
{
    if (radius == 1) {
        return Stencil::box27();
    }
    return Stencil::unionOf({Stencil::box27(), Stencil({{0, 0, 2}, {0, 0, -2}}, "z2")});
}

}  // namespace

/// (devices, cardinality, layout, halo radius)
using AddrCase = std::tuple<int, int, MemLayout, int>;

class DAddressParam : public ::testing::TestWithParam<AddrCase>
{
   protected:
    /// Grid on `nDev` CPU devices; three devices get the uneven plan 3/7/4.
    static DGrid makeGrid(int nDev, int radius)
    {
        DGrid grid(Backend::cpu(nDev), kDim, stencilOfRadius(radius));
        if (nDev == 3) {
            grid.repartition(domain::PartitionPlan{{3, 7, 4}});
        }
        EXPECT_EQ(grid.haloRadius(), radius);
        return grid;
    }
};

TEST_P(DAddressParam, OwnCellAccessMatchesBufIdx)
{
    const auto [nDev, card, layout, radius] = GetParam();
    const DGrid grid = makeGrid(nDev, radius);
    auto        f = grid.newField<double>("f", card, kOutside, layout);

    size_t visited = 0;
    for (int d = 0; d < nDev; ++d) {
        auto part = f.getPartition(d);
        for (const DataView view : kViews) {
            grid.span(d, view).forEach([&](const DCell& cell) {
                ++visited;
                for (int c = 0; c < card; ++c) {
                    const size_t idx = part.bufIdx(cell.x, cell.y, cell.z + part.haloR, c);
                    EXPECT_EQ(&part(cell, c), &part.mem[idx]);
                    EXPECT_EQ(part.flatIdx(cell, c), idx);
                }
            });
        }
    }
    // STANDARD visits every cell once; INTERNAL and BOUNDARY split them.
    EXPECT_EQ(visited, 2 * kDim.size());
}

TEST_P(DAddressParam, NeighbourReadsMatchCoordinateFormula)
{
    const auto [nDev, card, layout, radius] = GetParam();
    const DGrid grid = makeGrid(nDev, radius);
    auto        f = grid.newField<double>("f", card, kOutside, layout);
    f.forEachHost([](const index_3d& g, int c, double& v) { v = truth(g, c); });
    f.updateDev();
    StreamSet streams(grid.backend(), 0);
    Container::haloUpdate(f.haloOps()).run(streams);
    grid.backend().sync();

    const auto offs = offsets(radius);
    for (int d = 0; d < nDev; ++d) {
        const auto part = f.getPartition(d);
        for (const DataView view : kViews) {
            grid.span(d, view).forEach([&](const DCell& cell) {
                const index_3d g = part.globalIdx(cell);
                for (const auto& off : offs) {
                    const index_3d n = g + off;
                    const bool     inside = kDim.contains(n);
                    for (int c = 0; c < card; ++c) {
                        const auto got = part.nghData(cell, off, c);
                        ASSERT_EQ(got.isValid, inside)
                            << "dev " << d << " cell " << g.to_string() << " off "
                            << off.to_string();
                        ASSERT_EQ(got.value, inside ? truth(n, c) : kOutside)
                            << "dev " << d << " cell " << g.to_string() << " off "
                            << off.to_string() << " comp " << c;
                        if (inside) {
                            ASSERT_EQ(part.nghValUnchecked(cell, off, c), truth(n, c));
                        }
                    }
                }
            });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DAddressParam,
    ::testing::Combine(::testing::Values(1, 3), ::testing::Values(1, 3),
                       ::testing::Values(MemLayout::structOfArrays, MemLayout::arrayOfStructs),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
        const AddrCase& p = info.param;
        return "dev" + std::to_string(std::get<0>(p)) + "_card" +
               std::to_string(std::get<1>(p)) + "_" +
               (std::get<2>(p) == MemLayout::structOfArrays ? "SoA" : "AoS") + "_r" +
               std::to_string(std::get<3>(p));
    });

}  // namespace neon::dgrid
