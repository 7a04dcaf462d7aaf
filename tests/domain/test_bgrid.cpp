// BGrid structure: block masks, partition classes, halo segment layout,
// dry-run behaviour and the block-sparse cost model. The behavioural
// grid/field contract is covered by the typed battery in
// test_conformance.cpp; this file checks what is specific to the
// block-sparse representation.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bgrid/bfield.hpp"
#include "core/error.hpp"
#include "set/container.hpp"

namespace neon::bgrid {

using set::Backend;

namespace {

bool sphere(const index_3d& g, const index_3d& dim)
{
    const double dx = g.x - dim.x / 2.0;
    const double dy = g.y - dim.y / 2.0;
    const double dz = g.z - dim.z / 2.0;
    return dx * dx + dy * dy + dz * dz <= (dim.x / 2.0) * (dim.x / 2.0);
}

}  // namespace

TEST(BGrid, BlockStructureAndActiveCount)
{
    const index_3d dim{20, 20, 20};
    auto           pred = [&](const index_3d& g) { return sphere(g, dim); };
    BGrid          grid(Backend::cpu(1), dim, pred, Stencil::laplace7(), 4);

    EXPECT_EQ(grid.blockSize(), 4);
    EXPECT_EQ(grid.blockVolume(), 64);
    EXPECT_EQ(grid.blockGridDim(), (index_3d{5, 5, 5}));

    size_t expected = 0;
    dim.forEach([&](const index_3d& g) { expected += pred(g) ? 1 : 0; });
    EXPECT_EQ(grid.activeCount(), expected);
    dim.forEach([&](const index_3d& g) { EXPECT_EQ(grid.isActive(g), pred(g)); });
}

TEST(BGrid, PartitionClassesAreConsistentAcrossDevices)
{
    const index_3d dim{12, 12, 48};
    auto           pred = [&](const index_3d& g) { return sphere(g, {12, 12, 48}); };
    for (int nDev : {2, 3, 4}) {
        BGrid   grid(Backend::cpu(nDev), dim, pred, Stencil::laplace7(), 4);
        int64_t ownedCells = 0;
        for (int d = 0; d < nDev; ++d) {
            const auto& p = grid.part(d);
            EXPECT_GE(p.nOwned, p.nBdrLow + p.nBdrHigh) << "dev " << d;
            EXPECT_EQ(p.nGhostLow, d > 0 ? grid.part(d - 1).nBdrHigh : 0) << "dev " << d;
            EXPECT_EQ(p.nGhostHigh, d < nDev - 1 ? grid.part(d + 1).nBdrLow : 0) << "dev " << d;
            // Multi-device partitions keep boundary rows disjoint.
            EXPECT_GE(p.bzCount, 2) << "dev " << d;
            for (auto view : {DataView::STANDARD, DataView::INTERNAL, DataView::BOUNDARY}) {
                size_t n = 0;
                grid.span(d, view).forEach([&](const BCell&) { ++n; });
                EXPECT_EQ(n, grid.span(d, view).count());
            }
            ownedCells += static_cast<int64_t>(grid.span(d, DataView::STANDARD).count());
        }
        EXPECT_EQ(static_cast<size_t>(ownedCells), grid.activeCount());
    }

    // The exact row cuts, pinned: the constructor's plan for 1-4 devices,
    // and rebindBackend onto fewer devices re-cuts the same way.
    using Units = std::vector<int64_t>;
    const std::vector<Units> want = {{12}, {7, 5}, {6, 2, 4}, {6, 2, 2, 2}};
    for (int n = 1; n <= 4; ++n) {
        const BGrid grid(Backend::cpu(n), dim, pred, Stencil::laplace7(), 4);
        EXPECT_EQ(grid.currentPlan().unitsPerDev, want[n - 1]) << n << " devices";
    }
    BGrid grid(Backend::cpu(4), dim, pred, Stencil::laplace7(), 4);
    for (int n = 3; n >= 1; --n) {
        grid.rebindBackend(Backend::cpu(n));
        EXPECT_EQ(grid.currentPlan().unitsPerDev, want[n - 1]) << "rebound to " << n;
    }
}

TEST(BGrid, EveryActiveCellOwnedByExactlyOneDevice)
{
    const index_3d dim{12, 12, 48};
    auto           pred = [&](const index_3d& g) { return sphere(g, {12, 12, 48}); };
    BGrid          grid(Backend::cpu(3), dim, pred, Stencil::laplace7(), 4);
    auto           f = grid.newField<int32_t>("f", 1, -1);

    std::set<std::string> seen;
    for (int d = 0; d < 3; ++d) {
        auto part = f.getPartition(d);
        grid.span(d, DataView::STANDARD).forEach([&](const BCell& cell) {
            const index_3d g = part.globalIdx(cell);
            EXPECT_TRUE(pred(g)) << g.to_string();
            EXPECT_TRUE(seen.insert(g.to_string()).second) << "duplicate " << g.to_string();
            const auto [dev, idx] = grid.localOf(g);
            EXPECT_EQ(dev, d);
            EXPECT_EQ(idx, part.cellIdx(cell));
        });
    }
    EXPECT_EQ(seen.size(), grid.activeCount());
}

TEST(BGrid, DryRunComputesCountsWithoutHostTables)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    Backend        b = Backend::simGpu(2, cfg);
    const index_3d dim{16, 16, 32};
    auto           pred = [&](const index_3d& g) { return sphere(g, {16, 16, 32}); };
    BGrid          dry(b, dim, pred, Stencil::laplace7(), 4);
    BGrid          real(Backend::cpu(2), dim, pred, Stencil::laplace7(), 4);

    EXPECT_EQ(dry.activeCount(), real.activeCount());
    for (int d = 0; d < 2; ++d) {
        EXPECT_EQ(dry.part(d).nOwned, real.part(d).nOwned);
        EXPECT_EQ(dry.part(d).nBdrLow, real.part(d).nBdrLow);
        EXPECT_EQ(dry.part(d).nBdrHigh, real.part(d).nBdrHigh);
        for (auto view : {DataView::STANDARD, DataView::INTERNAL, DataView::BOUNDARY}) {
            EXPECT_EQ(dry.span(d, view).count(), real.span(d, view).count());
        }
    }
    // Memory accounted even though nothing is mirrored or filled.
    auto f = dry.newField<float>("f", 2, 0.0F);
    EXPECT_GT(b.device(0).bytesInUse(), 0u);
}

TEST(BGrid, SmallBlocksAndRadiusLimit)
{
    const index_3d dim{8, 8, 8};
    auto           all = [](const index_3d&) { return true; };

    BGrid b2(Backend::cpu(1), dim, all, Stencil::laplace7(), 2);
    EXPECT_EQ(b2.blockVolume(), 8);
    EXPECT_EQ(b2.activeCount(), dim.size());

    // blockDim outside [2,4] and stencils wider than a block are rejected.
    EXPECT_THROW(BGrid(Backend::cpu(1), dim, all, Stencil::laplace7(), 1), NeonException);
    EXPECT_THROW(BGrid(Backend::cpu(1), dim, all, Stencil::laplace7(), 5), NeonException);
    Stencil wide({{3, 0, 0}, {-3, 0, 0}});
    EXPECT_THROW(BGrid(Backend::cpu(1), dim, all, wide, 2), NeonException);
}

TEST(BField, CostModelSitsBetweenDenseAndExplicit)
{
    const index_3d dim{16, 16, 16};
    auto           all = [](const index_3d&) { return true; };
    BGrid          grid(Backend::cpu(1), dim, all, Stencil::laplace7(), 4);
    auto           f = grid.newField<float>("f", 1, 0.0F);

    EXPECT_DOUBLE_EQ(f.bytesPerItem(Compute::MAP), 4.0);
    // STENCIL adds the 27-entry block-neighbour row + mask, amortized over
    // the block's 64 cells: (27*4 + 8) / 64.
    EXPECT_DOUBLE_EQ(f.bytesPerItem(Compute::STENCIL), 4.0 + (27.0 * 4.0 + 8.0) / 64.0);
}

TEST(BGrid, HaloSegmentsCoverBoundaryRowsOnly)
{
    const index_3d dim{8, 8, 32};
    auto           all = [](const index_3d&) { return true; };
    BGrid          grid(Backend::cpu(2), dim, all, Stencil::laplace7(), 4);

    const auto& segs = grid.haloSegments();
    ASSERT_EQ(segs.size(), 2u);
    // Each device sends exactly its one active boundary row to the other.
    ASSERT_EQ(segs[0].size(), 1u);
    ASSERT_EQ(segs[1].size(), 1u);
    const auto& up = segs[0][0];
    const auto& down = segs[1][0];
    EXPECT_EQ(up.nbr, 1);
    EXPECT_EQ(down.nbr, 0);
    // 8x8 cells per layer, 4 layers per block row, 2x2 blocks per row.
    const int64_t rowCells = 2 * 2 * 64;
    EXPECT_EQ(up.count, rowCells);
    EXPECT_EQ(down.count, rowCells);
}

}  // namespace neon::bgrid
