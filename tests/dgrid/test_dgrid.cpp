// DGrid partitioning and data-view spans, swept over device counts.

#include <gtest/gtest.h>

#include "dgrid/dgrid.hpp"

namespace neon::dgrid {

using set::Backend;

class DGridParam : public ::testing::TestWithParam<int>
{
};

TEST_P(DGridParam, PartitionCoversDomainWithoutOverlap)
{
    const int nDev = GetParam();
    DGrid     grid(Backend::cpu(nDev), {5, 6, 24}, Stencil::laplace7());
    int32_t   next = 0;
    for (int d = 0; d < nDev; ++d) {
        const auto& p = grid.part(d);
        EXPECT_EQ(p.zOrigin, next);
        EXPECT_GT(p.zCount, 0);
        next += p.zCount;
    }
    EXPECT_EQ(next, 24);
}

TEST_P(DGridParam, PartitionIsBalanced)
{
    const int nDev = GetParam();
    DGrid     grid(Backend::cpu(nDev), {5, 6, 25}, Stencil::laplace7());
    int32_t   minC = 1 << 30;
    int32_t   maxC = 0;
    for (int d = 0; d < nDev; ++d) {
        minC = std::min(minC, grid.part(d).zCount);
        maxC = std::max(maxC, grid.part(d).zCount);
    }
    EXPECT_LE(maxC - minC, 1);
}

TEST_P(DGridParam, ViewsPartitionTheStandardSpan)
{
    const int nDev = GetParam();
    DGrid     grid(Backend::cpu(nDev), {4, 3, 24}, Stencil::laplace7());
    for (int d = 0; d < nDev; ++d) {
        const size_t std_ = grid.span(d, DataView::STANDARD).count();
        const size_t int_ = grid.span(d, DataView::INTERNAL).count();
        const size_t bdr = grid.span(d, DataView::BOUNDARY).count();
        EXPECT_EQ(std_, int_ + bdr);
        EXPECT_EQ(std_, 4u * 3 * static_cast<size_t>(grid.part(d).zCount));
    }
}

TEST_P(DGridParam, BoundaryOnlyWhereNeighboursExist)
{
    const int nDev = GetParam();
    DGrid     grid(Backend::cpu(nDev), {4, 4, 24}, Stencil::laplace7());
    for (int d = 0; d < nDev; ++d) {
        const auto& p = grid.part(d);
        EXPECT_EQ(p.hasLow, d > 0);
        EXPECT_EQ(p.hasHigh, d < nDev - 1);
        EXPECT_EQ(p.bLow > 0, p.hasLow);
        EXPECT_EQ(p.bHigh > 0, p.hasHigh);
    }
    if (nDev == 1) {
        EXPECT_EQ(grid.span(0, DataView::BOUNDARY).count(), 0u);
        EXPECT_EQ(grid.span(0, DataView::INTERNAL).count(), grid.cellCount());
    }
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, DGridParam, ::testing::Values(1, 2, 3, 4, 8));

TEST(DGrid, HaloRadiusFollowsStencil)
{
    EXPECT_EQ(DGrid(Backend::cpu(1), {4, 4, 4}, Stencil::laplace7()).haloRadius(), 1);
    Stencil wide({{0, 0, 2}, {0, 0, -2}}, "wide");
    EXPECT_EQ(DGrid(Backend::cpu(1), {4, 4, 8}, wide).haloRadius(), 2);
}

TEST(DGrid, RejectsTooManyDevices)
{
    EXPECT_THROW(DGrid(Backend::cpu(9), {4, 4, 8}, Stencil::laplace7()), NeonException);
}

TEST(DGrid, SpanForEachVisitsDistinctCells)
{
    DGrid grid(Backend::cpu(2), {3, 3, 8}, Stencil::laplace7());
    for (int d = 0; d < 2; ++d) {
        for (auto view : {DataView::STANDARD, DataView::INTERNAL, DataView::BOUNDARY}) {
            size_t n = 0;
            grid.span(d, view).forEach([&](const DCell&) { ++n; });
            EXPECT_EQ(n, grid.span(d, view).count());
        }
    }
}

TEST(SplitBalanced, Properties)
{
    for (int total : {8, 13, 100}) {
        for (int n : {1, 2, 3, 7}) {
            if (total < n) {
                continue;
            }
            auto    c = domain::PartitionPlan::even(total, n).unitsPerDev;
            int64_t sum = 0;
            for (auto v : c) {
                sum += v;
                EXPECT_GE(v, total / n);
                EXPECT_LE(v, total / n + 1);
            }
            EXPECT_EQ(sum, total);
        }
    }
}

}  // namespace neon::dgrid
