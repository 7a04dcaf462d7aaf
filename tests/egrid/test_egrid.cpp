// EGrid construction: active enumeration, load-balanced partitioning,
// connectivity correctness against a brute-force reference.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "egrid/egrid.hpp"

namespace neon::egrid {

using set::Backend;

namespace {

/// Sphere-ish activity pattern (free-form domain, paper §I).
bool sphere(const index_3d& g, const index_3d& dim)
{
    const double cx = dim.x / 2.0;
    const double cy = dim.y / 2.0;
    const double cz = dim.z / 2.0;
    const double r = 0.45 * std::min({cx, cy, cz}) * 2.0;
    const double dx = g.x - cx;
    const double dy = g.y - cy;
    const double dz = g.z - cz;
    return dx * dx + dy * dy + dz * dz <= r * r;
}

}  // namespace

class EGridParam : public ::testing::TestWithParam<int>
{
};

TEST_P(EGridParam, ActiveCountMatchesPredicate)
{
    const int nDev = GetParam();
    index_3d  dim{10, 10, 24};
    EGrid grid(Backend::cpu(nDev), dim, [&](const index_3d& g) { return sphere(g, dim); },
               Stencil::laplace7());
    size_t expected = 0;
    dim.forEach([&](const index_3d& g) { expected += sphere(g, dim) ? 1 : 0; });
    EXPECT_EQ(grid.activeCount(), expected);

    size_t owned = 0;
    for (int d = 0; d < nDev; ++d) {
        owned += static_cast<size_t>(grid.part(d).nOwned);
    }
    EXPECT_EQ(owned, expected);
}

TEST_P(EGridParam, EveryActiveCellHasExactlyOneOwner)
{
    const int nDev = GetParam();
    index_3d  dim{8, 8, 24};
    EGrid grid(Backend::cpu(nDev), dim, [&](const index_3d& g) { return sphere(g, dim); });
    dim.forEach([&](const index_3d& g) {
        const bool a = sphere(g, dim);
        EXPECT_EQ(grid.isActive(g), a);
        auto [dev, idx] = grid.localOf(g);
        if (a) {
            ASSERT_GE(dev, 0);
            EXPECT_LT(idx, grid.part(dev).nOwned);
            EXPECT_EQ(grid.coords().rawHost(dev)[idx], g);
        } else {
            EXPECT_EQ(dev, -1);
        }
    });
}

TEST_P(EGridParam, ViewsPartitionOwnedCells)
{
    const int nDev = GetParam();
    index_3d  dim{8, 8, 24};
    EGrid grid(Backend::cpu(nDev), dim, [&](const index_3d& g) { return sphere(g, dim); });
    for (int d = 0; d < nDev; ++d) {
        EXPECT_EQ(grid.span(d, DataView::STANDARD).count(),
                  grid.span(d, DataView::INTERNAL).count() +
                      grid.span(d, DataView::BOUNDARY).count());
        EXPECT_EQ(grid.span(d, DataView::STANDARD).count(),
                  static_cast<size_t>(grid.part(d).nOwned));
    }
}

TEST_P(EGridParam, ConnectivityMatchesBruteForce)
{
    const int nDev = GetParam();
    index_3d  dim{6, 6, 18};
    EGrid grid(Backend::cpu(nDev), dim, [&](const index_3d& g) { return sphere(g, dim); },
               Stencil::laplace7());
    const auto& pts = grid.stencil().points();
    for (int d = 0; d < nDev; ++d) {
        const auto&     p = grid.part(d);
        const index_3d* coords = grid.coords().rawHost(d);
        const int32_t*  conn = grid.connectivity().rawHost(d);
        for (int32_t i = 0; i < p.nOwned; ++i) {
            for (size_t s = 0; s < pts.size(); ++s) {
                const index_3d n = coords[i] + pts[s];
                const int32_t  j = conn[s * static_cast<size_t>(p.nOwned) + static_cast<size_t>(i)];
                if (!dim.contains(n) || !grid.isActive(n)) {
                    EXPECT_EQ(j, -1) << coords[i].to_string() << "+" << pts[s].to_string();
                } else {
                    ASSERT_GE(j, 0);
                    ASSERT_LT(j, p.nLocal());
                    EXPECT_EQ(coords[j], n);
                }
            }
        }
    }
}

TEST_P(EGridParam, GhostCountsMatchNeighbourBoundaries)
{
    const int nDev = GetParam();
    index_3d  dim{8, 8, 24};
    EGrid grid(Backend::cpu(nDev), dim, [&](const index_3d& g) { return sphere(g, dim); });
    for (int d = 0; d < nDev; ++d) {
        const auto& p = grid.part(d);
        if (d > 0) {
            EXPECT_EQ(p.nGhostLow, grid.part(d - 1).nBdrHigh);
        } else {
            EXPECT_EQ(p.nGhostLow, 0);
            EXPECT_EQ(p.nBdrLow, 0);
        }
        if (d < nDev - 1) {
            EXPECT_EQ(p.nGhostHigh, grid.part(d + 1).nBdrLow);
        } else {
            EXPECT_EQ(p.nGhostHigh, 0);
            EXPECT_EQ(p.nBdrHigh, 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, EGridParam, ::testing::Values(1, 2, 3, 4));

TEST(EGrid, LoadBalanceOnSkewedDomain)
{
    // All activity concentrated in the low-z half: the balanced partitioner
    // must cut planes unevenly so active counts stay comparable.
    index_3d dim{16, 16, 32};
    auto     lowHalf = [&](const index_3d& g) { return g.z < 16; };
    EGrid    grid(Backend::cpu(4), dim, lowHalf);
    size_t   total = grid.activeCount();
    for (int d = 0; d < 4; ++d) {
        // No partition should be wildly overloaded (ideal = total/4).
        EXPECT_LE(static_cast<size_t>(grid.part(d).nOwned), total / 4 + 16 * 16);
    }

    // The exact plane cuts, pinned: the constructor's plan for 1-4 devices,
    // and rebindBackend onto fewer devices re-cuts the same way.
    using Units = std::vector<int64_t>;
    const std::vector<Units> want = {{32}, {8, 24}, {6, 6, 20}, {4, 4, 4, 20}};
    for (int n = 1; n <= 4; ++n) {
        EXPECT_EQ(EGrid(Backend::cpu(n), dim, lowHalf).currentPlan().unitsPerDev, want[n - 1])
            << n << " devices";
    }
    EXPECT_EQ(grid.currentPlan().unitsPerDev, want[3]);
    for (int n = 3; n >= 1; --n) {
        grid.rebindBackend(Backend::cpu(n));
        EXPECT_EQ(grid.currentPlan().unitsPerDev, want[n - 1]) << "rebound to " << n;
    }

    // Non-uniform weights: the sphere's active-cell count varies per plane.
    const index_3d           sd{10, 10, 24};
    const std::vector<Units> wantSphere = {{24}, {13, 11}, {12, 2, 10}, {11, 2, 2, 9}};
    for (int n = 1; n <= 4; ++n) {
        EGrid sg(Backend::cpu(n), sd, [&](const index_3d& g) { return sphere(g, sd); });
        EXPECT_EQ(sg.currentPlan().unitsPerDev, wantSphere[n - 1]) << n << " devices";
    }
}

TEST(EGrid, DryRunComputesCountsWithoutTables)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    Backend  b = Backend::simGpu(2, cfg);
    index_3d dim{10, 10, 20};
    EGrid    dry(b, dim, [&](const index_3d& g) { return sphere(g, dim); });

    EGrid real(Backend::cpu(2), dim, [&](const index_3d& g) { return sphere(g, dim); });
    EXPECT_EQ(dry.activeCount(), real.activeCount());
    for (int d = 0; d < 2; ++d) {
        EXPECT_EQ(dry.part(d).nOwned, real.part(d).nOwned);
        EXPECT_EQ(dry.part(d).nBdrLow, real.part(d).nBdrLow);
        EXPECT_EQ(dry.part(d).nGhostHigh, real.part(d).nGhostHigh);
    }
    EXPECT_FALSE(dry.isActive({5, 5, 10}));  // host map not built in dry-run
    EXPECT_GT(b.device(0).bytesInUse(), 0u);  // but memory is accounted
}

}  // namespace neon::egrid
