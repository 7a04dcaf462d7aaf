// The summation order of dense reductions (docs/performance.md, "Flat
// planes and lane reductions"), pinned bit for bit against a test-side
// reference: each chunk of a device's span sums the cell with in-plane
// index i into lane i % 4, folds its lanes as (l0 + l1) + (l2 + l3), the
// chunk partials fold through the fixed pairwise tree, and the devices'
// partials add up in device order.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dgrid/dfield.hpp"
#include "patterns/blas.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::patterns {

using set::Backend;
using set::GlobalScalar;

namespace {

// Odd extents: 24 * 20 cells a plane (a multiple of 4) and 33 planes, so
// chunks hold whole planes in uneven numbers (7 chunks on 1 device, 3 per
// device on 2).
constexpr index_3d kDim{24, 20, 33};
// 13 * 11 = 143 cells a plane: each plane ends three cells into a lane
// step, so the walk's tail is covered (4 chunks on 1 device, 2 on 2).
constexpr index_3d kOddPlaneDim{13, 11, 60};

template <typename T>
T xAt(const index_3d& g)
{
    return static_cast<T>(1e-6 * g.x + 0.1 * g.y + 100.0 * g.z + 0.7);
}

template <typename T>
T yAt(const index_3d& g)
{
    return static_cast<T>(3.0 - 0.01 * g.x + 1e-5 * (g.y + g.z));
}

/// The pairwise tree of Container::pairwiseFold: adjacent pairs, a trailing
/// odd element passes through, until one is left.
template <typename T>
T pairwise(std::vector<T> s)
{
    size_t n = s.size();
    while (n > 1) {
        const size_t pairs = n / 2;
        for (size_t i = 0; i < pairs; ++i) {
            s[i] = s[2 * i] + s[2 * i + 1];
        }
        if (n % 2 == 1) {
            s[pairs] = s[n - 1];
        }
        n = pairs + n % 2;
    }
    return s[0];
}

/// The sum over every cell of a(g) * b(g) in the documented order, with
/// kLanes accumulators per chunk (4 is the library's order; 1 is a single
/// chain, to show that the data tells the two apart).
template <typename T, int kLanes, typename A, typename B>
T referenceSum(const dgrid::DGrid& grid, A a, B b)
{
    const index_3d d = grid.dim();
    T              total{};
    for (int dev = 0; dev < grid.devCount(); ++dev) {
        const dgrid::DSpan span = grid.span(dev, DataView::STANDARD);
        const int32_t      zOrigin = grid.part(dev).zOrigin;
        const int32_t      slots = span.slotCount();
        const int32_t      chunks = span.chunkCount();
        std::vector<T>     partials;
        for (int32_t c = 0; c < chunks; ++c) {
            std::array<T, kLanes> lane{};
            const auto            lo = static_cast<int32_t>(int64_t{c} * slots / chunks);
            const auto            hi = static_cast<int32_t>(int64_t{c + 1} * slots / chunks);
            for (int32_t o = lo; o < hi; ++o) {
                const int32_t z = o < span.range0().count
                                      ? span.range0().first + o
                                      : span.range1().first + (o - span.range0().count);
                for (int32_t i = 0; i < d.x * d.y; ++i) {
                    const index_3d g{i % d.x, i / d.x, zOrigin + z};
                    lane[static_cast<size_t>(i % kLanes)] += a(g) * b(g);
                }
            }
            if constexpr (kLanes == 4) {
                partials.push_back((lane[0] + lane[1]) + (lane[2] + lane[3]));
            } else {
                partials.push_back(lane[0]);
            }
        }
        total += pairwise(partials);
        total += T{};  // the device's empty BOUNDARY slot
    }
    return total;
}

template <typename T>
struct Reduced
{
    T dot{};
    T norm{};
};

template <typename T>
Reduced<T> runReductions(int nDev, index_3d dim, int hostThreads)
{
    Backend      backend = Backend::make(set::BackendSpec::cpu(nDev).withHostThreads(hostThreads));
    dgrid::DGrid grid(backend, dim, Stencil::laplace7());
    auto         x = grid.newField<T>("x", 1, T{});
    auto         y = grid.newField<T>("y", 1, T{});
    x.forEachHost([](const index_3d& g, int, T& v) { v = xAt<T>(g); });
    y.forEachHost([](const index_3d& g, int, T& v) { v = yAt<T>(g); });
    x.updateDev();
    y.updateDev();
    GlobalScalar<T>    dotOut(backend, "dot", T{});
    GlobalScalar<T>    normOut(backend, "norm", T{});
    skeleton::Skeleton skl(backend);
    skl.sequence({dot(grid, x, y, dotOut), norm2Sq(grid, x, normOut)},
                 skeleton::SequenceOptions().withName("lanes").withOcc(Occ::NONE));
    skl.run();
    skl.sync();
    return {dotOut.hostValue(), normOut.hostValue()};
}

template <typename T>
void expectLaneOrder(index_3d dim)
{
    for (const int nDev : {1, 2}) {
        for (const int width : {1, 4}) {
            SCOPED_TRACE(std::to_string(nDev) + " dev, width " + std::to_string(width));
            Backend      backend = Backend::cpu(nDev);
            dgrid::DGrid grid(backend, dim, Stencil::laplace7());
            const T      wantDot = referenceSum<T, 4>(grid, xAt<T>, yAt<T>);
            const T      wantNorm = referenceSum<T, 4>(grid, xAt<T>, xAt<T>);
            // The data must tell the lane order from a single chain, or the
            // comparison below would pin nothing.
            ASSERT_NE(wantDot, (referenceSum<T, 1>(grid, xAt<T>, yAt<T>)));
            const Reduced<T> got = runReductions<T>(nDev, dim, width);
            EXPECT_EQ(got.dot, wantDot);
            EXPECT_EQ(got.norm, wantNorm);
        }
    }
}

}  // namespace

TEST(LaneReduce, DotAndNormFollowTheDocumentedOrder)
{
    {
        SCOPED_TRACE("double");
        expectLaneOrder<double>(kDim);
    }
    {
        SCOPED_TRACE("float");
        expectLaneOrder<float>(kDim);
    }
}

TEST(LaneReduce, PlanesEndingMidLaneStartTheNextPlaneAtLaneZero)
{
    {
        SCOPED_TRACE("double");
        expectLaneOrder<double>(kOddPlaneDim);
    }
    {
        SCOPED_TRACE("float");
        expectLaneOrder<float>(kOddPlaneDim);
    }
}

}  // namespace neon::patterns
