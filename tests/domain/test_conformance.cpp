// Grid-conformance battery: the behavioural half of the Domain contract
// (docs/domain.md), run identically against every registered grid through
// one typed test suite. A new grid earns its place by adding a GridMaker
// specialization here and passing:
//   1. field alloc / fill / updateDev / updateHost round-trip,
//   2. halo exchange vs the single-device reference (neighbour reads
//      crossing a partition boundary see the owner's values),
//   3. a stencil computation through the Skeleton under OCC, bitwise
//      equal to a single-device reference, including back-to-back runs of
//      *alternating* skeletons (the backend-level inter-run barrier
//      regression).

#include <gtest/gtest.h>

#include <vector>

#include "bgrid/bfield.hpp"
#include "dgrid/dfield.hpp"
#include "egrid/efield.hpp"
#include "set/container.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::domain {

using set::Backend;
using set::Container;
using set::StreamSet;

namespace {

// Box chosen so every grid splits into >= 2 owned z-slabs on 4 devices
// (bGrid partitions in block rows of 4, needing >= 8 rows).
constexpr index_3d kDim{6, 5, 32};

// Sparse activity pattern exercising partial blocks / irregular boundaries;
// full z-columns stay active so every device owns cells.
bool activePredicate(const index_3d& g)
{
    return (g.x + 2 * g.y + g.z) % 7 != 3;
}

double truth(const index_3d& g, int c)
{
    return 1.0 + g.x + 31.0 * g.y + 961.0 * g.z + 29791.0 * c;
}

/// Per-grid construction shim — the only grid-specific code in the file.
template <typename Grid>
struct GridMaker;

template <>
struct GridMaker<dgrid::DGrid>
{
    static constexpr bool sparse = false;  // dense: predicate not supported
    static dgrid::DGrid   make(Backend backend, Stencil stencil)
    {
        return {std::move(backend), kDim, std::move(stencil)};
    }
};

template <>
struct GridMaker<egrid::EGrid>
{
    static constexpr bool sparse = true;
    static egrid::EGrid   make(Backend backend, Stencil stencil)
    {
        return {std::move(backend), kDim, activePredicate, std::move(stencil)};
    }
};

template <>
struct GridMaker<bgrid::BGrid>
{
    static constexpr bool sparse = true;
    static bgrid::BGrid   make(Backend backend, Stencil stencil)
    {
        return {std::move(backend), kDim, activePredicate, std::move(stencil)};
    }
};

/// The 7-point Laplacian used as the reference stencil computation —
/// written once against the generic grid/field surface.
template <typename Grid, typename Field>
set::Container laplace(Grid& grid, Field& in, Field& out)
{
    // Fields captured by value: the loading lambda outlives this scope
    // (it re-runs at every launch).
    return grid.newContainer("laplace", [in, out](auto& l) mutable {
        auto ip = l.load(in, Access::READ, Compute::STENCIL);
        auto op = l.load(out, Access::WRITE);
        return [=](const auto& cell) mutable {
            double acc = -6.0 * ip(cell);
            for (const auto& off : std::initializer_list<index_3d>{
                     {1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}) {
                acc += ip.nghVal(cell, off);
            }
            op(cell) = acc;
        };
    });
}

/// Flatten a field's host mirror in deterministic global order.
template <typename Field>
std::vector<double> snapshot(const Field& f)
{
    std::vector<double> out;
    f.forEachActiveHost([&](const index_3d&, int, double& v) { out.push_back(v); });
    return out;
}

/// One Jacobi-flavoured ping-pong iteration count through the Skeleton;
/// two *alternating* Skeleton objects like a real ping-pong app.
template <typename Grid>
std::vector<double> runStencilIterations(Occ occ, int iters)
{
    auto backend = Backend::cpu(3);
    auto grid = GridMaker<Grid>::make(backend, Stencil::laplace7());
    auto a = grid.template newField<double>("a", 1, 0.0);
    auto b = grid.template newField<double>("b", 1, 0.0);
    a.forEachActiveHost([](const index_3d& g, int c, double& v) { v = truth(g, c); });
    a.updateDev();
    b.updateDev();

    skeleton::Skeleton fwd(backend);
    skeleton::Skeleton bwd(backend);
    auto               cFwd = laplace(grid, a, b);
    auto               cBwd = laplace(grid, b, a);
    fwd.sequence({cFwd}, skeleton::SequenceOptions().withName("fwd").withOcc(occ));
    bwd.sequence({cBwd}, skeleton::SequenceOptions().withName("bwd").withOcc(occ));

    for (int i = 0; i < iters; ++i) {
        (i % 2 == 0 ? fwd : bwd).run();
    }
    backend.sync();
    auto& last = iters % 2 == 1 ? b : a;
    last.updateHost();
    return snapshot(last);
}

}  // namespace

template <typename Grid>
class GridConformance : public ::testing::Test
{
};

using Grids = ::testing::Types<dgrid::DGrid, egrid::EGrid, bgrid::BGrid>;

class GridNames
{
   public:
    template <typename T>
    static std::string GetName(int)
    {
        if (std::is_same_v<T, dgrid::DGrid>) {
            return "DGrid";
        }
        if (std::is_same_v<T, egrid::EGrid>) {
            return "EGrid";
        }
        return "BGrid";
    }
};

TYPED_TEST_SUITE(GridConformance, Grids, GridNames);

TYPED_TEST(GridConformance, FieldRoundTripAllLayouts)
{
    for (int nDev : {1, 2, 4}) {
        for (auto layout : {MemLayout::structOfArrays, MemLayout::arrayOfStructs}) {
            auto grid = GridMaker<TypeParam>::make(Backend::cpu(nDev), Stencil::laplace7());
            auto f = grid.template newField<double>("f", 3, -1.0, layout);
            EXPECT_GT(f.allocatedBytes(), 0u);
            f.forEachActiveHost([](const index_3d& g, int c, double& v) { v = truth(g, c); });
            f.updateDev();
            f.fillHost(0.0);
            f.updateHost();
            size_t visited = 0;
            f.forEachActiveHost([&](const index_3d& g, int c, double& v) {
                ++visited;
                EXPECT_DOUBLE_EQ(v, truth(g, c));
                EXPECT_DOUBLE_EQ(f.hVal(g, c), truth(g, c));
            });
            EXPECT_GT(visited, 0u);
        }
    }
}

TYPED_TEST(GridConformance, ActiveCellsMatchPredicateAndViewsPartition)
{
    for (int nDev : {1, 2, 4}) {
        auto grid = GridMaker<TypeParam>::make(Backend::cpu(nDev), Stencil::laplace7());
        size_t expected = 0;
        kDim.forEach([&](const index_3d& g) {
            const bool active = !GridMaker<TypeParam>::sparse || activePredicate(g);
            EXPECT_EQ(grid.isActive(g), active) << g.to_string();
            expected += active ? 1 : 0;
        });
        size_t total = 0;
        for (int d = 0; d < nDev; ++d) {
            const size_t std = grid.span(d, DataView::STANDARD).count();
            const size_t in = grid.span(d, DataView::INTERNAL).count();
            const size_t bd = grid.span(d, DataView::BOUNDARY).count();
            EXPECT_EQ(std, in + bd) << "dev " << d;
            size_t visited = 0;
            grid.span(d, DataView::STANDARD).forEach([&](const auto&) { ++visited; });
            EXPECT_EQ(visited, std);
            total += std;
        }
        EXPECT_EQ(total, expected);
    }
}

TYPED_TEST(GridConformance, HaloMatchesSingleDeviceReference)
{
    for (int nDev : {2, 4}) {
        for (auto layout : {MemLayout::structOfArrays, MemLayout::arrayOfStructs}) {
            auto grid = GridMaker<TypeParam>::make(Backend::cpu(nDev), Stencil::laplace7());
            auto f = grid.template newField<double>("f", 2, -7.0, layout);
            f.forEachActiveHost([](const index_3d& g, int c, double& v) { v = truth(g, c); });
            f.updateDev();

            StreamSet streams(grid.backend(), 0);
            Container::haloUpdate(f.haloOps()).run(streams);
            grid.backend().sync();

            // CPU-backend device buffers are host memory: partitions are
            // directly readable. Every neighbour read from every owned cell
            // must match global truth — including reads crossing into the
            // halo — or report invalid off the active set.
            for (int d = 0; d < nDev; ++d) {
                auto part = f.getPartition(d);
                grid.span(d, DataView::STANDARD).forEach([&](const auto& cell) {
                    const index_3d g = part.globalIdx(cell);
                    for (const auto& off : grid.stencil().points()) {
                        const index_3d n = g + off;
                        for (int c = 0; c < 2; ++c) {
                            const auto got = part.nghData(cell, off, c);
                            if (grid.isActive(n)) {
                                EXPECT_TRUE(got.isValid)
                                    << g.to_string() << " + " << off.to_string();
                                EXPECT_DOUBLE_EQ(got.value, truth(n, c))
                                    << g.to_string() << " + " << off.to_string();
                            } else {
                                EXPECT_FALSE(got.isValid);
                                EXPECT_DOUBLE_EQ(got.value, -7.0);
                            }
                        }
                    }
                });
            }
        }
    }
}

TYPED_TEST(GridConformance, PartitionIsViewAgnostic)
{
    auto grid = GridMaker<TypeParam>::make(Backend::cpu(2), Stencil::laplace7());
    auto f = grid.template newField<double>("f", 1, 0.0);
    for (int d = 0; d < 2; ++d) {
        auto std = f.getPartition(d, DataView::STANDARD);
        auto in = f.getPartition(d, DataView::INTERNAL);
        auto bd = f.getPartition(d, DataView::BOUNDARY);
        // The span decides the visit set; the partition only addresses
        // memory, so every view must yield an identical partition.
        EXPECT_EQ(std.mem, in.mem);
        EXPECT_EQ(std.mem, bd.mem);
    }
}

TYPED_TEST(GridConformance, SkeletonStencilMatchesSingleDevice)
{
    for (auto occ : {Occ::NONE, Occ::STANDARD}) {
        const auto multi = runStencilIterations<TypeParam>(occ, 4);
        const auto single = [&] {
            auto backend = Backend::cpu(1);
            auto grid = GridMaker<TypeParam>::make(backend, Stencil::laplace7());
            auto a = grid.template newField<double>("a", 1, 0.0);
            auto b = grid.template newField<double>("b", 1, 0.0);
            a.forEachActiveHost([](const index_3d& g, int c, double& v) { v = truth(g, c); });
            a.updateDev();
            b.updateDev();
            StreamSet  streams(backend, 0);
            auto       cF = laplace(grid, a, b);
            auto       cB = laplace(grid, b, a);
            for (int i = 0; i < 4; ++i) {
                auto& c = i % 2 == 0 ? cF : cB;
                Container::haloUpdate((i % 2 == 0 ? a : b).haloOps()).run(streams);
                c.run(streams, DataView::STANDARD);
            }
            backend.sync();
            a.updateHost();
            return snapshot(a);
        }();
        ASSERT_EQ(multi.size(), single.size());
        for (size_t i = 0; i < multi.size(); ++i) {
            EXPECT_EQ(multi[i], single[i]) << "occ=" << to_string(occ) << " i=" << i;
        }
    }
}

}  // namespace neon::domain
