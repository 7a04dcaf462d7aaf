// EField: host access, partition access, halo exchange and dense/sparse
// equivalence of a stencil computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "dgrid/dfield.hpp"
#include "egrid/efield.hpp"
#include "set/container.hpp"

namespace neon::egrid {

using set::Backend;
using set::Container;
using set::EventSet;
using set::StreamSet;

namespace {

bool slab(const index_3d& g)
{
    return g.y >= 2 && g.y < 6;  // free-form: a y-slab of the box
}

double truth(const index_3d& g, int c)
{
    return 1.0 + g.x + 31.0 * g.y + 961.0 * g.z + 29791.0 * c;
}

}  // namespace

// gtest prints a parameter without operator<< as its raw bytes, and ctest
// names each case after that print. The tail is spelled out and zeroed so
// the names carry no uninitialized padding.
struct ECase
{
    int          nDev;
    int          card;
    MemLayout    layout;
    std::uint8_t tail[3] = {};
};
static_assert(sizeof(ECase) == 12, "ECase must have no padding");

/// "dev<n>_card<c>_<layout>": the test-name suffix.
std::string caseName(const ECase& c)
{
    return "dev" + std::to_string(c.nDev) + "_card" + std::to_string(c.card) + "_" +
           (c.layout == MemLayout::structOfArrays ? "SoA" : "AoS");
}

class EFieldParam : public ::testing::TestWithParam<ECase>
{
};

TEST_P(EFieldParam, HostRoundTrip)
{
    const auto [nDev, card, layout, tail] = GetParam();
    EGrid grid(Backend::cpu(nDev), {8, 8, 16}, slab, Stencil::laplace7());
    auto  f = grid.newField<double>("f", card, 0.0, layout);
    f.forEachActiveHost([](const index_3d& g, int c, double& v) { v = truth(g, c); });
    f.updateDev();
    f.fillHost(0.0);
    f.updateHost();
    f.forEachActiveHost(
        [](const index_3d& g, int c, double& v) { EXPECT_DOUBLE_EQ(v, truth(g, c)); });
}

TEST_P(EFieldParam, NeighbourAccessAfterHaloMatchesTruth)
{
    const auto [nDev, card, layout, tail] = GetParam();
    EGrid grid(Backend::cpu(nDev), {8, 8, 16}, slab, Stencil::laplace7());
    auto  f = grid.newField<double>("f", card, -5.0, layout);
    f.forEachActiveHost([](const index_3d& g, int c, double& v) { v = truth(g, c); });
    f.updateDev();

    StreamSet streams(grid.backend(), 0);
    Container::haloUpdate(f.haloOps()).run(streams);
    grid.backend().sync();

    for (int d = 0; d < nDev; ++d) {
        auto part = f.getPartition(d);
        grid.span(d, DataView::STANDARD).forEach([&](const ECell& cell) {
            const index_3d g = part.globalIdx(cell);
            for (const auto& off : grid.stencil().points()) {
                const index_3d n = g + off;
                for (int c = 0; c < card; ++c) {
                    const auto got = part.nghData(cell, off, c);
                    if (grid.isActive(n)) {
                        EXPECT_TRUE(got.isValid);
                        EXPECT_DOUBLE_EQ(got.value, truth(n, c))
                            << g.to_string() << " + " << off.to_string();
                    } else {
                        EXPECT_FALSE(got.isValid);
                        EXPECT_DOUBLE_EQ(got.value, -5.0);
                    }
                }
            }
        });
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EFieldParam,
    ::testing::Values(ECase{1, 1, MemLayout::structOfArrays},
                      ECase{2, 1, MemLayout::structOfArrays},
                      ECase{2, 3, MemLayout::structOfArrays},
                      ECase{2, 3, MemLayout::arrayOfStructs},
                      ECase{4, 2, MemLayout::structOfArrays},
                      ECase{4, 2, MemLayout::arrayOfStructs}),
    [](const auto& info) { return caseName(info.param); });

TEST(EField, LaplacianMatchesDenseGridOnFullBox)
{
    // Same 7-point Laplacian computed on a fully-dense EGrid and a DGrid:
    // identical results — "decouple data structure from computation".
    const index_3d dim{6, 6, 12};
    auto           all = [](const index_3d&) { return true; };

    Backend      cb = Backend::cpu(2);
    dgrid::DGrid dg(cb, dim, Stencil::laplace7());
    Backend      eb = Backend::cpu(2);
    EGrid        eg(eb, dim, all, Stencil::laplace7());

    auto init = [](const index_3d& g, int, double& v) {
        v = 0.3 * g.x * g.x - 0.7 * g.y + 1.1 * g.z * g.x;
    };

    auto dIn = dg.newField<double>("in", 1, 0.0);
    auto dOut = dg.newField<double>("out", 1, 0.0);
    auto eIn = eg.newField<double>("in", 1, 0.0);
    auto eOut = eg.newField<double>("out", 1, 0.0);
    dIn.forEachHost(init);
    eIn.forEachActiveHost(init);
    dIn.updateDev();
    eIn.updateDev();

    // The same generic lambda body for both grids.
    auto makeLaplace = [](auto& grid, auto& in, auto& out) {
        return grid.newContainer("laplace", [&](auto& l) {
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
    };

    // Set level: the events are ours to place (examples/manual_set_level.cpp).
    // Each device's stencil reads the ghost cells its z-neighbours' halo
    // sends write, so it waits on their records.
    auto haloThenLaplace = [](Backend& b, auto& in, const Container& laplace) {
        const int nDev = b.devCount();
        StreamSet streams(b, 0);
        EventSet  haloDone = EventSet::make(nDev);
        const auto halo = Container::haloUpdate(in.haloOps());
        for (int d = 0; d < nDev; ++d) {
            halo.launch(d, streams[d]);
            streams[d].record(haloDone[d]);
        }
        for (int d = 0; d < nDev; ++d) {
            for (int dd = std::max(0, d - 1); dd <= std::min(nDev - 1, d + 1); ++dd) {
                streams[d].wait(haloDone[dd]);
            }
            laplace.launch(d, streams[d]);
        }
        b.sync();
    };

    haloThenLaplace(cb, dIn, makeLaplace(dg, dIn, dOut));
    dOut.updateHost();
    haloThenLaplace(eb, eIn, makeLaplace(eg, eIn, eOut));
    eOut.updateHost();

    dim.forEach([&](const index_3d& g) {
        EXPECT_NEAR(dOut.hVal(g), eOut.hVal(g), 1e-12) << g.to_string();
    });
}

TEST(EField, SparseAllocatesOnlyActiveCells)
{
    const index_3d dim{8, 8, 16};
    EGrid          grid(Backend::cpu(1), dim, slab);
    auto           f = grid.newField<float>("f", 1, 0.0f);
    EXPECT_EQ(f.allocatedBytes(), grid.activeCount() * sizeof(float));
    EXPECT_LT(grid.activeCount(), dim.size());
}

TEST(EField, StencilBytesIncludeConnectivity)
{
    EGrid grid(Backend::cpu(1), {8, 8, 16}, slab, Stencil::laplace7());
    auto  f = grid.newField<float>("f", 1, 0.0f);
    EXPECT_DOUBLE_EQ(f.bytesPerItem(Compute::MAP), 4.0);
    EXPECT_DOUBLE_EQ(f.bytesPerItem(Compute::STENCIL), 4.0 + 4.0 * 6);
}

}  // namespace neon::egrid
