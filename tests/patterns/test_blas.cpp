// Grid-generic BLAS containers: correctness against references, across
// grid types, cardinalities and device counts ("unified interface for
// different grid types", paper §III).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dgrid/dfield.hpp"
#include "egrid/efield.hpp"
#include "patterns/blas.hpp"
#include "set/sanitize.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::patterns {

using set::Backend;
using set::GlobalScalar;
using set::StreamSet;

namespace {

constexpr index_3d kDim{6, 5, 12};

double truth(const index_3d& g, int c)
{
    return 0.5 + g.x + 2.0 * g.y + 3.0 * g.z + 7.0 * c;
}

template <typename Grid>
struct Fixture
{
    Grid                                 grid;
    typename Grid::template FieldType<double> x;
    typename Grid::template FieldType<double> y;

    explicit Fixture(Grid g, int card) : grid(g)
    {
        x = grid.template newField<double>("x", card, 0.0);
        y = grid.template newField<double>("y", card, 0.0);
        x.forEachActiveHost([](const index_3d& gg, int c, double& v) { v = truth(gg, c); });
        y.forEachActiveHost([](const index_3d& gg, int c, double& v) { v = 2.0 * truth(gg, c); });
        x.updateDev();
        y.updateDev();
    }

    void runOne(set::Container c)
    {
        skeleton::Skeleton s(grid.backend());
        s.sequence({std::move(c)}, skeleton::SequenceOptions().withName("op"));
        s.run();
        s.sync();
    }
};

dgrid::DGrid denseGrid(int nDev)
{
    return dgrid::DGrid(Backend::cpu(nDev), kDim, Stencil::laplace7());
}

egrid::EGrid sparseGrid(int nDev)
{
    return egrid::EGrid(Backend::cpu(nDev), kDim,
                        [](const index_3d& g) { return (g.x + g.y) % 3 != 0; },
                        Stencil::laplace7());
}

}  // namespace

class BlasDense : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(BlasDense, Axpy)
{
    const auto [nDev, card] = GetParam();
    Fixture<dgrid::DGrid> f(denseGrid(nDev), card);
    GlobalScalar<double>  alpha(f.grid.backend(), "a", 1.5);
    f.runOne(axpy(f.grid, alpha, f.x, f.y));
    f.y.updateHost();
    f.y.forEachActiveHost([](const index_3d& g, int c, double& v) {
        EXPECT_DOUBLE_EQ(v, 2.0 * truth(g, c) + 1.5 * truth(g, c));
    });
}

TEST_P(BlasDense, Axmy)
{
    const auto [nDev, card] = GetParam();
    Fixture<dgrid::DGrid> f(denseGrid(nDev), card);
    GlobalScalar<double>  alpha(f.grid.backend(), "a", 0.25);
    f.runOne(axmy(f.grid, alpha, f.x, f.y));
    f.y.updateHost();
    f.y.forEachActiveHost([](const index_3d& g, int c, double& v) {
        EXPECT_DOUBLE_EQ(v, 2.0 * truth(g, c) - 0.25 * truth(g, c));
    });
}

TEST_P(BlasDense, Xpby)
{
    const auto [nDev, card] = GetParam();
    Fixture<dgrid::DGrid> f(denseGrid(nDev), card);
    GlobalScalar<double>  beta(f.grid.backend(), "b", -2.0);
    f.runOne(xpby(f.grid, f.x, beta, f.y));
    f.y.updateHost();
    f.y.forEachActiveHost([](const index_3d& g, int c, double& v) {
        EXPECT_DOUBLE_EQ(v, truth(g, c) - 2.0 * 2.0 * truth(g, c));
    });
}

TEST_P(BlasDense, CopyAndSet)
{
    const auto [nDev, card] = GetParam();
    Fixture<dgrid::DGrid> f(denseGrid(nDev), card);
    f.runOne(copy(f.grid, f.x, f.y));
    f.runOne(setValue(f.grid, f.x, -9.0));
    f.x.updateHost();
    f.y.updateHost();
    f.y.forEachActiveHost(
        [](const index_3d& g, int c, double& v) { EXPECT_DOUBLE_EQ(v, truth(g, c)); });
    f.x.forEachActiveHost([](const index_3d&, int, double& v) { EXPECT_DOUBLE_EQ(v, -9.0); });
}

TEST_P(BlasDense, DotAndNorm)
{
    const auto [nDev, card] = GetParam();
    Fixture<dgrid::DGrid> f(denseGrid(nDev), card);
    GlobalScalar<double>  d(f.grid.backend(), "d", 0.0);
    GlobalScalar<double>  n2(f.grid.backend(), "n2", 0.0);

    skeleton::Skeleton s(f.grid.backend());
    s.sequence({dot(f.grid, f.x, f.y, d), norm2Sq(f.grid, f.x, n2)},
               skeleton::SequenceOptions().withName("reduce"));
    s.run();
    s.sync();

    double expectDot = 0.0;
    double expectN2 = 0.0;
    kDim.forEach([&](const index_3d& g) {
        for (int c = 0; c < card; ++c) {
            expectDot += truth(g, c) * 2.0 * truth(g, c);
            expectN2 += truth(g, c) * truth(g, c);
        }
    });
    EXPECT_NEAR(d.hostValue(), expectDot, std::abs(expectDot) * 1e-12);
    EXPECT_NEAR(n2.hostValue(), expectN2, std::abs(expectN2) * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlasDense,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 3)),
                         [](const auto& info) {
                             return "dev" + std::to_string(std::get<0>(info.param)) + "_card" +
                                    std::to_string(std::get<1>(info.param));
                         });

TEST(BlasSparse, SameOpsOnSparseGrid)
{
    Fixture<egrid::EGrid> f(sparseGrid(2), 2);
    GlobalScalar<double>  alpha(f.grid.backend(), "a", 3.0);
    GlobalScalar<double>  d(f.grid.backend(), "d", 0.0);

    skeleton::Skeleton s(f.grid.backend());
    s.sequence({axpy(f.grid, alpha, f.x, f.y), dot(f.grid, f.x, f.y, d)},
               skeleton::SequenceOptions().withName("sparseBlas"));
    s.run();
    s.sync();

    f.y.updateHost();
    double expectDot = 0.0;
    f.grid.dim().forEach([&](const index_3d& g) {
        if (!f.grid.isActive(g)) {
            return;
        }
        for (int c = 0; c < 2; ++c) {
            expectDot += truth(g, c) * 5.0 * truth(g, c);  // y = 2t + 3t
        }
    });
    f.y.forEachActiveHost([](const index_3d& g, int c, double& v) {
        EXPECT_DOUBLE_EQ(v, 5.0 * truth(g, c));
    });
    EXPECT_NEAR(d.hostValue(), expectDot, std::abs(expectDot) * 1e-12);
}

TEST(Blas, ScalarUpdateBetweenRunsIsVisible)
{
    // A skeleton built once must observe per-iteration scalar values —
    // the mechanism CG relies on (alpha/beta change every iteration).
    Fixture<dgrid::DGrid> f(denseGrid(2), 1);
    GlobalScalar<double>  alpha(f.grid.backend(), "a", 0.0);
    skeleton::Skeleton    s(f.grid.backend());
    s.sequence({axpy(f.grid, alpha, f.x, f.y)}, skeleton::SequenceOptions().withName("axpyLoop"));

    alpha.set(1.0);
    s.run();
    s.sync();
    alpha.set(10.0);
    s.run();
    s.sync();

    f.y.updateHost();
    f.y.forEachActiveHost([](const index_3d& g, int c, double& v) {
        EXPECT_DOUBLE_EQ(v, 2.0 * truth(g, c) + 11.0 * truth(g, c));
    });
}

namespace {

// Several chunks per device, rows of 24 cells: the flat plane loop and its
// vector remainder both run.
constexpr index_3d kFlatDim{24, 20, 33};

using DenseField = dgrid::DField<double>;
using MapMaker = std::function<set::Container(const dgrid::DGrid&, DenseField, DenseField,
                                              GlobalScalar<double>)>;

/// y after one launch of `make(grid, x, y, s)`: plain, a map that declares
/// no stencil read takes the flat plane loop; sanitized, it keeps the
/// ordered per-cell loop.
std::vector<double> mapResult(int nDev, int card, MemLayout layout, bool sanitize,
                              const MapMaker& make)
{
    Backend      backend = Backend::make(set::BackendSpec::cpu(nDev).withHostThreads(2));
    dgrid::DGrid grid(backend, kFlatDim, Stencil::laplace7());
    auto         x = grid.newField<double>("x", card, 0.0, layout);
    auto         y = grid.newField<double>("y", card, 0.0, layout);
    x.forEachHost([](const index_3d& g, int c, double& v) {
        v = 1e-7 * g.x + 0.3 * g.y + 70.0 * g.z + 0.1 * c + 0.7;
    });
    y.forEachHost([](const index_3d& g, int c, double& v) {
        v = 3.0 / (1.0 + g.x) - 1e-4 * (g.y + g.z) + c;
    });
    x.updateDev();
    y.updateDev();
    GlobalScalar<double> s(backend, "s", 0.1);
    skeleton::Skeleton   skl(backend);
    skl.sequence({make(grid, x, y, s)},
                 skeleton::SequenceOptions().withName("map").withSanitize(sanitize));
    skl.run();
    skl.sync();
    y.updateHost();
    std::vector<double> out;
    y.forEachHost([&](const index_3d&, int, double& v) { out.push_back(v); });
    return out;
}

}  // namespace

TEST(BlasFlat, MapsMatchTheOrderedLoopBitwise)
{
    const std::vector<std::pair<const char*, MapMaker>> maps = {
        {"setValue", [](const auto& g, auto, auto y, auto) { return setValue(g, y, 0.3); }},
        {"copy", [](const auto& g, auto x, auto y, auto) { return copy(g, x, y); }},
        {"axpy", [](const auto& g, auto x, auto y, auto s) { return axpy(g, s, x, y); }},
        {"axmy", [](const auto& g, auto x, auto y, auto s) { return axmy(g, s, x, y); }},
        {"xpby", [](const auto& g, auto x, auto y, auto s) { return xpby(g, x, s, y); }},
    };
    auto& session = set::sanitize::Session::instance();
    for (const auto& [name, make] : maps) {
        for (const int nDev : {1, 2}) {
            for (const int card : {1, 3}) {
                for (const MemLayout layout :
                     {MemLayout::structOfArrays, MemLayout::arrayOfStructs}) {
                    SCOPED_TRACE(std::string(name) + ", " + std::to_string(nDev) +
                                 " dev, card " + std::to_string(card) +
                                 (layout == MemLayout::structOfArrays ? " SoA" : " AoS"));
                    const auto ordered = mapResult(nDev, card, layout, true, make);
                    session.clear();
                    EXPECT_EQ(mapResult(nDev, card, layout, false, make), ordered);
                }
            }
        }
    }
}

}  // namespace neon::patterns
