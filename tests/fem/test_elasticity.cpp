// Matrix-free elastic operator vs brute-force dense assembly; CG solve
// behaviour; dense (masked) vs sparse grid equivalence — the core of the
// paper's Fig. 9 claim that the data structure can change without touching
// the computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dgrid/dfield.hpp"
#include "egrid/efield.hpp"
#include "fem/elasticity.hpp"
#include "fem/reference.hpp"
#include "set/container.hpp"

namespace neon::fem {

using set::Backend;
using set::StreamSet;

namespace {

constexpr index_3d kDim{5, 5, 6};

bool solidAll(const index_3d&)
{
    return true;
}

bool solidBox(const index_3d& g)
{
    return g.x >= 1 && g.x < 4 && g.y >= 1 && g.y < 4;  // a column
}

/// Apply the Neon operator once on a dense grid with the given mask.
std::vector<double> applyOnDense(int nDev, const std::function<bool(const index_3d&)>& solid,
                                 const std::vector<double>& u)
{
    Backend        backend = Backend::cpu(nDev);
    dgrid::DGrid   grid(backend, kDim, Stencil::box27());
    ElasticProblem problem({1.0, 0.3}, 1.0, 1.0);
    auto           act = grid.newField<uint8_t>("act", 1, 0);
    auto           in = grid.newField<double>("u", 3, 0.0);
    auto           out = grid.newField<double>("Ku", 3, 0.0);
    act.forEachHost([&](const index_3d& g, int, uint8_t& v) { v = solid(g) ? 1 : 0; });
    act.updateDev();
    in.forEachHost([&](const index_3d& g, int c, double& v) {
        v = u[kDim.pitch(g) * 3 + static_cast<size_t>(c)];
    });
    in.updateDev();

    // Set level: the events are ours to place (examples/manual_set_level.cpp).
    // Each device's stencil reads the ghost cells its z-neighbours' halo
    // sends write, so it waits on their records.
    StreamSet      streams(backend, 0);
    set::EventSet  haloDone = set::EventSet::make(nDev);
    const auto     haloIn = set::Container::haloUpdate(in.haloOps());
    const auto     haloAct = set::Container::haloUpdate(act.haloOps());
    const auto     apply = makeElasticApply(grid, problem, act, in, out);
    for (int d = 0; d < nDev; ++d) {
        haloIn.launch(d, streams[d]);
        haloAct.launch(d, streams[d]);
        streams[d].record(haloDone[d]);
    }
    for (int d = 0; d < nDev; ++d) {
        for (int dd = std::max(0, d - 1); dd <= std::min(nDev - 1, d + 1); ++dd) {
            streams[d].wait(haloDone[dd]);
        }
        apply.launch(d, streams[d]);
    }
    backend.sync();
    out.updateHost();

    std::vector<double> result(kDim.size() * 3);
    out.forEachHost([&](const index_3d& g, int c, double& v) {
        result[kDim.pitch(g) * 3 + static_cast<size_t>(c)] = v;
    });
    return result;
}

std::vector<double> testDisplacement()
{
    std::vector<double> u(kDim.size() * 3);
    kDim.forEach([&](const index_3d& g) {
        for (int c = 0; c < 3; ++c) {
            u[kDim.pitch(g) * 3 + static_cast<size_t>(c)] =
                std::sin(0.37 * g.x + 0.53 * g.y + 0.71 * g.z + c);
        }
    });
    return u;
}

}  // namespace

TEST(ElasticApply, MatchesBruteForceAssemblyFullySolid)
{
    const auto u = testDisplacement();
    const auto got = applyOnDense(1, solidAll, u);

    reference::DenseAssembly ref(kDim, {1.0, 0.3}, 1.0, solidAll);
    std::vector<double>      expect;
    ref.apply(u, expect);
    for (size_t i = 0; i < expect.size(); ++i) {
        ASSERT_NEAR(got[i], expect[i], 1e-9) << "dof " << i;
    }
}

TEST(ElasticApply, MatchesBruteForceAssemblyMasked)
{
    const auto u = testDisplacement();
    const auto got = applyOnDense(1, solidBox, u);

    reference::DenseAssembly ref(kDim, {1.0, 0.3}, 1.0, solidBox);
    std::vector<double>      expect;
    ref.apply(u, expect);
    for (size_t i = 0; i < expect.size(); ++i) {
        ASSERT_NEAR(got[i], expect[i], 1e-9) << "dof " << i;
    }
}

TEST(ElasticApply, MultiDeviceMatchesSingle)
{
    const auto u = testDisplacement();
    const auto one = applyOnDense(1, solidBox, u);
    const auto three = applyOnDense(3, solidBox, u);
    for (size_t i = 0; i < one.size(); ++i) {
        ASSERT_NEAR(one[i], three[i], 1e-10);
    }
}

namespace {

/// Solve the paper's compression benchmark on a dense grid.
template <typename MakeGrid>
double solveAndTipDisplacement(MakeGrid&& makeGrid, const std::function<bool(const index_3d&)>& solid,
                               solver::CgResult* resultOut)
{
    auto           grid = makeGrid();
    ElasticProblem problem({100.0, 0.3}, 1.0, -1.0);  // compression
    auto act = grid.template newField<uint8_t>("act", 1, 0);
    auto x = grid.template newField<double>("x", 3, 0.0);
    auto b = grid.template newField<double>("b", 3, 0.0);
    act.forEachActiveHost([&](const index_3d& g, int, uint8_t& v) { v = solid(g) ? 1 : 0; });
    act.updateDev();

    solver::CgOptions options;
    options.maxIterations = 400;
    options.tolerance = 1e-9;
    auto result = solveElastic(grid, problem, act, x, b, options);
    if (resultOut != nullptr) {
        *resultOut = result;
    }
    x.updateHost();
    return x.hVal({2, 2, kDim.z - 1}, 2);
}

}  // namespace

TEST(ElasticSolve, CompressionPushesTopDown)
{
    solver::CgResult result;
    const double     tip = solveAndTipDisplacement(
        [] { return dgrid::DGrid(Backend::cpu(2), kDim, Stencil::box27()); }, solidAll, &result);
    EXPECT_TRUE(result.converged);
    EXPECT_LT(tip, 0.0);  // pressure pushes -z

    // Rough magnitude: uz ~ p*L/E per unit column.
    const double expected = -1.0 * (kDim.z - 1) / 100.0;
    EXPECT_NEAR(tip, expected, std::abs(expected) * 0.5);
}

TEST(ElasticSolve, DenseMaskedAndSparseGridsAgree)
{
    solver::CgResult rDense;
    const double     tipDense = solveAndTipDisplacement(
        [] { return dgrid::DGrid(Backend::cpu(2), kDim, Stencil::box27()); }, solidBox, &rDense);

    solver::CgResult rSparse;
    const double     tipSparse = solveAndTipDisplacement(
        [] {
            return egrid::EGrid(Backend::cpu(2), kDim, solidBox, Stencil::box27());
        },
        solidBox, &rSparse);

    EXPECT_TRUE(rDense.converged);
    EXPECT_TRUE(rSparse.converged);
    EXPECT_NEAR(tipDense, tipSparse, std::abs(tipDense) * 1e-6 + 1e-10);
}

TEST(ElasticSolve, StifferMaterialDeformsLess)
{
    auto solve = [&](double E) {
        Backend        backend = Backend::cpu(1);
        dgrid::DGrid   grid(backend, kDim, Stencil::box27());
        ElasticProblem problem({E, 0.3}, 1.0, -1.0);
        auto act = grid.newField<uint8_t>("act", 1, 0);
        auto x = grid.newField<double>("x", 3, 0.0);
        auto b = grid.newField<double>("b", 3, 0.0);
        act.forEachHost([](const index_3d&, int, uint8_t& v) { v = 1; });
        act.updateDev();
        solver::CgOptions options;
        options.maxIterations = 400;
        options.tolerance = 1e-9;
        solveElastic(grid, problem, act, x, b, options);
        x.updateHost();
        return x.hVal({2, 2, kDim.z - 1}, 2);
    };
    const double soft = solve(10.0);
    const double stiff = solve(1000.0);
    EXPECT_LT(std::abs(stiff), std::abs(soft));
    EXPECT_NEAR(soft / stiff, 100.0, 5.0);  // linear in 1/E
}

}  // namespace neon::fem
