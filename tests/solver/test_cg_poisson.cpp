// CG + Poisson: convergence, accuracy against the analytic solution and
// against the native baseline, across device counts, OCC variants,
// host-pool widths and grid types.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "dgrid/dfield.hpp"
#include "egrid/efield.hpp"
#include "poisson/native.hpp"
#include "poisson/poisson.hpp"

namespace neon {

using set::Backend;

namespace {

constexpr index_3d kDim{14, 14, 14};

/// How the CPU devices run their kernels: on one host thread, or with the
/// chunks fanned out over a four-worker host pool.
enum class HostPool : std::uint8_t
{
    Sequential,
    Threaded,
};

double solveDense(int nDev, Occ occ, HostPool pool, solver::CgResult* resultOut,
                  std::vector<double>* xOut = nullptr)
{
    const int    threads = pool == HostPool::Sequential ? 1 : 4;
    Backend      backend = Backend::make(set::BackendSpec::cpu(nDev).withHostThreads(threads));
    dgrid::DGrid grid(backend, kDim, Stencil::laplace7());
    auto         x = grid.newField<double>("x", 1, 0.0);
    auto         b = grid.newField<double>("b", 1, 0.0);

    solver::CgOptions options;
    options.maxIterations = 300;
    options.tolerance = 1e-10;
    options.occ = occ;
    auto result = poisson::solveSine(grid, x, b, options);
    if (resultOut != nullptr) {
        *resultOut = result;
    }

    x.updateHost();
    const poisson::SineProblem problem(kDim);
    double                     maxErr = 0.0;
    if (xOut != nullptr) {
        xOut->assign(kDim.size(), 0.0);
    }
    kDim.forEach([&](const index_3d& g) {
        maxErr = std::max(maxErr, std::abs(x.hVal(g) - problem.exactU(g)));
        if (xOut != nullptr) {
            (*xOut)[kDim.pitch(g)] = x.hVal(g);
        }
    });
    return maxErr;
}

}  // namespace

using CgCase = std::tuple<int, Occ, HostPool>;

class CgPoisson : public ::testing::TestWithParam<CgCase>
{
};

TEST_P(CgPoisson, ConvergesToAnalyticSolution)
{
    const auto [nDev, occ, pool] = GetParam();
    solver::CgResult result;
    const double     maxErr = solveDense(nDev, occ, pool, &result);
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.relativeResidual, 1e-10);
    // Discretization error of the 7-point stencil at this resolution.
    EXPECT_LT(maxErr, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CgPoisson,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Occ::NONE, Occ::STANDARD, Occ::EXTENDED, Occ::TWO_WAY),
                       ::testing::Values(HostPool::Sequential, HostPool::Threaded)),
    [](const auto& info) {
        return "dev" + std::to_string(std::get<0>(info.param)) + "_" +
               to_string(std::get<1>(info.param)) + "_" +
               (std::get<2>(info.param) == HostPool::Sequential ? "seq" : "thr");
    });

TEST(CgPoisson, MatchesNativeBaseline)
{
    poisson::native::NativeCg baseline(kDim);
    baseline.setupSineProblem();
    auto nativeResult = baseline.solve(300, 1e-10);
    EXPECT_TRUE(nativeResult.converged);

    std::vector<double> neonX;
    solver::CgResult    neonResult;
    solveDense(2, Occ::TWO_WAY, HostPool::Sequential, &neonResult, &neonX);

    // Same operator, same algorithm: iteration counts match and solutions
    // agree to solver tolerance.
    EXPECT_NEAR(neonResult.iterations, nativeResult.iterations, 2);
    kDim.forEach([&](const index_3d& g) {
        EXPECT_NEAR(neonX[kDim.pitch(g)], baseline.solution()[kDim.pitch(g)], 1e-8);
    });
}

TEST(CgPoisson, IterationCountIndependentOfDeviceCount)
{
    solver::CgResult r1;
    solver::CgResult r4;
    solveDense(1, Occ::NONE, HostPool::Sequential, &r1);
    solveDense(4, Occ::TWO_WAY, HostPool::Sequential, &r4);
    EXPECT_NEAR(r1.iterations, r4.iterations, 2);
}

TEST(CgPoisson, SolvesOnSparseGridFullBox)
{
    // Fully-dense EGrid must reproduce the dense answer: the solver is
    // data-structure agnostic (paper §VI-C).
    Backend      backend = Backend::cpu(2);
    egrid::EGrid grid(backend, kDim, [](const index_3d&) { return true; },
                      Stencil::laplace7());
    auto x = grid.newField<double>("x", 1, 0.0);
    auto b = grid.newField<double>("b", 1, 0.0);

    solver::CgOptions options;
    options.maxIterations = 300;
    options.tolerance = 1e-10;
    options.occ = Occ::STANDARD;
    auto result = poisson::solveSine(grid, x, b, options);
    EXPECT_TRUE(result.converged);

    x.updateHost();
    const poisson::SineProblem problem(kDim);
    double                     maxErr = 0.0;
    x.forEachActiveHost([&](const index_3d& g, int, double& v) {
        maxErr = std::max(maxErr, std::abs(v - problem.exactU(g)));
    });
    EXPECT_LT(maxErr, 5e-3);
}

TEST(CgPoisson, CheckEveryReducesSyncsWithoutChangingResult)
{
    Backend      backend = Backend::cpu(2);
    dgrid::DGrid grid(backend, kDim, Stencil::laplace7());
    auto         x = grid.newField<double>("x", 1, 0.0);
    auto         b = grid.newField<double>("b", 1, 0.0);
    solver::CgOptions options;
    options.maxIterations = 300;
    options.tolerance = 1e-10;
    options.checkEvery = 10;
    auto result = poisson::solveSine(grid, x, b, options);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.iterations % 10, 0);
}

TEST(CgPoisson, ZeroRhsConvergesImmediately)
{
    Backend      backend = Backend::cpu(1);
    dgrid::DGrid grid(backend, {6, 6, 6}, Stencil::laplace7());
    auto         x = grid.newField<double>("x", 1, 0.0);
    auto         b = grid.newField<double>("b", 1, 0.0);

    std::function<set::Container(dgrid::DField<double>, dgrid::DField<double>)> apply =
        [&grid](dgrid::DField<double> in, dgrid::DField<double> out) {
            return poisson::makeLaplacianApply(grid, in, out);
        };
    auto result =
        solver::cgSolve<dgrid::DGrid, dgrid::DField<double>, double>(grid, apply, x, b, {});
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.iterations, 0);
}

}  // namespace neon
