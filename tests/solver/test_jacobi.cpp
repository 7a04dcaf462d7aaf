// Damped Jacobi solver and the Max/Min reduction machinery it exercises.

#include <gtest/gtest.h>

#include "dgrid/dfield.hpp"
#include "patterns/blas.hpp"
#include "poisson/poisson.hpp"
#include "solver/jacobi.hpp"

namespace neon::solver {

using set::Backend;
using set::GlobalScalar;
using set::ReduceOp;

namespace {
constexpr index_3d kDim{10, 10, 10};
}

TEST(MaxReduce, NormInfAcrossDevices)
{
    dgrid::DGrid grid(Backend::cpu(3), kDim, Stencil::laplace7());
    auto         f = grid.newField<double>("f", 2, 0.0);
    f.forEachHost([](const index_3d& g, int c, double& v) {
        v = (g == index_3d{7, 3, 9} && c == 1) ? -42.5 : 0.25 * g.x - 0.125 * g.z;
    });
    f.updateDev();

    GlobalScalar<double> inf(grid.backend(), "inf", 0.0, ReduceOp::Max);
    skeleton::Skeleton   skl(grid.backend());
    skl.sequence({patterns::normInf(grid, f, inf)}, skeleton::SequenceOptions().withName("inf"));
    skl.run();
    skl.sync();
    EXPECT_DOUBLE_EQ(inf.hostValue(), 42.5);

    // Second run must not be contaminated by stale partials.
    skl.run();
    skl.sync();
    EXPECT_DOUBLE_EQ(inf.hostValue(), 42.5);
}

TEST(MaxReduce, IdentityAndFold)
{
    Backend              b = Backend::cpu(1);
    GlobalScalar<double> mx(b, "mx", 0.0, ReduceOp::Max);
    GlobalScalar<double> mn(b, "mn", 0.0, ReduceOp::Min);
    GlobalScalar<double> sm(b, "sm", 0.0, ReduceOp::Sum);
    EXPECT_LT(mx.identity(), -1e300);
    EXPECT_GT(mn.identity(), 1e300);
    EXPECT_EQ(sm.identity(), 0.0);

    double acc = mx.identity();
    mx.fold(acc, 3.0);
    mx.fold(acc, -7.0);
    EXPECT_DOUBLE_EQ(acc, 3.0);
    acc = mn.identity();
    mn.fold(acc, 3.0);
    mn.fold(acc, -7.0);
    EXPECT_DOUBLE_EQ(acc, -7.0);
}

TEST(Jacobi, ConvergesOnPoisson)
{
    dgrid::DGrid grid(Backend::cpu(2), kDim, Stencil::laplace7());
    auto         x = grid.newField<double>("x", 1, 0.0);
    auto         b = grid.newField<double>("b", 1, 0.0);
    const poisson::SineProblem problem(kDim);
    b.forEachHost([&](const index_3d& g, int, double& v) { v = problem.rhs(g); });
    b.updateDev();

    std::function<set::Container(dgrid::DField<double>, dgrid::DField<double>)> apply =
        [&grid](dgrid::DField<double> in, dgrid::DField<double> out) {
            return poisson::makeLaplacianApply(grid, in, out);
        };

    JacobiOptions options;
    options.maxIterations = 2000;
    options.tolerance = 1e-7;
    auto result = jacobiSolve<dgrid::DGrid, dgrid::DField<double>, double>(grid, apply, x, b,
                                                                           options);
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.relativeResidual, 1e-7);

    x.updateHost();
    double maxErr = 0.0;
    kDim.forEach([&](const index_3d& g) {
        maxErr = std::max(maxErr, std::abs(x.hVal(g) - problem.exactU(g)));
    });
    EXPECT_LT(maxErr, 2e-2);  // first-order smoother at loose tolerance
}

TEST(Jacobi, OccAndDeviceCountDoNotChangeIterations)
{
    auto run = [](int nDev, Occ occ) {
        dgrid::DGrid grid(Backend::cpu(nDev), kDim, Stencil::laplace7());
        auto         x = grid.newField<double>("x", 1, 0.0);
        auto         b = grid.newField<double>("b", 1, 0.0);
        const poisson::SineProblem problem(kDim);
        b.forEachHost([&](const index_3d& g, int, double& v) { v = problem.rhs(g); });
        b.updateDev();
        std::function<set::Container(dgrid::DField<double>, dgrid::DField<double>)> apply =
            [&grid](dgrid::DField<double> in, dgrid::DField<double> out) {
                return poisson::makeLaplacianApply(grid, in, out);
            };
        JacobiOptions options;
        options.maxIterations = 600;
        options.tolerance = 1e-6;
        return jacobiSolve<dgrid::DGrid, dgrid::DField<double>, double>(grid, apply, x, b,
                                                                        options);
    };
    const auto a = run(1, Occ::NONE);
    const auto b = run(4, Occ::TWO_WAY);
    EXPECT_TRUE(a.converged);
    EXPECT_TRUE(b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
}

}  // namespace neon::solver
