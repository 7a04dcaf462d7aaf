// Container fusion (the paper's §V-D future-work item, user-directed):
// one kernel launch, union of accesses, same results.

#include <gtest/gtest.h>

#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::set {

namespace {

constexpr index_3d kDim{4, 4, 8};

}  // namespace

TEST(Fusion, FusedMapsMatchSequentialMaps)
{
    auto grid = dgrid::DGrid(Backend::cpu(2), kDim, Stencil::laplace7());
    auto a = grid.newField<double>("a", 1, 0.0);
    auto b = grid.newField<double>("b", 1, 0.0);
    a.forEachHost([](const index_3d& g, int, double& v) { v = g.x + g.z; });
    a.updateDev();

    auto mapOne = [&](auto& l) {
        auto ap = l.load(a, Access::READ);
        auto bp = l.load(b, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable { bp(c) = 2.0 * ap(c); };
    };
    auto mapTwo = [&](auto& l) {
        auto bp = l.load(b, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable { bp(c) += 1.0; };
    };

    auto fused = Container::fusedFactory("fused", grid, mapOne, mapTwo);
    skeleton::Skeleton skl(grid.backend());
    skl.sequence({fused}, skeleton::SequenceOptions().withName("fused"));
    skl.run();
    skl.sync();
    b.updateHost();
    b.forEachHost([](const index_3d& g, int, double& v) {
        EXPECT_DOUBLE_EQ(v, 2.0 * (g.x + g.z) + 1.0);
    });
}

TEST(Fusion, ParseSeesUnionOfAccesses)
{
    auto grid = dgrid::DGrid(Backend::cpu(1), kDim, Stencil::laplace7());
    auto a = grid.newField<double>("a", 1, 0.0);
    auto b = grid.newField<double>("b", 1, 0.0);
    auto c = grid.newField<double>("c", 1, 0.0);

    auto fused = Container::fusedFactory(
        "f", grid,
        [&](auto& l) {
            auto ap = l.load(a, Access::READ);
            auto bp = l.load(b, Access::WRITE);
            return [=](const dgrid::DCell& cell) mutable { bp(cell) = ap(cell); };
        },
        [&](auto& l) {
            auto bp = l.load(b, Access::READ);
            auto cp = l.load(c, Access::WRITE);
            return [=](const dgrid::DCell& cell) mutable { cp(cell) = bp(cell); };
        });

    const auto& acc = fused.accesses();
    ASSERT_EQ(acc.size(), 4u);
    EXPECT_EQ(acc[0].uid, a.uid());
    EXPECT_EQ(acc[1].uid, b.uid());
    EXPECT_EQ(acc[2].uid, b.uid());
    EXPECT_EQ(acc[3].uid, c.uid());
    // Cost hint covers every load.
    EXPECT_DOUBLE_EQ(fused.costHint().bytesPerItem, 4 * sizeof(double));
}

TEST(Fusion, SavesOneKernelLaunchInVirtualTime)
{
    auto measure = [](bool fuse) {
        auto backend = Backend::simGpu(1);
        auto grid = dgrid::DGrid(backend, {32, 32, 32}, Stencil::laplace7());
        auto a = grid.newField<float>("a", 1, 0.0f);
        auto b = grid.newField<float>("b", 1, 0.0f);
        auto one = [&](auto& l) {
            auto ap = l.load(a, Access::READ);
            auto bp = l.load(b, Access::WRITE);
            return [=](const dgrid::DCell& c) mutable { bp(c) = ap(c); };
        };
        auto two = [&](auto& l) {
            auto bp = l.load(b, Access::WRITE);
            return [=](const dgrid::DCell& c) mutable { bp(c) *= 2.0f; };
        };
        skeleton::Skeleton skl(backend);
        if (fuse) {
            skl.sequence({Container::fusedFactory("fused", grid, one, two)},
                         skeleton::SequenceOptions().withName("f"));
        } else {
            skl.sequence({grid.newContainer("one", one), grid.newContainer("two", two)},
                         skeleton::SequenceOptions().withName("s"));
        }
        const double t0 = backend.profiler().makespan();
        skl.run();
        skl.sync();
        return backend.profiler().makespan() - t0;
    };
    const double tSeparate = measure(false);
    const double tFused = measure(true);
    EXPECT_LT(tFused, tSeparate);
    // At least one launch overhead saved.
    EXPECT_GT(tSeparate - tFused,
              0.9 * sys::SimConfig::dgxA100Like().device.kernelLaunchOverhead);
}

}  // namespace neon::set
