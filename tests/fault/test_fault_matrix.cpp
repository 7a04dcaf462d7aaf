// Fault matrix at the skeleton level (docs/robustness.md): every FaultPlan
// kind crossed with one- and four-thread host pools, on a small
// multi-device stencil pipeline whose halo exchanges give the injector real
// transfers to attack.
//
//   - transient transfer failures, stream stalls and link degradation must
//     be invisible to the computed data: the run converges bitwise
//     identical to the fault-free run on the same backend shape,
//   - retry exhaustion and permanent device loss surface as structured
//     RuntimeErrors with container/run attribution — never a hang — and
//     after a device loss the survivor state is exactly the last completed
//     run,
//   - the race detector stays clean while retries reshuffle the timeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "dgrid/dfield.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {

using set::Backend;
using set::Container;

namespace {

constexpr index_3d kDim{5, 4, 12};
constexpr int      kRuns = 2;

/// stencil f0 -> f1, map f1 -> f0: every run re-exchanges f0's halo, so a
/// transfer-targeting FaultPlan always has work to attack.
struct MiniApp
{
    dgrid::DGrid                       grid;
    std::vector<dgrid::DField<double>> fields;
    Skeleton                           skl;

    explicit MiniApp(Backend backend)
        : grid(std::move(backend), kDim, Stencil::laplace7()), skl(grid.backend())
    {
        for (int i = 0; i < 2; ++i) {
            auto f = grid.newField<double>("f" + std::to_string(i), 1, 0.0);
            f.forEachHost([i](const index_3d& g, int, double& v) {
                v = 0.01 * (g.x + 2 * g.y + 3 * g.z) + 0.1 * i + 0.05;
            });
            f.updateDev();
            fields.push_back(std::move(f));
        }
        auto src = fields[0];
        auto dst = fields[1];
        std::vector<Container> seq;
        seq.push_back(grid.newContainer("diffuse", [src, dst](auto& l) mutable {
            auto sp = l.load(src, Access::READ, Compute::STENCIL);
            auto dp = l.load(dst, Access::WRITE);
            return [=](const dgrid::DCell& c) mutable {
                double acc = -6.0 * sp(c);
                for (const auto& off : Stencil::laplace7().points()) {
                    acc += sp.nghVal(c, off);
                }
                dp(c) = sp(c) + 0.05 * acc;
            };
        }));
        seq.push_back(grid.newContainer("relax", [src, dst](auto& l) mutable {
            auto sp = l.load(dst, Access::READ);
            auto dp = l.load(src, Access::WRITE);
            return [=](const dgrid::DCell& c) mutable {
                dp(c) = 0.7 * dp(c) + 0.3 * sp(c);
            };
        }));
        skl.sequence(seq, SequenceOptions().withName("mini").withOcc(Occ::STANDARD));
    }

    std::vector<double> run(int runs = kRuns)
    {
        for (int r = 0; r < runs; ++r) {
            skl.run();
        }
        skl.sync();
        return snapshot();
    }

    std::vector<double> snapshot()
    {
        std::vector<double> data;
        for (auto& f : fields) {
            f.updateHost();
            kDim.forEach([&](const index_3d& g) { data.push_back(f.hVal(g)); });
        }
        return data;
    }
};

/// How the CPU devices run their kernels: on one host thread, or with the
/// chunks fanned out over a four-worker host pool.
enum class HostPool : std::uint8_t
{
    Sequential,
    Threaded,
};

Backend makeBackend(int nDev, HostPool pool, const sys::FaultPlan& plan = {})
{
    const int threads = pool == HostPool::Sequential ? 1 : 4;
    return Backend::make(set::BackendSpec::cpu(nDev).withHostThreads(threads).withFaults(plan));
}

void expectBitwiseEqual(const std::vector<double>& got, const std::vector<double>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "diverged at flat index " << i;
    }
}

}  // namespace

class FaultMatrix : public ::testing::TestWithParam<HostPool>
{
};

TEST_P(FaultMatrix, TransientRetriesConvergeBitwiseIdentical)
{
    const auto clean = MiniApp(makeBackend(3, GetParam())).run();

    sys::FaultPlan plan(21);
    plan.add(sys::FaultSpec::transientTransfer(2));  // every transfer: fail, fail, succeed
    Backend b = makeBackend(3, GetParam(), plan);
    b.profiler().enable();
    auto analyzer = b.analysis();
    analyzer.enable();

    MiniApp    app(b);
    const auto faulted = app.run();
    expectBitwiseEqual(faulted, clean);
    EXPECT_GT(b.profiler().faultEvents(), 0) << "the plan must actually have fired";
    const auto races = analyzer.raceReport();
    EXPECT_TRUE(races.clean()) << races.toString();
}

TEST_P(FaultMatrix, StreamStallsPreserveResults)
{
    const auto clean = MiniApp(makeBackend(2, GetParam())).run();

    sys::FaultPlan plan(5);
    plan.add(sys::FaultSpec::streamStall(1e-3));
    Backend b = makeBackend(2, GetParam(), plan);
    b.profiler().enable();
    const auto stalled = MiniApp(b).run();
    expectBitwiseEqual(stalled, clean);
    EXPECT_GT(b.profiler().faultEvents(), 0);
}

TEST_P(FaultMatrix, LinkDegradationPreservesResults)
{
    const auto clean = MiniApp(makeBackend(2, GetParam())).run();

    sys::FaultPlan plan(5);
    plan.add(sys::FaultSpec::linkDegrade(4.0));
    const auto degraded = MiniApp(makeBackend(2, GetParam(), plan)).run();
    expectBitwiseEqual(degraded, clean);
}

TEST_P(FaultMatrix, RetryExhaustionSurfacesAttributedTransferFailed)
{
    sys::FaultPlan plan(9);
    plan.add(sys::FaultSpec::transientTransfer(100));  // >> retry.maxAttempts
    MiniApp app(makeBackend(2, GetParam(), plan));

    try {
        app.skl.run();
        app.skl.sync();
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_EQ(e.info.kind, RuntimeError::Kind::TransferFailed);
        EXPECT_EQ(e.info.attempts, sys::SimConfig::zeroCost().retry.maxAttempts);
        EXPECT_GE(e.info.device, 0);
        EXPECT_EQ(e.info.runId, 0);
        EXPECT_GE(e.info.containerId, 0);
        EXPECT_FALSE(e.info.containerLabel.empty())
            << "skeleton must enrich the error with the graph node's label";
    }
    // Fail-stop: the skeleton stays unusable until the abort is cleared.
    EXPECT_THROW(app.skl.run(), RuntimeError);
}

TEST_P(FaultMatrix, DeviceLossOnFirstRunAttributesContainer)
{
    sys::FaultPlan plan(3);
    plan.add(sys::FaultSpec::deviceLoss(1, /*fromRun=*/0));
    MiniApp app(makeBackend(3, GetParam(), plan));

    try {
        app.skl.run();
        app.skl.sync();
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_EQ(e.info.kind, RuntimeError::Kind::DeviceLost);
        EXPECT_EQ(e.info.device, 1);
        EXPECT_EQ(e.info.runId, 0);
        EXPECT_EQ(e.info.lastCompletedRun, -1) << "no run completed before the loss";
        EXPECT_GE(e.info.containerId, 0);
        EXPECT_FALSE(e.info.containerLabel.empty());
    }
    EXPECT_THROW(app.skl.run(), RuntimeError);
}

TEST_P(FaultMatrix, DeviceLossAfterCleanRunReportsLastCompletedRun)
{
    sys::FaultPlan plan(3);
    plan.add(sys::FaultSpec::deviceLoss(1, /*fromRun=*/1));
    Backend b = makeBackend(3, GetParam(), plan);
    MiniApp app(b);

    app.skl.run();  // run 0 is clean
    try {
        app.skl.run();  // run 1 hits the loss
        app.skl.sync();
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_EQ(e.info.kind, RuntimeError::Kind::DeviceLost);
        EXPECT_EQ(e.info.device, 1);
        EXPECT_EQ(e.info.runId, 1);
        EXPECT_EQ(e.info.lastCompletedRun, 0);
    }
    EXPECT_TRUE(b.faults().deviceLost(1));
    EXPECT_FALSE(b.faults().deviceLost(0));

    // Graceful degradation, exactly: the engine executes eagerly and run
    // 1's first victim op is the inter-run barrier wait, so *nothing* of
    // run 1 ran — after recovery the fields are bitwise the single-run
    // fault-free state and a caller can re-sequence on the survivors.
    b.engine().clearAbort();
    b.faults().setPlan({});
    const auto got = app.snapshot();
    const auto want = MiniApp(makeBackend(3, GetParam())).run(/*runs=*/1);
    expectBitwiseEqual(got, want);
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultMatrix,
                         ::testing::Values(HostPool::Sequential, HostPool::Threaded),
                         [](const auto& info) {
                             return info.param == HostPool::Sequential ? "Sequential" : "Threaded";
                         });

}  // namespace neon::skeleton
