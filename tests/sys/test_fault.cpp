// Fault injection at the sys level: deterministic FaultInjector decisions,
// retry timeline arithmetic, stall/degradation cost-model effects, per-op
// timeouts and the fail-stop abort protocol (docs/robustness.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/error.hpp"
#include "dgrid/dfield.hpp"
#include "patterns/blas.hpp"
#include "set/backend.hpp"
#include "skeleton/skeleton.hpp"
#include "sys/device.hpp"
#include "sys/fault.hpp"
#include "enqueue_kernel.hpp"

namespace neon::set {

namespace {

Backend faultyBackend(int nDev, sys::SimConfig cfg, sys::FaultPlan plan)
{
    return Backend::make(BackendSpec::simGpu(nDev, cfg).withFaults(std::move(plan)));
}

/// Enqueue a one-chunk "halo" transfer on `stream`.
void transferOneChunk(sys::Stream& stream, size_t bytes, const void* src = nullptr,
                      void* dst = nullptr)
{
    const std::vector<sys::TransferChunk> chunks = {{bytes, 1, src, dst}};
    stream.transfer({"halo", chunks, {}});
}

/// The engine executes every op eagerly, in enqueue order, on the enqueuing
/// thread. The suite's one instantiation keeps the `Engines/.../Sequential`
/// names its results have always been listed under.
enum class Execution : std::uint8_t
{
    Sequential,
};

}  // namespace

class FaultEngineTest : public ::testing::TestWithParam<Execution>
{
};

TEST(FaultInjector, DecisionsAreDeterministicAcrossInstances)
{
    sys::FaultPlan plan(1234);
    plan.add(sys::FaultSpec::transientTransfer(2).withProbability(0.5));

    sys::FaultInjector a;
    sys::FaultInjector b;
    a.setPlan(plan);
    b.setPlan(plan);

    int faulted = 0;
    for (int i = 0; i < 200; ++i) {
        const auto da = a.decide(0, 0, sys::OpKind::Transfer, {});
        const auto db = b.decide(0, 0, sys::OpKind::Transfer, {});
        EXPECT_EQ(da.failedAttempts, db.failedAttempts) << "op " << i;
        faulted += da.failedAttempts > 0 ? 1 : 0;
    }
    // p=0.5 over 200 draws: both tails are astronomically unlikely.
    EXPECT_GT(faulted, 50);
    EXPECT_LT(faulted, 150);
}

TEST(FaultInjector, SeedChangesDecisions)
{
    sys::FaultInjector a;
    sys::FaultInjector b;
    sys::FaultPlan     pa(1);
    sys::FaultPlan     pb(2);
    pa.add(sys::FaultSpec::transientTransfer(1).withProbability(0.5));
    pb.add(sys::FaultSpec::transientTransfer(1).withProbability(0.5));
    a.setPlan(pa);
    b.setPlan(pb);
    int differs = 0;
    for (int i = 0; i < 200; ++i) {
        const auto da = a.decide(0, 0, sys::OpKind::Transfer, {});
        const auto db = b.decide(0, 0, sys::OpKind::Transfer, {});
        differs += da.failedAttempts != db.failedAttempts ? 1 : 0;
    }
    EXPECT_GT(differs, 0);
}

TEST(FaultInjector, TargetFiltersRestrictMatches)
{
    sys::FaultPlan plan(7);
    plan.add(sys::FaultSpec::streamStall(1e-3).onDevice(1).onStream(2).onOp(
        sys::OpKind::Kernel));
    sys::FaultInjector inj;
    inj.setPlan(plan);
    EXPECT_EQ(inj.decide(0, 2, sys::OpKind::Kernel, {}).stallSeconds, 0.0);
    EXPECT_EQ(inj.decide(1, 0, sys::OpKind::Kernel, {}).stallSeconds, 0.0);
    EXPECT_EQ(inj.decide(1, 2, sys::OpKind::Transfer, {}).stallSeconds, 0.0);
    EXPECT_EQ(inj.decide(1, 2, sys::OpKind::Kernel, {}).stallSeconds, 1e-3);
}

TEST_P(FaultEngineTest, TransientRetrySucceedsWithBackoffTimeline)
{
    const sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    sys::FaultPlan       plan(42);
    plan.add(sys::FaultSpec::transientTransfer(2));
    Backend b = faultyBackend(1, cfg, plan);
    b.profiler().enable();

    const size_t      bytes = 1 << 20;
    std::vector<char> src(bytes, 1);
    std::vector<char> dst(bytes, 0);
    transferOneChunk(b.stream(0), bytes, src.data(), dst.data());
    b.sync();
    const bool copied = dst == src;

    // Two failed attempts occupy the DMA engine, then back off; the third
    // attempt succeeds: 3 transfer durations + backoff(1) + backoff(2).
    const double T = sys::transferDuration(cfg, bytes);
    const double expected =
        3 * T + sys::retryBackoff(cfg, 1) + sys::retryBackoff(cfg, 2);
    EXPECT_NEAR(b.stream(0).vtime(), expected, expected * 1e-9);
    EXPECT_TRUE(copied);
    EXPECT_EQ(b.profiler().faultEvents(), 2);
}

TEST_P(FaultEngineTest, RetryExhaustionRaisesTransferFailed)
{
    const sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    sys::FaultPlan       plan(42);
    plan.add(sys::FaultSpec::transientTransfer(100));  // >> retry.maxAttempts
    Backend b = faultyBackend(1, cfg, plan);

    std::vector<char> src(1 << 20, 1);
    std::vector<char> dst(1 << 20, 0);
    try {
        transferOneChunk(b.stream(0), 1 << 20, src.data(), dst.data());
        b.sync();
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_EQ(e.info.kind, RuntimeError::Kind::TransferFailed);
        EXPECT_EQ(e.info.device, 0);
        EXPECT_EQ(e.info.stream, 0);
        EXPECT_EQ(e.info.attempts, cfg.retry.maxAttempts);
        EXPECT_EQ(e.info.opName, "halo");
    }
    const bool copied = dst == src;
    EXPECT_FALSE(copied) << "an exhausted transfer must not execute its copy";
    // The abort is sticky: further enqueues and syncs keep reporting it.
    EXPECT_THROW(enqueueKernel(b.stream(0), "k", 1, {}, [] {}), RuntimeError);
    EXPECT_THROW(b.sync(), RuntimeError);
}

TEST_P(FaultEngineTest, StreamStallAddsVirtualLatency)
{
    const sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    const double         stall = 2e-3;
    sys::FaultPlan       plan(9);
    plan.add(sys::FaultSpec::streamStall(stall).onOp(sys::OpKind::Kernel));
    Backend b = faultyBackend(1, cfg, plan);
    b.profiler().enable();

    enqueueKernel(b.stream(0), "k", 1'000'000, {100.0, 0.0}, [] {});
    b.sync();
    const double kernel =
        cfg.device.kernelLaunchOverhead + 1e6 * 100.0 / cfg.device.memBandwidth;
    EXPECT_NEAR(b.stream(0).vtime(), stall + kernel, 1e-12);
    EXPECT_EQ(b.profiler().faultEvents(), 1);
}

TEST_P(FaultEngineTest, LinkDegradationScalesTransferDuration)
{
    const sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    sys::FaultPlan       plan(9);
    plan.add(sys::FaultSpec::linkDegrade(3.0));
    Backend b = faultyBackend(1, cfg, plan);

    const size_t bytes = 1 << 20;
    transferOneChunk(b.stream(0), bytes);
    b.sync();
    EXPECT_NEAR(b.stream(0).vtime(), 3.0 * sys::transferDuration(cfg, bytes), 1e-12);
}

TEST_P(FaultEngineTest, NonMatchingPlanLeavesTimelineUntouched)
{
    const sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    sys::FaultPlan       plan(5);
    plan.add(sys::FaultSpec::transientTransfer(3).onDevice(7));  // no such device
    Backend clean = Backend::make(BackendSpec::simGpu(1, cfg));
    Backend faulty = faultyBackend(1, cfg, plan);

    for (Backend* b : {&clean, &faulty}) {
        enqueueKernel(b->stream(0), "k", 1'000'000, {100.0, 0.0}, [] {});
        transferOneChunk(b->stream(0), 1 << 20);
        b->sync();
    }
    EXPECT_DOUBLE_EQ(clean.stream(0).vtime(), faulty.stream(0).vtime());
}

TEST_P(FaultEngineTest, DeviceLossRaisesAttributedError)
{
    sys::FaultPlan plan(3);
    plan.add(sys::FaultSpec::deviceLoss(1, /*fromRun=*/-1));  // lost immediately
    Backend b = faultyBackend(2, sys::SimConfig::dgxA100Like(), plan);

    bool dev1Ran = false;
    try {
        enqueueKernel(b.stream(0), "survivor", 1, {}, [] {});
        enqueueKernel(b.stream(1), "victim", 1, {}, [&dev1Ran] { dev1Ran = true; });
        b.sync();
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_EQ(e.info.kind, RuntimeError::Kind::DeviceLost);
        EXPECT_EQ(e.info.device, 1);
        EXPECT_EQ(e.info.opName, "victim");
    }
    EXPECT_FALSE(dev1Ran) << "a lost device must not execute kernel bodies";
    EXPECT_TRUE(b.faults().deviceLost(1));
    EXPECT_FALSE(b.faults().deviceLost(0));
}

TEST_P(FaultEngineTest, OpTimeoutRaisesStructuredError)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.opTimeout = 1e-9;  // virtual seconds: any real kernel exceeds this
    Backend b = Backend::make(BackendSpec::simGpu(1, cfg));

    try {
        enqueueKernel(b.stream(0), "slow", 1'000'000, {100.0, 0.0}, [] {});
        b.sync();
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_EQ(e.info.kind, RuntimeError::Kind::OpTimeout);
        EXPECT_EQ(e.info.opName, "slow");
        EXPECT_DOUBLE_EQ(e.info.timeout, 1e-9);
    }
}

// A RuntimeError names its container and run with every observer off: the
// Skeleton passes the attribution on each op, whether or not the trace, race
// analysis or a fault plan is on.
TEST_P(FaultEngineTest, OpTimeoutInSkeletonRunIsAttributedWithObserversOff)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.opTimeout = 1e-9;  // virtual seconds: any real kernel exceeds this
    Backend b = Backend::make(BackendSpec::simGpu(2, cfg));
    ASSERT_FALSE(b.profiler().enabled());
    ASSERT_FALSE(b.analysis().enabled());
    ASSERT_FALSE(b.faults().active());

    dgrid::DGrid         grid(b, index_3d{8, 8, 8}, Stencil::laplace7());
    auto                 x = grid.newField<double>("x", 1, 1.0);
    auto                 y = grid.newField<double>("y", 1, 0.0);
    GlobalScalar<double> alpha(b, "alpha", 2.0);
    skeleton::Skeleton   skl(b);
    skl.sequence({patterns::axpy(grid, alpha, x, y)});
    try {
        skl.run();
        skl.sync();
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_EQ(e.info.kind, RuntimeError::Kind::OpTimeout);
        EXPECT_GE(e.info.containerId, 0);
        EXPECT_GE(e.info.runId, 0);
        EXPECT_EQ(e.info.containerLabel, "axpy");
    }
}

TEST(FaultSpec, OnOpRejectsRowOnlyKinds)
{
    EXPECT_THROW(sys::FaultSpec::streamStall(1e-3).onOp(sys::OpKind::Fault), NeonException);
    EXPECT_THROW(sys::FaultSpec::streamStall(1e-3).onOp(sys::OpKind::HostPool), NeonException);
    EXPECT_EQ(sys::FaultSpec::streamStall(1e-3).onOp(sys::OpKind::Wait).opKind, sys::OpKind::Wait);
}

TEST_P(FaultEngineTest, ClearAbortAllowsReuseAfterFailure)
{
    sys::FaultPlan plan(3);
    plan.add(sys::FaultSpec::deviceLoss(0, -1));
    Backend b = faultyBackend(1, sys::SimConfig::zeroCost(), plan);

    EXPECT_THROW(
        {
            enqueueKernel(b.stream(0), "k", 1, {}, [] {});
            b.sync();
        },
        RuntimeError);

    // Recovery contract: clear the latch and install a fault-free plan; the
    // engine is usable again.
    b.engine().clearAbort();
    b.faults().setPlan({});
    bool ran = false;
    enqueueKernel(b.stream(0), "k2", 1, {}, [&ran] { ran = true; });
    b.sync();
    EXPECT_TRUE(ran);
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultEngineTest, ::testing::Values(Execution::Sequential),
                         [](const auto&) { return "Sequential"; });

}  // namespace neon::set
