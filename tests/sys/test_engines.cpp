// Engine semantics: stream FIFO order, event cross-stream ordering,
// virtual-clock arithmetic.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "set/backend.hpp"
#include "sys/device.hpp"
#include "enqueue_kernel.hpp"

namespace neon::set {

namespace {

/// The engine executes every op eagerly, in enqueue order, on the enqueuing
/// thread. The suite's one instantiation keeps the `Engines/.../Sequential`
/// names its results have always been listed under.
enum class Execution : std::uint8_t
{
    Sequential,
};

}  // namespace

class EngineTest : public ::testing::TestWithParam<Execution>
{
   protected:
    [[nodiscard]] static Backend makeBackend(int nDev, sys::SimConfig cfg)
    {
        return Backend::simGpu(nDev, cfg);
    }
};

TEST_P(EngineTest, StreamIsFifo)
{
    Backend          b = makeBackend(1, sys::SimConfig::zeroCost());
    std::vector<int> order;
    auto&            s = b.stream(0);
    for (int i = 0; i < 10; ++i) {
        enqueueKernel(s, "k", 1, {}, [&order, i] { order.push_back(i); });
    }
    s.sync();
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
    }
}

TEST_P(EngineTest, EventOrdersAcrossStreams)
{
    Backend          b = makeBackend(1, sys::SimConfig::zeroCost());
    sys::Event       ev;
    int              stage = 0;

    auto& s0 = b.stream(0, 0);
    auto& s1 = b.stream(0, 1);
    enqueueKernel(s0, "producer", 1, {}, [&stage] { stage = 1; });
    s0.record(ev);
    s1.wait(ev);
    int observed = -1;
    enqueueKernel(s1, "consumer", 1, {}, [&stage, &observed] { observed = stage; });
    b.sync();
    EXPECT_EQ(observed, 1);
}

TEST_P(EngineTest, KernelAdvancesVirtualClock)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    Backend        b = makeBackend(1, cfg);
    auto&          s = b.stream(0);
    enqueueKernel(s, "k", 1'000'000, {100.0, 0.0}, [] {});
    s.sync();
    const double expected =
        cfg.device.kernelLaunchOverhead + 1e6 * 100.0 / cfg.device.memBandwidth;
    EXPECT_NEAR(s.vtime(), expected, 1e-12);
}

TEST_P(EngineTest, KernelsOnSameDeviceSerialize)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    Backend        b = makeBackend(1, cfg);
    auto&          s0 = b.stream(0, 0);
    auto&          s1 = b.stream(0, 1);
    enqueueKernel(s0, "a", 1'000'000, {100.0, 0.0}, [] {});
    enqueueKernel(s1, "b", 1'000'000, {100.0, 0.0}, [] {});
    b.sync();
    const double one =
        cfg.device.kernelLaunchOverhead + 1e6 * 100.0 / cfg.device.memBandwidth;
    // Same device compute engine: second kernel starts after the first.
    EXPECT_NEAR(s1.vtime(), 2 * one, 1e-9);
}

TEST_P(EngineTest, KernelsOnDifferentDevicesRunConcurrently)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    Backend        b = makeBackend(2, cfg);
    enqueueKernel(b.stream(0), "a", 1'000'000, {100.0, 0.0}, [] {});
    enqueueKernel(b.stream(1), "b", 1'000'000, {100.0, 0.0}, [] {});
    b.sync();
    const double one =
        cfg.device.kernelLaunchOverhead + 1e6 * 100.0 / cfg.device.memBandwidth;
    EXPECT_NEAR(b.profiler().makespan(), one, 1e-9);
}

TEST_P(EngineTest, TransferOverlapsComputeOnDifferentStreams)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    Backend        b = makeBackend(2, cfg);
    // Kernel on stream 0 and a transfer on stream 1 should overlap: the
    // makespan is the max of the two, not the sum. This is the mechanism
    // behind every OCC optimization in the paper.
    const size_t bytes = 100'000'000;
    const double tKernel =
        cfg.device.kernelLaunchOverhead + 1e6 * 1000.0 / cfg.device.memBandwidth;
    const double tXfer = sys::transferDuration(cfg, bytes);

    enqueueKernel(b.stream(0, 0), "compute", 1'000'000, {1000.0, 0.0}, [] {});
    const std::vector<sys::TransferChunk> chunks = {{bytes, 1}};
    b.stream(0, 1).transfer({"halo", chunks, {}});
    b.sync();
    EXPECT_NEAR(b.profiler().makespan(), std::max(tKernel, tXfer), std::max(tKernel, tXfer) * 0.01);
}

TEST_P(EngineTest, SoAHaloPaysPerComponentLatency)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    Backend        b = makeBackend(1, cfg);
    const size_t   bytes = 1024;
    // 8 chunks in one direction serialize on the DMA engine.
    std::vector<sys::TransferChunk> chunks;
    for (int c = 0; c < 8; ++c) {
        chunks.push_back({bytes, 1});
    }
    b.stream(0).transfer({{}, chunks, {}});
    b.sync();
    EXPECT_NEAR(b.profiler().makespan(), 8 * sys::transferDuration(cfg, bytes), 1e-12);
}

TEST_P(EngineTest, TwoDirectionsUseParallelDmaEngines)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    Backend        b = makeBackend(1, cfg);
    const std::vector<sys::TransferChunk> chunks = {{1 << 20, 0}, {1 << 20, 1}};
    b.stream(0).transfer({{}, chunks, {}});
    b.sync();
    EXPECT_NEAR(b.profiler().makespan(), sys::transferDuration(cfg, 1 << 20), 1e-12);
}

TEST_P(EngineTest, HostFnRunsAndAdvancesClock)
{
    Backend b = makeBackend(1, sys::SimConfig::dgxA100Like());
    bool    ran = false;
    b.stream(0).hostFn("combine", 1e-5, [&ran] { ran = true; });
    b.sync();
    EXPECT_TRUE(ran);
    EXPECT_NEAR(b.stream(0).vtime(), 1e-5, 1e-12);
}

TEST_P(EngineTest, ResetClocksZeroesVtime)
{
    Backend b = makeBackend(2, sys::SimConfig::dgxA100Like());
    enqueueKernel(b.stream(0), "k", 1000, {100.0, 0.0}, [] {});
    enqueueKernel(b.stream(1), "k", 1000, {100.0, 0.0}, [] {});
    b.sync();
    EXPECT_GT(b.profiler().makespan(), 0.0);
    b.resetClocks();
    EXPECT_EQ(b.profiler().makespan(), 0.0);
}

TEST_P(EngineTest, DryRunSkipsExecutionButKeepsTiming)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    Backend b = makeBackend(1, cfg);
    bool    ran = false;
    enqueueKernel(b.stream(0), "k", 1'000'000, {100.0, 0.0}, [&ran] { ran = true; });
    b.sync();
    EXPECT_FALSE(ran);
    EXPECT_GT(b.profiler().makespan(), 0.0);
}

TEST_P(EngineTest, TraceRecordsEntries)
{
    Backend b = makeBackend(1, sys::SimConfig::dgxA100Like());
    b.profiler().trace().enable(true);
    enqueueKernel(b.stream(0), "myKernel", 1000, {8.0, 0.0}, [] {});
    b.sync();
    auto entries = b.profiler().trace().entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].name, "myKernel");
    EXPECT_EQ(entries[0].kind, "kernel");
    EXPECT_LT(entries[0].startV, entries[0].endV);
    b.profiler().trace().enable(false);
}

TEST(Engine, WaitOnUnrecordedEventThrows)
{
    Backend b = Backend::cpu(1);
    sys::Event ev;
    EXPECT_THROW(b.stream(0).wait(ev), InternalError);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest, ::testing::Values(Execution::Sequential),
                         [](const auto&) { return "Sequential"; });

}  // namespace neon::set
