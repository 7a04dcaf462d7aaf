// Fault matrix at the skeleton level (docs/robustness.md): every FaultPlan
// kind crossed with both engines, on a small multi-device stencil pipeline
// whose halo exchanges give the injector real transfers to attack.
//
//   - transient transfer failures, stream stalls and link degradation must
//     be invisible to the computed data: the run converges bitwise
//     identical to the fault-free run on the same backend shape,
//   - a fixed-seed probabilistic plan fires the same faults on the
//     sequential and threaded engines and, with one stream per device,
//     produces the same trace row for row,
//   - retry exhaustion and permanent device loss surface as structured
//     RuntimeErrors with container/run attribution — never a hang — and
//     after a device loss the sequential engine's survivor state is
//     exactly the last completed run,
//   - the race detector stays clean while retries reshuffle the timeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
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

    explicit MiniApp(Backend backend, SequenceOptions opts = SequenceOptions().withName("mini"))
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
        skl.sequence(seq, opts.withOcc(Occ::STANDARD));
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

Backend makeBackend(int nDev, Backend::EngineKind kind, const sys::FaultPlan& plan = {})
{
    Backend b(nDev, sys::DeviceType::CPU, sys::SimConfig::zeroCost(), kind);
    if (!plan.empty()) {
        b.faults().setPlan(plan);
    }
    return b;
}

/// Every field of one trace row.
using TraceRow = std::tuple<int, int, std::string, std::string, double, double, uint64_t, int,
                            int, int, uint64_t, int, int>;

/// The trace as a sorted list of rows. Event ids are process-unique, so
/// awaited ids are replaced by their rank within the run.
std::vector<TraceRow> sortedRows(const std::vector<sys::TraceEntry>& entries)
{
    std::map<uint64_t, uint64_t> rank;
    for (const auto& e : entries) {
        if (e.waitEventId != 0) {
            rank[e.waitEventId] = 0;
        }
    }
    uint64_t next = 0;
    for (auto& [id, r] : rank) {
        r = ++next;
    }
    std::vector<TraceRow> rows;
    for (const auto& e : entries) {
        rows.emplace_back(e.device, e.stream, e.kind, e.name, e.startV, e.endV, e.bytes,
                          e.containerId, e.runId, e.jobId,
                          e.waitEventId != 0 ? rank.at(e.waitEventId) : 0, e.srcDevice,
                          e.srcStream);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

void expectBitwiseEqual(const std::vector<double>& got, const std::vector<double>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "diverged at flat index " << i;
    }
}

}  // namespace

class FaultMatrix : public ::testing::TestWithParam<Backend::EngineKind>
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

// Case 1: zero-cost CPU devices — the engines must make the same fault
// decisions and compute the same data. Case 2: dgxA100Like SIM_GPU devices
// with one stream each, so every compute and DMA clock has one user and the
// threaded timeline is fully determined — the whole trace must match too,
// row for row and bit for bit.
TEST(FaultMatrixCross, FixedSeedPlanFiresIdenticallyOnBothEngines)
{
    sys::FaultPlan transient(77);
    transient.add(sys::FaultSpec::transientTransfer(1).withProbability(0.5));
    sys::FaultPlan mixed = transient;
    mixed.add(sys::FaultSpec::streamStall(3e-6).onDevice(1));
    mixed.add(sys::FaultSpec::linkDegrade(2.0).onDevice(2));

    struct Case
    {
        sys::DeviceType type;
        sys::SimConfig  config;
        sys::FaultPlan  plan;
        bool            oneStreamPerDevice;
    };
    const Case cases[] = {
        {sys::DeviceType::CPU, sys::SimConfig::zeroCost(), transient, false},
        {sys::DeviceType::SIM_GPU, sys::SimConfig::dgxA100Like(), mixed, true},
    };
    const Backend::EngineKind kinds[] = {Backend::EngineKind::Sequential,
                                         Backend::EngineKind::Threaded};
    for (const Case& c : cases) {
        SCOPED_TRACE(c.oneStreamPerDevice ? "SIM_GPU, one stream per device" : "CPU");
        int                   events[2] = {0, 0};
        double                makespan[2] = {0.0, 0.0};
        std::vector<double>   data[2];
        std::vector<TraceRow> rows[2];
        for (int k = 0; k < 2; ++k) {
            Backend b(3, c.type, c.config, kinds[k]);
            b.faults().setPlan(c.plan);
            b.profiler().enable();
            auto opts = SequenceOptions().withName("mini");
            if (c.oneStreamPerDevice) {
                opts.withMaxStreams(1);
            }
            data[k] = MiniApp(b, opts).run();
            events[k] = b.profiler().faultEvents();
            makespan[k] = b.profiler().makespan();
            rows[k] = sortedRows(b.profiler().trace().entries());
        }
        EXPECT_GT(events[0], 0) << "seed 77 must fire at least once for this test to mean anything";
        EXPECT_EQ(events[0], events[1]) << "fault decisions must not depend on the engine";
        expectBitwiseEqual(data[1], data[0]);
        if (c.oneStreamPerDevice) {
            EXPECT_EQ(makespan[0], makespan[1]);
            ASSERT_EQ(rows[0].size(), rows[1].size());
            for (size_t i = 0; i < rows[0].size(); ++i) {
                ASSERT_EQ(rows[0][i], rows[1][i]) << "sorted trace rows diverge at row " << i;
            }
        }
    }
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

    if (GetParam() == Backend::EngineKind::Sequential) {
        // Graceful degradation, exactly: the sequential engine executes
        // eagerly and run 1's first victim op is the inter-run barrier
        // wait, so *nothing* of run 1 ran — after recovery the fields are
        // bitwise the single-run fault-free state and a caller can
        // re-sequence on the survivors. (The threaded engine's abort
        // window is indeterminate; it guarantees attribution, not state.)
        b.engine().clearAbort();
        b.faults().setPlan({});
        const auto got = app.snapshot();
        const auto want = MiniApp(makeBackend(3, GetParam())).run(/*runs=*/1);
        expectBitwiseEqual(got, want);
    }
}

// The threaded engine may still process run 0's ops on one stream of the
// lost device after run 1's op on another stream tripped the loss; those
// late ops must report the triggering run, whichever op latches the abort
// first. Repeated because the interleaving differs from run to run.
TEST(FaultMatrixThreaded, DeviceLossAttributionStableOverRepetitions)
{
    constexpr int kRepetitions = 200;
    sys::FaultPlan plan(3);
    plan.add(sys::FaultSpec::deviceLoss(1, /*fromRun=*/1));
    int         misattributed = 0;
    std::string first;
    for (int i = 0; i < kRepetitions; ++i) {
        Backend b = makeBackend(3, Backend::EngineKind::Threaded, plan);
        MiniApp app(b);
        app.skl.run();
        try {
            app.skl.run();
            app.skl.sync();
            ADD_FAILURE() << "repetition " << i << ": expected RuntimeError";
        } catch (const RuntimeError& e) {
            const bool ok = e.info.kind == RuntimeError::Kind::DeviceLost &&
                            e.info.device == 1 && e.info.runId == 1 &&
                            e.info.lastCompletedRun == 0;
            if (!ok && misattributed++ == 0) {
                first = "repetition " + std::to_string(i) + ": " + e.what();
            }
        }
    }
    EXPECT_EQ(misattributed, 0) << "first: " << first;
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultMatrix,
                         ::testing::Values(Backend::EngineKind::Sequential,
                                           Backend::EngineKind::Threaded),
                         [](const auto& info) {
                             return info.param == Backend::EngineKind::Sequential ? "Sequential"
                                                                                  : "Threaded";
                         });

}  // namespace neon::skeleton
