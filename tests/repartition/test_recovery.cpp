// Online fault-recovery differential battery (docs/robustness.md,
// "Self-healing recovery").
//
// The property under test: losing a device mid-run is invisible to the
// data. A SelfHealingRunner driving a 3-device pipeline through a
// PermanentDeviceLoss must checkpoint, shrink to the survivors,
// repartition, recompile and resume — and the final state must be
// bitwise-equal to an unfaulted single-device run of the same length.
// Exercised for every grid, on one host thread (`*Sequential`) and on a
// four-thread host pool (`*Threaded`), plus the recovery mechanics in
// isolation: survivorSpec remapping, FieldGuard restore fidelity and
// recovery composed with an explicit mid-run rebalance.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "repartition/self_healing.hpp"
#include "repartition_fixture.hpp"
#include "service/service.hpp"
#include "sys/fault.hpp"

namespace neon::repartition {

using set::Backend;
using set::BackendSpec;

namespace {

constexpr int kSteps = 6;
constexpr int kFaultAtRun = 3;
constexpr int kLostDevice = 1;

template <typename Grid>
void recoveryDifferential(int hostThreads)
{
    const std::vector<double> want = referenceRun<Grid>(kSteps);

    BackendSpec spec = BackendSpec::cpu(3).withHostThreads(hostThreads);
    spec.withFaults(sys::FaultPlan(7).add(
        sys::FaultSpec::deviceLoss(kLostDevice, kFaultAtRun)));
    Harness<Grid> h(Backend::make(spec));

    SelfHealingRunner<Grid> runner(h.grid, h.seq);
    runner.guardField(h.f);
    runner.guardField(h.g);

    const std::vector<RecoveryEvent> events = runner.run(kSteps);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].lostDevice, kLostDevice);
    EXPECT_EQ(events[0].atStep, kFaultAtRun);
    EXPECT_EQ(events[0].lastCompletedStep, kFaultAtRun - 1);
    EXPECT_EQ(events[0].devicesBefore, 3);
    EXPECT_EQ(events[0].devicesAfter, 2);
    EXPECT_EQ(runner.completedSteps(), kSteps);
    EXPECT_EQ(runner.grid().devCount(), 2);

    runner.skeleton().sync();
    expectBitwiseEqual(snapshot(h.f), want, "recovered f");
}

}  // namespace

TEST(RecoveryDifferential, DGridSequential)
{
    recoveryDifferential<dgrid::DGrid>(1);
}
TEST(RecoveryDifferential, DGridThreaded)
{
    recoveryDifferential<dgrid::DGrid>(4);
}
TEST(RecoveryDifferential, EGridSequential)
{
    recoveryDifferential<egrid::EGrid>(1);
}
TEST(RecoveryDifferential, EGridThreaded)
{
    recoveryDifferential<egrid::EGrid>(4);
}
TEST(RecoveryDifferential, BGridSequential)
{
    recoveryDifferential<bgrid::BGrid>(1);
}
TEST(RecoveryDifferential, BGridThreaded)
{
    recoveryDifferential<bgrid::BGrid>(4);
}

TEST(RecoveryDifferential, ComposesWithExplicitRebalance)
{
    // Rebalance at step 2, lose device 1 at step 4: the runner must recover
    // from the *rebalanced* decomposition and still match the reference.
    const std::vector<double> want = referenceRun<dgrid::DGrid>(kSteps);

    BackendSpec spec = BackendSpec::cpu(3);
    spec.withFaults(sys::FaultPlan(11).add(sys::FaultSpec::deviceLoss(1, 4)));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    SelfHealingRunner<dgrid::DGrid> runner(h.grid, h.seq);
    runner.guardField(h.f);
    runner.guardField(h.g);

    ASSERT_TRUE(runner.run(2).empty());
    runner.repartition(skewedPlan(runner.grid()));

    const auto events = runner.run(kSteps);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].atStep, 4);
    EXPECT_EQ(events[0].devicesAfter, 2);

    runner.skeleton().sync();
    expectBitwiseEqual(snapshot(h.f), want, "rebalanced+recovered f");
}

TEST(RecoveryDifferential, SecondLossShrinksToOneDevice)
{
    // Two sequential losses: 3 -> 2 -> 1 devices. Both recoveries restore
    // a consistent snapshot; the run still matches the reference.
    const std::vector<double> want = referenceRun<dgrid::DGrid>(kSteps);

    BackendSpec spec = BackendSpec::cpu(3);
    // Old numbering: device 2 dies at run 2; after the shrink it is gone,
    // and survivor device 1 (old device 1) dies at survivor-run 2 — i.e.
    // original step 4 under the runner's one-run-per-step cadence.
    spec.withFaults(sys::FaultPlan(13)
                        .add(sys::FaultSpec::deviceLoss(2, 2))
                        .add(sys::FaultSpec::deviceLoss(1, 4)));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    SelfHealingRunner<dgrid::DGrid> runner(h.grid, h.seq);
    runner.guardField(h.f);
    runner.guardField(h.g);

    const auto events = runner.run(kSteps);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].atStep, 2);
    EXPECT_EQ(events[0].lostDevice, 2);
    EXPECT_EQ(events[0].devicesAfter, 2);
    EXPECT_EQ(events[1].lostDevice, 1);
    EXPECT_EQ(events[1].devicesAfter, 1);

    runner.skeleton().sync();
    expectBitwiseEqual(snapshot(h.f), want, "twice-recovered f");
}

TEST(RecoveryDifferential, NonDeviceLostFaultsPropagate)
{
    // Transfer-failure faults are not recoverable by shrinking: the runner
    // must rethrow, not loop.
    BackendSpec spec = BackendSpec::cpu(2);
    sys::FaultSpec transient = sys::FaultSpec::transientTransfer(1000);
    spec.withFaults(sys::FaultPlan(3).add(transient));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    SelfHealingRunner<dgrid::DGrid> runner(h.grid, h.seq);
    runner.guardField(h.f);
    EXPECT_THROW(runner.run(1), RuntimeError);
}

// --- survivorSpec remapping -------------------------------------------------

TEST(SurvivorSpec, DropsTheLostDeviceAndItsSpeedFactor)
{
    BackendSpec spec = BackendSpec::cpu(3);
    spec.speedFactors = {1.0, 0.5, 0.25};
    const BackendSpec out = survivorSpec(spec, 1, 0);
    EXPECT_EQ(out.nDevices, 2);
    ASSERT_EQ(out.speedFactors.size(), 2u);
    EXPECT_DOUBLE_EQ(out.speedFactors[0], 1.0);
    EXPECT_DOUBLE_EQ(out.speedFactors[1], 0.25);
}

TEST(SurvivorSpec, RemapsFaultRuleDevicesAndRebasesRuns)
{
    BackendSpec spec = BackendSpec::cpu(4);
    spec.withFaults(sys::FaultPlan(17)
                        .add(sys::FaultSpec::deviceLoss(1, 3))    // the one that fired
                        .add(sys::FaultSpec::deviceLoss(3, 7))    // future loss, shifts
                        .add(sys::FaultSpec::deviceLoss(2, 1))    // already past, drops
                        .add(sys::FaultSpec::transientTransfer(2)));

    const BackendSpec out = survivorSpec(spec, /*lostDevice=*/1, /*faultedStep=*/3);
    EXPECT_EQ(out.nDevices, 3);
    ASSERT_EQ(out.faults.specs.size(), 2u);

    // deviceLoss(3, 7): device 3 -> 2, run 7 -> 4 in the survivor run space.
    const sys::FaultSpec& loss = out.faults.specs[0];
    EXPECT_EQ(loss.kind, sys::FaultKind::PermanentDeviceLoss);
    EXPECT_EQ(loss.device, 2);
    EXPECT_EQ(loss.run, 4);

    // The any-device transient rule survives untouched.
    EXPECT_EQ(out.faults.specs[1].kind, sys::FaultKind::TransientTransferFailure);
    EXPECT_EQ(out.faults.specs[1].device, -1);
}

TEST(SurvivorSpec, RefusesToShrinkBelowOneDevice)
{
    EXPECT_THROW(survivorSpec(BackendSpec::cpu(1), 0, 0), NeonException);
}

// --- service: jobs survive a device loss mid-trace --------------------------

TEST(ServiceRecovery, OtherJobsSurviveADeviceLoss)
{
    // Device 1 dies while job A runs. With a recovery handler installed the
    // service fails only job A; jobs B and C re-dispatch onto the survivor
    // backend and complete.
    BackendSpec spec = BackendSpec::cpu(3);
    spec.withFaults(sys::FaultPlan(5).add(sys::FaultSpec::deviceLoss(1, 1)));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    service::Service svc(h.grid.backend(),
                         service::ServiceConfig().withMaxInFlight(3).withBatching(false));
    svc.setRecoveryHandler(
        [&h](Backend dying, const RuntimeError::Info& info) {
            Backend survivor = Backend::make(survivorSpec(dying.spec(), info.device, 0));
            h.grid.rebindBackend(survivor);
            for (auto& c : h.seq) {
                c.rebuild();
            }
            return survivor;
        });

    // b dispatches as run 0 (clean) and is still in flight when a's run 1
    // triggers the loss — exercising the re-queue path; c lands after the
    // recovery, exercising a fresh dispatch onto the survivor backend.
    service::Job b = svc.submit(service::JobRequest{.name = "b", .ops = h.seq});
    service::Job a = svc.submit(service::JobRequest{.name = "a", .ops = h.seq});
    service::Job c = svc.submit(service::JobRequest{.name = "c", .ops = h.seq});
    svc.drain();

    EXPECT_EQ(a.state(), service::JobState::Failed);
    EXPECT_THROW(a.rethrowIfFailed(), RuntimeError);
    EXPECT_EQ(b.state(), service::JobState::Completed);
    EXPECT_EQ(c.state(), service::JobState::Completed);
    EXPECT_EQ(svc.failedCount(), 1);
    EXPECT_EQ(svc.completedCount(), 2);
    EXPECT_EQ(svc.backend().devCount(), 2);
}

TEST(ServiceRecovery, WithoutHandlerTheBlastRadiusStands)
{
    // The pre-existing fail-stop contract is the default: no handler, and
    // a device loss fails the attributed job (and, had others been queued
    // behind it on the dead backend, them too).
    BackendSpec spec = BackendSpec::cpu(3);
    spec.withFaults(sys::FaultPlan(5).add(sys::FaultSpec::deviceLoss(1, 0)));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    service::Service svc(h.grid.backend(),
                         service::ServiceConfig().withMaxInFlight(2).withBatching(false));
    service::Job a = svc.submit(service::JobRequest{.name = "a", .ops = h.seq});
    service::Job b = svc.submit(service::JobRequest{.name = "b", .ops = h.seq});
    svc.drain();

    EXPECT_EQ(a.state(), service::JobState::Failed);
    EXPECT_EQ(b.state(), service::JobState::Failed);
    EXPECT_EQ(svc.failedCount(), 2);
}

TEST(ServiceRecovery, AnEmptySurvivorDeclinesTheRecovery)
{
    // A handler that hands back an empty Backend has no machine to recover
    // onto: the service keeps its backend and the blast radius stands.
    BackendSpec spec = BackendSpec::cpu(3);
    spec.withFaults(sys::FaultPlan(5).add(sys::FaultSpec::deviceLoss(1, 0)));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    service::Service svc(h.grid.backend(),
                         service::ServiceConfig().withMaxInFlight(2).withBatching(false));
    svc.setRecoveryHandler([](Backend, const RuntimeError::Info&) { return Backend{}; });
    service::Job a = svc.submit(service::JobRequest{.name = "a", .ops = h.seq});
    service::Job b = svc.submit(service::JobRequest{.name = "b", .ops = h.seq});
    svc.drain();

    EXPECT_EQ(a.state(), service::JobState::Failed);
    EXPECT_EQ(b.state(), service::JobState::Failed);
    EXPECT_EQ(svc.backend().devCount(), 3);
}

// --- FieldGuard restore fidelity --------------------------------------------

TEST(FieldGuard, RestoreUndoesSubsequentWrites)
{
    Harness<dgrid::DGrid>     h(Backend::cpu(2));
    const std::vector<double> before = snapshot(h.f);

    FieldGuard guard(h.f);
    guard.checkpoint();

    h.f.forEachActiveHost([](const index_3d&, int, double& v) { v = -7.5; });
    h.f.updateDev();
    guard.restore();
    expectBitwiseEqual(snapshot(h.f), before, "restored f");
}

TEST(FieldGuard, RestoreCrossesARepartition)
{
    // Snapshot on the even decomposition, restore after a skewed re-slice:
    // the dense global snapshot is decomposition-independent.
    Harness<dgrid::DGrid>     h(Backend::cpu(3));
    const std::vector<double> before = snapshot(h.f);

    FieldGuard guard(h.f);
    guard.checkpoint();

    h.f.forEachActiveHost([](const index_3d&, int, double& v) { v = 0.0; });
    h.f.updateDev();
    h.grid.repartition(skewedPlan(h.grid));
    guard.restore();
    expectBitwiseEqual(snapshot(h.f), before, "restored-across-repartition f");
}

}  // namespace neon::repartition
