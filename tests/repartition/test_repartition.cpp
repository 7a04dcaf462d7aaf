// Adaptive-repartitioning differential battery (docs/robustness.md).
//
// The core property: repartitioning mid-run is invisible to the data. For
// every grid (DGrid / EGrid / BGrid), on one host thread (`*Sequential`)
// and on a four-thread host pool (`*Threaded`), a pipeline that runs k
// steps, migrates to a skewed decomposition and runs to completion must
// produce final state bitwise-equal to an unrepartitioned single-device
// reference. Around that core: migration preserves field values with no
// compute at all, uneven slabs feed exactly the right halo halves (the
// haloLoFed/haloHiFed access model), the BGrid sparse/dense lint cases stay
// clean after a re-slice, a stale schedule recipe is never replayed onto
// resized spans, and the Repartitioner's measured-rate apportionment is
// validated on synthetic traces.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/access_model.hpp"
#include "analysis/node_meta.hpp"
#include "repartition/repartitioner.hpp"
#include "repartition_fixture.hpp"
#include "skeleton/schedule_cache.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::repartition {

using set::Backend;
using set::BackendSpec;
using set::Container;

namespace {

int findNode(const skeleton::Graph&                                 g,
             const std::function<bool(const skeleton::GraphNode&)>& pred)
{
    for (int id = 0; id < g.nodeCount(); ++id) {
        if (g.node(id).alive && pred(g.node(id))) {
            return id;
        }
    }
    return -1;
}

int findStencilNode(const skeleton::Graph& g)
{
    return findNode(g, [](const skeleton::GraphNode& n) {
        return n.kind() == Container::Kind::Compute && n.pattern() == Compute::STENCIL;
    });
}

// --- the differential core -------------------------------------------------

constexpr int kTotalSteps = 6;
constexpr int kRepartitionAt = 2;

template <typename Grid>
void repartitionDifferential(int hostThreads)
{
    const std::vector<double> want = referenceRun<Grid>(kTotalSteps);

    Harness<Grid> h(Backend::make(BackendSpec::cpu(3).withHostThreads(hostThreads)));
    auto          analyzer = h.grid.backend().analysis();
    analyzer.enable();
    skeleton::Skeleton skl(h.grid.backend());
    auto               compiled = skl.sequence(h.seq, skeleton::SequenceOptions()
                                                          .withName("repart")
                                                          .withOcc(Occ::STANDARD));
    for (int i = 0; i < kRepartitionAt; ++i) {
        compiled.run();
    }
    skl.sync();

    const domain::PartitionPlan plan = skewedPlan(h.grid);
    h.grid.repartition(plan);
    ASSERT_EQ(h.grid.currentPlan().unitsPerDev, plan.unitsPerDev);
    for (auto& op : h.seq) {
        op.rebuild();
    }
    auto resequenced = skl.sequence(h.seq, skeleton::SequenceOptions()
                                               .withName("repart")
                                               .withOcc(Occ::STANDARD));
    const auto lint = skl.validate();
    EXPECT_TRUE(lint.clean()) << lint.toString();
    for (int i = kRepartitionAt; i < kTotalSteps; ++i) {
        resequenced.run();
    }
    skl.sync();

    const auto races = analyzer.raceReport();
    EXPECT_TRUE(races.clean()) << races.toString();
    expectBitwiseEqual(snapshot(h.f), want, "repartitioned f");
}

template <typename Grid>
void migrationPreservesData()
{
    Harness<Grid>               h(Backend::cpu(3));
    const std::vector<double>   before = snapshot(h.f);
    const domain::PartitionPlan original = h.grid.currentPlan();
    const domain::PartitionPlan skewed = skewedPlan(h.grid);
    ASSERT_NE(skewed.unitsPerDev, original.unitsPerDev);
    h.grid.repartition(skewed);
    expectBitwiseEqual(snapshot(h.f), before, "migrated f");

    // And back: the inverse migration restores the original decomposition.
    h.grid.repartition(original);
    EXPECT_EQ(h.grid.currentPlan().unitsPerDev, original.unitsPerDev);
    expectBitwiseEqual(snapshot(h.f), before, "round-trip f");
}

}  // namespace

// --- grid battery ----------------------------------------------------------

TEST(RepartitionDifferential, DGridSequential)
{
    repartitionDifferential<dgrid::DGrid>(1);
}
TEST(RepartitionDifferential, DGridThreaded)
{
    repartitionDifferential<dgrid::DGrid>(4);
}
TEST(RepartitionDifferential, EGridSequential)
{
    repartitionDifferential<egrid::EGrid>(1);
}
TEST(RepartitionDifferential, EGridThreaded)
{
    repartitionDifferential<egrid::EGrid>(4);
}
TEST(RepartitionDifferential, BGridSequential)
{
    repartitionDifferential<bgrid::BGrid>(1);
}
TEST(RepartitionDifferential, BGridThreaded)
{
    repartitionDifferential<bgrid::BGrid>(4);
}

TEST(RepartitionMigration, DGridPreservesData)
{
    migrationPreservesData<dgrid::DGrid>();
}
TEST(RepartitionMigration, EGridPreservesData)
{
    migrationPreservesData<egrid::EGrid>();
}
TEST(RepartitionMigration, BGridPreservesData)
{
    migrationPreservesData<bgrid::BGrid>();
}

TEST(RepartitionMigration, RejectsIllegalPlans)
{
    Harness<dgrid::DGrid> h(Backend::cpu(3));
    domain::PartitionPlan bad = h.grid.currentPlan();
    bad.unitsPerDev.pop_back();
    EXPECT_THROW(h.grid.repartition(bad), NeonException);  // wrong device count
    bad = h.grid.currentPlan();
    bad.unitsPerDev.back() += 1;
    EXPECT_THROW(h.grid.repartition(bad), NeonException);  // does not cover the domain
    bad = h.grid.currentPlan();
    bad.unitsPerDev.front() = 0;
    bad.unitsPerDev.back() += 8;
    EXPECT_THROW(h.grid.repartition(bad), NeonException);  // below the per-device floor
}

// --- uneven-slab halo correctness (haloLoFed / haloHiFed) -------------------

TEST(UnevenSlabHalo, DGridFeedsExactlyTheFedHalves)
{
    Backend      backend = Backend::cpu(3);
    dgrid::DGrid grid(backend, {4, 4, 12}, Stencil::laplace7());
    auto         in = grid.newField<double>("in", 1, 0.0);
    auto         out = grid.newField<double>("out", 1, 0.0);

    domain::PartitionPlan plan;
    plan.unitsPerDev = {1, 4, 7};  // adjacent partitions of different heights
    grid.repartition(plan);

    // Halo segments: every neighbour pair still exchanges exactly r planes,
    // anchored at the re-sliced owned windows.
    const auto plane = static_cast<int64_t>(4) * 4;
    const auto& segs = grid.haloSegments();
    ASSERT_EQ(segs.size(), 3u);
    ASSERT_EQ(segs[0].size(), 1u);  // dev0: only an upper neighbour
    EXPECT_EQ(segs[0][0].nbr, 1);
    EXPECT_EQ(segs[0][0].count, plane);
    ASSERT_EQ(segs[1].size(), 2u);  // dev1: both
    ASSERT_EQ(segs[2].size(), 1u);  // dev2: only a lower neighbour
    EXPECT_EQ(segs[2][0].nbr, 1);
    EXPECT_EQ(segs[2][0].count, plane);

    auto fill = grid.newContainer("fill", [in](auto& l) mutable {
        auto p = l.load(in, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable { p(c) = 1.0; };
    });
    auto sten = grid.newContainer("sten", [in, out](auto& l) mutable {
        auto sp = l.load(in, Access::READ, Compute::STENCIL);
        auto dp = l.load(out, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable { dp(c) = sp.nghVal(c, {0, 0, 1}); };
    });

    skeleton::Skeleton skl(backend);
    skl.sequence({fill, sten}, skeleton::SequenceOptions().withName("uneven"));
    EXPECT_TRUE(skl.validate().clean()) << skl.validate().toString();

    const int stenId = findStencilNode(skl.graph());
    ASSERT_GE(stenId, 0);
    const analysis::ContainerMeta cm = analysis::metaFor(skl.graph().node(stenId), 3);

    auto claims = [&](int dev, analysis::Part part) {
        const analysis::AccessSets sets = analysis::segmentsFor(cm, dev, 3);
        for (const analysis::Segment& s : sets.reads) {
            if (s.part == part && s.dev == dev) {
                return true;
            }
        }
        return false;
    };
    EXPECT_FALSE(claims(0, analysis::Part::HaloLo));  // nothing below device 0
    EXPECT_TRUE(claims(0, analysis::Part::HaloHi));
    EXPECT_TRUE(claims(1, analysis::Part::HaloLo));
    EXPECT_TRUE(claims(1, analysis::Part::HaloHi));
    EXPECT_TRUE(claims(2, analysis::Part::HaloLo));
    EXPECT_FALSE(claims(2, analysis::Part::HaloHi));  // nothing above device 2
}

namespace {

std::vector<Container> bgridStencilSeq(bgrid::BGrid& grid, bgrid::BField<double>& in,
                                       bgrid::BField<double>& out)
{
    auto fill = grid.newContainer("fill", [in](auto& l) mutable {
        auto p = l.load(in, Access::WRITE);
        return [=](const auto& c) mutable { p(c) = 1.0; };
    });
    auto sten = grid.newContainer("sten", [in, out](auto& l) mutable {
        auto sp = l.load(in, Access::READ, Compute::STENCIL);
        auto dp = l.load(out, Access::WRITE);
        return [=](const auto& c) mutable { dp(c) = sp.nghVal(c, {0, 0, 1}); };
    });
    return {fill, sten};
}

}  // namespace

TEST(UnevenSlabHalo, SparseBGridStillClaimsNoHaloAfterRepartition)
{
    // Mirror of GraphLint.SparseBGridWithEmptyBoundaryClaimsNoHaloSegments,
    // re-sliced: both the old and the new cut land in the dead middle band,
    // so peers() stays empty and the lint stays clean on the moved cut too.
    Backend      backend = Backend::cpu(2);
    bgrid::BGrid grid(
        backend, {8, 8, 32}, [](const index_3d& g) { return g.z < 4 || g.z >= 28; },
        Stencil::laplace7(), 4);
    auto in = grid.newField<double>("in", 1, 0.0);
    auto out = grid.newField<double>("out", 1, 0.0);

    domain::PartitionPlan plan;
    plan.unitsPerDev = {2, 6};  // block rows; cut at z=8, inside the dead band
    grid.repartition(plan);

    skeleton::Skeleton skl(backend);
    skl.sequence(bgridStencilSeq(grid, in, out),
                 skeleton::SequenceOptions().withName("sparse-uneven"));
    EXPECT_TRUE(skl.validate().clean()) << skl.validate().toString();

    const int haloId = findNode(skl.graph(), [](const skeleton::GraphNode& n) {
        return n.kind() == Container::Kind::Halo;
    });
    ASSERT_GE(haloId, 0);
    const analysis::ContainerMeta hm = analysis::metaFor(skl.graph().node(haloId), 2);
    ASSERT_EQ(hm.haloPeers.size(), 2u);
    EXPECT_TRUE(hm.haloPeers[0].empty());
    EXPECT_TRUE(hm.haloPeers[1].empty());
}

TEST(UnevenSlabHalo, DenseBGridClaimsOnlyFedHalvesAfterRepartition)
{
    // Mirror of GraphLint.DenseBGridClaimsOnlyFedHaloHalves on a skewed cut.
    Backend      backend = Backend::cpu(2);
    bgrid::BGrid grid(
        backend, {8, 8, 16}, [](const index_3d&) { return true; }, Stencil::laplace7(), 4);
    auto in = grid.newField<double>("in", 1, 0.0);
    auto out = grid.newField<double>("out", 1, 0.0);

    domain::PartitionPlan plan;
    plan.unitsPerDev = {3, 1};  // 4 block rows, skewed
    EXPECT_THROW(grid.repartition(plan), NeonException);  // below the 2-row floor
    plan.unitsPerDev = {2, 2};
    grid.repartition(plan);  // legal no-op-sized re-slice keeps the claims

    skeleton::Skeleton skl(backend);
    skl.sequence(bgridStencilSeq(grid, in, out),
                 skeleton::SequenceOptions().withName("dense-uneven"));
    EXPECT_TRUE(skl.validate().clean()) << skl.validate().toString();

    const int stenId = findStencilNode(skl.graph());
    ASSERT_GE(stenId, 0);
    const analysis::ContainerMeta cm = analysis::metaFor(skl.graph().node(stenId), 2);
    auto claims = [&](int dev, analysis::Part part) {
        const analysis::AccessSets sets = analysis::segmentsFor(cm, dev, 2);
        for (const analysis::Segment& s : sets.reads) {
            if (s.part == part && s.dev == dev) {
                return true;
            }
        }
        return false;
    };
    EXPECT_FALSE(claims(0, analysis::Part::HaloLo));
    EXPECT_TRUE(claims(0, analysis::Part::HaloHi));
    EXPECT_TRUE(claims(1, analysis::Part::HaloLo));
    EXPECT_FALSE(claims(1, analysis::Part::HaloHi));
}

// --- schedule-cache staleness (the fix this PR regression-tests) -----------

TEST(RepartitionScheduleCache, StaleRecipeNeverReplayedOntoResizedSpans)
{
    auto& cache = skeleton::ScheduleCache::instance();
    cache.clear();

    Harness<dgrid::DGrid> h(Backend::cpu(2));
    skeleton::Skeleton    skl(h.grid.backend());
    const auto            opts = skeleton::SequenceOptions().withName("cache");

    auto first = skl.sequence(h.seq, opts);
    EXPECT_FALSE(first.cacheHit());
    auto replay = skl.sequence(h.seq, opts);
    EXPECT_TRUE(replay.cacheHit());  // same structure, same spans: hits

    h.grid.repartition(skewedPlan(h.grid));

    // Stale containers are rejected outright (geometry-epoch guard) ...
    EXPECT_THROW(skl.sequence(h.seq, opts), NeonException);
    // ... and so is running the pre-repartition schedule.
    EXPECT_THROW(replay.run(), NeonException);

    for (auto& op : h.seq) {
        op.rebuild();
    }
    auto resequenced = skl.sequence(h.seq, opts);
    // The key encodes per-device span sizes: the old recipe must not serve
    // the resized pipeline.
    EXPECT_FALSE(resequenced.cacheHit())
        << "stale schedule recipe replayed onto resized spans";
    resequenced.run();
    skl.sync();

    // Moving back to the original decomposition hits the original entry.
    domain::PartitionPlan even =
        domain::PartitionPlan::even(h.grid.partitionUnits(), h.grid.devCount());
    h.grid.repartition(even);
    for (auto& op : h.seq) {
        op.rebuild();
    }
    auto back = skl.sequence(h.seq, opts);
    EXPECT_TRUE(back.cacheHit());
    back.run();
    skl.sync();
}

TEST(RepartitionScheduleCache, InvalidateDevCountDropsOnlyMatchingEntries)
{
    auto& cache = skeleton::ScheduleCache::instance();
    cache.clear();

    Harness<dgrid::DGrid> two(Backend::cpu(2));
    Harness<dgrid::DGrid> three(Backend::cpu(3));
    skeleton::Skeleton    sklTwo(two.grid.backend());
    skeleton::Skeleton    sklThree(three.grid.backend());
    const auto            opts = skeleton::SequenceOptions().withName("inv");
    sklTwo.sequence(two.seq, opts);
    sklThree.sequence(three.seq, opts);
    ASSERT_EQ(cache.stats().size, 2u);

    EXPECT_EQ(cache.invalidateDevCount(2), 1u);
    EXPECT_EQ(cache.stats().size, 1u);
    EXPECT_EQ(cache.invalidateDevCount(2), 0u);  // idempotent

    // The 3-device entry survived and still serves.
    EXPECT_TRUE(sklThree.sequence(three.seq, opts).cacheHit());
    // The 2-device pipeline recompiles.
    EXPECT_FALSE(sklTwo.sequence(two.seq, opts).cacheHit());
}

// --- Repartitioner: measured-rate apportionment ----------------------------

namespace {

ExecutionReport syntheticReport(const std::vector<double>& computeBusy)
{
    std::vector<sys::TraceEntry> entries;
    for (size_t d = 0; d < computeBusy.size(); ++d) {
        sys::TraceEntry e;
        e.device = static_cast<int>(d);
        e.stream = 0;
        e.kind = "kernel";
        e.name = "k";
        e.startV = 0.0;
        e.endV = computeBusy[d];
        entries.push_back(e);
    }
    return ExecutionReport::fromEntries(entries, static_cast<int>(computeBusy.size()));
}

}  // namespace

TEST(Repartitioner, RatesFollowMeasuredBusyTimes)
{
    domain::PartitionPlan current;
    current.unitsPerDev = {8, 8, 8};
    // Device 1 took twice as long per unit: its rate halves.
    const DeviceRates rates = Repartitioner::measuredRates(syntheticReport({1.0, 2.0, 1.0}),
                                                           current);
    ASSERT_TRUE(rates.measured);
    EXPECT_DOUBLE_EQ(rates.unitsPerSecond[0], 8.0);
    EXPECT_DOUBLE_EQ(rates.unitsPerSecond[1], 4.0);
    EXPECT_DOUBLE_EQ(rates.unitsPerSecond[2], 8.0);

    const domain::PartitionPlan plan = Repartitioner::propose(rates, 24, 1);
    EXPECT_EQ(plan.total(), 24);
    // 8:4:8 -> ~9.6 : 4.8 : 9.6 units; the slow device sheds load.
    EXPECT_LT(plan.unitsPerDev[1], plan.unitsPerDev[0]);
    EXPECT_LT(plan.unitsPerDev[1], 8);
    EXPECT_GT(plan.unitsPerDev[0], 8);
}

TEST(Repartitioner, EmptyWindowDegeneratesToEvenSplit)
{
    domain::PartitionPlan current;
    current.unitsPerDev = {8, 8, 8};
    const DeviceRates rates =
        Repartitioner::measuredRates(syntheticReport({0.0, 0.0, 0.0}), current);
    EXPECT_FALSE(rates.measured);
    const domain::PartitionPlan plan = Repartitioner::propose(rates, 24, 1);
    EXPECT_EQ(plan.unitsPerDev, (std::vector<int64_t>{8, 8, 8}));
}

TEST(Repartitioner, SilentDevicesInheritTheMeanRate)
{
    domain::PartitionPlan current;
    current.unitsPerDev = {8, 8, 8};
    const DeviceRates rates =
        Repartitioner::measuredRates(syntheticReport({1.0, 0.0, 1.0}), current);
    ASSERT_TRUE(rates.measured);
    EXPECT_DOUBLE_EQ(rates.unitsPerSecond[1], 8.0);  // mean of the measured 8.0s
}

TEST(Repartitioner, RespectsTheGridFloor)
{
    DeviceRates rates;
    rates.unitsPerSecond = {100.0, 1.0, 1.0};
    rates.measured = true;
    const domain::PartitionPlan plan = Repartitioner::propose(rates, 24, 2);
    EXPECT_EQ(plan.total(), 24);
    EXPECT_GE(plan.unitsPerDev[1], 2);
    EXPECT_GE(plan.unitsPerDev[2], 2);
    EXPECT_EQ(plan.unitsPerDev[0], 20);
}

TEST(Repartitioner, ProposalFromLiveGridIsApplicable)
{
    // End-to-end: run a pipeline on a homogeneous backend, propose from the
    // real ExecutionReport, and apply the proposal. With equal measured
    // rates the proposal stays near-even and repartition() accepts it.
    Harness<dgrid::DGrid> h(Backend::cpu(3));
    h.grid.backend().profiler().enable();
    skeleton::Skeleton skl(h.grid.backend());
    auto               compiled = skl.sequence(h.seq, skeleton::SequenceOptions()
                                                          .withName("live"));
    compiled.run();
    skl.sync();

    const domain::PartitionPlan plan =
        Repartitioner::propose(h.grid, skl.executionReport());
    ASSERT_EQ(plan.total(), h.grid.partitionUnits());
    h.grid.repartition(plan);
    for (auto& op : h.seq) {
        op.rebuild();
    }
    auto next = skl.sequence(h.seq, skeleton::SequenceOptions().withName("live"));
    next.run();
    skl.sync();
}

}  // namespace neon::repartition
