// Happens-before race detector tests: clean pipelines stay clean under
// every OCC mode, and each seeded synchronization bug — dropped
// cross-stream wait, reverted backend-wide inter-run barrier, skipped halo
// update — is detected with correct attribution and the same report on
// every repetition.

#include <gtest/gtest.h>

#include "analysis_fixture.hpp"
#include "poisson/poisson.hpp"

namespace neon::analysis {

using set::Backend;
using set::Container;
using skeleton::RunScope;
using skeleton::SequenceOptions;
using skeleton::Skeleton;
using skeleton::Task;

namespace {

std::vector<Container> cleanSeq(Rig& rig)
{
    return {
        rig.fill("w0", rig.f0, 1.0),
        rig.stencil("sten", rig.f0, rig.f1),
        patterns::dot(rig.grid, rig.f0, rig.f1, rig.s, "dot"),
        rig.copy("cp", rig.f1, rig.f2),
    };
}

}  // namespace

TEST(RaceDetector, CleanUnderEveryOccMode)
{
    for (Occ occ : {Occ::NONE, Occ::STANDARD, Occ::TWO_WAY}) {
        Rig  rig(Backend::cpu(3));
        auto an = rig.backend.analysis();
        an.enable();
        Skeleton skl(rig.backend);
        skl.sequence(cleanSeq(rig), SequenceOptions().withName("clean").withOcc(occ));
        for (int r = 0; r < 3; ++r) {
            skl.run();
        }
        skl.sync();
        const AnalysisReport rep = an.raceReport();
        EXPECT_TRUE(rep.clean()) << "occ=" << to_string(occ) << "\n" << rep.toString();
        EXPECT_GT(rep.opsAnalyzed, 0u);
    }
}

TEST(RaceDetector, DetectsDroppedCrossStreamWait)
{
    Rig                    rig(Backend::cpu(2));
    std::vector<Container> seq = {
        rig.fill("wa", rig.f0, 1.0),
        rig.fill("wb", rig.f1, 2.0),
        rig.add("mix", rig.f0, rig.f1, rig.f2),
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("dropped-wait"));
    ASSERT_EQ(skl.streamCount(), 2);

    const int mix = findNode(skl.graph(), [](const skeleton::GraphNode& n) {
        return n.container.name() == "mix";
    });
    ASSERT_GE(mix, 0);
    skl.debugMutateTasks([&](std::vector<Task>& tasks) {
        for (auto& t : tasks) {
            if (t.nodeId == mix) {
                t.waits.clear();
            }
        }
    });

    auto an = rig.backend.analysis();
    an.enable();
    skl.run();
    skl.sync();
    const AnalysisReport rep = an.raceReport();
    EXPECT_GE(rep.count(ViolationKind::Race), 1u) << rep.toString();
    bool attributed = false;
    for (const auto& v : rep.violations) {
        if (v.kind == ViolationKind::Race && (v.containerA == "mix" || v.containerB == "mix")) {
            attributed = true;
            EXPECT_GE(v.runB, 0);
            EXPECT_GE(v.device, 0);
        }
    }
    EXPECT_TRUE(attributed) << rep.toString();
}

TEST(RaceDetector, DetectsMissingInterRunBarrier)
{
    for (bool unchained : {false, true}) {
        Rig rig(Backend::cpu(2));
        // Skeleton A writes on two parallel streams; skeleton B reads the
        // stream-1 write from its single stream. The backend's per-uid data
        // chains order them; a run that skips the chain does not.
        std::vector<Container> seqA = {
            rig.fill("wa", rig.f0, 1.0),
            rig.fill("wb", rig.f1, 2.0),
        };
        std::vector<Container> seqB = {rig.copy("rb", rig.f1, rig.f2)};
        Skeleton               a(rig.backend);
        Skeleton               b(rig.backend);
        a.sequence(seqA, SequenceOptions().withName("a"));
        b.sequence(seqB, SequenceOptions().withName("b"));
        ASSERT_EQ(a.streamCount(), 2);
        auto an = rig.backend.analysis();
        an.enable();
        a.run();
        b.run(RunScope{.chainData = !unchained});
        a.sync();
        const AnalysisReport rep = an.raceReport();
        if (unchained) {
            EXPECT_GE(rep.count(ViolationKind::Race), 1u)
                << "an unchained run must race\n" << rep.toString();
            bool attributed = false;
            for (const auto& v : rep.violations) {
                if (v.kind == ViolationKind::Race &&
                    ((v.containerA == "wb" && v.containerB == "rb") ||
                     (v.containerA == "rb" && v.containerB == "wb"))) {
                    attributed = true;
                }
            }
            EXPECT_TRUE(attributed) << rep.toString();
        } else {
            EXPECT_TRUE(rep.clean()) << rep.toString();
        }
    }
}

TEST(RaceDetector, DetectsSkippedHaloUpdateAtRuntime)
{
    Rig                    rig(Backend::cpu(3));
    std::vector<Container> seq = {
        rig.fill("w", rig.f0, 1.0),
        rig.stencil("sten", rig.f0, rig.f1),
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("halo"));
    const int halo = findHaloNode(skl.graph());
    ASSERT_GE(halo, 0);
    skl.debugMutateGraph([&](skeleton::Graph& g) { g.killNode(halo); });

    auto an = rig.backend.analysis();
    an.enable();
    skl.run();
    skl.sync();
    const AnalysisReport rep = an.raceReport();
    EXPECT_GE(rep.count(ViolationKind::StaleHaloRead), 1u) << rep.toString();
    for (const auto& v : rep.violations) {
        if (v.kind == ViolationKind::StaleHaloRead) {
            EXPECT_EQ(v.containerB, "sten");
            EXPECT_GE(v.runB, 0);
        }
    }
}

TEST(RaceDetector, IncrementalDrainReportsFindingsOnce)
{
    Rig                    rig(Backend::cpu(2));
    std::vector<Container> seq = {
        rig.fill("wa", rig.f0, 1.0),
        rig.fill("wb", rig.f1, 2.0),
        rig.add("mix", rig.f0, rig.f1, rig.f2),
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("drain"));
    const int mix = findNode(skl.graph(), [](const skeleton::GraphNode& n) {
        return n.container.name() == "mix";
    });
    ASSERT_GE(mix, 0);
    skl.debugMutateTasks([&](std::vector<Task>& tasks) {
        for (auto& t : tasks) {
            if (t.nodeId == mix) {
                t.waits.clear();
            }
        }
    });
    auto an = rig.backend.analysis();
    an.enable();
    skl.run();
    skl.sync();
    EXPECT_GE(an.drainRaces().count(ViolationKind::Race), 1u);
    EXPECT_TRUE(an.drainRaces().clean()) << "second drain must report nothing new";
}

// --- engine independence of the race report --------------------------------

namespace {

/// The three seeded synchronization bugs above.
enum class SeededBug
{
    DroppedWait,
    MissingInterRunBarrier,
    KilledHaloNode,
};

struct RaceRun
{
    AnalysisReport report;   ///< raceReport() after both phases
    AnalysisReport drained;  ///< both drainRaces() results, concatenated
};

/// Seed `bug`, then run it in two sync()'d phases with a drain after each.
/// The seeded bugs are real data races, so the run is dry: no kernel body
/// executes, while the detector sees the same enqueued ops.
RaceRun runSeededBug(SeededBug bug)
{
    sys::SimConfig cfg = sys::SimConfig::zeroCost();
    cfg.dryRun = true;
    const int nDev = bug == SeededBug::KilledHaloNode ? 3 : 2;
    Rig       rig(Backend(nDev, sys::DeviceType::CPU, cfg));
    Skeleton  a(rig.backend);
    Skeleton  b(rig.backend);
    switch (bug) {
        case SeededBug::DroppedWait: {
            a.sequence({rig.fill("wa", rig.f0, 1.0), rig.fill("wb", rig.f1, 2.0),
                        rig.add("mix", rig.f0, rig.f1, rig.f2)},
                       SequenceOptions().withName("dropped-wait"));
            const int mix = findNode(a.graph(), [](const skeleton::GraphNode& n) {
                return n.container.name() == "mix";
            });
            a.debugMutateTasks([&](std::vector<Task>& tasks) {
                for (auto& t : tasks) {
                    if (t.nodeId == mix) {
                        t.waits.clear();
                    }
                }
            });
            break;
        }
        case SeededBug::MissingInterRunBarrier:
            a.sequence({rig.fill("wa", rig.f0, 1.0), rig.fill("wb", rig.f1, 2.0)},
                       SequenceOptions().withName("a"));
            b.sequence({rig.copy("rb", rig.f1, rig.f2)}, SequenceOptions().withName("b"));
            break;
        case SeededBug::KilledHaloNode: {
            a.sequence({rig.fill("w", rig.f0, 1.0), rig.stencil("sten", rig.f0, rig.f1)},
                       SequenceOptions().withName("halo"));
            const int halo = findHaloNode(a.graph());
            a.debugMutateGraph([&](skeleton::Graph& g) { g.killNode(halo); });
            break;
        }
    }
    auto an = rig.backend.analysis();
    an.enable();
    RaceRun out;
    for (int phase = 0; phase < 2; ++phase) {
        a.run();
        if (bug == SeededBug::MissingInterRunBarrier) {
            b.run(RunScope{.chainData = false});
        }
        a.sync();
        const AnalysisReport fresh = an.drainRaces();
        out.drained.violations.insert(out.drained.violations.end(), fresh.violations.begin(),
                                      fresh.violations.end());
    }
    out.report = an.raceReport();
    out.drained.opsAnalyzed = out.report.opsAnalyzed;
    return out;
}

}  // namespace

TEST(RaceDetector, ReportIsIdenticalAcrossRepetitionsAndDrains)
{
    for (SeededBug bug : {SeededBug::DroppedWait, SeededBug::MissingInterRunBarrier,
                          SeededBug::KilledHaloNode}) {
        std::string reference;
        for (int repetition = 0; repetition < 3; ++repetition) {
            const RaceRun     run = runSeededBug(bug);
            const std::string json = run.report.toJson();
            EXPECT_FALSE(run.report.clean()) << json;
            EXPECT_EQ(run.drained.toJson(), json) << "the drains must split the findings";
            if (reference.empty()) {
                reference = json;
            }
            EXPECT_EQ(json, reference) << "bug " << static_cast<int>(bug) << ", repetition "
                                       << repetition;
        }
    }
}

// --- detector unit tests over synthetic logs ------------------------------

namespace {

ContainerMetaMap twoWriters()
{
    ContainerMeta w;
    w.label = "writerA";
    w.kind = MetaNodeKind::Compute;
    w.pattern = Compute::MAP;
    w.accesses.push_back({7, Access::WRITE, Compute::MAP, false, false, "f"});
    ContainerMeta w2 = w;
    w2.label = "writerB";
    ContainerMetaMap meta;
    meta[0] = std::move(w);
    meta[1] = std::move(w2);
    return meta;
}

}  // namespace

TEST(RaceDetector, FlagsCrossStreamWaWWithoutEvent)
{
    const ContainerMetaMap meta = twoWriters();
    RaceDetector           det(1);
    det.feed({0, 0, 0, sys::OpKind::Kernel, 0, 0, 0}, &meta);
    det.feed({1, 0, 1, sys::OpKind::Kernel, 0, 1, 0}, &meta);
    const AnalysisReport& rep = det.report();
    ASSERT_GE(rep.count(ViolationKind::Race), 1u) << rep.toString();
    EXPECT_NE(rep.violations[0].message.find("WaW"), std::string::npos);
    EXPECT_EQ(rep.violations[0].containerA, "writerA");
    EXPECT_EQ(rep.violations[0].containerB, "writerB");
}

TEST(RaceDetector, EventOrderingSuppressesWaW)
{
    const ContainerMetaMap meta = twoWriters();
    RaceDetector           det(1);
    det.feed({0, 0, 0, sys::OpKind::Kernel, 0, 0, 0}, &meta);
    det.feed({1, 0, 0, sys::OpKind::Record, 42, -1, -1}, nullptr);
    det.feed({2, 0, 1, sys::OpKind::Wait, 42, -1, -1}, nullptr);
    det.feed({3, 0, 1, sys::OpKind::Kernel, 0, 1, 0}, &meta);
    EXPECT_TRUE(det.report().clean()) << det.report().toString();
}

TEST(RaceDetector, FlagsWaitEnqueuedBeforeRecord)
{
    RaceDetector det(1);
    det.feed({0, 0, 1, sys::OpKind::Wait, 42, -1, -1}, nullptr);
    det.feed({1, 0, 0, sys::OpKind::Record, 42, -1, -1}, nullptr);
    EXPECT_EQ(det.report().count(ViolationKind::WaitBeforeRecord), 1u)
        << det.report().toString();
}

TEST(RaceDetector, BarrierOrdersEveryEarlierOp)
{
    const ContainerMetaMap meta = twoWriters();
    RaceDetector           det(1);
    det.feed({0, 0, 0, sys::OpKind::Kernel, 0, 0, 0}, &meta);
    det.barrier();
    // Stream 1 gets its first clock after the barrier, so it starts there.
    det.feed({1, 0, 1, sys::OpKind::Kernel, 0, 1, 0}, &meta);
    EXPECT_TRUE(det.report().clean()) << det.report().toString();
    // The barrier orders what came before it, not what comes after.
    det.feed({2, 0, 0, sys::OpKind::Kernel, 0, 0, 0}, &meta);
    // One WaW per segment of f (its internal and its boundary cells).
    const AnalysisReport& rep = det.report();
    ASSERT_EQ(rep.count(ViolationKind::Race), 2u) << rep.toString();
    for (const Violation& v : rep.violations) {
        EXPECT_EQ(v.containerA, "writerB");
        EXPECT_EQ(v.containerB, "writerA");
    }
}

TEST(RaceDetector, ResetClocksBetweenSolvesIsABarrier)
{
    // Backend::resetClocks drops the data chains that order one run after
    // the previous one; the ops before it have all run, so the detector
    // treats the reset as a barrier instead of reporting the next solve's
    // first halo update against the last solve's writes.
    using Field = dgrid::DField<double>;
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    Backend      backend = Backend::make(set::BackendSpec::simGpu(2, cfg));
    dgrid::DGrid grid(backend, index_3d{8, 8, 16}, Stencil::laplace7());
    Field        x = grid.newField<double>("x", 1, 0.0);
    Field        b = grid.newField<double>("b", 1, 0.0);
    const std::function<Container(Field, Field)> apply = [&grid](Field in, Field out) {
        return poisson::makeLaplacianApply(grid, in, out);
    };
    solver::CgOptions options;
    options.maxIterations = 3;
    options.occ = Occ::STANDARD;
    options.fixedIterations = true;

    auto an = backend.analysis();
    an.enable();
    for (int solve = 0; solve < 3; ++solve) {
        if (solve > 0) {
            backend.resetClocks();
        }
        (void)solver::cgSolve<dgrid::DGrid, Field, double>(grid, apply, x, b, options);
    }
    const AnalysisReport rep = an.raceReport();
    EXPECT_TRUE(rep.clean()) << rep.toString();
    EXPECT_GT(rep.opsAnalyzed, 0u);
}

}  // namespace neon::analysis
