// Happens-before race detector tests: clean pipelines stay clean on both
// engines (the log is engine-independent), and each seeded synchronization
// bug — dropped cross-stream wait, reverted backend-wide inter-run barrier,
// skipped halo update — is detected with correct attribution.

#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis_fixture.hpp"

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

TEST(RaceDetector, CleanOnBothEngines)
{
    for (auto engine : {Backend::EngineKind::Sequential, Backend::EngineKind::Threaded}) {
        for (Occ occ : {Occ::NONE, Occ::STANDARD, Occ::TWO_WAY}) {
            Rig  rig(Backend::cpu(3, engine));
            auto an = rig.backend.analysis();
            an.enable();
            Skeleton skl(rig.backend);
            skl.sequence(cleanSeq(rig), SequenceOptions().withName("clean").withOcc(occ));
            for (int r = 0; r < 3; ++r) {
                skl.run();
            }
            skl.sync();
            const AnalysisReport rep = an.raceReport();
            EXPECT_TRUE(rep.clean()) << set::to_string(engine) << " occ=" << to_string(occ)
                                     << "\n" << rep.toString();
            EXPECT_GT(rep.opsAnalyzed, 0u);
        }
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

// --- detector unit tests over synthetic logs ------------------------------

namespace {

sys::ContainerMetaMap twoWriters()
{
    sys::ContainerMeta w;
    w.label = "writerA";
    w.kind = sys::MetaNodeKind::Compute;
    w.pattern = Compute::MAP;
    w.accesses.push_back({7, Access::WRITE, Compute::MAP, false, false, "f"});
    sys::ContainerMeta w2 = w;
    w2.label = "writerB";
    sys::ContainerMetaMap meta;
    meta[0] = std::move(w);
    meta[1] = std::move(w2);
    return meta;
}

}  // namespace

TEST(RaceDetector, FlagsCrossStreamWaWWithoutEvent)
{
    const sys::ContainerMetaMap meta = twoWriters();
    RaceDetector                det(1);
    det.feed({0, 0, 0, sys::ScheduleOpKind::Kernel, 0, 0, 0}, &meta);
    det.feed({1, 0, 1, sys::ScheduleOpKind::Kernel, 0, 1, 0}, &meta);
    const AnalysisReport& rep = det.report();
    ASSERT_GE(rep.count(ViolationKind::Race), 1u) << rep.toString();
    EXPECT_NE(rep.violations[0].message.find("WaW"), std::string::npos);
    EXPECT_EQ(rep.violations[0].containerA, "writerA");
    EXPECT_EQ(rep.violations[0].containerB, "writerB");
}

TEST(RaceDetector, EventOrderingSuppressesWaW)
{
    const sys::ContainerMetaMap meta = twoWriters();
    RaceDetector                det(1);
    det.feed({0, 0, 0, sys::ScheduleOpKind::Kernel, 0, 0, 0}, &meta);
    det.feed({1, 0, 0, sys::ScheduleOpKind::Record, 42, -1, -1}, nullptr);
    det.feed({2, 0, 1, sys::ScheduleOpKind::Wait, 42, -1, -1}, nullptr);
    det.feed({3, 0, 1, sys::ScheduleOpKind::Kernel, 0, 1, 0}, &meta);
    EXPECT_TRUE(det.report().clean()) << det.report().toString();
}

TEST(RaceDetector, FlagsWaitEnqueuedBeforeRecord)
{
    RaceDetector det(1);
    det.feed({0, 0, 1, sys::ScheduleOpKind::Wait, 42, -1, -1}, nullptr);
    det.feed({1, 0, 0, sys::ScheduleOpKind::Record, 42, -1, -1}, nullptr);
    EXPECT_EQ(det.report().count(ViolationKind::WaitBeforeRecord), 1u)
        << det.report().toString();
}

TEST(AnalysisEnv, NeonEngineOverridesBackendSpec)
{
    ::setenv("NEON_ENGINE", "threaded", 1);
    const Backend b = Backend::cpu(2);
    ::unsetenv("NEON_ENGINE");
    EXPECT_EQ(b.engineKind(), Backend::EngineKind::Threaded);
    const Backend c = Backend::cpu(2);
    EXPECT_EQ(c.engineKind(), Backend::EngineKind::Sequential);
}

}  // namespace neon::analysis
