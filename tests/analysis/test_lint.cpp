// Negative-path tests for the dependency-graph lint: every violation class
// is seeded through the skeleton's fault-injection hooks and must be
// detected with correct attribution, while unmodified pipelines lint clean
// across device counts and OCC levels.

#include <gtest/gtest.h>

#include "analysis_fixture.hpp"
#include "analysis/node_meta.hpp"
#include "bgrid/bfield.hpp"
#include "bgrid/bgrid.hpp"

namespace neon::analysis {

using set::Backend;
using set::Container;
using skeleton::EdgeKind;
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

/// True when a byte below 0x20 sits inside a JSON string literal of `json`.
bool rawControlByteInString(const std::string& json)
{
    bool inString = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const auto c = static_cast<unsigned char>(json[i]);
        if (inString && c == '\\') {
            ++i;  // skip the escaped character
        } else if (c == '"') {
            inString = !inString;
        } else if (inString && c < 0x20) {
            return true;
        }
    }
    return false;
}

}  // namespace

TEST(AnalysisReport, JsonEscapesControlCharacters)
{
    AnalysisReport rep;
    Violation      v;
    v.message = "race on\tf0\x02";
    v.containerA = "sten\r";
    rep.violations.push_back(v);
    const auto json = rep.toJson();
    EXPECT_NE(json.find("\"message\":\"race on\\tf0\\u0002\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"containerA\":\"sten\\r\""), std::string::npos) << json;
    EXPECT_FALSE(rawControlByteInString(json)) << json;
}

TEST(GraphLint, CleanAcrossConfigurations)
{
    for (int nDev : {1, 2, 4}) {
        for (Occ occ : {Occ::NONE, Occ::STANDARD, Occ::EXTENDED, Occ::TWO_WAY}) {
            Rig      rig(Backend::cpu(nDev));
            Skeleton skl(rig.backend);
            skl.sequence(cleanSeq(rig), SequenceOptions().withName("clean").withOcc(occ));
            const AnalysisReport rep = skl.validate();
            EXPECT_TRUE(rep.clean())
                << "nDev=" << nDev << " occ=" << to_string(occ) << "\n" << rep.toString();
            EXPECT_GT(rep.pairsChecked, 0u);
        }
    }
}

TEST(GraphLint, DetectsDeletedWaRDependency)
{
    Rig                    rig(Backend::cpu(2));
    std::vector<Container> seq = {
        rig.copy("reader", rig.f0, rig.f1),  // reads f0
        rig.fill("writer", rig.f0, 2.0),     // writes f0 -> WaR reader->writer
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("war"));
    ASSERT_TRUE(skl.validate().clean()) << skl.validate().toString();

    int from = -1;
    int to = -1;
    for (const auto& e : skl.graph().edges()) {
        if (e.kind == EdgeKind::WaR) {
            from = e.from;
            to = e.to;
            break;
        }
    }
    ASSERT_GE(from, 0) << "pipeline must contain a WaR edge";
    skl.debugMutateGraph([&](skeleton::Graph& g) { g.removeEdges(from, to); });

    const AnalysisReport rep = skl.validate();
    EXPECT_GE(rep.count(ViolationKind::MissingDependency), 1u) << rep.toString();
    bool attributed = false;
    for (const auto& v : rep.violations) {
        if (v.kind != ViolationKind::MissingDependency) {
            continue;
        }
        if ((v.nodeA == from && v.nodeB == to) || (v.nodeA == to && v.nodeB == from)) {
            attributed = true;
            EXPECT_FALSE(v.containerA.empty());
            EXPECT_FALSE(v.containerB.empty());
        }
    }
    EXPECT_TRUE(attributed) << rep.toString();
}

TEST(GraphLint, DetectsSkippedHaloUpdate)
{
    Rig                    rig(Backend::cpu(3));
    std::vector<Container> seq = {
        rig.fill("w", rig.f0, 1.0),
        rig.stencil("sten", rig.f0, rig.f1),
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("halo"));
    ASSERT_TRUE(skl.validate().clean()) << skl.validate().toString();

    const int halo = findHaloNode(skl.graph());
    ASSERT_GE(halo, 0);
    const int sten = findNode(skl.graph(), [](const skeleton::GraphNode& n) {
        return n.container.name() == "sten";
    });
    ASSERT_GE(sten, 0);
    skl.debugMutateGraph([&](skeleton::Graph& g) { g.killNode(halo); });

    const AnalysisReport rep = skl.validate();
    EXPECT_GE(rep.count(ViolationKind::StaleHaloRead), 1u) << rep.toString();
    bool attributed = false;
    for (const auto& v : rep.violations) {
        if (v.kind == ViolationKind::StaleHaloRead && v.nodeB == sten &&
            v.containerB == "sten") {
            attributed = true;
        }
    }
    EXPECT_TRUE(attributed) << rep.toString();
}

TEST(GraphLint, DetectsSpuriousEdge)
{
    Rig                    rig(Backend::cpu(2));
    std::vector<Container> seq = {
        rig.fill("wa", rig.f0, 1.0),
        rig.fill("wb", rig.f1, 2.0),  // independent of wa
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("spurious"));
    ASSERT_TRUE(skl.validate().clean());

    skl.debugMutateGraph([](skeleton::Graph& g) { g.addEdge(0, 1, EdgeKind::RaW); });
    const AnalysisReport rep = skl.validate();
    EXPECT_GE(rep.count(ViolationKind::SpuriousEdge), 1u) << rep.toString();
    EXPECT_GT(rep.edgesChecked, 0u);
}

TEST(GraphLint, DetectsTaskOrderInversion)
{
    Rig                    rig(Backend::cpu(1));
    std::vector<Container> seq = {
        rig.fill("w", rig.f0, 1.0),
        rig.copy("r", rig.f0, rig.f1),  // RaW w -> r
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("order"));
    ASSERT_TRUE(skl.validate().clean());

    skl.debugMutateTasks([](std::vector<Task>& tasks) {
        ASSERT_EQ(tasks.size(), 2u);
        std::swap(tasks[0], tasks[1]);
    });
    const AnalysisReport rep = skl.validate();
    EXPECT_GE(rep.count(ViolationKind::LevelOrder), 1u) << rep.toString();
}

TEST(GraphLint, DetectsDroppedEventWait)
{
    Rig                    rig(Backend::cpu(2));
    std::vector<Container> seq = {
        rig.fill("wa", rig.f0, 1.0),
        rig.fill("wb", rig.f1, 2.0),
        rig.add("mix", rig.f0, rig.f1, rig.f2),
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("wait"));
    ASSERT_TRUE(skl.validate().clean()) << skl.validate().toString();
    ASSERT_EQ(skl.streamCount(), 2);  // wa/wb run on parallel streams

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
    const AnalysisReport rep = skl.validate();
    EXPECT_GE(rep.count(ViolationKind::MissingWait), 1u) << rep.toString();
    bool attributed = false;
    for (const auto& v : rep.violations) {
        if (v.kind == ViolationKind::MissingWait && v.nodeB == mix) {
            attributed = true;
        }
    }
    EXPECT_TRUE(attributed) << rep.toString();
}

TEST(GraphLint, DetectsCycle)
{
    Rig                    rig(Backend::cpu(1));
    std::vector<Container> seq = {
        rig.fill("w", rig.f0, 1.0),
        rig.copy("r", rig.f0, rig.f1),
    };
    skeleton::Graph g = skeleton::buildGraph(seq, 1);
    g.addEdge(1, 0, EdgeKind::WaW);  // close the loop: r -> w
    const AnalysisReport rep = lintGraph(g, 1);
    EXPECT_EQ(rep.count(ViolationKind::GraphCycle), 1u) << rep.toString();
}

namespace {

/// in -> out one-point z-stencil on a BGrid plus a writer seeding `in`.
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

TEST(GraphLint, SparseBGridWithEmptyBoundaryClaimsNoHaloSegments)
{
    // Two active slabs separated by a dead middle: the device cut lands in
    // the inactive region, so no halo segment has any cells and peers() is
    // empty everywhere. The access model must not claim halo reads the
    // hardware never performs (that over-approximation previously pinned
    // spurious halo<->compute conflicts on every sparse multi-dev graph).
    set::Backend backend = set::Backend::cpu(2);
    bgrid::BGrid grid(
        backend, {8, 8, 32},
        [](const index_3d& g) { return g.z < 4 || g.z >= 28; }, Stencil::laplace7(), 4);
    auto in = grid.newField<double>("in", 1, 0.0);
    auto out = grid.newField<double>("out", 1, 0.0);

    skeleton::Skeleton skl(backend);
    skl.sequence(bgridStencilSeq(grid, in, out), SequenceOptions().withName("sparse"));
    EXPECT_TRUE(skl.validate().clean()) << skl.validate().toString();

    const skeleton::Graph& g = skl.graph();
    const int              haloId = findHaloNode(g);
    ASSERT_GE(haloId, 0);
    const ContainerMeta hm = metaFor(g.node(haloId), 2);
    ASSERT_EQ(hm.haloPeers.size(), 2u);
    EXPECT_TRUE(hm.haloPeers[0].empty());
    EXPECT_TRUE(hm.haloPeers[1].empty());
    for (int dev = 0; dev < 2; ++dev) {
        const AccessSets hs = segmentsFor(hm, dev, 2);
        EXPECT_TRUE(hs.reads.empty()) << "halo node dev " << dev;
        EXPECT_TRUE(hs.writes.empty()) << "halo node dev " << dev;
    }

    const int stenId = findNode(g, [](const skeleton::GraphNode& n) {
        return n.kind() == set::Container::Kind::Compute &&
               n.label().find("sten") != std::string::npos;
    });
    ASSERT_GE(stenId, 0);
    const ContainerMeta cm = metaFor(g.node(stenId), 2);
    for (int dev = 0; dev < 2; ++dev) {
        for (const Segment& s : segmentsFor(cm, dev, 2).reads) {
            EXPECT_NE(s.part, Part::HaloLo) << "dev " << dev;
            EXPECT_NE(s.part, Part::HaloHi) << "dev " << dev;
        }
    }
}

TEST(GraphLint, DenseBGridClaimsOnlyFedHaloHalves)
{
    // Fully active grid: each device has exactly one neighbour, so the edge
    // devices claim one halo half each — not both (the dense over-claim the
    // per-device feed tracking replaces).
    set::Backend backend = set::Backend::cpu(2);
    bgrid::BGrid grid(
        backend, {8, 8, 16}, [](const index_3d&) { return true; }, Stencil::laplace7(), 4);
    auto in = grid.newField<double>("in", 1, 0.0);
    auto out = grid.newField<double>("out", 1, 0.0);

    skeleton::Skeleton skl(backend);
    skl.sequence(bgridStencilSeq(grid, in, out), SequenceOptions().withName("dense"));
    EXPECT_TRUE(skl.validate().clean()) << skl.validate().toString();

    const int stenId = findNode(skl.graph(), [](const skeleton::GraphNode& n) {
        return n.kind() == set::Container::Kind::Compute &&
               n.label().find("sten") != std::string::npos;
    });
    ASSERT_GE(stenId, 0);
    const ContainerMeta cm = metaFor(skl.graph().node(stenId), 2);

    auto claims = [&](int dev, Part part) {
        const AccessSets sets = segmentsFor(cm, dev, 2);
        return std::find_if(sets.reads.begin(), sets.reads.end(), [&](const Segment& s) {
                   return s.part == part && s.dev == dev;
               }) != sets.reads.end();
    };
    EXPECT_FALSE(claims(0, Part::HaloLo));  // nothing below device 0
    EXPECT_TRUE(claims(0, Part::HaloHi));   // fed by device 1
    EXPECT_TRUE(claims(1, Part::HaloLo));   // fed by device 0
    EXPECT_FALSE(claims(1, Part::HaloHi));  // nothing above device 1
}

}  // namespace neon::analysis
