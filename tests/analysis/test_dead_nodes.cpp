// Regression tests for dead-node hygiene in skeleton::Graph: killNode must
// clear scheduling state so a dead node never contributes to level widths
// or stream counts, addEdge must reject dead endpoints, and the lint must
// flag the historical bug (state kept after death) when simulated.

#include <gtest/gtest.h>

#include "analysis_fixture.hpp"

namespace neon::analysis {

using set::Backend;
using set::Container;
using skeleton::EdgeKind;
using skeleton::SequenceOptions;
using skeleton::Skeleton;

TEST(DeadNodes, KillNodeResetsSchedulingState)
{
    Rig                    rig(Backend::cpu(2));
    std::vector<Container> seq = {
        rig.fill("w", rig.f0, 1.0),
        rig.stencil("sten", rig.f0, rig.f1),
    };
    Skeleton skl(rig.backend);
    skl.sequence(seq, SequenceOptions().withName("dead"));
    const int halo = findHaloNode(skl.graph());
    ASSERT_GE(halo, 0);
    ASSERT_GE(skl.graph().node(halo).level, 0) << "halo node must have been scheduled";

    skl.debugMutateGraph([&](skeleton::Graph& g) { g.killNode(halo); });
    const skeleton::GraphNode& n = skl.graph().node(halo);
    EXPECT_FALSE(n.alive);
    EXPECT_EQ(n.level, -1);
    EXPECT_EQ(n.stream, -1);
    EXPECT_FALSE(n.needsEvent);
    EXPECT_EQ(skl.validate().count(ViolationKind::DeadNodeScheduled), 0u)
        << skl.validate().toString();
}

TEST(DeadNodes, AddEdgeToDeadNodeThrows)
{
    Rig                    rig(Backend::cpu(1));
    std::vector<Container> seq = {
        rig.fill("w", rig.f0, 1.0),
        rig.copy("r", rig.f0, rig.f1),
    };
    skeleton::Graph g = skeleton::buildGraph(seq, 1);
    g.killNode(0);
    EXPECT_THROW(g.addEdge(0, 1, EdgeKind::RaW), NeonException);
    EXPECT_THROW(g.addEdge(1, 0, EdgeKind::Hint), NeonException);
}

TEST(DeadNodes, LintFlagsDeadNodeWithScheduleState)
{
    Rig                    rig(Backend::cpu(1));
    std::vector<Container> seq = {
        rig.fill("w", rig.f0, 1.0),
        rig.copy("r", rig.f0, rig.f1),
    };
    skeleton::Graph g = skeleton::buildGraph(seq, 1);
    int             nStreams = 0;
    const auto      tasks = skeleton::scheduleGraph(g, 8, &nStreams);

    // Simulate the historical killNode bug: mark dead but keep the level /
    // stream assignment and the stale task-list entry.
    g.node(0).alive = false;
    g.removeEdges(0, 1);
    const AnalysisReport rep = lintSchedule(g, tasks, nStreams, 1);
    EXPECT_GE(rep.count(ViolationKind::DeadNodeScheduled), 1u) << rep.toString();
}

}  // namespace neon::analysis
