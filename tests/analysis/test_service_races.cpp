// Cross-job race coverage for the neon::service layer (docs/service.md).
//
// Two service jobs sharing a field must be serialized by the per-uid data
// chains (Backend::dataBarriers) even though they run on disjoint stream
// leases — the race detector stays clean and the reader sees the writer's
// values. With the chains debug-disabled (ServiceConfig::withChainData
// (false), the analogue of the historical per-skeleton barrier), the same
// pair of jobs is an ordering bug, and the PR-3 happens-before race
// detector must flag it with correct container attribution. Jobs over
// disjoint fields share no chain events and are free to overlap.

#include <gtest/gtest.h>

#include "analysis_fixture.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"

namespace neon::analysis {

using service::Job;
using service::JobRequest;
using service::JobState;
using service::Policy;
using service::Service;
using service::ServiceConfig;
using set::Backend;

TEST(ServiceRaces, SharedFieldJobsSerializedByDataChainsOrFlagged)
{
    for (bool chain : {true, false}) {
        SCOPED_TRACE(chain ? "data chains on" : "data chains off");
        Rig  rig(Backend::cpu(2));
        auto an = rig.backend.analysis();
        an.enable();
        Service svc(rig.backend,
                    ServiceConfig().withMaxInFlight(2).withBatching(false).withChainData(chain));

        // Writer job fills f0/f1 on two parallel streams of its lease; the
        // reader job copies f1 from a different lease. Only the data chain
        // orders the cross-job pair.
        JobRequest writer;
        writer.tenant = "a";
        writer.name = "writer";
        writer.ops = {rig.fill("wa", rig.f0, 1.0), rig.fill("wb", rig.f1, 2.0)};
        JobRequest reader;
        reader.tenant = "b";
        reader.name = "reader";
        reader.ops = {rig.copy("rb", rig.f1, rig.f2)};

        const Job w = svc.submit(std::move(writer));
        const Job r = svc.submit(std::move(reader));
        svc.drain();
        ASSERT_EQ(w.state(), JobState::Completed);
        ASSERT_EQ(r.state(), JobState::Completed);

        const AnalysisReport rep = an.raceReport();
        if (chain) {
            EXPECT_TRUE(rep.clean()) << rep.toString();
            rig.f2.updateHost();
            rig.grid.dim().forEach([&](const index_3d& g) {
                ASSERT_EQ(rig.f2.hVal(g), 2.0) << "reader must see the writer's values";
            });
        } else {
            EXPECT_GE(rep.count(ViolationKind::Race), 1u)
                << "unchained cross-job conflict must be flagged\n" << rep.toString();
            bool attributed = false;
            for (const auto& v : rep.violations) {
                if (v.kind == ViolationKind::Race &&
                    ((v.containerA == "wb" && v.containerB == "rb") ||
                     (v.containerA == "rb" && v.containerB == "wb"))) {
                    attributed = true;
                }
            }
            EXPECT_TRUE(attributed) << rep.toString();
        }
    }
}

TEST(ServiceRaces, DisjointFieldJobsOverlapAndStayClean)
{
    // Non-zero cost model so start/completion actually discriminate.
    Backend bk = Backend::simGpu(1);
    auto    an = bk.analysis();
    an.enable();
    Service svc(bk, ServiceConfig().withMaxInFlight(2).withBatching(false));

    // Two traffic jobs: each builds its own fields, so their uid sets are
    // disjoint and the chains add no cross-job waits.
    auto trace = service::makeTrace(service::TrafficSpec().withSeed(41).withJobs(2));
    for (auto& d : trace) {
        d.arrival = 0.0;
        d.runs = 2;
    }
    auto     b0 = service::buildJob(bk, trace[0]);
    auto     b1 = service::buildJob(bk, trace[1]);
    const Job j0 = svc.submit(std::move(b0.request));
    const Job j1 = svc.submit(std::move(b1.request));
    svc.drain();

    ASSERT_EQ(j0.state(), JobState::Completed);
    ASSERT_EQ(j1.state(), JobState::Completed);
    EXPECT_LT(j1.start(), j0.completion())
        << "disjoint jobs must overlap in virtual time on separate leases";
    const AnalysisReport rep = an.raceReport();
    EXPECT_TRUE(rep.clean()) << rep.toString();
}

// The PR-2 ping-pong chaining regression: successive runs over the same
// fields — issued through two different Skeletons — are ordered by the
// per-uid chains that replaced the backend-wide run barrier.
TEST(ServiceRaces, PingPongChainingAcrossSkeletonsStillHolds)
{
    Rig  rig(Backend::cpu(3));
    auto an = rig.backend.analysis();
    an.enable();
    skeleton::Skeleton even(rig.backend);
    skeleton::Skeleton odd(rig.backend);
    even.sequence({rig.stencil("even", rig.f0, rig.f1)},
                  skeleton::SequenceOptions().withName("even"));
    odd.sequence({rig.stencil("odd", rig.f1, rig.f0)}, skeleton::SequenceOptions().withName("odd"));
    for (int step = 0; step < 3; ++step) {
        even.run();
        odd.run();
    }
    even.sync();
    const AnalysisReport rep = an.raceReport();
    EXPECT_TRUE(rep.clean()) << rep.toString();

    // Oracle: the same six sweeps through one skeleton on a fresh rig.
    Rig                ref(Backend::cpu(3));
    skeleton::Skeleton one(ref.backend);
    one.sequence({ref.stencil("even", ref.f0, ref.f1), ref.stencil("odd", ref.f1, ref.f0)},
                 skeleton::SequenceOptions().withName("pair"));
    for (int step = 0; step < 3; ++step) {
        one.run();
    }
    one.sync();
    rig.f0.updateHost();
    ref.f0.updateHost();
    rig.grid.dim().forEach([&](const index_3d& g) {
        ASSERT_EQ(rig.f0.hVal(g), ref.f0.hVal(g)) << "ping-pong chaining diverged";
    });
}

}  // namespace neon::analysis
