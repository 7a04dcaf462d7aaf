// Multi-tenant service battery (docs/service.md).
//
// Asserts the four contract properties of neon::service across host-pool
// widths:
//   1. isolation — every job's fields/scalars are bitwise equal to the
//      same job run solo on a fresh backend,
//   2. FIFO preserves per-tenant (and global) dispatch order,
//   3. fair-share bounds the damage a hog tenant does to a victim
//      tenant's latency relative to FIFO,
//   4. admission control rejects over-quota submissions with a fully
//      attributed RuntimeError (Kind::AdmissionRejected, jobId, tenant),
// plus batching (structurally identical jobs share one stream lease) and
// the serialized maxInFlight=1 baseline degenerating to solo behavior.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "service/traffic.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::service {

using set::Backend;

namespace {

/// Scoped NEON_THREADS override (read at Backend::make time).
struct EnvGuard
{
    const char* key;
    EnvGuard(const char* k, const std::string& v) : key(k) { ::setenv(k, v.c_str(), 1); }
    ~EnvGuard() { ::unsetenv(key); }
};

/// Oracle: the same JobDesc built and run alone on a fresh backend of the
/// same shape (device count drives partitioning, so it must match).
std::vector<double> soloRun(const JobDesc& desc, int nDev)
{
    Backend            bk = Backend::cpu(nDev);
    BuiltJob           bj = buildJob(bk, desc);
    skeleton::Skeleton skl(bk);
    skl.sequence(bj.request.ops, bj.request.options);
    for (int r = 0; r < bj.request.runs; ++r) {
        skl.run();
    }
    skl.sync();
    return snapshot(bj);
}

void expectBitwise(const std::vector<double>& got, const std::vector<double>& want,
                   const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << what << ": diverged at flat index " << i;
    }
}

/// Host-pool widths every property is checked at.
constexpr int kPoolWidths[] = {1, 8};

}  // namespace

// Property 1: concurrent execution on the shared backend never leaks
// between jobs — every result is bitwise the solo result.
TEST(Service, IsolationBitwiseEqualToSoloRuns)
{
    const auto trace = makeTrace(TrafficSpec().withSeed(11).withJobs(18).withTenants(3));
    for (const int threads : kPoolWidths) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EnvGuard guard("NEON_THREADS", std::to_string(threads));
        const int nDev = 2;
        Backend   bk = Backend::cpu(nDev);
        Service   svc(bk, ServiceConfig().withMaxInFlight(4).withBatching(true, 3));

        std::vector<BuiltJob> built;
        std::vector<Job>      jobs;
        built.reserve(trace.size());
        for (const auto& d : trace) {
            built.push_back(buildJob(bk, d));
            jobs.push_back(svc.submit(std::move(built.back().request)));
        }
        svc.drain();

        ASSERT_EQ(svc.completedCount(), static_cast<int>(trace.size()));
        ASSERT_EQ(svc.failedCount(), 0);
        for (size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE(built[i].desc.toString());
            ASSERT_EQ(jobs[i].state(), JobState::Completed);
            jobs[i].rethrowIfFailed();
            EXPECT_GE(jobs[i].latency(), 0.0);
            EXPECT_GE(jobs[i].queueDelay(), 0.0);
            expectBitwise(snapshot(built[i]), soloRun(built[i].desc, nDev),
                          "job " + std::to_string(jobs[i].id()));
        }
    }
}

// Property 2: FIFO dispatches in submission order — globally (equal
// arrivals) and therefore per tenant.
TEST(Service, FifoPreservesPerTenantSubmissionOrder)
{
    auto trace = makeTrace(TrafficSpec().withSeed(23).withJobs(16).withTenants(4));
    for (auto& d : trace) {
        d.arrival = 0.0;  // all-at-once burst: order must come from policy
    }
    for (const int threads : kPoolWidths) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EnvGuard guard("NEON_THREADS", std::to_string(threads));
        Backend  bk = Backend::cpu(2);
        Service  svc(bk, ServiceConfig().withPolicy(Policy::Fifo).withMaxInFlight(2));

        std::vector<Job> jobs;
        for (const auto& d : trace) {
            auto bj = buildJob(bk, d);
            jobs.push_back(svc.submit(std::move(bj.request)));
        }
        svc.drain();

        std::map<std::string, int> lastSeq;
        for (size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_EQ(jobs[i].state(), JobState::Completed);
            if (i > 0) {
                EXPECT_LT(jobs[i - 1].startSeq(), jobs[i].startSeq())
                    << "global FIFO order broken at submission " << i;
            }
            auto it = lastSeq.find(jobs[i].tenant());
            if (it != lastSeq.end()) {
                EXPECT_LT(it->second, jobs[i].startSeq())
                    << "tenant " << jobs[i].tenant() << " dispatch order broken";
            }
            lastSeq[jobs[i].tenant()] = jobs[i].startSeq();
        }
    }
}

// Property 3: under a hog tenant flooding the queue, fair-share bounds the
// victim tenant's worst latency strictly below what FIFO gives it.
TEST(Service, FairShareBoundsVictimLatencyUnderHogTenant)
{
    auto runPolicy = [](Policy policy) {
        Backend bk = Backend::simGpu(2);  // non-zero cost model: latencies discriminate
        Service svc(bk,
                    ServiceConfig().withPolicy(policy).withMaxInFlight(2).withBatching(false));
        const auto trace = makeTrace(TrafficSpec().withSeed(7).withJobs(16).withTenants(1));
        std::vector<Job> victims;
        for (int i = 0; i < 12; ++i) {  // hog burst first
            auto d = trace[static_cast<size_t>(i)];
            d.tenant = "hog";
            d.arrival = 0.0;
            auto bj = buildJob(bk, d);
            svc.submit(std::move(bj.request));
        }
        for (int i = 12; i < 16; ++i) {  // victim jobs submitted after the burst
            auto d = trace[static_cast<size_t>(i)];
            d.tenant = "victim";
            d.arrival = 0.0;
            auto bj = buildJob(bk, d);
            victims.push_back(svc.submit(std::move(bj.request)));
        }
        svc.drain();
        double worst = 0.0;
        for (auto& v : victims) {
            EXPECT_EQ(v.state(), JobState::Completed);
            worst = std::max(worst, v.latency());
        }
        return worst;
    };
    const double fifoWorst = runPolicy(Policy::Fifo);
    const double fairWorst = runPolicy(Policy::FairShare);
    EXPECT_LT(fairWorst, fifoWorst)
        << "fair-share must bound the victim tenant's worst latency below FIFO";
}

// Property 4: per-tenant quota rejects with full attribution, does not
// enqueue the rejected request, and frees up after a drain.
TEST(Service, QuotaRejectsOverQuotaSubmissionsWithAttribution)
{
    for (const int threads : kPoolWidths) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EnvGuard guard("NEON_THREADS", std::to_string(threads));
        // Non-zero cost model: in-flight jobs take virtual time to finish,
        // so the quota actually binds (zero-cost jobs retire instantly).
        Backend bk = Backend::simGpu(1, sys::SimConfig::dgxA100Like());
        Service svc(bk, ServiceConfig().withMaxInFlight(1).withTenantQuota(2));

        const auto trace = makeTrace(TrafficSpec().withSeed(3).withJobs(4).withTenants(1));
        auto       submitAs = [&](int i, const std::string& tenant) {
            auto d = trace[static_cast<size_t>(i)];
            d.tenant = tenant;
            d.arrival = 0.0;
            auto bj = buildJob(bk, d);
            return svc.submit(std::move(bj.request));
        };

        submitAs(0, "hog");
        submitAs(1, "hog");
        bool rejected = false;
        try {
            submitAs(2, "hog");
        } catch (const RuntimeError& e) {
            rejected = true;
            EXPECT_EQ(e.info.kind, RuntimeError::Kind::AdmissionRejected);
            EXPECT_EQ(e.info.tenant, "hog");
            EXPECT_GE(e.info.jobId, 0);
            EXPECT_NE(std::string(e.what()).find("admission rejected"), std::string::npos);
            EXPECT_NE(std::string(e.what()).find("tenant 'hog'"), std::string::npos);
        }
        EXPECT_TRUE(rejected) << "third over-quota submission must be refused";
        // Another tenant is unaffected by hog's quota.
        const Job other = submitAs(3, "polite");
        EXPECT_EQ(static_cast<int>(svc.jobs().size()), 3);
        svc.drain();
        EXPECT_EQ(other.state(), JobState::Completed);
        // Quota is over active jobs: after the drain the tenant may submit again.
        const Job retry = submitAs(2, "hog");
        svc.drain();
        EXPECT_EQ(retry.state(), JobState::Completed);
        EXPECT_EQ(svc.failedCount(), 0);
    }
}

// Structurally identical concurrent jobs share one stream lease (batching)
// and still compute solo-identical results.
TEST(Service, BatchingGroupsStructurallyIdenticalJobs)
{
    auto trace = makeTrace(TrafficSpec().withSeed(5).withJobs(6).withTenants(2));
    for (auto& d : trace) {  // force one structural class, single burst
        d.kind = WorkloadKind::Lbm;
        d.dim = index_3d{4, 4, 8};
        d.arrival = 0.0;
        d.runs = 1;
    }
    for (bool batching : {true, false}) {
        // Non-zero cost + a small lease cap: the burst queues up behind the
        // first two dispatch groups, so later dispatches see batchable
        // siblings waiting in the queue.
        Backend bk = Backend::simGpu(2);
        Service svc(bk, ServiceConfig().withMaxInFlight(2).withBatching(batching, 3));
        std::vector<BuiltJob> built;
        std::vector<Job>      jobs;
        for (const auto& d : trace) {
            built.push_back(buildJob(bk, d));
            jobs.push_back(svc.submit(std::move(built.back().request)));
        }
        svc.drain();
        if (batching) {
            EXPECT_GE(svc.batchCount(), 1) << "identical burst must form a batch";
            int batchedJobs = 0;
            for (auto& j : jobs) {
                batchedJobs += j.batched() ? 1 : 0;
            }
            EXPECT_GE(batchedJobs, 2);
        } else {
            EXPECT_EQ(svc.batchCount(), 0);
        }
        for (size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_EQ(jobs[i].state(), JobState::Completed);
            expectBitwise(snapshot(built[i]), soloRun(built[i].desc, 2),
                          std::string("batching=") + (batching ? "on" : "off") + " job " +
                              std::to_string(jobs[i].id()));
        }
    }
}

// maxInFlight=1 is the serialized baseline: still correct, zero overlap.
TEST(Service, SerializedBaselineMatchesSoloAndNeverOverlaps)
{
    const auto trace = makeTrace(TrafficSpec().withSeed(13).withJobs(8).withTenants(2));
    Backend    bk = Backend::simGpu(2);
    Service    svc(bk, ServiceConfig().withMaxInFlight(1).withBatching(false));
    std::vector<BuiltJob> built;
    std::vector<Job>      jobs;
    for (const auto& d : trace) {
        built.push_back(buildJob(bk, d));
        jobs.push_back(svc.submit(std::move(built.back().request)));
    }
    svc.drain();
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(jobs[i].state(), JobState::Completed);
        if (i > 0) {
            // serialized: job i never starts before job i-1 completed
            EXPECT_GE(jobs[i].start(), jobs[i - 1].completion());
        }
    }
}

// Per-job ExecutionReports come from the jobId-stamped trace rows: each
// job sees only its own ops, and utilization is attributable per job.
TEST(Service, PerJobReportsAreAttributedViaTrace)
{
    auto trace = makeTrace(TrafficSpec().withSeed(17).withJobs(4).withTenants(2));
    Backend bk = Backend::simGpu(2);
    bk.profiler().enable();
    Service               svc(bk, ServiceConfig().withMaxInFlight(2));
    std::vector<Job>      jobs;
    for (const auto& d : trace) {
        auto bj = buildJob(bk, d);
        jobs.push_back(svc.submit(std::move(bj.request)));
    }
    svc.drain();
    for (auto& j : jobs) {
        ASSERT_EQ(j.state(), JobState::Completed);
        const auto rep = j.report();
        EXPECT_GT(rep.toJson().size(), 2u);
        const auto lint = j.validate();
        EXPECT_TRUE(lint.clean()) << lint.toString();
    }
    // jobId-stamped rows partition: sum of per-job kernel rows == total.
    auto&  tr = bk.profiler().trace();
    size_t perJob = 0;
    for (auto& j : jobs) {
        perJob += tr.entriesForJob(j.id()).size();
    }
    size_t stamped = 0;
    for (const auto& e : tr.entries()) {
        stamped += e.jobId >= 0 ? 1 : 0;
    }
    EXPECT_EQ(perJob, stamped);
    EXPECT_GT(perJob, 0u);
}

}  // namespace neon::service
