// Concurrent-jobs fuzz battery for neon::service (docs/service.md,
// docs/robustness.md).
//
// Each seed derives a random multi-tenant workload — traffic trace (job
// mix, tenants, Poisson arrivals), scheduling policy, in-flight cap,
// batching, device count, host-pool width, optional transient fault plan
// (retries succeed) — and asserts:
//   1. isolation: every job's fields/scalars are bitwise equal to the
//      same JobDesc run solo on a fresh backend (concurrent scheduling,
//      batching and fault retries never leak between jobs),
//   2. every job completes (transient plans must not surface as
//      failures) and its compiled schedule lints clean (validate()),
//   3. dispatch respects admission (never more concurrent leases than
//      maxInFlight, observed via the job timeline).
//
// Reproduce a failing seed with NEON_FUZZ_SEED=<n> ./test_service_fuzz —
// every shard then runs exactly that seed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "service/traffic.hpp"
#include "skeleton/skeleton.hpp"
#include "sys/fault.hpp"

namespace neon::service {

using set::Backend;

namespace {

constexpr unsigned kSeedBase = 4000;
constexpr int      kShards = 6;
constexpr int      kSeedsPerShard = 8;

struct ServiceFuzzCase
{
    TrafficSpec   spec;
    ServiceConfig cfg;
    int           nDev = 1;
    int           hostThreads = 1;
    uint64_t      faultSeed = 0;  ///< 0 = no fault plan

    explicit ServiceFuzzCase(unsigned seed)
    {
        std::mt19937 rng(seed * 2654435761u + 41u);
        auto         pick = [&rng](int lo, int hi) {
            return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
        };
        spec = TrafficSpec()
                   .withSeed(seed)
                   .withJobs(pick(4, 8))
                   .withTenants(pick(1, 3))
                   .withMaxRuns(pick(1, 2))
                   .withMeanGap(pick(0, 1) == 0 ? 1.0e-5 : 5.0e-4);
        cfg = ServiceConfig()
                  .withPolicy(pick(0, 1) == 0 ? Policy::Fifo : Policy::FairShare)
                  .withMaxInFlight(pick(1, 3))
                  .withBatching(pick(0, 1) == 1, pick(2, 4));
        nDev = pick(1, 3);
        constexpr int kThreadAxis[] = {1, 2, 8};
        hostThreads = kThreadAxis[pick(0, 2)];
        if (pick(0, 1) == 1) {
            faultSeed = 88'000u + seed;
        }
    }

    [[nodiscard]] std::string toString() const
    {
        return "jobs=" + std::to_string(spec.jobs) + " tenants=" + std::to_string(spec.tenants) +
               " policy=" + to_string(cfg.policy) +
               " maxInFlight=" + std::to_string(cfg.maxInFlight) +
               " batching=" + std::to_string(cfg.batching ? cfg.maxBatch : 0) +
               " nDev=" + std::to_string(nDev) + " threads=" + std::to_string(hostThreads) +
               " faults=" + std::to_string(faultSeed != 0);
    }
};

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

void runSeed(unsigned seed)
{
    const ServiceFuzzCase fc(seed);
    SCOPED_TRACE("reproduce with: NEON_FUZZ_SEED=" + std::to_string(seed) + "  [" +
                 fc.toString() + "]");
    const auto trace = makeTrace(fc.spec);

    // One solo oracle per job.
    std::vector<std::vector<double>> oracle;
    oracle.reserve(trace.size());
    for (const auto& d : trace) {
        oracle.push_back(soloRun(d, fc.nDev));
    }

    set::BackendSpec spec = set::BackendSpec::cpu(fc.nDev).withHostThreads(fc.hostThreads);
    if (fc.faultSeed != 0) {
        // Transient transfers with one failed attempt: the retry layer
        // absorbs them, so results and job states must be unaffected.
        spec.withFaults(sys::FaultPlan(fc.faultSeed)
                            .add(sys::FaultSpec::transientTransfer(1).withProbability(0.3)));
    }
    Backend bk = Backend::make(spec);
    Service svc(bk, fc.cfg);

    std::vector<BuiltJob> built;
    std::vector<Job>      jobs;
    built.reserve(trace.size());
    for (const auto& d : trace) {
        built.push_back(buildJob(bk, d));
        jobs.push_back(svc.submit(std::move(built.back().request)));
    }
    svc.drain();

    ASSERT_EQ(svc.failedCount(), 0);
    ASSERT_EQ(svc.completedCount(), static_cast<int>(trace.size()));
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(built[i].desc.toString());
        ASSERT_EQ(jobs[i].state(), JobState::Completed);
        jobs[i].rethrowIfFailed();
        const auto got = snapshot(built[i]);
        ASSERT_EQ(got.size(), oracle[i].size());
        for (size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k], oracle[i][k])
                << "isolation violated at flat index " << k << " (seed " << seed << ")";
        }
        const auto lint = jobs[i].validate();
        ASSERT_TRUE(lint.clean()) << lint.toString();
        ASSERT_GE(jobs[i].latency(), 0.0);
    }
}

/// NEON_FUZZ_SEED=<n>: run exactly that seed (reproduction workflow).
bool pinnedSeed(unsigned* out)
{
    const char* env = std::getenv("NEON_FUZZ_SEED");
    if (env == nullptr || *env == '\0') {
        return false;
    }
    *out = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    return true;
}

}  // namespace

class ServiceFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(ServiceFuzz, ConcurrentJobsIsolatedAndClean)
{
    unsigned pinned = 0;
    if (pinnedSeed(&pinned)) {
        if (GetParam() != 0) {
            GTEST_SKIP() << "NEON_FUZZ_SEED pins a single seed; shard 0 runs it";
        }
        runSeed(pinned);
        return;
    }
    const unsigned first = kSeedBase + static_cast<unsigned>(GetParam() * kSeedsPerShard);
    for (unsigned s = first; s < first + kSeedsPerShard; ++s) {
        runSeed(s);
        if (::testing::Test::HasFatalFailure()) {
            return;  // the SCOPED_TRACE above already printed the seed
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Battery, ServiceFuzz, ::testing::Range(0, kShards),
                         [](const auto& info) {
                             return "shard" + std::to_string(info.param);
                         });

}  // namespace neon::service
