// service-mix: a seeded multi-tenant trace (service::makeTrace: 6 tenants,
// LBM / Poisson / FEM job shapes, Poisson arrivals at 20 jobs per virtual
// ms, at most 2 runs per job), each job built with buildJob and replayed
// through Service (fair share, 6 leases, batches of at most 4) on 4
// dry-run simulated A100s. Open loop in virtual time: latency counts from
// each job's arrival. Also the service module probe (latency percentiles,
// the rate ladder and the service's own counters).

#include <algorithm>
#include <memory>

#include "dgrid/dfield.hpp"
#include "layers.hpp"
#include "patterns/blas.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = neon::service;

constexpr int    kJobs = 1000;       ///< jobs per replay: one timed sample
constexpr int    kProbeJobs = 2000;  ///< jobs per module-probe replay
constexpr int    kWarmJobs = 250;    ///< jobs the set-up replays
constexpr int    kTenants = 6;
constexpr int    kDevices = 4;
constexpr double kRatePerMs = 20.0;
/// Rate ladder (jobs per virtual ms) and the limits a rung must meet.
constexpr double kLadder[] = {10, 15, 20, 25, 30, 35, 40};
constexpr double kP99Limit = 1e-3;
constexpr double kBacklogLimit = 1e-3;

std::vector<svc::JobDesc> makeTrace(Run& run, double ratePerMs, int jobs)
{
    return run.tracer.span("service", "makeTrace", [&] {
        return svc::makeTrace(svc::TrafficSpec()
                                  .withSeed(static_cast<unsigned>(run.opt.seed))
                                  .withJobs(jobs)
                                  .withTenants(kTenants)
                                  .withMeanGap(1e-3 / ratePerMs)
                                  .withMaxRuns(2));
    });
}

svc::ServiceConfig serviceConfig()
{
    return svc::ServiceConfig()
        .withPolicy(svc::Policy::FairShare)
        .withMaxInFlight(6)
        .withBatching(true, 4);
}

/// fn()'s result; its wall seconds are added to `acc`.
template <typename Fn>
auto timed(double& acc, Fn&& fn)
{
    const auto t0 = Clock::now();
    auto       out = fn();
    acc += secondsSince(t0);
    return out;
}

/// One replay of a trace on a fresh backend and service.
class Replay
{
   public:
    Replay(Run& run, const std::vector<svc::JobDesc>& trace, int width)
        : mRun(run), mTrace(trace)
    {
        mBackend = run.tracer.span("set", "Backend::make",
                                   [&] { return dryA100s(kDevices, width); });
        mService = run.tracer.span("service", "Service::Service", [&] {
            return std::make_unique<svc::Service>(mBackend, serviceConfig());
        });
        mJobs.reserve(trace.size());
    }

    [[nodiscard]] bool done() const { return mNext >= mTrace.size(); }
    [[nodiscard]] const neon::set::Backend& backend() const { return mBackend; }

    /// Build and submit the next job (throws what submit throws).
    void submitNext()
    {
        const auto& desc = mTrace[mNext++];
        auto&       tr = mRun.tracer;
        auto        built = timed(mBuildS, [&] {
            return tr.span("service", "buildJob", [&] { return svc::buildJob(mBackend, desc); });
        });
        try {
            mJobs.push_back(timed(mSubmitS, [&] {
                return tr.span("service", "Service::submit",
                               [&] { return mService->submit(std::move(built.request)); });
            }));
        } catch (const neon::RuntimeError& e) {
            if (e.info.kind == neon::RuntimeError::Kind::AdmissionRejected) {
                ++mRejected;
            }
            throw;
        }
        mMaxQueue = std::max(mMaxQueue, mService->queuedCount());
    }

    void drain()
    {
        mDrainS += timeIt([&] {
            mRun.tracer.span("service", "Service::drain", [&] { mService->drain(); });
        });
        mBatches = mService->batchCount();
    }

    /// Submit up to n jobs; drains when the trace is exhausted. Returns
    /// the number of jobs submitted.
    int64_t submit(int64_t n)
    {
        int64_t k = 0;
        for (; k < n && !done(); ++k) {
            mRun.attempt([&] { submitNext(); });
        }
        if (done()) {
            drain();
        }
        return k;
    }

    /// Virtual latencies (arrival to completion) of completed jobs, in
    /// submission order; failed jobs are counted, not listed.
    [[nodiscard]] std::vector<double> latencies() const
    {
        std::vector<double> lat;
        lat.reserve(mJobs.size());
        for (const auto& j : mJobs) {
            if (j.state() == svc::JobState::Completed) {
                lat.push_back(j.latency());
            }
        }
        return lat;
    }
    [[nodiscard]] int failedJobs() const
    {
        return static_cast<int>(std::count_if(mJobs.begin(), mJobs.end(), [](const auto& j) {
            return j.state() == svc::JobState::Failed;
        }));
    }
    [[nodiscard]] double lastCompletion() const
    {
        double t = 0.0;
        for (const auto& j : mJobs) {
            if (j.state() == svc::JobState::Completed) {
                t = std::max(t, j.completion());
            }
        }
        return t;
    }
    [[nodiscard]] int    rejected() const { return mRejected; }
    [[nodiscard]] int    maxQueue() const { return mMaxQueue; }
    [[nodiscard]] int    batches() const { return mBatches; }
    [[nodiscard]] double buildS() const { return mBuildS; }
    [[nodiscard]] double submitS() const { return mSubmitS; }
    [[nodiscard]] double drainS() const { return mDrainS; }

   private:
    Run&                              mRun;
    const std::vector<svc::JobDesc>&  mTrace;
    neon::set::Backend                mBackend;
    std::unique_ptr<svc::Service>     mService;
    std::vector<svc::Job>             mJobs;
    size_t                            mNext = 0;
    int                               mRejected = 0;
    int                               mMaxQueue = 0;
    int                               mBatches = 0;
    double                            mBuildS = 0.0;
    double                            mSubmitS = 0.0;
    double                            mDrainS = 0.0;
};

/// The "every job completes" check, on a replay's latency list.
bool allCompleted(const std::vector<double>& latencies, size_t jobs)
{
    return latencies.size() == jobs &&
           std::all_of(latencies.begin(), latencies.end(), [](double l) { return l > 0.0; });
}

/// The service-mix set-up: the seeded trace, then a fresh backend and
/// service replaying and draining the trace's first kWarmJobs jobs.
void warmUp(Run& run, std::vector<svc::JobDesc>& trace, int width)
{
    trace = makeTrace(run, kRatePerMs, kJobs);
    Replay warm(run, trace, width);
    (void)warm.submit(kWarmJobs);
    warm.drain();
}

void traced(Run& run, int width)
{
    std::vector<svc::JobDesc> trace;
    std::unique_ptr<Replay>   replay;
    WindowSpec                spec;
    spec.ops = 400;
    spec.setup = [&] {
        warmUp(run, trace, width);
        replay = std::make_unique<Replay>(run, trace, width);
        return replay->backend();
    };
    spec.op = [&](int64_t) { replay->submitNext(); };
    spec.finish = [&] { replay->drain(); };
    (void)tracedWindow(run, spec, width);

    auto jobSeconds = [&](int w) {
        Replay r(run, trace, w);
        return timeIt([&] { (void)r.submit(kJobs); }) / kJobs;
    };
    const double tN = jobSeconds(width);
    const double t1 = jobSeconds(1);
    run.metric("sys.pool.scaling_eff", t1 / (width * tN), "fraction");

    // Layer probes on the first job of the trace, built on its own backend.
    const auto&   desc = trace.front();
    const double  cells = static_cast<double>(desc.dim.size());
    const int32_t slots = std::max(1, desc.dim.z / kDevices);
    forkJoinProbe(run, width, neon::domain::spanChunkCount(desc.dim.size() / kDevices, slots));
    auto dispatchNs = [&](int w) {
        auto bk = dryA100s(kDevices, w);
        auto job = run.tracer.span("service", "buildJob", [&] { return svc::buildJob(bk, desc); });
        return containerNsPerCell(run, bk, job.request.ops.front(), cells, 9);
    };
    run.metric("set.dispatch_ns_per_cell.w1", dispatchNs(1), "ns");
    run.metric("set.dispatch_ns_per_cell.wN", dispatchNs(width), "ns");

    auto bk = dryA100s(kDevices, width);
    auto job = run.tracer.span("service", "buildJob", [&] { return svc::buildJob(bk, desc); });
    using Grid = neon::dgrid::DGrid;
    Grid grid = run.tracer.span("dgrid", "DGrid::DGrid", [&] { return Grid(bk, desc.dim); });
    auto f = grid.newField<double>("probe.f", 1, 1.0);
    neon::set::GlobalScalar<double> dotResult(bk, "probe.dot", 0.0);
    const auto dot = run.tracer.span("patterns", "patterns::dot",
                                     [&] { return neon::patterns::dot(grid, f, f, dotResult); });
    run.metric("patterns.dot_ns_per_cell", containerNsPerCell(run, bk, dot, cells, 9), "ns");
    run.metric("set.update_dev_ms",
               medianSpan(run, "set", "DField::updateDev", 9,
                          [&] { job.fields.front().updateDev(); }) * 1e3,
               "ms");
    run.metric("dgrid.grid_build_ms",
               medianSpan(run, "dgrid", "DGrid::DGrid", 9, [&] { (void)Grid(bk, desc.dim); }) * 1e3,
               "ms");
    run.metric("dgrid.field_alloc_ms", medianSpan(run, "dgrid", "DGrid::newField", 9, [&] {
                   (void)grid.newField<double>("probe.g", 1, 0.0);
               }) * 1e3,
               "ms");
    sequenceProbe(run, bk, job.request.ops, job.request.options, true);
}

}  // namespace

void serviceMix(Run& run)
{
    const int width = poolWidth();
    if (run.opt.trace) {
        traced(run, width);
        return;
    }
    // Set-up: the seeded trace, a fresh backend and service, and the first
    // kWarmJobs jobs replayed and drained from a cold schedule cache.
    std::vector<svc::JobDesc> trace;
    const auto                setupS = coldSetups([] {}, [&] { warmUp(run, trace, width); });

    // Fixed-rate replays, back to back; each sample is one replay.
    std::vector<double> reference;  // latencies of the first replay
    int                 replays = 0;
    int                 mismatched = 0;
    int                 incomplete = 0;
    int                 rejected = 0;
    const Loop          loop = closedLoop(run.opt.seconds, 100, [&]() -> int64_t {
        Replay        replay(run, trace, width);
        const int64_t n = replay.submit(kJobs);
        const auto    lat = replay.latencies();
        run.addFailed(replay.failedJobs());
        rejected += replay.rejected();
        incomplete += allCompleted(lat, trace.size()) ? 0 : 1;
        if (replays++ == 0) {
            reference = lat;
        } else if (lat != reference) {
            ++mismatched;
        }
        return n;
    });
    run.check("service-mix: every job of every replay completed", incomplete == 0,
              std::to_string(replays) + " replays of " + std::to_string(trace.size()) + " jobs");
    run.check("service-mix: no job rejected", rejected == 0, std::to_string(rejected));
    run.check("service-mix: virtual latencies identical in every replay", mismatched == 0,
              std::to_string(mismatched) + " differed");
    auto dropped = reference;
    if (!dropped.empty()) {
        dropped.pop_back();
    }
    run.mustReject("service-mix every job completed (one job dropped)",
                   allCompleted(dropped, trace.size()));
    endToEnd(run, setupS, loop, "job");
}

void serviceProbe(Run& run)
{
    const auto trace = makeTrace(run, kRatePerMs, kProbeJobs);
    Replay     r(run, trace, 1);
    (void)r.submit(kProbeJobs);
    const auto lat = r.latencies();
    run.metric("service.jobs", static_cast<double>(trace.size()), "count");
    run.metric("service.completed", static_cast<double>(lat.size()), "count");
    run.metric("service.failed", r.failedJobs(), "count");
    run.metric("service.rejected", r.rejected(), "count");
    run.metric("service.batches", r.batches(), "count");
    run.metric("service.queue_depth.max", r.maxQueue(), "count");
    run.metric("service.job_latency_us.p50", percentile(lat, 0.5) * 1e6, "vus");
    run.metric("service.job_latency_us.p99", percentile(lat, 0.99) * 1e6, "vus");
    run.metric("service.build_us_per_job", r.buildS() / kProbeJobs * 1e6, "us");
    run.metric("service.submit_us_per_job", r.submitS() / kProbeJobs * 1e6, "us");
    run.metric("service.drain_ms", r.drainS() * 1e3, "ms");

    // Highest ladder rate whose replay keeps p99 <= 1 ms and completes
    // within 1 ms of the last arrival (no growing backlog).
    double best = 0.0;
    for (double rate : kLadder) {
        const auto t = makeTrace(run, rate, kProbeJobs);
        Replay     rr(run, t, 1);
        (void)rr.submit(kProbeJobs);
        const auto   l = rr.latencies();
        const double p99 = percentile(l, 0.99);
        const double backlog = rr.lastCompletion() - t.back().arrival;
        const bool   ok = allCompleted(l, t.size()) && p99 <= kP99Limit && backlog <= kBacklogLimit;
        run.note("rate " + std::to_string(rate) + "/ms: p99 " + std::to_string(p99 * 1e6) +
                 " us, finished " + std::to_string(backlog * 1e6) + " us after last arrival" +
                 (ok ? "" : " (over limit)"));
        if (ok) {
            best = rate;
        }
    }
    run.metric("service.max_rate_jobs_per_ms", best, "jobs/ms");
}

}  // namespace perfbench
