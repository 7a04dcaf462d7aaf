#include "layers.hpp"

#include <map>
#include <string>

#include "set/profiler.hpp"
#include "skeleton/schedule_cache.hpp"
#include "sys/execution_report.hpp"
#include "sys/thread_pool.hpp"

namespace perfbench {

namespace {

/// Layers spans are attributed to, in the order the metrics list them.
constexpr const char* kLayers[] = {"sys",    "set", "dgrid",   "skeleton", "patterns",
                                   "solver", "lbm", "poisson", "service"};

void recordReport(Run& run, const neon::ExecutionReport& r, double units)
{
    double compute = 0.0;
    double transfer = 0.0;
    for (const auto& d : r.devices()) {
        compute += d.computeBusy;
        transfer += d.transferBusy;
    }
    const double devs = std::max<double>(1.0, static_cast<double>(r.devices().size()));
    const double perUnitUs = 1e6 / units;
    run.metric("sys.halo_bytes_per_iter", static_cast<double>(r.haloBytes()) / units, "B");
    run.metric("sys.vtime.op_us", r.makespan() * perUnitUs, "vus");
    run.metric("sys.vtime.compute_busy_us", compute / devs * perUnitUs, "vus");
    run.metric("sys.vtime.transfer_busy_us", transfer / devs * perUnitUs, "vus");
    run.metric("sys.vtime.overlap_pct", r.overlapPercent(), "%");
    run.metric("sys.vtime.wait_us", r.totalWaitTime() / devs * perUnitUs, "vus");
    run.metric("sys.vtime.critical_path_us", r.criticalPath() * perUnitUs, "vus");
    run.metric("sys.vtime.utilization", r.deviceUtilization(), "fraction");
}

}  // namespace

int tracedWindow(Run& run, const WindowSpec& spec, int width)
{
    auto&        cache = skeleton::ScheduleCache::instance();
    auto&        tr = run.tracer;
    const double units = static_cast<double>(spec.units > 0 ? spec.units : spec.ops);

    auto opsPart = [&] {
        for (int64_t i = 0; i < spec.ops; ++i) {
            tr.setOp(i);
            run.attempt([&] { spec.op(i); });
        }
        tr.setOp(-1);
        if (spec.finish) {
            spec.finish();
        }
    };

    // Untraced pass: the same cold set-up and operations.
    cache.clear();
    double       untracedOpsWall = 0.0;
    const double untracedWall = timeIt([&] {
        (void)spec.setup();
        untracedOpsWall = timeIt(opsPart);
    });

    // Traced pass.
    cache.clear();
    const auto before = cache.stats();
    tr.enable(true);
    const int root = tr.open("bench", "traced window");
    const auto   t0 = Clock::now();
    set::Backend backend = spec.setup();
    auto         prof = backend.profiler();
    prof.clear();
    backend.resetClocks();
    prof.enable(true);
    const double tracedOpsWall = timeIt(opsPart);
    const double tracedWall = secondsSince(t0);
    tr.close(root);
    prof.enable(false);
    const auto after = cache.stats();

    const auto   rows = prof.trace().entries();
    const double reportS = timeIt(
        [&] { (void)tr.span("set", "Profiler::report", [&] { return prof.report(); }); });
    // hostPool rows carry wall busy time on the virtual axis; the virtual
    // report leaves them out.
    auto virtualRows = spec.keepRows ? spec.keepRows(rows) : rows;
    std::erase_if(virtualRows, [](const auto& e) { return e.kind == "hostPool"; });
    const auto report = neon::ExecutionReport::fromEntries(virtualRows, backend.devCount());

    double streamOps = 0.0;
    double poolBusy = 0.0;
    for (const auto& e : rows) {
        if (e.kind == "hostPool") {
            poolBusy += e.endV - e.startV;
        } else if (e.kind != "fault") {
            streamOps += 1.0;
        }
    }
    const double opsPerUnit = streamOps / units;
    run.metric("sys.pool.busy_fraction", poolBusy / (width * tracedOpsWall), "fraction");
    run.metric("sys.ops_per_iter", opsPerUnit, "count");
    run.metric("sys.enqueue_ns_per_op",
               opsPerUnit > 0 ? untracedOpsWall / units / opsPerUnit * 1e9 : 0.0, "ns");
    recordReport(run, report, units);
    run.metric("sys.trace.overhead_pct", (tracedWall / untracedWall - 1.0) * 100.0, "%");
    run.metric("set.profiler.report_s", reportS, "s");
    run.metric("set.profiler.trace_rows", static_cast<double>(rows.size()), "count");
    const double lookups = static_cast<double>((after.hits - before.hits) +
                                               (after.misses - before.misses));
    run.metric("skeleton.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0.0,
               "fraction");

    std::map<std::string, double> self;
    for (const auto& [layer, s] : tr.selfTimes(root)) {
        self[layer] = s;
    }
    const double rootS = tr.duration(root);
    for (const char* layer : kLayers) {
        run.metric(std::string("trace.self_pct.") + layer, self[layer] / rootS * 100.0, "%");
    }
    run.metric("trace.self_pct.unattributed", self["unattributed"] / rootS * 100.0, "%");
    return root;
}

set::Backend dryA100s(int n, int width)
{
    auto cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    return set::Backend::make(set::BackendSpec::simGpu(n, cfg).withHostThreads(width));
}

void forkJoinProbe(Run& run, int width, int chunks)
{
    // 1000 timed calls so that p99 has 10 samples beyond it.
    constexpr int   kWarmup = 100;
    constexpr int   kTimed = 1000;
    sys::ThreadPool pool(width);
    sys::ChunkFn    noop = [](void*, int32_t, int32_t) {};
    std::vector<double> us;
    us.reserve(kTimed);
    for (int i = 0; i < kWarmup + kTimed; ++i) {
        double s = 0.0;
        run.tracer.span("sys", "ThreadPool::parallelFor",
                        [&] { s = timeIt([&] { pool.parallelFor(chunks, noop, nullptr); }); });
        if (i >= kWarmup) {
            us.push_back(s * 1e6);
        }
    }
    run.metric("sys.pool.width", width, "count");
    run.metric("sys.pool.chunks", chunks, "count");
    run.metric("sys.pool.fork_join_us.p50", percentile(us, 0.5), "us");
    run.metric("sys.pool.fork_join_us.p99", percentile(us, 0.99), "us");
}

void sequenceProbe(Run& run, const set::Backend& backend, const std::vector<set::Container>& ops,
                   const skeleton::SequenceOptions& options, bool timeRuns)
{
    constexpr int      kReps = 11;
    skeleton::Skeleton skl(backend);
    const auto         uncached = skeleton::SequenceOptions(options).withCache(false);
    const double       compile = medianSpan(run, "skeleton", "Skeleton::sequence (uncached)",
                                            kReps, [&] { (void)skl.sequence(ops, uncached); });
    (void)skl.sequence(ops, options);  // prime the cache
    const double cached = medianSpan(run, "skeleton", "Skeleton::sequence", kReps,
                                     [&] { (void)skl.sequence(ops, options); });
    const auto handle = skl.compiled();
    run.metric("skeleton.sequence_compile_us", compile * 1e6, "us");
    run.metric("skeleton.sequence_cached_us", cached * 1e6, "us");
    run.metric("skeleton.tasks_per_run", handle.taskCount(), "count");
    run.metric("skeleton.nodes", handle.nodeCount(), "count");
    run.metric("skeleton.streams", handle.streamCount(), "count");
    if (timeRuns) {
        constexpr int       kRuns = 21;
        std::vector<double> runS, syncS;
        for (int i = 0; i < kRuns; ++i) {
            runS.push_back(medianSpan(run, "skeleton", "Skeleton::run", 1, [&] { skl.run(); }));
            syncS.push_back(
                medianSpan(run, "skeleton", "Skeleton::sync", 1, [&] { skl.sync(); }));
        }
        run.metric("skeleton.run_us", median(runS) * 1e6, "us");
        run.metric("skeleton.sync_us", median(syncS) * 1e6, "us");
    }
}

double containerNsPerCell(Run& run, const set::Backend& backend, const set::Container& c,
                          double cells, int reps)
{
    const set::StreamSet streams(backend, 0);
    // One untimed launch first (lazy trampolines, pool start-up).
    c.run(streams);
    backend.sync();
    const double s = medianSpan(run, "set", "Container::run+sync", reps, [&] {
        c.run(streams);
        backend.sync();
    });
    return s * 1e9 / cells;
}

std::vector<double> coldSetups(const std::function<void()>& prepare,
                               const std::function<void()>& build)
{
    std::vector<double> s;
    double              total = 0.0;
    while (s.size() < 3 || (total < 2.0 && s.size() < 501)) {
        prepare();
        skeleton::ScheduleCache::instance().clear();
        s.push_back(timeIt(build));
        total += s.back();
    }
    return s;
}

double medianSpan(Run& run, const char* layer, const char* name, int reps,
                  const std::function<void()>& fn)
{
    std::vector<double> t;
    t.reserve(static_cast<size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        run.tracer.span(layer, name, [&] { t.push_back(timeIt(fn)); });
    }
    return median(t);
}

}  // namespace perfbench
