// Runtime-overhead microbench (docs/performance.md): wall-clock cost of the
// parts of the runtime the paper's figures never show —
//   (a) ns per enqueued op on the zero-cost backend (the skeleton run loop:
//       completion events, stream waits, launch dispatch), over the ops an
//       enqueue hook counts in one cached run (records and zero-length
//       waits leave no trace row, so trace rows would undercount them),
//   (b) sequence() compilation cost: full pipeline (graph -> OCC ->
//       transitive reduction -> schedule) vs a schedule-cache replay of the
//       same structure,
//   (c) CPU-device dispatch: ns per cell of a map kernel through the
//       devirtualized trampoline path, host pool pinned to one thread so
//       the number is dispatch overhead rather than parallel speedup,
//   (d) the CG abstraction ratio: one-thread 32^3 cgSolve against the
//       hand-written NativeCg on the same seeded right-hand side (median
//       of interleaved solves, so host load cancels out of the ratio),
//   (e) trace cost: the Fig. 8 CG (320^3 on 8 dry-run A100s, standard OCC,
//       200 fixed iterations) with the trace off and on, medians of
//       interleaved solves, and the rows one traced solve records.
// Emits BENCH_overhead_report.json; CI gates enqueue cost, cached-sequence
// cost and ns-per-cell dispatch against
// bench/baselines/BENCH_overhead_baseline.json,
// requires the cached path to be >= 10x cheaper than the compile path and
// bounds the CG and trace on/off ratios (tools/check_bench_reports.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <vector>

#include "common/benchtool.hpp"
#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "patterns/blas.hpp"
#include "poisson/native.hpp"
#include "poisson/poisson.hpp"
#include "skeleton/schedule_cache.hpp"
#include "skeleton/skeleton.hpp"

using namespace neon;

namespace {

constexpr int      kDevices = 4;
/// Tiny domain on purpose: the functional simulation still executes every
/// cell, so a small span keeps wall clock dominated by per-op runtime
/// bookkeeping (events, stream waits, dispatch) rather than cell loops.
constexpr index_3d kDim{6, 6, 16};
constexpr int      kPipelineRounds = 6;  ///< ops = 4 * rounds

using Clock = std::chrono::steady_clock;

double nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(t1 - t0).count();
}

/// The benchmark workload: rounds of map -> stencil -> dot -> scalar over
/// rotating fields. Structure is fixed so every instance shares one
/// schedule-cache key.
struct Workload
{
    dgrid::DGrid                       grid;
    std::vector<dgrid::DField<double>> fields;
    set::GlobalScalar<double>          s, alpha;
    std::vector<set::Container>        ops;

    explicit Workload(const set::Backend& backend)
        : grid(backend, kDim, Stencil::laplace7()), s(backend, "s", 0.2), alpha(backend, "a", 0.1)
    {
        for (int i = 0; i < 3; ++i) {
            auto f = grid.newField<double>("f" + std::to_string(i), 1, 0.0);
            f.forEachHost([i](const index_3d& g, int, double& v) {
                v = 0.001 * (g.x + g.y + g.z) + 0.1 * i;
            });
            f.updateDev();
            fields.push_back(std::move(f));
        }
        for (int r = 0; r < kPipelineRounds; ++r) {
            auto src = fields[static_cast<size_t>(r % 3)];
            auto dst = fields[static_cast<size_t>((r + 1) % 3)];
            auto al = alpha;
            ops.push_back(grid.newContainer("map" + std::to_string(r),
                                            [src, dst, al](auto& l) mutable {
                                                auto sp = l.load(src, Access::READ);
                                                auto dp = l.load(dst, Access::WRITE);
                                                auto av = l.load(al, Access::READ);
                                                return [=](const dgrid::DCell& c) mutable {
                                                    dp(c) = 0.9 * dp(c) + av() * sp(c);
                                                };
                                            }));
            auto st = fields[static_cast<size_t>((r + 2) % 3)];
            ops.push_back(grid.newContainer("sten" + std::to_string(r),
                                            [dst, st](auto& l) mutable {
                                                auto sp = l.load(dst, Access::READ,
                                                                 Compute::STENCIL);
                                                auto op = l.load(st, Access::WRITE);
                                                return [=](const dgrid::DCell& c) mutable {
                                                    double acc = -6.0 * sp(c);
                                                    for (const auto& off :
                                                         Stencil::laplace7().points()) {
                                                        acc += sp.nghVal(c, off);
                                                    }
                                                    op(c) = sp(c) + 0.05 * acc;
                                                };
                                            }));
            ops.push_back(patterns::dot(grid, dst, st, s, "dot" + std::to_string(r)));
            auto sc = s;
            ops.push_back(set::Container::scalarOp<double>(
                "scal" + std::to_string(r), grid.backend(), {sc}, {al}, [sc, al]() mutable {
                    al.set(0.5 * al.hostValue() +
                           sc.hostValue() / (1.0 + std::abs(sc.hostValue())));
                }));
        }
    }
};

/// Counts every op enqueued while it is the engine's hook.
class EnqueueCounter final : public sys::EnqueueHook
{
   public:
    void onEnqueue(const sys::Stream& /*stream*/, const sys::Op& /*op*/) override { ++ops; }

    size_t ops = 0;
};

double medianNs(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

/// (d) The CG abstraction ratio: Neon's cgSolve and NativeCg solve the same
/// 32^3 Poisson problem from x = 0 to 1e-8, both on one host thread.
constexpr index_3d kCgDim{32, 32, 32};
constexpr double   kCgTolerance = 1e-8;
constexpr int      kCgMaxIterations = 1000;
constexpr int      kCgReps = 15;

struct CgRatio
{
    benchtool::PairedMedians seconds;  ///< a: Neon, b: native
    int                      neonIters = 0;
    int                      nativeIters = 0;
    bool                     converged = true;
};

CgRatio measureCgRatio()
{
    using Field = dgrid::DField<double>;
    std::mt19937_64                        rng(7);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double>                    rhs(kCgDim.size());
    for (auto& v : rhs) {
        v = dist(rng);
    }

    auto         backend = set::Backend::make(set::BackendSpec::cpu(1).withHostThreads(1));
    dgrid::DGrid grid(backend, kCgDim, Stencil::laplace7());
    Field        x = grid.newField<double>("x", 1, 0.0);
    Field        b = grid.newField<double>("b", 1, 0.0);
    b.forEachHost([&](const index_3d& g, int, double& v) { v = rhs[kCgDim.pitch(g)]; });
    b.updateDev();
    const std::function<set::Container(Field, Field)> apply = [&grid](Field in, Field out) {
        return poisson::makeLaplacianApply(grid, in, out);
    };
    solver::CgOptions options;
    options.maxIterations = kCgMaxIterations;
    options.tolerance = kCgTolerance;

    CgRatio r;
    r.seconds = benchtool::interleavedMedians(
        kCgReps,
        [&] {
            x.fillHost(0.0);
            x.updateDev();
            const auto t0 = Clock::now();
            const auto res =
                solver::cgSolve<dgrid::DGrid, Field, double>(grid, apply, x, b, options);
            const double ns = nsBetween(t0, Clock::now());
            r.neonIters = res.iterations;
            r.converged = r.converged && res.converged;
            return ns * 1e-9;
        },
        [&] {
            poisson::native::NativeCg cg(kCgDim);
            cg.rhs() = rhs;
            const auto   t0 = Clock::now();
            const auto   res = cg.solve(kCgMaxIterations, kCgTolerance);
            const double ns = nsBetween(t0, Clock::now());
            r.nativeIters = res.iterations;
            r.converged = r.converged && res.converged;
            return ns * 1e-9;
        });
    return r;
}

/// (e) Trace cost: the dry-run CG of Fig. 8, where host time is the runtime
/// itself, so every trace row's cost shows.
constexpr index_3d kTraceDim{320, 320, 320};
constexpr int      kTraceDevices = 8;
constexpr int      kTraceIterations = 200;
constexpr int      kTraceReps = 31;

struct TraceCost
{
    benchtool::PairedMedians seconds;  ///< a: trace off, b: trace on
    size_t                   rows = 0;  ///< rows of one traced solve
};

TraceCost measureTraceCost()
{
    using Field = dgrid::DField<double>;
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    auto         backend = set::Backend::make(set::BackendSpec::simGpu(kTraceDevices, cfg));
    dgrid::DGrid grid(backend, kTraceDim, Stencil::laplace7());
    Field        x = grid.newField<double>("x", 1, 0.0);
    Field        b = grid.newField<double>("b", 1, 0.0);
    const std::function<set::Container(Field, Field)> apply = [&grid](Field in, Field out) {
        return poisson::makeLaplacianApply(grid, in, out);
    };
    solver::CgOptions options;
    options.maxIterations = kTraceIterations;
    options.occ = Occ::STANDARD;
    options.fixedIterations = true;

    auto profiler = backend.profiler();
    auto solve = [&](bool traced) {
        profiler.clear();
        profiler.enable(traced);
        const auto t0 = Clock::now();
        (void)solver::cgSolve<dgrid::DGrid, Field, double>(grid, apply, x, b, options);
        const double ns = nsBetween(t0, Clock::now());
        profiler.enable(false);
        return ns * 1e-9;
    };

    TraceCost r;
    r.seconds = benchtool::interleavedMedians(
        kTraceReps, [&] { return solve(false); },
        [&] {
            const double s = solve(true);
            r.rows = profiler.trace().size();
            return s;
        });
    return r;
}

}  // namespace

int main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    // Pure sweep binary (no registered gbench cases): the report below is
    // the artifact.
    benchmark::Shutdown();

    // Simulated GPUs with a zero-cost model: kernels advance virtual time
    // instead of looping over cells on the host, so wall clock isolates the
    // runtime's own bookkeeping.
    set::Backend backend = set::Backend::simGpu(kDevices, sys::SimConfig::zeroCost());
    Workload     w(backend);
    const auto   opts = skeleton::SequenceOptions()
                          .withName("overhead")
                          .withOcc(Occ::STANDARD)
                          .withMaxStreams(4);

    // ---- (a) ns per enqueued op -----------------------------------------
    skeleton::Skeleton skl(backend);
    (void)skl.sequence(w.ops, opts);

    // Count the ops of one cached run (after a warm one, so it waits on the
    // data chains like every timed run) with a hook, then remove the hook:
    // the fast path under test is the unobserved one.
    skl.run();
    auto counter = std::make_shared<EnqueueCounter>();
    backend.engine().setEnqueueHook(counter);
    skl.run();
    backend.engine().setEnqueueHook(nullptr);
    skl.sync();
    const auto opsPerRun = static_cast<double>(counter->ops);

    constexpr int kWarmupRuns = 5;
    constexpr int kMeasuredRuns = 40;
    for (int i = 0; i < kWarmupRuns; ++i) {
        skl.run();
    }
    skl.sync();
    const auto tRun0 = Clock::now();
    for (int i = 0; i < kMeasuredRuns; ++i) {
        skl.run();
    }
    skl.sync();
    const double nsPerOp = nsBetween(tRun0, Clock::now()) / (kMeasuredRuns * opsPerRun);

    // ---- (b) compile vs cached sequence() -------------------------------
    constexpr int       kRepeats = 11;
    std::vector<double> compileNs, cachedNs;
    skeleton::ScheduleCache::instance().clear();
    for (int i = 0; i < kRepeats; ++i) {
        const auto t0 = Clock::now();
        (void)skl.sequence(w.ops, skeleton::SequenceOptions(opts).withCache(false));
        compileNs.push_back(nsBetween(t0, Clock::now()));
    }
    (void)skl.sequence(w.ops, opts);  // prime the cache
    int hits = 0;
    for (int i = 0; i < kRepeats; ++i) {
        const auto t0 = Clock::now();
        const auto handle = skl.sequence(w.ops, opts);
        cachedNs.push_back(nsBetween(t0, Clock::now()));
        hits += handle.cacheHit() ? 1 : 0;
    }
    const double compileMedian = medianNs(compileNs);
    const double cachedMedian = medianNs(cachedNs);
    const double speedup = compileMedian / cachedMedian;

    // ---- (c) CPU-device dispatch: ns per cell ---------------------------
    // One thread on purpose: the gate watches the cost of getting from
    // skl.run() into the kernel body (trampoline + chunk loop), which
    // parallel speedup would mask.
    setenv("NEON_THREADS", "1", 1);
    set::Backend cpu = set::Backend::cpu(1);
    dgrid::DGrid cpuGrid(cpu, {48, 48, 48}, Stencil::laplace7());
    auto         fa = cpuGrid.newField<double>("a", 1, 0.0);
    auto         fb = cpuGrid.newField<double>("b", 1, 0.0);
    fa.forEachHost([](const index_3d& g, int, double& v) { v = 0.001 * (g.x + g.y + g.z); });
    fa.updateDev();
    fb.updateDev();
    std::vector<set::Container> axpy = {
        cpuGrid.newContainer("axpy", [fa, fb](auto& l) mutable {
            auto ap = l.load(fa, Access::READ);
            auto bp = l.load(fb, Access::WRITE);
            return [=](const dgrid::DCell& c) mutable { bp(c) = 0.99 * bp(c) + ap(c); };
        })};
    skeleton::Skeleton cpuSkl(cpu);
    (void)cpuSkl.sequence(axpy, skeleton::SequenceOptions().withName("dispatch"));
    const double  cells = static_cast<double>(cpuGrid.cellCount());
    constexpr int kDispatchWarmup = 3;
    constexpr int kDispatchRuns = 20;
    for (int i = 0; i < kDispatchWarmup; ++i) {
        cpuSkl.run();
    }
    cpuSkl.sync();
    const auto tDisp0 = Clock::now();
    for (int i = 0; i < kDispatchRuns; ++i) {
        cpuSkl.run();
    }
    cpuSkl.sync();
    const double nsPerCell = nsBetween(tDisp0, Clock::now()) / (kDispatchRuns * cells);

    // ---- (d) CG abstraction ratio ---------------------------------------
    const CgRatio cg = measureCgRatio();
    const double  cgRatio = cg.seconds.a / cg.seconds.b;

    // ---- (e) trace cost --------------------------------------------------
    const TraceCost trace = measureTraceCost();
    const double    traceRatio = trace.seconds.b / trace.seconds.a;

    benchtool::Table table;
    table.title = "Runtime overhead (zero-cost backend, wall clock)";
    table.header = {"metric", "value"};
    table.rows = {
        {"ops per run", benchtool::fmt(opsPerRun, 0)},
        {"ns per enqueued op", benchtool::fmt(nsPerOp, 1)},
        {"sequence() compile (us, median)", benchtool::fmt(compileMedian / 1e3, 1)},
        {"sequence() cached (us, median)", benchtool::fmt(cachedMedian / 1e3, 1)},
        {"compile / cached speedup", benchtool::fmt(speedup, 1)},
        {"cache hits", benchtool::fmt(hits, 0) + "/" + benchtool::fmt(kRepeats, 0)},
        {"cpu dispatch (ns per cell)", benchtool::fmt(nsPerCell, 2)},
        {"CG 32^3, 1 thread: Neon (ms, median)", benchtool::fmt(cg.seconds.a * 1e3, 1)},
        {"CG 32^3, 1 thread: native (ms, median)", benchtool::fmt(cg.seconds.b * 1e3, 1)},
        {"CG Neon / native", benchtool::fmt(cgRatio, 2)},
        {"dry CG 320^3 x8, trace off (ms, median)", benchtool::fmt(trace.seconds.a * 1e3, 2)},
        {"dry CG 320^3 x8, trace on (ms, median)", benchtool::fmt(trace.seconds.b * 1e3, 2)},
        {"trace rows per solve", benchtool::fmt(static_cast<double>(trace.rows), 0)},
        {"trace on / off", benchtool::fmt(traceRatio, 2)},
    };
    table.print();

    std::ofstream os("BENCH_overhead_report.json");
    os << "{\n"
       << "  \"bench\": \"overhead\",\n"
       << "  \"devices\": " << kDevices << ",\n"
       << "  \"ops\": " << w.ops.size() << ",\n"
       << "  \"enqueue\": {\n"
       << "    \"ops_per_run\": " << opsPerRun << ",\n"
       << "    \"runs_measured\": " << kMeasuredRuns << ",\n"
       << "    \"ns_per_op\": " << nsPerOp << "\n"
       << "  },\n"
       << "  \"sequence\": {\n"
       << "    \"repeats\": " << kRepeats << ",\n"
       << "    \"compile_ns\": " << compileMedian << ",\n"
       << "    \"cached_ns\": " << cachedMedian << ",\n"
       << "    \"speedup\": " << speedup << ",\n"
       << "    \"cache_hits\": " << hits << "\n"
       << "  },\n"
       << "  \"dispatch\": {\n"
       << "    \"cells\": " << cells << ",\n"
       << "    \"runs_measured\": " << kDispatchRuns << ",\n"
       << "    \"ns_per_cell\": " << nsPerCell << "\n"
       << "  },\n"
       << "  \"cg\": {\n"
       << "    \"cells\": " << kCgDim.size() << ",\n"
       << "    \"reps\": " << kCgReps << ",\n"
       << "    \"neon_iters\": " << cg.neonIters << ",\n"
       << "    \"native_iters\": " << cg.nativeIters << ",\n"
       << "    \"converged\": " << (cg.converged ? "true" : "false") << ",\n"
       << "    \"neon_ms\": " << cg.seconds.a * 1e3 << ",\n"
       << "    \"native_ms\": " << cg.seconds.b * 1e3 << ",\n"
       << "    \"ratio\": " << cgRatio << "\n"
       << "  },\n"
       << "  \"trace\": {\n"
       << "    \"devices\": " << kTraceDevices << ",\n"
       << "    \"cells\": " << kTraceDim.size() << ",\n"
       << "    \"iterations\": " << kTraceIterations << ",\n"
       << "    \"reps\": " << kTraceReps << ",\n"
       << "    \"rows\": " << trace.rows << ",\n"
       << "    \"off_ms\": " << trace.seconds.a * 1e3 << ",\n"
       << "    \"on_ms\": " << trace.seconds.b * 1e3 << ",\n"
       << "    \"ratio\": " << traceRatio << "\n"
       << "  }\n"
       << "}\n";
    std::cout << "wrote BENCH_overhead_report.json (speedup " << benchtool::fmt(speedup, 1)
              << "x)\n";
    return 0;
}
