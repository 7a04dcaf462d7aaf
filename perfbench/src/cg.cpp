// cg-solve and cg-8gpu-dry: the matrix-free CG of solver/cg.hpp with the
// 7-point Laplacian of poisson/poisson.hpp.
//   cg-solve    : 32^3, one CPU device, repeated solves from x = 0 to a
//                 relative residual of 1e-8, residual read every iteration.
//   cg-8gpu-dry : 320^3 on 8 dry-run simulated A100s, standard OCC, fixed
//                 iteration batches (the paper's Fig. 8 configuration).
// Also the CG module probe (native baseline, iteration count, Fig. 8
// virtual time per iteration and 8-device efficiency).

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <random>

#include "dgrid/dfield.hpp"
#include "layers.hpp"
#include "patterns/blas.hpp"
#include "poisson/native.hpp"
#include "poisson/poisson.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using neon::index_3d;
using Grid = neon::dgrid::DGrid;
using Field = neon::dgrid::DField<double>;
using Scalar = neon::set::GlobalScalar<double>;

constexpr index_3d kDim{32, 32, 32};
constexpr double   kTolerance = 1e-8;
constexpr int      kIterationCap = 1000;
/// Neon and the native CG sum their dot products in different orders, so
/// their solutions agree to a multiple of the solver tolerance, relative to
/// the solution's largest entry.
constexpr double kSolutionTol = 1e-6;

constexpr index_3d kDim8{320, 320, 320};
constexpr int      kDevs8 = 8;
/// Iterations per timed cg-8gpu-dry batch (one cgSolve call).
constexpr int kBatch = 200;
/// 8 z-slabs exchange 7 x 2 faces of 320^2 doubles per iteration.
constexpr uint64_t kHaloBytes8 = 14ull * 320 * 320 * sizeof(double);

struct Instance
{
    neon::set::Backend backend;
    Grid               grid;
    Field              x;
    Field              b;
};

/// Backend, grid and the x / b fields; b holds `rhs` unless dry-run.
Instance build(Run& run, const std::function<neon::set::Backend()>& makeBackend, index_3d dim,
               const std::vector<double>* rhs)
{
    auto&    tr = run.tracer;
    Instance in;
    in.backend = tr.span("set", "Backend::make", makeBackend);
    in.grid = tr.span("dgrid", "DGrid::DGrid",
                      [&] { return Grid(in.backend, dim, neon::Stencil::laplace7()); });
    auto newField = [&](const char* name) {
        return tr.span("dgrid", "DGrid::newField",
                       [&] { return in.grid.newField<double>(name, 1, 0.0); });
    };
    in.x = newField("x");
    in.b = newField("b");
    if (rhs != nullptr) {
        in.b.forEachActiveHost(
            [&](const index_3d& g, int, double& v) { v = (*rhs)[dim.pitch(g)]; });
        tr.span("set", "DField::updateDev", [&] { in.b.updateDev(); });
    }
    return in;
}

neon::solver::CgResult solve(Run& run, Instance& in, neon::solver::CgOptions options)
{
    auto& tr = run.tracer;
    if (!in.backend.isDryRun()) {
        in.x.fillHost(0.0);
        tr.span("set", "DField::updateDev", [&] { in.x.updateDev(); });
    }
    const Grid&                                   grid = in.grid;
    std::function<neon::set::Container(Field, Field)> apply = [&](Field a, Field out) {
        return tr.span("poisson", "makeLaplacianApply",
                       [&] { return neon::poisson::makeLaplacianApply(grid, a, out); });
    };
    return tr.span("solver", "cgSolve", [&] {
        return neon::solver::cgSolve<Grid, Field, double>(grid, apply, in.x, in.b, options);
    });
}

neon::solver::CgOptions convergeOptions()
{
    neon::solver::CgOptions o;
    o.maxIterations = kIterationCap;
    o.tolerance = kTolerance;
    o.checkEvery = 1;
    return o;
}

neon::solver::CgOptions fixedOptions(int iterations)
{
    neon::solver::CgOptions o;
    o.maxIterations = iterations;
    o.occ = neon::Occ::STANDARD;
    o.fixedIterations = true;
    return o;
}

/// One CG iteration with the container structure of solver::cgSolve, on
/// fresh fields of `grid` (so its sequence() hits cgSolve's cached
/// schedule). Used to time sequence(), run() and sync() per iteration.
std::vector<neon::set::Container> cgIteration(const Grid& grid)
{
    using neon::set::Container;
    auto  bk = grid.backend();
    Field x = grid.newField<double>("probe.x", 1, 0.0);
    Field r = grid.newField<double>("probe.r", 1, 1.0);
    Field p = grid.newField<double>("probe.p", 1, 0.0);
    Field ap = grid.newField<double>("probe.Ap", 1, 0.0);
    Scalar rsold(bk, "probe.rsold", 1.0);
    Scalar rsnew(bk, "probe.rsnew", 1.0);
    Scalar pAp(bk, "probe.pAp", 1.0);
    Scalar alpha(bk, "probe.alpha", 0.0);
    Scalar beta(bk, "probe.beta", 0.0);
    auto   safeDiv = [](double a, double b) { return b != 0.0 ? a / b : 0.0; };
    return {
        neon::patterns::xpby(grid, r, beta, p, "cg.updateP"),
        neon::poisson::makeLaplacianApply(grid, p, ap),
        neon::patterns::dot(grid, p, ap, pAp, "cg.pAp"),
        Container::scalarOp<double>("cg.alpha", bk, {rsold, pAp}, {alpha},
                                    [rsold, pAp, alpha, safeDiv]() mutable {
                                        alpha.set(safeDiv(rsold.hostValue(), pAp.hostValue()));
                                    }),
        neon::patterns::axpy(grid, alpha, p, x, "cg.x+=ap"),
        neon::patterns::axmy(grid, alpha, ap, r, "cg.r-=aAp"),
        neon::patterns::norm2Sq(grid, r, rsnew, "cg.rsnew"),
        Container::scalarOp<double>("cg.beta", bk, {rsnew, rsold}, {beta, rsold},
                                    [rsnew, rsold, beta, safeDiv]() mutable {
                                        beta.set(safeDiv(rsnew.hostValue(), rsold.hostValue()));
                                        rsold.set(rsnew.hostValue());
                                    }),
    };
}

/// Right-hand side of the 32^3 problem, drawn from `seed` (uniform in
/// [-1, 1], x-fastest order). Shared by cg-solve and the CG probe.
std::vector<double> cgRhs(uint64_t seed)
{
    std::mt19937_64                        rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double>                    rhs(kDim.size());
    for (auto& v : rhs) {
        v = dist(rng);
    }
    return rhs;
}

/// The rows of one cgSolve call without its init sweep (the call's first
/// skeleton run), leaving the iterations only.
std::vector<neon::sys::TraceEntry> dropInitRun(std::vector<neon::sys::TraceEntry> rows)
{
    int first = std::numeric_limits<int>::max();
    for (const auto& e : rows) {
        if (e.runId >= 0) {
            first = std::min(first, e.runId);
        }
    }
    std::erase_if(rows, [first](const auto& e) { return e.runId == first; });
    return rows;
}

/// Per-layer probes shared by both CG workloads, on `in`, the workload's
/// grid and fields at pool width `width`.
void cgLayerProbes(Run& run, Instance& in, int width, neon::Occ occ, double cells,
                   const std::function<Instance(int)>& buildAt)
{
    auto& tr = run.tracer;
    forkJoinProbe(run, width, in.grid.span(0, neon::DataView::STANDARD).chunkCount());

    auto dispatchNs = [&](Instance& at) {
        Field  y = at.grid.newField<double>("probe.y", 1, 0.0);
        Scalar a(at.backend, "probe.a", 0.5);
        const auto axpy = tr.span("patterns", "patterns::axpy",
                                  [&] { return neon::patterns::axpy(at.grid, a, at.b, y); });
        return containerNsPerCell(run, at.backend, axpy, cells, 5);
    };
    run.metric("set.dispatch_ns_per_cell.wN", dispatchNs(in), "ns");
    {
        Instance one = buildAt(1);
        run.metric("set.dispatch_ns_per_cell.w1", dispatchNs(one), "ns");
    }

    Scalar     dotResult(in.backend, "probe.dot", 0.0);
    const auto dot = tr.span("patterns", "patterns::dot",
                             [&] { return neon::patterns::dot(in.grid, in.b, in.b, dotResult); });
    run.metric("patterns.dot_ns_per_cell", containerNsPerCell(run, in.backend, dot, cells, 5),
               "ns");

    run.metric("set.update_dev_ms",
               medianSpan(run, "set", "DField::updateDev", 5, [&] { in.b.updateDev(); }) * 1e3,
               "ms");
    const index_3d dim = in.grid.dim();
    run.metric("dgrid.grid_build_ms", medianSpan(run, "dgrid", "DGrid::DGrid", 5, [&] {
                   (void)Grid(in.backend, dim, neon::Stencil::laplace7());
               }) * 1e3,
               "ms");
    run.metric("dgrid.field_alloc_ms", medianSpan(run, "dgrid", "DGrid::newField", 5, [&] {
                   (void)in.grid.newField<double>("probe.f", 1, 0.0);
               }) * 1e3,
               "ms");
    sequenceProbe(run, in.backend, cgIteration(in.grid),
                  neon::skeleton::SequenceOptions().withName("cg.iter").withOcc(occ), true);
}

}  // namespace

void cgSolve(Run& run)
{
    // The solves run on one host thread. At width nproc every one of the
    // ~1000 fork/joins per solve waits for all workers to wake, and on a
    // shared 4-vCPU virtual machine a wake-up can wait for the host
    // scheduler: the median solve then ranged from 62 to 518 ms between
    // runs, against 189-194 ms on one thread. The pool's cost on this
    // workload is kept as per-layer metrics (sys.pool.fork_join_us.*,
    // sys.pool.scaling_eff, set.dispatch_ns_per_cell.wN).
    constexpr int kSolveWidth = 1;
    const int     width = poolWidth();
    const auto    rhs = cgRhs(run.opt.seed);
    const double cells = static_cast<double>(kDim.size());
    auto         buildAt = [&](int w) {
        return build(
            run,
            [w] {
                return neon::set::Backend::make(neon::set::BackendSpec::cpu(1).withHostThreads(w));
            },
            kDim, &rhs);
    };

    Instance in;
    if (run.opt.trace) {
        WindowSpec spec;
        spec.ops = 3;
        spec.setup = [&] {
            in = Instance{};
            in = buildAt(kSolveWidth);
            (void)solve(run, in, convergeOptions());
            return in.backend;
        };
        spec.op = [&](int64_t) { (void)solve(run, in, convergeOptions()); };
        (void)tracedWindow(run, spec, kSolveWidth);
        const double t1 = medianSpan(run, "solver", "cgSolve", 3,
                                     [&] { (void)solve(run, in, convergeOptions()); });
        Instance wide = buildAt(width);
        (void)solve(run, wide, convergeOptions());
        const double tN = medianSpan(run, "solver", "cgSolve", 3,
                                     [&] { (void)solve(run, wide, convergeOptions()); });
        run.metric("sys.pool.scaling_eff", t1 / (width * tN), "fraction");
        cgLayerProbes(run, wide, width, neon::Occ::NONE, cells, buildAt);
        return;
    }

    // Set-up: backend, grid, x and b, right-hand side upload, and one
    // warm-up solve (cold schedule cache).
    const auto setupS = coldSetups([&] { in = Instance{}; },
                                   [&] {
                                       in = buildAt(kSolveWidth);
                                       (void)solve(run, in, convergeOptions());
                                   });

    int  notConverged = 0;
    int  minIters = kIterationCap;
    int  maxIters = 0;
    Loop loop = closedLoop(run.opt.seconds, 100, [&]() -> int64_t {
        neon::solver::CgResult r;
        if (!run.attempt([&] { r = solve(run, in, convergeOptions()); })) {
            return 0;
        }
        notConverged += r.converged && r.iterations < kIterationCap ? 0 : 1;
        minIters = std::min(minIters, r.iterations);
        maxIters = std::max(maxIters, r.iterations);
        return 1;
    });
    run.check("cg-solve: every solve converged under the " + std::to_string(kIterationCap) +
                  "-iteration cap",
              notConverged == 0 && maxIters > 0,
              std::to_string(notConverged) + " did not; iterations " + std::to_string(minIters) +
                  ".." + std::to_string(maxIters));

    // The last solve's x against the native CG on the same right-hand side.
    neon::poisson::native::NativeCg native(kDim);
    native.rhs() = rhs;
    const auto nr = native.solve(kIterationCap, kTolerance);
    in.x.updateHost();
    std::vector<double> x(kDim.size());
    in.x.forEachActiveHost([&](const index_3d& g, int, double& v) { x[kDim.pitch(g)] = v; });
    const auto& ref = native.solution();
    double      scale = 0.0;
    for (double v : ref) {
        scale = std::max(scale, std::abs(v));
    }
    auto matches = [&](const std::vector<double>& sol) {
        double worst = 0.0;
        for (size_t i = 0; i < sol.size(); ++i) {
            const double e = std::abs(sol[i] - ref[i]);
            worst = e > worst || std::isnan(e) ? e : worst;
        }
        return worst <= kSolutionTol * scale && nr.converged;
    };
    run.check("cg-solve: solution matches native CG on the same right-hand side", matches(x),
              "native " + std::to_string(nr.iterations) + " iterations, |x|max " +
                  std::to_string(scale));
    auto perturbed = x;
    perturbed[perturbed.size() / 2] += 1e-3;
    run.mustReject("cg-solve native match (one entry perturbed by 1e-3)", matches(perturbed));
    endToEnd(run, setupS, loop, "solve");
}

void cg8GpuDry(Run& run)
{
    const int    width = poolWidth();
    const double cells = static_cast<double>(kDim8.size());
    auto         buildAt = [&](int w) {
        return build(run, [w] { return dryA100s(kDevs8, w); }, kDim8, nullptr);
    };
    // One batch from reset virtual clocks; returns its virtual seconds.
    auto batch = [&](Instance& i, int iterations) {
        i.backend.resetClocks();
        (void)solve(run, i, fixedOptions(iterations));
        return i.backend.profiler().makespan();
    };

    Instance in;
    if (run.opt.trace) {
        WindowSpec spec;
        spec.ops = 1;
        spec.units = 40;
        spec.setup = [&] {
            in = Instance{};
            in = buildAt(width);
            (void)batch(in, 2);
            return in.backend;
        };
        spec.op = [&](int64_t) { (void)solve(run, in, fixedOptions(40)); };
        spec.keepRows = dropInitRun;
        (void)tracedWindow(run, spec, width);
        const double tN =
            medianSpan(run, "solver", "cgSolve", 5, [&] { (void)batch(in, kBatch); });
        double       t1 = 0.0;
        {
            Instance one = buildAt(1);
            (void)batch(one, 2);
            t1 = medianSpan(run, "solver", "cgSolve", 5, [&] { (void)batch(one, kBatch); });
        }
        run.metric("sys.pool.scaling_eff", t1 / (width * tN), "fraction");
        cgLayerProbes(run, in, width, neon::Occ::STANDARD, cells, buildAt);
        return;
    }

    // Set-up: dry-run backend of 8 simulated A100s, 320^3 grid, x and b,
    // and a 2-iteration warm-up solve (cold schedule cache).
    const auto setupS = coldSetups([&] { in = Instance{}; },
                                   [&] {
                                       in = buildAt(width);
                                       (void)batch(in, 2);
                                   });

    std::vector<double> vtimes;
    Loop                loop = closedLoop(run.opt.seconds, 100, [&]() -> int64_t {
        double v = 0.0;
        if (!run.attempt([&] { v = batch(in, kBatch); })) {
            return 0;
        }
        vtimes.push_back(v);
        return kBatch;
    });
    auto sameTimes = [](const std::vector<double>& v) {
        return !v.empty() && v.front() > 0.0 &&
               std::all_of(v.begin(), v.end(), [&](double t) { return t == v.front(); });
    };
    run.check("cg-8gpu-dry: virtual time identical in every " + std::to_string(kBatch) +
                  "-iteration window",
              sameTimes(vtimes),
              std::to_string(vtimes.size()) + " windows of " +
                  std::to_string(vtimes.empty() ? 0.0 : vtimes.front() * 1e6) + " us");
    if (vtimes.size() > 1) {
        auto skewed = vtimes;
        skewed.back() *= 1.0 + 1e-12;
        run.mustReject("cg-8gpu-dry identical virtual time (one window skewed)",
                       sameTimes(skewed));
    }

    // Halo bytes per iteration from a traced 10-iteration window.
    auto prof = in.backend.profiler();
    prof.clear();
    prof.enable(true);
    in.backend.resetClocks();
    (void)solve(run, in, fixedOptions(10));
    prof.enable(false);
    const auto rows = dropInitRun(prof.trace().entries());
    prof.clear();
    auto haloPerIter = [&](const std::vector<neon::sys::TraceEntry>& r) {
        return neon::ExecutionReport::fromEntries(r, in.backend.devCount()).haloBytes() / 10;
    };
    const uint64_t halo = haloPerIter(rows);
    run.check("cg-8gpu-dry: halo bytes per iteration = 14 x 320^2 x 8 B", halo == kHaloBytes8,
              std::to_string(halo) + " B");
    auto dropped = rows;
    const auto it = std::find_if(dropped.begin(), dropped.end(),
                                 [](const auto& e) { return e.kind == "transfer"; });
    if (it != dropped.end()) {
        dropped.erase(it);
    }
    run.mustReject("cg-8gpu-dry halo bytes (one transfer dropped)",
                   haloPerIter(dropped) == kHaloBytes8);
    endToEnd(run, setupS, loop, "iteration");
    run.note("virtual time per iteration: " +
             std::to_string(vtimes.empty() ? 0.0 : vtimes.front() / kBatch * 1e6) +
             " us (includes 1/" + std::to_string(kBatch) + " of the init sweep)");
}

void cgProbe(Run& run, int width)
{
    // Native CG and Neon iteration count on the seeded 32^3 problem.
    const auto rhs = cgRhs(run.opt.seed);
    int        nativeIters = 0;
    const double native = medianSpan(run, "poisson", "NativeCg::solve", 3, [&] {
        neon::poisson::native::NativeCg cg(kDim);
        cg.rhs() = rhs;
        nativeIters = cg.solve(kIterationCap, kTolerance).iterations;
    });
    Instance in = build(
        run,
        [width] {
            return neon::set::Backend::make(neon::set::BackendSpec::cpu(1).withHostThreads(width));
        },
        kDim, &rhs);
    const auto r = solve(run, in, convergeOptions());
    run.metric("poisson.native_solve_ms", native * 1e3, "ms");
    run.metric("solver.cg_iters", r.iterations, "count");
    run.note("native CG iterations: " + std::to_string(nativeIters));

    // Fig. 8: virtual time per iteration on 8 and 1 dry-run A100s at 320^3,
    // as the difference of a 30- and a 10-iteration solve.
    auto perIter = [&](int devs) {
        Instance   g = build(run, [devs] { return dryA100s(devs, 1); }, kDim8, nullptr);
        auto       vt = [&](int n) {
            g.backend.resetClocks();
            (void)solve(run, g, fixedOptions(n));
            return g.backend.profiler().makespan();
        };
        const double t10 = vt(10);
        return (vt(30) - t10) / 20.0;
    };
    const double t8 = perIter(kDevs8);
    const double t1 = perIter(1);
    run.metric("poisson.vtime_iter_us", t8 * 1e6, "vus");
    run.metric("sys.vtime.efficiency", t1 / (kDevs8 * t8), "fraction");
}

}  // namespace perfbench
