// lbm-cavity: the D3Q19 lid-driven cavity (lbm::CavityD3Q19, float,
// tau 0.56, lid 0.1) on a 96^3 dense grid, one CPU device, closed loop of
// run(1) + sync() per step. Also the LBM module probe (native and Neon
// single-thread baselines, achieved bandwidth).

#include <cmath>
#include <limits>
#include <memory>

#include "dgrid/dfield.hpp"
#include "layers.hpp"
#include "lbm/cavity3d.hpp"
#include "lbm/native3d.hpp"
#include "patterns/blas.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using neon::index_3d;
using Grid = neon::dgrid::DGrid;
using Cavity = neon::lbm::CavityD3Q19<Grid, float>;
using Native = neon::lbm::native::NativeCavityD3Q19<float>;
using D3Q19 = neon::lbm::D3Q19;

constexpr index_3d kDim{96, 96, 96};
constexpr double   kTau = 0.56;
constexpr double   kLid = 0.1;
/// Steps after which the workload's state is compared with the native
/// fused baseline (3 x 0.24 s of single-threaded native work).
constexpr int kCheckSteps = 3;
/// tests/lbm/test_cavity3d.cpp, MatchesNativeFusedBaselineExactly.
constexpr double kMacroTol = 1e-5;
/// Relative mass drift allowed over the timed steps: the 1e-5 of
/// tests/lbm/test_cavity3d.cpp (MassIsConservedWithLid, 20 steps), or
/// float rounding of 1e-7 per step for longer runs (3e-6 was measured
/// after 182 steps).
constexpr double kMassTolFloor = 1e-5;
constexpr double kMassTolPerStep = 1e-7;
/// Bytes a step moves per cell: 19 populations read and 19 written.
constexpr double kBytesPerCell = 2.0 * D3Q19::Q * sizeof(float);

struct Instance
{
    neon::set::Backend      backend;
    Grid                    grid;
    std::unique_ptr<Cavity> lbm;
};

Instance build(Run& run, int width)
{
    auto&    tr = run.tracer;
    Instance in;
    in.backend = tr.span("set", "Backend::make", [&] {
        return neon::set::Backend::make(neon::set::BackendSpec::cpu(1).withHostThreads(width));
    });
    in.grid = tr.span("dgrid", "DGrid::DGrid",
                      [&] { return Grid(in.backend, kDim, D3Q19::stencil()); });
    in.lbm = tr.span("lbm", "CavityD3Q19::CavityD3Q19",
                     [&] { return std::make_unique<Cavity>(in.grid, kTau, kLid); });
    return in;
}

void step(Run& run, Cavity& lbm)
{
    run.tracer.span("lbm", "CavityD3Q19::run", [&] { lbm.run(1); });
    run.tracer.span("lbm", "CavityD3Q19::sync", [&] { lbm.sync(); });
}

/// Largest |rho - rho_ref| or |u_d - u_d,ref| over all cells, with the
/// populations read through pop(g, i). NaN propagates to the result.
template <typename Pop>
double macroError(Pop&& pop, const Native& ref)
{
    double worst = 0.0;
    auto   take = [&](double err) {
        if (err > worst || std::isnan(err)) {
            worst = err;
        }
    };
    kDim.forEach([&](const index_3d& g) {
        double rho = 0.0;
        double u[3] = {0.0, 0.0, 0.0};
        for (int i = 0; i < D3Q19::Q; ++i) {
            const double fi = pop(g, i);
            rho += fi;
            for (int d = 0; d < 3; ++d) {
                u[d] += fi * D3Q19::c[static_cast<size_t>(i)][d];
            }
        }
        const auto m = ref.macroAt(g);
        take(std::abs(rho - m.rho));
        for (int d = 0; d < 3; ++d) {
            take(std::abs(u[d] / rho - m.u[static_cast<size_t>(d)]));
        }
    });
    return worst;
}

/// Compare the workload's state after kCheckSteps steps with the native
/// fused baseline run for the same steps; then show the comparison
/// rejects the same state with one population's sign bit flipped.
void checkAgainstNative(Run& run, Cavity& lbm)
{
    lbm.sync();
    auto f = lbm.current();
    f.updateHost();
    Native ref(kDim, kTau, kLid, neon::lbm::native::Variant::Fused);
    ref.run(lbm.iteration());
    auto         pop = [&](const index_3d& g, int i) { return static_cast<double>(f.hVal(g, i)); };
    const double err = macroError(pop, ref);
    run.check("lbm-cavity: rho and u match native fused after " +
                  std::to_string(lbm.iteration()) + " steps",
              err <= kMacroTol, "max error " + std::to_string(err));
    const index_3d bad{kDim.x / 2, kDim.y / 2, kDim.z - 1};
    auto           flipped = [&](const index_3d& g, int i) {
        const double v = pop(g, i);
        return g == bad && i == 1 ? -v : v;
    };
    run.mustReject("lbm-cavity native match (population sign-flipped)",
                   macroError(flipped, ref) <= kMacroTol);
}

/// Median wall seconds of one step over `steps` steps (after one warm-up).
double stepSeconds(Run& run, Cavity& lbm, int steps)
{
    step(run, lbm);
    return medianSpan(run, "lbm", "CavityD3Q19 step", steps, [&] {
        lbm.run(1);
        lbm.sync();
    });
}

void traced(Run& run, int width)
{
    const double cells = static_cast<double>(kDim.size());
    Instance     in;
    WindowSpec   spec;
    spec.ops = 8;
    spec.setup = [&] {
        in = Instance{};
        in = build(run, width);
        step(run, *in.lbm);
        return in.backend;
    };
    spec.op = [&](int64_t) { step(run, *in.lbm); };
    const int root = tracedWindow(run, spec, width);
    run.metric("skeleton.run_us", median(run.tracer.durations(root, "CavityD3Q19::run")) * 1e6,
               "us");
    run.metric("skeleton.sync_us",
               median(run.tracer.durations(root, "CavityD3Q19::sync")) * 1e6, "us");

    forkJoinProbe(run, width, in.grid.span(0, neon::DataView::STANDARD).chunkCount());

    // The cavity step is one container (collideStream) run through the
    // module's public run(1) + sync(); its wall per cell is the dispatch
    // cost at each pool width.
    const double tN = stepSeconds(run, *in.lbm, 5);
    double       t1 = 0.0;
    {
        Instance one = build(run, 1);
        t1 = stepSeconds(run, *one.lbm, 3);
    }
    run.metric("set.dispatch_ns_per_cell.w1", t1 * 1e9 / cells, "ns");
    run.metric("set.dispatch_ns_per_cell.wN", tN * 1e9 / cells, "ns");
    run.metric("sys.pool.scaling_eff", t1 / (width * tN), "fraction");

    auto fA = in.lbm->current();
    step(run, *in.lbm);
    auto                            fB = in.lbm->current();
    neon::set::GlobalScalar<float> dotResult(in.backend, "probe.dot", 0.0f);
    const auto dot = run.tracer.span("patterns", "patterns::dot", [&] {
        return neon::patterns::dot(in.grid, fA, fB, dotResult);
    });
    run.metric("patterns.dot_ns_per_cell", containerNsPerCell(run, in.backend, dot, cells, 5),
               "ns");

    run.metric("set.update_dev_ms",
               medianSpan(run, "set", "DField::updateDev", 3, [&] { fA.updateDev(); }) * 1e3,
               "ms");
    run.metric("dgrid.grid_build_ms", medianSpan(run, "dgrid", "DGrid::DGrid", 5, [&] {
                   (void)Grid(in.backend, kDim, D3Q19::stencil());
               }) * 1e3,
               "ms");
    run.metric("dgrid.field_alloc_ms", medianSpan(run, "dgrid", "DGrid::newField", 3, [&] {
                   (void)in.grid.newField<float>("probe.f", D3Q19::Q, 0.0f);
               }) * 1e3,
               "ms");

    // collideStream is private to the module; a container with the same
    // accesses (stencil read of one population field, write of the other)
    // has the same schedule-cache key, so its sequence() cost is the one
    // the cavity pays.
    const auto twin = in.grid.newContainer("probe.collideStream", [fA, fB](auto& l) mutable {
        auto src = l.load(fA, neon::Access::READ, neon::Compute::STENCIL);
        auto dst = l.load(fB, neon::Access::WRITE);
        return [=](const auto& cell) mutable { dst(cell, 0) = src(cell, 0); };
    });
    sequenceProbe(run, in.backend, {twin}, neon::skeleton::SequenceOptions().withName("lbm.even"),
                  false);
}

}  // namespace

void lbmCavity(Run& run)
{
    const int width = poolWidth();
    if (run.opt.trace) {
        traced(run, width);
        return;
    }
    // Set-up: backend, grid, cavity (two population fields, equilibrium
    // upload, two compiled schedules from a cold cache) and one step.
    Instance   in;
    const auto setupS = coldSetups([&] { in = Instance{}; },
                                   [&] {
                                       in = build(run, width);
                                       step(run, *in.lbm);
                                   });
    while (in.lbm->iteration() < kCheckSteps) {
        run.attempt([&] { step(run, *in.lbm); });
    }
    checkAgainstNative(run, *in.lbm);
    const double mass0 = static_cast<double>(kDim.size());  // rho = 1 everywhere at start

    const Loop loop = closedLoop(run.opt.seconds, 100, [&]() -> int64_t {
        return run.attempt([&] { step(run, *in.lbm); }) ? 1 : 0;
    });

    const double mass = in.lbm->totalMass();
    const double massTol = std::max(kMassTolFloor, kMassTolPerStep * in.lbm->iteration());
    auto conserved = [&](double m) { return std::abs(m - mass0) <= massTol * mass0; };
    run.check("lbm-cavity: mass conserved after " + std::to_string(in.lbm->iteration()) +
                  " steps",
              conserved(mass), "relative drift " + std::to_string(std::abs(mass - mass0) / mass0));
    run.mustReject("lbm-cavity mass conservation (one population NaN)",
                   conserved(mass + std::numeric_limits<double>::quiet_NaN()));
    endToEnd(run, setupS, loop, "step");
    run.note("mlups = ops_per_s x " + std::to_string(kDim.size() / 1e6));
}

void lbmProbe(Run& run, int width, double triadGbps)
{
    const double cells = static_cast<double>(kDim.size());
    double       native = 0.0;
    {
        Native nat(kDim, kTau, kLid, neon::lbm::native::Variant::Fused);
        nat.run(1);
        native = medianSpan(run, "lbm", "NativeCavityD3Q19::run", 3, [&] { nat.run(1); });
    }
    double neon1 = 0.0;
    {
        Instance one = build(run, 1);
        neon1 = stepSeconds(run, *one.lbm, 3);
    }
    double neonN = 0.0;
    {
        Instance all = build(run, width);
        neonN = stepSeconds(run, *all.lbm, 5);
    }
    const double mlups = cells / neonN / 1e6;
    const double gbps = mlups * 1e6 * kBytesPerCell / 1e9;
    run.metric("lbm.native_mlups_1t", cells / native / 1e6, "Mcell/s");
    run.metric("lbm.neon_mlups_1t", cells / neon1 / 1e6, "Mcell/s");
    run.metric("lbm.abstraction_gap", neon1 / native, "ratio");
    run.metric("lbm.mlups", mlups, "Mcell/s");
    run.metric("lbm.bytes_per_cell", kBytesPerCell, "B");
    run.metric("lbm.gbps", gbps, "GB/s");
    run.metric("lbm.bw_fraction", gbps / triadGbps, "fraction");
}

}  // namespace perfbench
