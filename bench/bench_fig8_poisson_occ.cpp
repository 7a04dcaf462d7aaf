// Fig. 8 reproduction: finite-difference Poisson CG.
//  Top    — time per CG iteration for every OCC variant as the device
//           count grows, on the paper's 320^3 grid (dry-run cost model) and
//           on a real-executed 48^3 grid.
//  Bottom — parallel efficiency on 8 devices across grid sizes.
// Plus the paper's baseline comparison: Neon single-device vs the
// hand-written flat-loop CG ("CUDA + cuBLAS"-like), wall-clock.

#include <chrono>
#include <functional>
#include <iostream>
#include <vector>

#include "common/benchtool.hpp"
#include "dgrid/dfield.hpp"
#include "poisson/native.hpp"
#include "poisson/poisson.hpp"

using namespace neon;

namespace {

/// Virtual seconds per CG iteration (fixed iteration count, no convergence
/// checks). The init skeleton runs first and is excluded from the measure.
double cgSecondsPerIter(index_3d dim, int nDev, Occ occ, sys::SimConfig cfg, bool dryRun,
                        int iters)
{
    cfg.dryRun = dryRun;
    auto backend = set::Backend::make(set::BackendSpec::simGpu(nDev, cfg));
    dgrid::DGrid grid(backend, dim, Stencil::laplace7());
    auto         x = grid.newField<double>("x", 1, 0.0);
    auto         b = grid.newField<double>("b", 1, 0.0);

    solver::CgOptions options;
    options.maxIterations = 2;  // warmup: init + two iterations
    options.occ = occ;
    options.fixedIterations = true;
    poisson::solveSine(grid, x, b, options);
    backend.sync();

    options.maxIterations = iters;
    const double t0 = backend.profiler().makespan();
    poisson::solveSine(grid, x, b, options);
    backend.sync();
    // The second solve re-runs its own init; subtract an init-free estimate
    // by measuring per-iteration cost over a long fixed run instead.
    return (backend.profiler().makespan() - t0) / (iters + 2);  // +2: init ~ two sweeps
}

void occSweepTable(index_3d dim, sys::SimConfig cfg, bool dryRun, int iters, const char* label)
{
    benchtool::Table table;
    table.title = std::string("Fig. 8 top — Poisson CG time/iteration [us], grid ") +
                  dim.to_string() + " (" + label + ")";
    table.header = {"GPUs", "no OCC", "standard", "extended", "two-way ext", "best"};
    for (int n = 1; n <= 8; ++n) {
        std::vector<std::string> row{std::to_string(n)};
        double      best = 1e30;
        std::string bestName = "-";
        for (Occ occ : {Occ::NONE, Occ::STANDARD, Occ::EXTENDED, Occ::TWO_WAY}) {
            const double t = cgSecondsPerIter(dim, n, occ, cfg, dryRun, iters);
            row.push_back(benchtool::fmt(t * 1e6, 1));
            if (n > 1 && occ != Occ::NONE && t < best) {
                best = t;
                bestName = to_string(occ);
            }
        }
        row.push_back(n > 1 ? bestName : "-");
        table.rows.push_back(row);
    }
    table.print();
}

void efficiencyBottomTable(const std::vector<index_3d>& dims, bool dryRun, const char* label)
{
    benchtool::Table table;
    table.title = std::string("Fig. 8 bottom — Poisson parallel efficiency on 8 GPUs (") +
                  label + ")";
    table.header = {"Grid", "no OCC", "standard", "extended", "two-way ext"};
    const auto cfg = sys::SimConfig::dgxA100Like();
    for (const auto& dim : dims) {
        std::vector<std::string> row{dim.to_string()};
        const double t1 = cgSecondsPerIter(dim, 1, Occ::NONE, cfg, dryRun, 20);
        for (Occ occ : {Occ::NONE, Occ::STANDARD, Occ::EXTENDED, Occ::TWO_WAY}) {
            const double t8 = cgSecondsPerIter(dim, 8, occ, cfg, dryRun, 20);
            row.push_back(benchtool::fmt(100.0 * t1 / (8.0 * t8), 1) + "%");
        }
        table.rows.push_back(row);
    }
    table.print();
}

}  // namespace

int main()
{
    // Baseline overhead (paper: "Neon incurs a minimal overhead compared to
    // the hardwired application-specific implementation"): wall-clock CG on
    // one CPU device vs hand-written flat loops, on an equal budget — one
    // host thread each, both warmed up, medians of interleaved solves.
    {
        using Field = dgrid::DField<double>;
        const index_3d dim{40, 40, 40};
        constexpr int  kIters = 30;
        constexpr int  kReps = 7;
        auto backend = set::Backend::make(set::BackendSpec::cpu(1).withHostThreads(1));
        dgrid::DGrid grid(backend, dim, Stencil::laplace7());
        auto         x = grid.newField<double>("x", 1, 0.0);
        auto         b = grid.newField<double>("b", 1, 0.0);
        const poisson::SineProblem problem(dim);
        b.forEachHost([&](const index_3d& g, int, double& v) { v = problem.rhs(g); });
        b.updateDev();
        const std::function<set::Container(Field, Field)> apply = [&grid](Field in, Field out) {
            return poisson::makeLaplacianApply(grid, in, out);
        };
        solver::CgOptions options;
        options.maxIterations = kIters;
        options.fixedIterations = true;

        using Clock = std::chrono::steady_clock;
        const auto t = benchtool::interleavedMedians(
            kReps,
            [&] {
                x.fillHost(0.0);
                x.updateDev();
                const auto t0 = Clock::now();
                solver::cgSolve<dgrid::DGrid, Field, double>(grid, apply, x, b, options);
                return std::chrono::duration<double>(Clock::now() - t0).count();
            },
            [&] {
                poisson::native::NativeCg baseline(dim);
                baseline.setupSineProblem();
                const auto t0 = Clock::now();
                baseline.solve(kIters, 0.0);
                return std::chrono::duration<double>(Clock::now() - t0).count();
            });

        benchtool::Table table;
        table.title = "Fig. 8 baseline — Neon vs hand-written CG, 40^3, 30 iterations, one host "
                      "thread, wall-clock median of 7";
        table.header = {"Implementation", "time [ms]", "relative"};
        table.rows.push_back({"native flat-loop CG", benchtool::fmt(t.b * 1e3), "1.00"});
        table.rows.push_back(
            {"Neon CG (1 device)", benchtool::fmt(t.a * 1e3), benchtool::fmt(t.a / t.b)});
        table.print();
    }

    occSweepTable({48, 48, 48}, sys::SimConfig::dgxA100Like(), /*dryRun=*/false, 8,
                  "real execution, NVLink model");
    // The paper evaluates on two systems (DGX A100 + NVLink, Xeon + GV100
    // over PCIe Gen3). The OCC crossover — standard best at few GPUs,
    // extended/two-way taking over as partitions shrink — emerges when the
    // halo cost rivals the internal compute, i.e. on the slower link.
    occSweepTable({320, 320, 320}, sys::SimConfig::dgxA100Like(), /*dryRun=*/true, 20,
                  "paper size, dry-run, NVLink model");
    occSweepTable({320, 320, 320}, sys::SimConfig::pcieGen3Like(), /*dryRun=*/true, 20,
                  "paper size, dry-run, PCIe Gen3 model");
    // The crossover regime: once per-device slabs shrink enough that the
    // halo latency rivals the internal compute, the more aggressive splits
    // win — most visible at smaller grids on the slow interconnect.
    occSweepTable({192, 192, 192}, sys::SimConfig::pcieGen3Like(), /*dryRun=*/true, 20,
                  "dry-run, PCIe Gen3 model");
    occSweepTable({256, 256, 256}, sys::SimConfig::pcieGen3Like(), /*dryRun=*/true, 20,
                  "dry-run, PCIe Gen3 model");

    std::vector<index_3d> dims{{128, 128, 128}, {192, 192, 192}, {256, 256, 256},
                               {320, 320, 320}};
    if (benchtool::paperScale()) {
        dims.push_back({448, 448, 448});
    }
    efficiencyBottomTable(dims, /*dryRun=*/true, "paper sizes, dry-run cost model");

    // Export an ExecutionReport for one representative profiled CG run
    // (4 GPUs, 48^3, standard OCC).
    {
        auto backend =
            set::Backend::make(set::BackendSpec::simGpu(4, sys::SimConfig::dgxA100Like()));
        dgrid::DGrid grid(backend, {48, 48, 48}, Stencil::laplace7());
        auto         x = grid.newField<double>("x", 1, 0.0);
        auto         b = grid.newField<double>("b", 1, 0.0);
        solver::CgOptions options;
        options.maxIterations = 4;
        options.fixedIterations = true;
        options.occ = Occ::STANDARD;
        auto profiler = backend.profiler();
        profiler.enable(true);
        poisson::solveSine(grid, x, b, options);
        backend.sync();
        profiler.enable(false);
        benchtool::writeReportJson(backend, "fig8_poisson_occ");
    }

    std::cout
        << "Paper's shape (Fig. 8): no single OCC variant always wins — standard is best\n"
           "at low device counts; the extended split takes over once per-device slabs\n"
           "shrink enough that halo latency rivals internal compute (our model: extended\n"
           "from 5 GPUs at 192^3 on the PCIe system). Efficiency approaches ideal with\n"
           "grid size. Divergence noted in EXPERIMENTS.md: the paper's two-way variant\n"
           "wins at >=6 GPUs; in our cost model its extra kernel launches outweigh the\n"
           "extra overlap window, so extended stays ahead.\n";
    return 0;
}
