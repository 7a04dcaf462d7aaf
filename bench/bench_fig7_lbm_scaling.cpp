// Fig. 7 reproduction: D3Q19 twoPop parallel efficiency on the simulated
// 8-GPU DGX-A100 node, No-OCC vs Standard OCC, across domain sizes.
// Efficiency(n) = t1 / (n * tn), single-device run as baseline (paper
// §VI). Paper-exact domains (192^3 .. 512^3) run through the simulator's
// dry-run mode (cost accounting without data execution); a small domain is
// also executed for real to anchor the model to working code.

#include <iostream>
#include <vector>

#include "common/benchtool.hpp"
#include "dgrid/dfield.hpp"
#include "lbm/cavity3d.hpp"

using namespace neon;

namespace {

constexpr double kTau = 0.56;
constexpr double kLid = 0.1;

/// Virtual seconds per LBM iteration for (domain, devices, occ).
double secondsPerIter(index_3d dim, int nDev, Occ occ, bool dryRun, int iters = 4)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = dryRun;
    auto backend = set::Backend::make(set::BackendSpec::simGpu(nDev, cfg));
    dgrid::DGrid grid(backend, dim, lbm::D3Q19::stencil());
    lbm::CavityD3Q19<dgrid::DGrid> solver(grid, kTau, kLid, occ);
    solver.run(2);  // warmup (graph build, first halo)
    return benchtool::measureVirtual(backend, iters, [&] { solver.run(1); });
}

void efficiencyTable(const std::vector<index_3d>& domains, bool dryRun, const char* label)
{
    for (Occ occ : {Occ::NONE, Occ::STANDARD}) {
        benchtool::Table table;
        table.title = std::string("Fig. 7 — LBM parallel efficiency, ") + to_string(occ) +
                      " OCC (" + label + ")";
        table.header = {"Domain"};
        for (int n = 1; n <= 8; ++n) {
            table.header.push_back(std::to_string(n) + " GPU");
        }
        for (const auto& dim : domains) {
            std::vector<std::string> row{dim.to_string()};
            const double t1 = secondsPerIter(dim, 1, occ, dryRun);
            for (int n = 1; n <= 8; ++n) {
                const double tn = secondsPerIter(dim, n, occ, dryRun);
                row.push_back(benchtool::fmt(100.0 * t1 / (n * tn), 1) + "%");
            }
            table.rows.push_back(row);
        }
        table.print();
    }
}

}  // namespace

int main()
{
    // Small domain, real execution: the simulator timing is driven by the
    // actual solver code paths. NOTE: these host-executable sizes sit deep
    // in the latency-dominated regime (a 48^3 slab's compute is ~7 us while
    // a 19-component SoA halo costs ~19 link latencies), so efficiencies
    // are very low — the same cliff the paper's Fig. 7 shows on its left
    // end, just further down the curve.
    efficiencyTable({{48, 48, 48}, {64, 64, 64}}, /*dryRun=*/false, "real execution");

    // Paper-exact domains in dry-run mode.
    std::vector<index_3d> paper{{192, 192, 192}, {256, 256, 256}};
    if (benchtool::paperScale()) {
        paper.push_back({384, 384, 384});
        paper.push_back({512, 512, 512});
    }
    efficiencyTable(paper, /*dryRun=*/true, "paper sizes, dry-run cost model");

    // Export an ExecutionReport for one representative profiled run (4 GPUs,
    // 48^3, standard OCC).
    {
        auto backend =
            set::Backend::make(set::BackendSpec::simGpu(4, sys::SimConfig::dgxA100Like()));
        dgrid::DGrid                   grid(backend, {48, 48, 48}, lbm::D3Q19::stencil());
        lbm::CavityD3Q19<dgrid::DGrid> solver(grid, kTau, kLid, Occ::STANDARD);
        solver.run(2);
        solver.sync();
        auto profiler = backend.profiler();
        profiler.enable(true);
        solver.run(4);
        solver.sync();
        profiler.enable(false);
        benchtool::writeReportJson(backend, "fig7_lbm_scaling");
    }

    std::cout
        << "Paper's shape (Fig. 7): Standard OCC beats No-OCC at every size; efficiency\n"
           "grows with the domain (No-OCC ~93% at 512^3 with 8 GPUs; OCC reaches ~99%+).\n"
           "Small domains show the communication-dominated regime (49% of the iteration\n"
           "at 192^3 with 8 GPUs in the paper).\n";
    return 0;
}
