// Ablation benches for the design choices called out in DESIGN.md §4:
//   (a) SoA vs AoS field layout — SoA haloUpdate pays one link latency per
//       component and direction (2n transfers), AoS pays 2 (paper §IV-C2).
//   (b) Interconnect presets — the paper's two systems (DGX A100 NVLink vs
//       PCIe Gen3): the same application, very different scaling.

#include <iostream>

#include "common/benchtool.hpp"
#include "dgrid/dfield.hpp"
#include "lbm/cavity3d.hpp"

using namespace neon;

namespace {

constexpr double kTau = 0.56;
constexpr double kLid = 0.1;

double secondsPerIter(index_3d dim, int nDev, Occ occ, MemLayout layout, sys::SimConfig cfg,
                      bool dryRun)
{
    cfg.dryRun = dryRun;
    auto backend = set::Backend::make(set::BackendSpec::simGpu(nDev, cfg));
    dgrid::DGrid grid(backend, dim, lbm::D3Q19::stencil());
    lbm::CavityD3Q19<dgrid::DGrid> solver(grid, kTau, kLid, occ, layout);
    solver.run(2);
    return benchtool::measureVirtual(backend, 4, [&] { solver.run(1); });
}

size_t haloTransferCount(MemLayout layout)
{
    set::Backend backend = set::Backend::cpu(3);
    dgrid::DGrid grid(backend, {16, 16, 24}, lbm::D3Q19::stencil());
    auto f = grid.newField<float>("f", lbm::D3Q19::Q, 0.0f, layout);
    backend.profiler().trace().clear();
    backend.profiler().trace().enable(true);
    f.haloOps()->enqueueHaloSend(1, backend.stream(1));
    backend.sync();
    backend.profiler().trace().enable(false);
    size_t n = 0;
    for (const auto& e : backend.profiler().trace().entries()) {
        if (e.kind == "transfer") {
            ++n;
        }
    }
    return n;
}

}  // namespace

int main()
{
    // (a) Layout: transfers per halo update and per-iteration impact.
    {
        benchtool::Table table;
        table.title = "Ablation (a) — field layout: haloUpdate transfers and LBM cost";
        table.header = {"Layout", "transfers/dev (19 comps)", "us/iter (128^3, 8 GPU, no OCC)",
                        "us/iter (with standard OCC)"};
        for (MemLayout layout : {MemLayout::structOfArrays, MemLayout::arrayOfStructs}) {
            const double tNone = secondsPerIter({128, 128, 128}, 8, Occ::NONE, layout,
                                                sys::SimConfig::dgxA100Like(), true);
            const double tStd = secondsPerIter({128, 128, 128}, 8, Occ::STANDARD, layout,
                                               sys::SimConfig::dgxA100Like(), true);
            table.rows.push_back({to_string(layout),
                                  std::to_string(haloTransferCount(layout)),
                                  benchtool::fmt(tNone * 1e6, 1), benchtool::fmt(tStd * 1e6, 1)});
        }
        table.print();
        std::cout << "SoA pays 2*19 link latencies per device and halo; AoS pays 2. OCC hides\n"
                     "most of the difference by overlapping the transfers.\n";
    }

    // (b) Interconnect: the paper's two systems.
    {
        benchtool::Table table;
        table.title = "Ablation (b) — interconnect: NVLink (DGX A100) vs PCIe Gen3, LBM 128^3";
        table.header = {"System", "OCC", "us/iter (8 GPU)", "efficiency vs 1 GPU"};
        for (const auto& [name, cfg] :
             {std::pair<const char*, sys::SimConfig>{"DGX A100 (NVLink)",
                                                     sys::SimConfig::dgxA100Like()},
              std::pair<const char*, sys::SimConfig>{"PCIe Gen3", sys::SimConfig::pcieGen3Like()}}) {
            const double t1 = secondsPerIter({128, 128, 128}, 1, Occ::NONE,
                                             MemLayout::structOfArrays, cfg, true);
            for (Occ occ : {Occ::NONE, Occ::STANDARD}) {
                const double t8 = secondsPerIter({128, 128, 128}, 8, occ,
                                                 MemLayout::structOfArrays, cfg, true);
                table.rows.push_back({name, to_string(occ), benchtool::fmt(t8 * 1e6, 1),
                                      benchtool::fmt(100.0 * t1 / (8 * t8), 1) + "%"});
            }
        }
        table.print();
        std::cout << "The slow interconnect amplifies the OCC benefit — the paper's second\n"
                     "system (GV100 + PCIe Gen3) motivates the optimization.\n";
    }
    return 0;
}
