// Sparse LBM flow around a cylinder on bGrid (paper §IV-C: the Domain
// contract makes grids interchangeable). The same KarmanD2Q9 solver that
// examples/karman_street.cpp runs on dGrid here runs on the block-sparse
// bGrid: only non-solid cells are allocated and iterated, the cylinder and
// channel walls are simply absent from the grid. The solver code is
// unchanged — only the grid construction differs.
//
// The run on 2 simulated GPUs with Occ::STANDARD is repeated on 1 GPU with
// Occ::NONE (no halos, no overlap) and the final populations must match
// bitwise; exits nonzero otherwise.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "neon.hpp"
#include "lbm/karman2d.hpp"

using namespace neon;

namespace {

/// Run `iters` steps on a fresh solver over `nDev` simulated GPUs; return
/// the final populations of the active cells, keyed by global cell and
/// direction and sorted by key (the device split changes the iteration
/// order, not the populations).
std::vector<std::pair<size_t, float>> runOnce(const lbm::KarmanConfig& cfg, int iters, int nDev, Occ occ)
{
    auto backend = set::Backend::simGpu(nDev);
    auto prof = backend.profiler();
    prof.enable();

    // Channel height on z (partition axis); solid cells never enter the grid.
    const index_3d dim{cfg.nx, 1, cfg.ny};
    bgrid::BGrid   grid(
        backend, dim, [&](const index_3d& g) { return !cfg.isWall(g.x, g.z); },
        lbm::D2Q9::stencilXZ());

    lbm::KarmanD2Q9<bgrid::BGrid> solver(grid, cfg, occ);
    solver.run(iters);
    solver.sync();
    solver.current().updateHost();

    const double sparsity =
        100.0 *
        (1.0 - static_cast<double>(grid.activeCount()) / static_cast<double>(dim.size()));
    std::printf("bGrid: %zu active cells of %lld (%.1f%% culled), %lldx%lldx%lld blocks of %d^3\n",
                grid.activeCount(), static_cast<long long>(dim.size()), sparsity,
                static_cast<long long>(grid.blockGridDim().x),
                static_cast<long long>(grid.blockGridDim().y),
                static_cast<long long>(grid.blockGridDim().z), grid.blockSize());
    const auto report = prof.report();
    std::printf("%d GPU(s), occ=%s  overlap=%.1f%%  haloBytes=%llu  criticalPath=%.3gs\n", nDev,
                to_string(occ).c_str(), report.overlapPercent(),
                static_cast<unsigned long long>(report.haloBytes()), report.criticalPath());

    std::vector<std::pair<size_t, float>> out;
    out.reserve(grid.activeCount() * static_cast<size_t>(lbm::D2Q9::Q));
    solver.current().forEachActiveHost([&](const index_3d& g, int c, float& v) {
        const size_t slot = dim.pitch(g) * static_cast<size_t>(lbm::D2Q9::Q);
        out.emplace_back(slot + static_cast<size_t>(c), v);
    });
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace

int main()
{
    lbm::KarmanConfig cfg;
    cfg.nx = 120;
    cfg.ny = 48;
    cfg.inflow = 0.08;
    cfg.reynolds = 150.0;

    const int iters = 500;
    std::cout << "Sparse D2Q9 obstacle flow on bGrid, " << cfg.nx << "x" << cfg.ny
              << ", Re=" << cfg.reynolds << ", " << iters
              << " iterations\n";

    const auto multi = runOnce(cfg, iters, 2, Occ::STANDARD);
    const auto single = runOnce(cfg, iters, 1, Occ::NONE);

    if (multi.size() != single.size()) {
        std::cerr << "FAIL: population count mismatch (" << multi.size() << " vs "
                  << single.size() << ")\n";
        return 1;
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < multi.size(); ++i) {
        if (multi[i] != single[i]) {
            ++mismatches;
        }
    }
    if (mismatches != 0) {
        std::cerr << "FAIL: " << mismatches << " of " << multi.size()
                  << " populations differ between 2 GPUs (OCC standard) and 1 GPU\n";
        return 1;
    }
    std::cout << "OK: 2 GPUs (OCC standard) and 1 GPU bitwise-identical over " << multi.size()
              << " populations\n";
    return 0;
}
