// Fig. 9 reproduction: finite-element linear-elastic solver — dense grid
// (with an activity mask) vs element-sparse grid, across grid sizes and
// sparsity ratios {1.0, 0.2}. Reports virtual time per CG iteration and
// per-device memory; includes the paper's out-of-memory data point (the
// sparse structure at 512^3 fully dense exhausts a 32 GB device while the
// dense grid fits).

#include <cmath>
#include <iostream>
#include <vector>

#include "common/benchtool.hpp"
#include "dgrid/dfield.hpp"
#include "egrid/efield.hpp"
#include "fem/elasticity.hpp"

using namespace neon;

namespace {

constexpr int kIters = 6;

/// Solid cube centred in the grid with the given volume fraction.
struct SolidCube
{
    index_3d dim;
    double   ratio;

    [[nodiscard]] bool operator()(const index_3d& g) const
    {
        if (ratio >= 1.0) {
            return true;
        }
        const double side = std::cbrt(ratio);
        const auto   inside = [&](int32_t v, int32_t n) {
            const double lo = (1.0 - side) / 2.0 * n;
            const double hi = (1.0 + side) / 2.0 * n;
            return v >= lo && v < hi;
        };
        return inside(g.x, dim.x) && inside(g.y, dim.y) && inside(g.z, dim.z);
    }
};

struct Measured
{
    double seconds = 0.0;   ///< per CG iteration (virtual)
    double gibPerDev = 0.0;  ///< peak device memory, GiB, device 0
    bool   oom = false;
};

template <typename Grid>
Measured measureOn(set::Backend backend, Grid grid, const SolidCube& solid)
{
    Measured out;
    try {
        fem::ElasticProblem problem({100.0, 0.3}, 1.0, -1.0);
        auto act = grid.template newField<uint8_t>("act", 1, 0);
        auto x = grid.template newField<double>("x", 3, 0.0);
        auto b = grid.template newField<double>("b", 3, 0.0);
        if (!backend.isDryRun()) {
            act.forEachActiveHost(
                [&](const index_3d& g, int, uint8_t& v) { v = solid(g) ? 1 : 0; });
            act.updateDev();
        }

        solver::CgOptions options;
        options.maxIterations = kIters;
        options.fixedIterations = true;
        options.occ = Occ::STANDARD;

        backend.sync();
        const double t0 = backend.profiler().makespan();
        fem::solveElastic(grid, problem, act, x, b, options);
        backend.sync();
        out.seconds = (backend.profiler().makespan() - t0) / kIters;
        // Peak device memory including the CG work fields.
        out.gibPerDev = static_cast<double>(backend.device(0).peakBytes()) / (1ull << 30);
    } catch (const DeviceMemoryError&) {
        out.oom = true;
    }
    return out;
}

Measured measureDense(index_3d dim, double ratio, int nDev, bool dryRun, size_t capacity)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = dryRun;
    cfg.deviceMemCapacity = capacity;
    auto backend = set::Backend::make(set::BackendSpec::simGpu(nDev, cfg));
    try {
        dgrid::DGrid grid(backend, dim, Stencil::box27());
        return measureOn(backend, grid, SolidCube{dim, ratio});
    } catch (const DeviceMemoryError&) {
        Measured m;
        m.oom = true;
        return m;
    }
}

Measured measureSparse(index_3d dim, double ratio, int nDev, bool dryRun, size_t capacity)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = dryRun;
    cfg.deviceMemCapacity = capacity;
    auto backend = set::Backend::make(set::BackendSpec::simGpu(nDev, cfg));
    const SolidCube solid{dim, ratio};
    try {
        egrid::EGrid grid(backend, dim,
                          [&](const index_3d& g) { return solid(g); }, Stencil::box27());
        return measureOn(backend, grid, solid);
    } catch (const DeviceMemoryError&) {
        Measured m;
        m.oom = true;
        return m;
    }
}

std::string cell(const Measured& m)
{
    if (m.oom) {
        return "OOM";
    }
    return benchtool::fmt(m.seconds * 1e3, 2) + " ms / " + benchtool::fmt(m.gibPerDev, 2) +
           " GiB";
}

void sparsityTable(const std::vector<index_3d>& dims, int nDev, bool dryRun, size_t capacity,
                   const char* label)
{
    benchtool::Table table;
    table.title = std::string("Fig. 9 — FEM elasticity, time/CG-iteration and memory/device (") +
                  label + ")";
    table.header = {"Grid", "dense r=1.0", "sparse r=1.0", "dense r=0.2", "sparse r=0.2"};
    for (const auto& dim : dims) {
        table.rows.push_back({dim.to_string(), cell(measureDense(dim, 1.0, nDev, dryRun, capacity)),
                              cell(measureSparse(dim, 1.0, nDev, dryRun, capacity)),
                              cell(measureDense(dim, 0.2, nDev, dryRun, capacity)),
                              cell(measureSparse(dim, 0.2, nDev, dryRun, capacity))});
    }
    table.print();
}

}  // namespace

int main()
{
    // Real execution at small scale.
    sparsityTable({{20, 20, 20}, {28, 28, 28}}, 4, /*dryRun=*/false, 40ull << 30,
                  "real execution, 4 GPUs");

    // Paper sizes through the dry-run cost model, 8 GPUs, A100 40 GB.
    std::vector<index_3d> dims{{128, 128, 128}, {256, 256, 256}};
    if (benchtool::paperScale()) {
        dims.push_back({384, 384, 384});
    }
    sparsityTable(dims, 8, /*dryRun=*/true, 40ull << 30, "paper sizes, dry-run, 8 GPUs");

    // The paper's OOM data point: at full density the sparse structure's
    // connectivity/coordinate overhead exhausts the device while the dense
    // grid fits. Our layout is leaner than the paper's (int32 connectivity,
    // no marshaling buffers), so the failure lands one size step later:
    // 512^3 peaks just inside a 32 GB GV100 and 576^3 crosses.
    {
        benchtool::Table table;
        table.title = "Fig. 9 OOM point — ratio 1.0, single 32 GB (GV100-like) device, dry-run";
        table.header = {"Grid", "dense grid", "sparse grid"};
        for (int n : {512, 576}) {
            table.rows.push_back({std::to_string(n) + "^3",
                                  cell(measureDense({n, n, n}, 1.0, 1, true, 32ull << 30)),
                                  cell(measureSparse({n, n, n}, 1.0, 1, true, 32ull << 30))});
        }
        table.print();
    }

    // Export an ExecutionReport for one representative profiled FEM run
    // (4 GPUs, 20^3 dense grid, ratio 0.5).
    {
        auto backend =
            set::Backend::make(set::BackendSpec::simGpu(4, sys::SimConfig::dgxA100Like()));
        dgrid::DGrid grid(backend, {20, 20, 20}, Stencil::box27());
        auto         profiler = backend.profiler();
        profiler.enable(true);
        measureOn(backend, grid, SolidCube{{20, 20, 20}, 0.5});
        profiler.enable(false);
        benchtool::writeReportJson(backend, "fig9_fem_sparsity");
    }

    std::cout << "Paper's shape (Fig. 9): the sparse structure wins once the sparsity ratio\n"
                 "drops below ~0.8; at ratio 1.0 the dense grid is faster and smaller, and at\n"
                 "full density + large grids the sparse structure runs out of device memory\n"
                 "(paper: 512^3; our leaner layout: 576^3).\n";
    return 0;
}
