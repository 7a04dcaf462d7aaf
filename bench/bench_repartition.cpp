// Measured-rate rebalancing on a heterogeneous device mix
// (docs/robustness.md). A 3-device simulated pool with speed factors
// {1.0, 0.5, 0.25} runs a stencil+map pipeline twice:
//   * "static": the constructor's equal z-slabs — the slowest device
//     strangles every sync point, the fast devices idle,
//   * "rebalanced": Repartitioner::propose consumes the static window's
//     ExecutionReport and re-slices proportionally to measured rates;
//     fields migrate through the traced transfer plan.
// BENCH_repartition_report.json records the migration bytes, the wall
// rebalance latency (sync + migrate + rebuild + recompile) and both
// utilizations. CI gates rebalanced strictly above static
// (tools/check_bench_reports.py): if measured-rate rebalancing stops
// improving a 4x-spread heterogeneous mix, the repartitioner is broken.

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "repartition/repartitioner.hpp"
#include "skeleton/skeleton.hpp"
#include "sys/execution_report.hpp"

using namespace neon;

namespace {

constexpr int kDevices = 3;
constexpr int kSteps = 12;
const std::vector<double> kSpeedFactors = {1.0, 0.5, 0.25};

struct Rig
{
    set::Backend                backend;
    dgrid::DGrid                grid;
    dgrid::DField<double>       f;
    dgrid::DField<double>       g;
    std::vector<set::Container> ops;

    Rig()
        : backend(set::Backend::make(
              set::BackendSpec::simGpu(kDevices,
                                       [] {
                                           sys::SimConfig sim = sys::SimConfig::dgxA100Like();
                                           sim.dryRun = true;
                                           return sim;
                                       }())
                  .withSpeedFactors(kSpeedFactors))),
          grid(backend, {96, 96, 192}, Stencil::laplace7()),
          f(grid.newField<double>("f", 1, 0.0)),
          g(grid.newField<double>("g", 1, 0.0))
    {
        ops.push_back(grid.newContainer("diffuse", [this](auto& l) mutable {
            auto in = l.load(f, Access::READ, Compute::STENCIL);
            auto out = l.load(g, Access::WRITE);
            return [=](const dgrid::DCell& c) mutable {
                double acc = -6.0 * in(c);
                for (const auto& off : Stencil::laplace7().points()) {
                    acc += in.nghVal(c, off);
                }
                out(c) = in(c) + 0.05 * acc;
            };
        }));
        ops.push_back(grid.newContainer("relax", [this](auto& l) mutable {
            auto in = l.load(g, Access::READ);
            auto out = l.load(f, Access::WRITE);
            return [=](const dgrid::DCell& c) mutable { out(c) = 0.7 * out(c) + 0.3 * in(c); };
        }));
    }
};

ExecutionReport runWindow(Rig& rig, skeleton::Skeleton& skl)
{
    rig.backend.profiler().trace().clear();
    auto compiled = skl.sequence(rig.ops, skeleton::SequenceOptions().withName("rebalance"));
    for (int i = 0; i < kSteps; ++i) {
        compiled.run();
    }
    skl.sync();
    return ExecutionReport::fromEntries(rig.backend.profiler().trace().entries(),
                                        rig.backend.devCount());
}

std::string planToJson(const domain::PartitionPlan& plan)
{
    std::string out = "[";
    for (size_t i = 0; i < plan.unitsPerDev.size(); ++i) {
        out += (i > 0 ? ", " : "") + std::to_string(plan.unitsPerDev[i]);
    }
    return out + "]";
}

}  // namespace

int main()
{
    Rig rig;
    rig.backend.profiler().enable();
    skeleton::Skeleton skl(rig.backend);

    // --- static equal slabs -------------------------------------------------
    const domain::PartitionPlan staticPlan = rig.grid.currentPlan();
    const ExecutionReport       staticReport = runWindow(rig, skl);
    const double                utilStatic = staticReport.deviceUtilization();

    // --- measured-rate rebalance -------------------------------------------
    const repartition::DeviceRates rates =
        repartition::Repartitioner::measuredRates(staticReport, staticPlan);
    const domain::PartitionPlan proposed = repartition::Repartitioner::propose(
        rates, rig.grid.partitionUnits(), rig.grid.minUnitsPerDev());

    rig.backend.profiler().trace().clear();
    const auto t0 = std::chrono::steady_clock::now();
    rig.backend.sync();
    rig.grid.repartition(proposed);
    for (auto& c : rig.ops) {
        c.rebuild();
    }
    auto warm = skl.sequence(rig.ops, skeleton::SequenceOptions().withName("rebalance"));
    const auto t1 = std::chrono::steady_clock::now();
    const double rebalanceMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    uint64_t migrationBytes = 0;
    int      migrationSegments = 0;
    for (const auto& e : rig.backend.profiler().trace().entries()) {
        if (e.kind == "transfer" && e.name.rfind("migrate(", 0) == 0) {
            migrationBytes += e.bytes;
            migrationSegments += 1;
        }
    }

    const ExecutionReport rebalReport = runWindow(rig, skl);
    const double          utilRebalanced = rebalReport.deviceUtilization();

    std::cout << "static plan " << planToJson(staticPlan) << " utilization "
              << utilStatic * 100.0 << "%\n";
    std::cout << "rates " << rates.toString() << "\n";
    std::cout << "rebalanced plan " << planToJson(proposed) << " utilization "
              << utilRebalanced * 100.0 << "% (delta "
              << (utilRebalanced - utilStatic) * 100.0 << " pts)\n";
    std::cout << "migration " << migrationBytes << " bytes over " << migrationSegments
              << " segments, rebalance latency " << rebalanceMs << " ms\n";

    std::ofstream os("BENCH_repartition_report.json");
    os << "{\n  \"bench\": \"repartition\",\n";
    os << "  \"devices\": " << kDevices << ",\n";
    os << "  \"speedFactors\": [";
    for (size_t i = 0; i < kSpeedFactors.size(); ++i) {
        os << (i > 0 ? ", " : "") << kSpeedFactors[i];
    }
    os << "],\n  \"steps\": " << kSteps << ",\n";
    os << "  \"plans\": {\"static\": " << planToJson(staticPlan)
       << ", \"rebalanced\": " << planToJson(proposed) << "},\n";
    os << "  \"migration\": {\"bytes\": " << migrationBytes
       << ", \"segments\": " << migrationSegments << "},\n";
    os << "  \"rebalance\": {\"latency_ms\": " << rebalanceMs << "},\n";
    os << "  \"utilization\": {\"static\": " << utilStatic
       << ", \"rebalanced\": " << utilRebalanced
       << ", \"delta\": " << utilRebalanced - utilStatic << "}\n";
    os << "}\n";
    std::cout << "wrote BENCH_repartition_report.json\n";
    return 0;
}
