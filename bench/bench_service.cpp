// Multi-tenant service traffic replay (docs/service.md): 1000+ mixed
// LBM/Poisson/FEM jobs with seeded Poisson arrivals are replayed twice on
// a simulated DGX-A100-like pool —
//   * "serialized": maxInFlight=1, batching off — the FIFO-of-one
//     baseline every job used to get before neon::service existed,
//   * "concurrent": fair-share scheduling, several stream leases in
//     flight, structural batching on —
// and per-mode p50/p99/mean job latency (virtual seconds), device
// utilization, makespan and batch counts go into
// BENCH_service_report.json. CI gates the concurrent mode's p99 latency
// AND utilization strictly better than serialized on the same trace
// (tools/check_bench_reports.py).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "service/service.hpp"
#include "service/traffic.hpp"
#include "sys/execution_report.hpp"

using namespace neon;

namespace {

constexpr unsigned kSeed = 2026;
constexpr int      kJobs = 1200;
constexpr int      kTenants = 6;
constexpr int      kDevices = 4;
/// Mean Poisson inter-arrival gap [virtual s]. Chosen so the serialized
/// baseline backlogs (offered load beyond one-lease throughput) while the
/// concurrent mode keeps up — the regime the service exists for.
constexpr double kMeanGap = 5.0e-5;

struct ModeResult
{
    std::string name;
    double      p50 = 0.0;
    double      p99 = 0.0;
    double      mean = 0.0;
    double      utilization = 0.0;
    double      makespan = 0.0;
    int         batches = 0;
    int         completed = 0;
};

double percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
    return v[idx];
}

ModeResult replay(const std::vector<service::JobDesc>& trace, const service::ServiceConfig& cfg,
                  const std::string& name)
{
    // Dry-run cost model: kernels advance virtual time per the DGX-A100
    // cost model without touching cells, so a 1000+ job replay stays fast
    // while latencies and utilization remain the simulated-machine truth.
    sys::SimConfig sim = sys::SimConfig::dgxA100Like();
    sim.dryRun = true;
    set::Backend bk = set::Backend::simGpu(kDevices, sim);
    bk.profiler().enable();

    service::Service svc(bk, cfg);
    std::vector<service::Job> jobs;
    jobs.reserve(trace.size());
    for (const auto& d : trace) {
        auto bj = service::buildJob(bk, d);
        jobs.push_back(svc.submit(std::move(bj.request)));
    }
    svc.drain();

    ModeResult r;
    r.name = name;
    std::vector<double> lat;
    lat.reserve(jobs.size());
    for (auto& j : jobs) {
        if (j.state() != service::JobState::Completed) {
            continue;
        }
        lat.push_back(j.latency());
    }
    r.completed = static_cast<int>(lat.size());
    if (!lat.empty()) {
        r.p50 = percentile(lat, 0.50);
        r.p99 = percentile(lat, 0.99);
        double sum = 0.0;
        for (double v : lat) {
            sum += v;
        }
        r.mean = sum / static_cast<double>(lat.size());
    }
    const auto report =
        ExecutionReport::fromEntries(bk.profiler().trace().entries(), bk.devCount());
    r.utilization = report.deviceUtilization();
    r.makespan = report.makespan();
    r.batches = svc.batchCount();
    return r;
}

void emit(std::ostream& os, const ModeResult& r, bool last)
{
    os << "    \"" << r.name << "\": {\"p50\": " << r.p50 << ", \"p99\": " << r.p99
       << ", \"mean\": " << r.mean << ", \"utilization\": " << r.utilization
       << ", \"makespan\": " << r.makespan << ", \"batches\": " << r.batches
       << ", \"completed\": " << r.completed << "}" << (last ? "\n" : ",\n");
}

}  // namespace

int main()
{
    const auto trace = service::makeTrace(service::TrafficSpec()
                                              .withSeed(kSeed)
                                              .withJobs(kJobs)
                                              .withTenants(kTenants)
                                              .withMeanGap(kMeanGap)
                                              .withMaxRuns(2));

    const ModeResult serialized =
        replay(trace,
               service::ServiceConfig()
                   .withPolicy(service::Policy::Fifo)
                   .withMaxInFlight(1)
                   .withBatching(false),
               "serialized");
    const ModeResult concurrent =
        replay(trace,
               service::ServiceConfig()
                   .withPolicy(service::Policy::FairShare)
                   .withMaxInFlight(6)
                   .withBatching(true, 4),
               "concurrent");

    for (const auto& r : {serialized, concurrent}) {
        std::cout << r.name << ": completed=" << r.completed << " p50=" << r.p50 * 1e6
                  << "us p99=" << r.p99 * 1e6 << "us mean=" << r.mean * 1e6
                  << "us utilization=" << r.utilization * 100.0
                  << "% makespan=" << r.makespan * 1e3 << "ms batches=" << r.batches << "\n";
    }

    std::ofstream os("BENCH_service_report.json");
    os << "{\n  \"bench\": \"service\",\n";
    os << "  \"seed\": " << kSeed << ",\n  \"jobs\": " << kJobs
       << ",\n  \"tenants\": " << kTenants << ",\n  \"devices\": " << kDevices << ",\n";
    os << "  \"meanGap\": " << kMeanGap << ",\n";
    os << "  \"modes\": {\n";
    emit(os, serialized, false);
    emit(os, concurrent, true);
    os << "  }\n}\n";
    std::cout << "wrote BENCH_service_report.json\n";
    return 0;
}
