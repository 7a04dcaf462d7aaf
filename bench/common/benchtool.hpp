#pragma once
// Shared helpers for the paper-reproduction benchmarks: paper-shaped table
// printing, virtual-time measurement on the simulated backend, interleaved
// wall-clock medians, and the NEON_BENCH_PAPER switch that adds the paper's
// exact domain sizes via the simulator's dry-run mode.

#include <functional>
#include <string>
#include <vector>

#include "set/backend.hpp"

namespace neon::benchtool {

/// True when NEON_BENCH_PAPER=1: scaling benches add the paper's exact
/// domain sizes (executed in dry-run mode: cost accounting only).
bool paperScale();

/// Fixed-point formatting helper.
std::string fmt(double v, int precision = 2);

/// Write the backend's recorded ExecutionReport as BENCH_<name>_report.json
/// in the working directory. Record the
/// section of interest with backend.profiler().enable(true) first.
void writeReportJson(set::Backend& backend, const std::string& name);

/// Medians of two wall-clock measurements taken `reps` times each,
/// interleaved (a, b, a, b, ...) after one untimed warm-up of each side, so
/// host load and cache state fall on both sides alike. Each body returns
/// the seconds it measured, which lets it keep its own set-up untimed.
struct PairedMedians
{
    double a = 0.0;
    double b = 0.0;
};
PairedMedians interleavedMedians(int reps, const std::function<double()>& a,
                                 const std::function<double()>& b);

/// Markdown-ish table printer.
struct Table
{
    std::string                           title;
    std::vector<std::string>              header;
    std::vector<std::vector<std::string>> rows;

    void print() const;
};

/// Measure the virtual time of `iterationBody` per call as a makespan
/// delta (no clock reset: completion events of earlier runs keep their
/// timestamps, so deltas are the safe measure).
template <typename Fn>
double measureVirtual(set::Backend& backend, int iters, Fn&& iterationBody)
{
    backend.sync();
    const double t0 = backend.profiler().makespan();
    for (int i = 0; i < iters; ++i) {
        iterationBody();
    }
    backend.sync();
    return (backend.profiler().makespan() - t0) / iters;
}

}  // namespace neon::benchtool
