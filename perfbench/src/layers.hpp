#pragma once
// Per-layer measurements shared by the four workloads. Each helper times
// the calls the benchmark makes into one library layer, on the workload's
// own grid, fields and containers, and records the per_layer metrics of
// BENCHMARK.json.

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"
#include "skeleton/skeleton.hpp"
#include "sys/trace.hpp"

namespace perfbench {

namespace set = neon::set;
namespace skeleton = neon::skeleton;
namespace sys = neon::sys;

/// One workload's bounded traced window: a cold set-up (schedule cache
/// cleared, one warm-up operation included) followed by `ops` operations,
/// run once untraced and once with the profiler and the span tracer on.
struct WindowSpec
{
    int64_t ops = 1;
    /// Work units the window performs (iterations, jobs); 0 = ops. The
    /// per-iteration metrics divide by this.
    int64_t units = 0;
    /// Build the workload's objects and run one warm-up operation; returns
    /// the backend to profile.
    std::function<set::Backend()> setup;
    /// Operation i (the caller's spans go inside).
    std::function<void(int64_t)> op;
    /// Work that closes the window after the last operation (may be empty).
    std::function<void()> finish;
    /// Trace rows to keep for the virtual-time report (default: all); it
    /// receives every row the window's operations recorded.
    std::function<std::vector<sys::TraceEntry>(std::vector<sys::TraceEntry>)> keepRows;
};

/// Run the window twice and record the sys.*, set.profiler.*, trace.*
/// and skeleton.cache_hit_ratio metrics. Returns the id of the traced
/// window's root span.
int tracedWindow(Run& run, const WindowSpec& spec, int width);

/// `n` dry-run simulated A100s (dgxA100 preset), host pool width `width`.
set::Backend dryA100s(int n, int width);

/// sys.pool.*: empty-chunk ThreadPool::parallelFor at `width` and `chunks`.
void forkJoinProbe(Run& run, int width, int chunks);

/// skeleton.sequence_* and schedule shape of `ops` on `backend`. With
/// `timeRuns`, also skeleton.run_us / sync_us per run of that schedule.
void sequenceProbe(Run& run, const set::Backend& backend, const std::vector<set::Container>& ops,
                   const skeleton::SequenceOptions& options, bool timeRuns);

/// Wall ns per cell of one container launched alone through
/// Container::run(StreamSet) + sync (median of `reps`).
double containerNsPerCell(Run& run, const set::Backend& backend, const set::Container& c,
                          double cells, int reps);

/// Cold set-ups: before each, prepare() (untimed; frees the previous
/// instance) and a schedule-cache clear; then build() is timed. Repeats
/// until at least 3 repetitions and 2 s of set-up were measured (at most
/// 501). Returns the seconds of each repetition.
std::vector<double> coldSetups(const std::function<void()>& prepare,
                               const std::function<void()>& build);

/// Median wall seconds of `reps` calls of fn(), each inside a span.
double medianSpan(Run& run, const char* layer, const char* name, int reps,
                  const std::function<void()>& fn);

}  // namespace perfbench
