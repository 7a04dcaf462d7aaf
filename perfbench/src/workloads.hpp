#pragma once
// The four workloads (README.md, "Workloads") and the module probes every
// traced run adds. Each workload function records its own metrics and
// checks into `run`: end-to-end metrics when run.opt.trace is false,
// per-layer metrics from a bounded traced window when it is true.

#include "bench.hpp"

namespace perfbench {

void lbmCavity(Run& run);
void cgSolve(Run& run);
void cg8GpuDry(Run& run);
void serviceMix(Run& run);

/// lbm.*, sys.triad_*, poisson.*, solver.*, sys.vtime.efficiency and
/// service.*: fixed-size probes of the application modules, identical on
/// every workload, so every traced run reports every per-layer metric.
void moduleProbes(Run& run);

// Parts of moduleProbes(), one per application module.
void lbmProbe(Run& run, int width, double triadGbps);
void cgProbe(Run& run, int width);
void serviceProbe(Run& run);

}  // namespace perfbench
