#pragma once
// Analyzer: the race-analysis entry point for a Backend (docs/analysis.md),
// mirroring the Profiler facade:
//
//   auto an = backend.analysis();
//   an.enable();                  // feed the race detector from now on
//   app.run(); app.sync();
//   auto report = an.raceReport();  // happens-before race check
//
// Analyzer is a cheap value handle onto the race session installed as the
// backend engine's enqueue hook; copies observe the same session. Ops are
// fed in host enqueue order and the check is over happens-before, not over
// the order the engine ran them in.

#include "analysis/report.hpp"
#include "set/backend.hpp"

namespace neon::set {

class Analyzer
{
   public:
    explicit Analyzer(Backend backend) : mBackend(std::move(backend)) {}

    /// Start/pause feeding enqueued ops to the race detector (off by
    /// default). The detector keeps per-segment state, not a record per op;
    /// pausing keeps the findings so far.
    void enable(bool on = true);
    [[nodiscard]] bool enabled() const;
    /// Drop all findings, run metadata and detector state.
    void clear();

    /// Every finding since enable() (or the last clear()).
    [[nodiscard]] analysis::AnalysisReport raceReport() const;
    /// Incremental drain: only the findings made since the previous drain.
    [[nodiscard]] analysis::AnalysisReport drainRaces() const;

   private:
    Backend mBackend;
};

}  // namespace neon::set

namespace neon {
using set::Analyzer;
}
