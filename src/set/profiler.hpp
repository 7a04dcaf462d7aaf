#pragma once
// Profiler: the one observability entry point for a Backend
// (docs/observability.md). Everything that used to be scattered across
// backend.trace(), backend.maxVtime() and free-form report strings hangs
// off backend.profiler():
//
//   auto prof = backend.profiler();
//   prof.enable();                     // start recording trace events
//   app.run(); app.sync();
//   std::cout << prof.gantt();         // text Gantt of the virtual timeline
//   prof.writeChromeTrace("run.json"); // open in chrome://tracing / Perfetto
//   auto report = prof.report();       // neon::ExecutionReport aggregation
//
// Profiler is a cheap value handle onto the backend's engine-owned trace;
// copies observe the same recording.

#include <string>

#include "set/backend.hpp"
#include "sys/execution_report.hpp"
#include "sys/trace.hpp"

namespace neon::set {

class Profiler
{
   public:
    explicit Profiler(Backend backend) : mBackend(std::move(backend)) {}

    /// Start/stop recording trace events (off by default; recording costs
    /// one entry per kernel/transfer/hostFn/wait).
    void enable(bool on = true) { trace().enable(on); }
    [[nodiscard]] bool enabled() const { return trace().enabled(); }
    /// Drop all recorded entries.
    void clear() { trace().clear(); }

    /// The underlying structured event log.
    [[nodiscard]] sys::Trace& trace() const { return mBackend.traceRef(); }

    /// Virtual makespan so far (max stream vtime; replaces Backend::maxVtime).
    [[nodiscard]] double makespan() const { return mBackend.makespanNow(); }

    /// Text Gantt chart of the recorded virtual timeline.
    [[nodiscard]] std::string gantt(int columns = 100) const { return trace().gantt(columns); }
    /// Chrome trace-event JSON (chrome://tracing, https://ui.perfetto.dev).
    [[nodiscard]] std::string chromeTrace() const { return trace().chromeTrace(); }
    /// Write chromeTrace() to `path`; throws NeonException on I/O failure.
    void writeChromeTrace(const std::string& path) const;

    /// Aggregate every recorded entry into an ExecutionReport.
    [[nodiscard]] ExecutionReport report() const;
    /// Aggregate only the entries of run windows [firstRunId, lastRunId]
    /// (Skeleton::run() stamps each window; see Skeleton::executionReport).
    [[nodiscard]] ExecutionReport report(int firstRunId, int lastRunId) const;

    /// Injected fault events recorded so far (kind=="fault" trace rows:
    /// transfer retries and stream stalls; docs/robustness.md).
    [[nodiscard]] int faultEvents() const
    {
        return static_cast<int>(trace().countKind(sys::OpKind::Fault));
    }

   private:
    Backend mBackend;
};

}  // namespace neon::set

namespace neon {
using set::Profiler;
}
