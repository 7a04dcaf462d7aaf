#pragma once
// Execution trace of the virtual timeline. Records structured events
// (device, stream, kind, name, payload bytes, container/run attribution and
// wait edges) for every op the engine processes. Consumed by tests (to
// assert that communication really overlapped computation), by the text
// Gantt chart, by the chrome://tracing / Perfetto JSON exporter and by
// neon::ExecutionReport aggregation.
//
// Storage is one plain row per event with an interned name table:
// recording an event on the engine hot path appends one row of scalars plus
// one name-id lookup, instead of constructing two heap strings per entry. The
// TraceEntry view is materialized on demand by entries().
//
// Single writer: the engine records rows on the thread that drives its
// Backend (host-pool rows too, after the pool's parallelFor returns), so the
// trace takes no lock.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sys/op.hpp"

namespace neon::sys {

struct TraceEntry
{
    int         device = 0;
    int         stream = 0;
    std::string kind;  ///< to_string(OpKind): every kind but "record"
    std::string name;
    double      startV = 0.0;
    double      endV = 0.0;
    // Structured metadata (defaulted so the historical six-field aggregate
    // initialization keeps compiling).
    uint64_t bytes = 0;        ///< transfer payload; "hostPool": chunks executed
    int      containerId = -1; ///< skeleton graph-node id, -1 outside a skeleton
    int      runId = -1;       ///< skeleton run() window id, -1 outside a skeleton
    int      jobId = -1;       ///< neon::service job id, -1 outside a service job
    uint64_t waitEventId = 0;  ///< kind == "wait": id of the awaited event
    int      srcDevice = -1;   ///< "wait": recording device; "hostPool": worker slot
    int      srcStream = -1;
};

class Trace
{
   public:
    void enable(bool on) { mEnabled = on; }
    [[nodiscard]] bool enabled() const { return mEnabled; }

    /// Hot-path recording: no TraceEntry construction, the name is interned
    /// (repeated kernel/transfer names share one stored string).
    void record(int device, int stream, OpKind kind, std::string_view name, double startV,
                double endV, uint64_t bytes = 0, const OpAttribution& attr = {},
                uint64_t waitEventId = 0, int srcDevice = -1, int srcStream = -1);

    void clear();

    [[nodiscard]] size_t size() const;
    /// Number of recorded events of `kind` (e.g. injected fault rows).
    [[nodiscard]] size_t countKind(OpKind kind) const;

    [[nodiscard]] std::vector<TraceEntry> entries() const;
    /// Entries whose runId lies in [firstRunId, lastRunId].
    [[nodiscard]] std::vector<TraceEntry> entriesForRuns(int firstRunId, int lastRunId) const;
    /// Entries attributed to one neon::service job.
    [[nodiscard]] std::vector<TraceEntry> entriesForJob(int jobId) const;

    /// Fresh id for one Skeleton::run() window (monotone per trace).
    [[nodiscard]] int nextRunId();

    /// Render a per-(device,stream) text Gantt chart of the virtual
    /// timeline. Wait entries are omitted (they mark idle time).
    [[nodiscard]] std::string gantt(int columns = 100) const;

    /// Export the trace in the Chrome trace-event JSON format, loadable in
    /// chrome://tracing and https://ui.perfetto.dev. Devices map to
    /// processes, streams to threads; virtual seconds map to microseconds.
    /// Wait edges become flow arrows from the recording stream.
    [[nodiscard]] std::string chromeTrace() const;

   private:
    struct Row
    {
        int32_t       device = 0;
        int32_t       stream = 0;
        OpKind        kind = OpKind::Kernel;
        uint32_t      nameId = 0;
        double        startV = 0.0;
        double        endV = 0.0;
        uint64_t      bytes = 0;
        OpAttribution attr;
        uint64_t      waitEventId = 0;
        int32_t       srcDevice = -1;
        int32_t       srcStream = -1;
    };

    /// Transparent hash: interning looks names up by string_view, so a hit
    /// allocates nothing.
    struct NameHash
    {
        using is_transparent = void;
        size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
    };

    [[nodiscard]] uint32_t   internName(std::string_view name);
    [[nodiscard]] TraceEntry materialize(const Row& r) const;
    /// Materialized rows that pass `keep`.
    template <class Keep>
    [[nodiscard]] std::vector<TraceEntry> entriesWhere(Keep keep) const;

    bool             mEnabled = false;
    std::vector<Row> mRows;
    /// Interned name table: id -> string, plus the reverse lookup.
    std::vector<std::string>                                           mNames;
    std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>> mNameIds;
    int                                                                mNextRunId = 0;
};

}  // namespace neon::sys
