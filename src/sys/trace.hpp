#pragma once
// Execution trace of the virtual timeline. Records structured events
// (device, stream, kind, name, payload bytes, container/run attribution and
// wait edges) for every op the engines process. Consumed by tests (to
// assert that communication really overlapped computation), by the text
// Gantt chart, by the chrome://tracing / Perfetto JSON exporter and by
// neon::ExecutionReport aggregation.
//
// Storage is struct-of-arrays with an interned name table: recording an
// event on the engine hot path appends plain scalars plus one name-id
// lookup, instead of constructing two heap strings per entry. The AoS
// TraceEntry view is materialized on demand by entries().

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace neon::sys {

/// Event category. The string spellings ("kernel", "transfer", ...) are
/// stable public API: reports, tests and the chrome-trace export key on
/// them through TraceEntry::kind / to_string(TraceKind).
enum class TraceKind : uint8_t
{
    Kernel,
    Transfer,
    HostFn,
    Wait,
    Fault,
    HostPool,  ///< one pool worker's share of a CPU kernel ("hostPool")
};

const std::string& to_string(TraceKind k);

struct TraceEntry
{
    int         device = 0;
    int         stream = 0;
    std::string kind;  ///< "kernel" | "transfer" | "hostFn" | "wait" | "fault" | "hostPool"
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

/// Attribution stamped onto ops at enqueue time (set by the Skeleton around
/// each task) so engine-side trace entries can name their graph node, run
/// and owning service job.
struct TraceContext
{
    int containerId = -1;
    int runId = -1;
    int jobId = -1;
};

class Trace
{
   public:
    void enable(bool on);
    [[nodiscard]] bool enabled() const { return mEnabled.load(std::memory_order_relaxed); }

    /// Hot-path recording: no TraceEntry construction, the name is interned
    /// (repeated kernel/transfer names share one stored string).
    void record(int device, int stream, TraceKind kind, std::string_view name, double startV,
                double endV, uint64_t bytes = 0, int containerId = -1, int runId = -1,
                int jobId = -1, uint64_t waitEventId = 0, int srcDevice = -1, int srcStream = -1);

    void clear();

    [[nodiscard]] size_t size() const;
    /// Number of recorded events of `kind` (e.g. injected fault rows).
    [[nodiscard]] size_t countKind(TraceKind kind) const;

    [[nodiscard]] std::vector<TraceEntry> entries() const;
    /// Entries whose runId lies in [firstRunId, lastRunId].
    [[nodiscard]] std::vector<TraceEntry> entriesForRuns(int firstRunId, int lastRunId) const;
    /// Entries attributed to one neon::service job.
    [[nodiscard]] std::vector<TraceEntry> entriesForJob(int jobId) const;

    // --- attribution ------------------------------------------------------
    void setContext(TraceContext ctx);
    void clearContext() { setContext({}); }
    [[nodiscard]] TraceContext context() const;
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
    /// Columnar event store: one vector per field, grown in lockstep.
    struct Store
    {
        std::vector<int32_t>  device;
        std::vector<int32_t>  stream;
        std::vector<uint8_t>  kind;
        std::vector<uint32_t> nameId;
        std::vector<double>   startV;
        std::vector<double>   endV;
        std::vector<uint64_t> bytes;
        std::vector<int32_t>  containerId;
        std::vector<int32_t>  runId;
        std::vector<int32_t>  jobId;
        std::vector<uint64_t> waitEventId;
        std::vector<int32_t>  srcDevice;
        std::vector<int32_t>  srcStream;

        [[nodiscard]] size_t size() const { return device.size(); }
        void                 reserveMore(size_t extra);
        void                 clear();
    };

    [[nodiscard]] uint32_t    internName(std::string_view name);
    [[nodiscard]] TraceEntry  materialize(size_t i) const;

    mutable std::mutex mMutex;
    std::atomic<bool>  mEnabled{false};
    Store              mStore;
    /// Interned name table: id -> string, plus the reverse lookup.
    std::vector<std::string>                  mNames;
    std::unordered_map<std::string, uint32_t> mNameIds;
    TraceContext                              mContext;
    std::atomic<int>                          mNextRunId{0};
};

}  // namespace neon::sys
