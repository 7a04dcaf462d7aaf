#pragma once
// Skeleton: Neon's orchestrator (paper §V). From a user-defined sequence of
// Containers it
//   1. extracts the data dependency graph (§V-A),
//   2. builds the multi-GPU graph: halo-update nodes for incoherent stencil
//      reads, reduce-combine nodes, transitive reduction, OCC transforms
//      with scheduling hints (§V-B),
//   3. schedules the graph onto streams and events with a greedy BFS
//      strategy (§V-C),
// and executes the resulting ordered task list on every run().
//
// sequence() memoizes the whole pipeline through a structural schedule
// cache (skeleton/schedule_cache.hpp, docs/performance.md): re-sequencing a
// structurally identical container list replays a stored recipe instead of
// recompiling, and returns a CompiledSchedule handle carrying the key hash
// and hit/miss provenance.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "core/error.hpp"
#include "core/types.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"
#include "skeleton/graph.hpp"
#include "sys/execution_report.hpp"

namespace neon::skeleton {

/// Everything sequence() takes besides the containers, configured fluently:
///
///   SequenceOptions().withName("jacobi").withOcc(Occ::EXTENDED).withMaxStreams(4)
struct SequenceOptions
{
    std::string name = "app";
    Occ         occ = Occ::NONE;
    /// Cap on concurrent streams per device (level width beyond this wraps).
    int maxStreams = 8;
    /// Consult/populate the process-wide schedule compilation cache. Off
    /// forces a full recompile (benchmarking, debugging the pipeline).
    bool cache = true;
    /// Run every launch through the access-sanitizer trampolines
    /// (set/sanitize.hpp): kernels observe their own reads/writes and
    /// AccessSanitizer::diff() can be checked after sync(). Also forced on
    /// by NEON_SANITIZE=1 (which additionally fails the process with exit
    /// code 4 on violations).
    bool sanitize = false;

    SequenceOptions& withName(std::string n)
    {
        name = std::move(n);
        return *this;
    }
    SequenceOptions& withOcc(Occ o)
    {
        occ = o;
        return *this;
    }
    SequenceOptions& withMaxStreams(int n)
    {
        NEON_CHECK(n >= 1, "SequenceOptions: maxStreams must be >= 1");
        maxStreams = n;
        return *this;
    }
    SequenceOptions& withCache(bool on)
    {
        cache = on;
        return *this;
    }
    SequenceOptions& withSanitize(bool on = true)
    {
        sanitize = on;
        return *this;
    }
};

class Skeleton;

/// How much Skeleton::validate() checks. Static is the PR 3 graph lint
/// (pure, no execution). Deep additionally executes the pipeline once with
/// sanitizer-instrumented kernels and diffs what they actually did against
/// their declarations — it therefore advances field state like any run().
enum class ValidateMode : uint8_t
{
    Static,
    Deep,
};

/// Per-run execution scope: where a run's streams live and which service
/// job it belongs to. Default-constructed == the classic single-tenant
/// behavior (streams 0..N-1, no job attribution, data-chained).
struct RunScope
{
    /// First backend stream index the run enqueues on; task stream s maps
    /// to backend stream streamBase + s. Obtain disjoint bases for
    /// concurrent jobs via Backend::leaseStreams.
    int streamBase = 0;
    /// neon::service job id stamped into trace entries and RuntimeErrors
    /// (-1 outside a service).
    int jobId = -1;
    /// Order this run against earlier runs touching the same data objects
    /// through Backend::dataBarriers(), and publish its tail for later
    /// runs. Disable only in race-detector tests that want the unordered
    /// behavior on purpose.
    bool chainData = true;
};

/// Handle onto one compiled schedule: the value sequence() returns. It
/// snapshots the (graph, task list, stream count) the compilation produced
/// plus its cache provenance, and can re-run, lint and describe that exact
/// schedule. A later sequence()/debugMutate* on the owning skeleton
/// supersedes the handle: introspection and lint() keep working on the
/// snapshot, run() refuses (the engine executes only the active schedule).
class CompiledSchedule
{
   public:
    CompiledSchedule() = default;

    [[nodiscard]] bool valid() const { return mImpl != nullptr; }
    /// Is this still the owning skeleton's active schedule?
    [[nodiscard]] bool current() const;

    // --- provenance --------------------------------------------------------
    /// 64-bit digest of the structural cache key.
    [[nodiscard]] uint64_t structuralHash() const;
    /// True when the compilation was served from the schedule cache.
    [[nodiscard]] bool cacheHit() const;

    // --- schedule stats ----------------------------------------------------
    [[nodiscard]] const std::string& name() const;
    [[nodiscard]] int                nodeCount() const;  ///< alive graph nodes
    [[nodiscard]] int                levelCount() const;
    [[nodiscard]] int                streamCount() const;
    [[nodiscard]] int                taskCount() const;
    [[nodiscard]] const Graph&       graph() const;
    [[nodiscard]] const std::vector<Task>& taskList() const;

    /// Enqueue one execution (throws NeonException if superseded).
    void run();
    /// Enqueue one execution under an explicit scope (leased streams / job
    /// attribution — the neon::service dispatch path).
    void run(const RunScope& scope);
    /// Block until every enqueued run completed (delegates to the skeleton).
    void sync();

    /// Lint this schedule snapshot (works even when superseded).
    [[nodiscard]] analysis::AnalysisReport lint() const;
    /// Human-readable summary of graph, schedule and task order.
    [[nodiscard]] std::string describe() const;

   private:
    friend class Skeleton;
    struct Impl;
    std::shared_ptr<Impl> mImpl;
};

class Skeleton
{
   public:
    explicit Skeleton(set::Backend backend);

    /// Define the application as an ordered sequence of Containers
    /// (Listing 3). May be called again to redefine the skeleton. Returns a
    /// CompiledSchedule handle over the (possibly cache-replayed) schedule.
    CompiledSchedule sequence(std::vector<set::Container> containers, SequenceOptions options = {});

    /// Enqueue one execution of the scheduled task list (asynchronous).
    /// Under fault injection a RuntimeError aborts the run cleanly: the
    /// error is rethrown enriched with the graph node's label and the last
    /// consistently completed run, and fields
    /// hold exactly the writes of completed runs (docs/robustness.md).
    void run();
    /// run() under an explicit scope: leased stream base, service job
    /// attribution, optional opt-out of inter-run data chaining.
    void run(const RunScope& scope);

    /// Tail event of the most recent run() issued through this skeleton:
    /// recorded after every stream of that run drained, so its virtual
    /// timestamp is the run's completion time (null before the first run).
    [[nodiscard]] sys::EventPtr lastRunTail() const;

    /// Block the host until every enqueued run completed. Rethrows a
    /// pending RuntimeError with the same enrichment as run().
    void sync();

    // --- introspection (tests, reports, Fig. 1 timeline example) ----------
    [[nodiscard]] const Graph&             graph() const;
    [[nodiscard]] const std::vector<Task>& taskList() const;
    [[nodiscard]] int                      streamCount() const;
    [[nodiscard]] const std::string&       name() const;
    [[nodiscard]] set::Backend&            backend();
    /// Handle onto the active schedule (sequence() must have been called).
    [[nodiscard]] CompiledSchedule compiled() const;
    /// Human-readable summary of graph, schedule and task order.
    [[nodiscard]] std::string describe() const;

    // --- execution window observability -----------------------------------
    // Every run() opens (or extends) a run window that sync() closes; trace
    // entries are stamped with the window's run ids and the launching graph
    // node, so the report can attribute time per container.
    /// Run-id range [first, last] of the current/most recent window; {-1,-1}
    /// before the first run().
    [[nodiscard]] std::pair<int, int> runWindow() const;
    /// ExecutionReport over the most recent run()/sync() window. Requires
    /// trace recording (backend().profiler().enable()) around the runs.
    [[nodiscard]] ExecutionReport executionReport() const;

    // --- static analysis (docs/analysis.md) --------------------------------
    /// Lint the built graph and schedule against the containers' access
    /// records: dependency coverage, edge justification, halo freshness,
    /// level/stream/task-order consistency and event-wait completeness.
    /// Clean report == the schedule provably orders every conflict.
    [[nodiscard]] analysis::AnalysisReport validate() const;

    /// validate(Static) == validate(). validate(Deep) merges the static
    /// lint with an access-sanitizer pass: the task list runs once with
    /// instrumented kernels (observable side effects on field state, like
    /// any run), then observed accesses are diffed against the declared
    /// ones for exactly this graph's containers (docs/analysis.md).
    [[nodiscard]] analysis::AnalysisReport validate(ValidateMode mode);

    // --- fault-injection hooks (tests/analysis; not part of the API) -------
    /// Mutate the graph (drop an edge, kill a node, ...) and reschedule, as
    /// if the pipeline itself had produced the mutated result. Supersedes
    /// outstanding CompiledSchedule handles; never touches the cache.
    void debugMutateGraph(const std::function<void(Graph&)>& fn);
    /// Mutate the scheduled task list (no rescheduling). Supersedes
    /// outstanding CompiledSchedule handles.
    void debugMutateTasks(const std::function<void(std::vector<Task>&)>& fn);

   private:
    friend class CompiledSchedule;
    struct ScheduleState;
    void runBody(int runId, const RunScope& scope);

    struct Impl;
    std::shared_ptr<Impl> mImpl;
};

// --- pipeline stages, exposed for unit testing ----------------------------

/// Stage 1+2a: dependency graph with halo-update and reduce-combine nodes.
/// Every node carries a NodeOrigin back into `containers` (cache replay).
Graph buildGraph(const std::vector<set::Container>& containers, int devCount);

/// Stage 2b: OCC transform (paper §V-B). Returns ids of nodes split.
void applyOcc(Graph& graph, Occ occ, int devCount);

/// Stage 3: BFS level / stream assignment and ordered task list (§V-C).
std::vector<Task> scheduleGraph(Graph& graph, int maxStreams, int* streamCountOut);

}  // namespace neon::skeleton
