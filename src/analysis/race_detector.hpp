#pragma once
// Happens-before race detector over the enqueued command stream
// (neon::analysis, docs/analysis.md). Every (device, stream) pair owns a
// vector clock; work ops tick their stream's component, event records
// snapshot the stream's clock, event waits join the snapshot in. Each op's read/write
// segment sets (access_model.hpp, resolved through the per-run
// ContainerMeta maps) are checked against per-segment epochs: the last
// write plus the per-stream reads since. A conflicting pair not ordered by
// the resulting partial order is a race — regardless of which engine
// happened to execute the schedule, because ops are fed in host enqueue
// order, before any engine runs them.

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/access_model.hpp"
#include "analysis/report.hpp"
#include "sys/stream.hpp"

namespace neon::analysis {

/// One enqueued op as the detector sees it.
struct EnqueueRecord
{
    uint64_t    seq = 0;  ///< enqueue ordinal within the race session
    int         device = -1;
    int         stream = -1;
    sys::OpKind kind = sys::OpKind::Kernel;
    uint64_t    eventId = 0;       ///< Record/Wait only
    int         containerId = -1;  ///< skeleton graph-node id, -1 outside
    int         runId = -1;        ///< skeleton run() window id, -1 outside
};

/// Incremental detector: feed() records strictly in enqueue order.
class RaceDetector
{
   public:
    explicit RaceDetector(int devCount) : mDevCount(devCount) {}

    /// Consume one record. `meta` is the ContainerMeta map of the record's
    /// run window (may be null: unattributed ops advance clocks but carry
    /// no read/write sets).
    void feed(const EnqueueRecord& r, const ContainerMetaMap* meta);

    /// A host-wide barrier: every op fed so far happens before every op fed
    /// after (each stream's clock, and any stream's first, starts from the
    /// join of all clocks).
    void barrier();

    /// All findings so far (cumulative).
    [[nodiscard]] const AnalysisReport& report() const { return mReport; }
    /// Findings added since the previous takeNew() (for incremental drains).
    [[nodiscard]] AnalysisReport takeNew();

   private:
    struct Prev  // one prior access to a segment
    {
        int         slot = -1;
        uint64_t    clock = 0;
        int         node = -1;
        int         run = -1;
        int         device = -1;
        std::string label;
    };
    struct SegState
    {
        bool              hasWrite = false;
        Prev              write;
        std::vector<Prev> reads;  ///< newest read per slot since the write
    };

    using Clock = std::vector<uint64_t>;

    int           slotOf(int device, int stream);
    static bool   happensBefore(const Prev& p, const Clock& cur);
    static void   joinInto(Clock& dst, const Clock& src);
    void          onRead(const Segment& s, const Prev& cur, const Clock& vc);
    void          onWrite(const Segment& s, const Prev& cur, const Clock& vc);
    void          race(const char* flavor, const Segment& s, const Prev& a, const Prev& b);
    void          pruneEvents();
    [[nodiscard]] std::string segName(const Segment& s) const;

    int mDevCount = 1;

    std::unordered_map<uint64_t, int> mSlots;    ///< (dev,stream) -> clock index
    std::vector<Clock>                mVC;       ///< per-slot vector clock
    Clock                             mBarrier;  ///< join of all clocks at the last barrier()

    std::unordered_map<uint64_t, Clock> mEventClock;
    std::vector<uint64_t>               mEventOrder;  ///< for pruning
    std::unordered_set<uint64_t>        mPrunedEvents;
    /// Waits seen before their event's record (enqueue-order inversion).
    std::unordered_map<uint64_t, EnqueueRecord> mPendingWaits;

    std::unordered_map<Segment, SegState, SegmentHash> mSegs;
    std::unordered_map<uint64_t, std::string>          mFieldName;
    /// Meta maps whose halo-carrying uids were already collected.
    std::unordered_map<const ContainerMetaMap*, std::unordered_set<uint64_t>> mHaloUids;

    std::unordered_set<std::string> mDedup;
    AnalysisReport                  mReport;
    size_t                          mNewFrom = 0;
};

/// A backend's live race analysis (set::Analyzer): installed as the
/// engine's enqueue hook, it feeds every op to one RaceDetector as the op is
/// enqueued, and owns the container metadata the Skeleton registers per run.
/// No op is stored: a record copies the op's event id. Driven, like its
/// Backend, by one host thread at a time.
class RaceSession final : public sys::EnqueueHook
{
   public:
    explicit RaceSession(int devCount) : mDevCount(devCount), mDetector(devCount) {}

    /// The session installed on `engine`, or null.
    [[nodiscard]] static RaceSession* of(const sys::Engine& engine);

    void onEnqueue(const sys::Stream& stream, const sys::Op& op) override;
    /// Backend::resetClocks is a barrier (RaceDetector::barrier): the reset
    /// drops the data chains, but every op before it has already run.
    void onReset() override;

    /// Attach the metadata of the graph that issues run `runId`; called
    /// before the run's first op is enqueued.
    void registerRun(int runId, std::shared_ptr<const ContainerMetaMap> meta);

    /// Pause/resume feeding (findings so far stay readable).
    void setEnabled(bool on);
    [[nodiscard]] bool enabled() const;
    /// Print each finding to stderr as it is made (NEON_ANALYSIS).
    void reportFindings();

    /// All findings so far.
    [[nodiscard]] AnalysisReport report() const;
    /// Findings made since the previous takeNew().
    [[nodiscard]] AnalysisReport takeNew();
    /// Drop every finding, the detector state and the registered metadata.
    void clear();

   private:
    int          mDevCount;
    RaceDetector mDetector;
    uint64_t     mNextSeq = 0;
    bool         mEnabled = true;
    bool         mReportFindings = false;
    std::unordered_map<int, std::shared_ptr<const ContainerMetaMap>> mMetaByRun;
};

}  // namespace neon::analysis
