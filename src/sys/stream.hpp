#pragma once
// Stream: FIFO command queue bound to one device (CUDA Stream analogue,
// paper §IV-A). All enqueue operations are asynchronous with respect to the
// host; sync() blocks until the queue drains.

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "sys/fault.hpp"
#include "sys/op.hpp"
#include "sys/thread_pool.hpp"
#include "sys/trace.hpp"

namespace neon::sys {

class Engine;
class Device;

/// Engine-owned per-stream state. The base Engine keeps the stream's
/// virtual clock here; engines that queue work extend it.
struct StreamState
{
    double vtime = 0.0;  ///< virtual time at which the stream's last op ends
};

class Stream
{
   public:
    /// Streams are created through Engine/Backend; the ctor registers the
    /// stream with its engine.
    Stream(Engine& engine, Device& device, int id);
    ~Stream();

    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    void enqueue(Op op);

    // Convenience wrappers -------------------------------------------------
    void transfer(TransferOp op);
    void hostFn(std::string name, double simDuration, std::function<void()> fn,
                const OpAttribution& attr = {});
    void record(EventPtr event, const OpAttribution& attr = {});
    void wait(EventPtr event, const OpAttribution& attr = {});

    /// Host blocks until every enqueued op completed.
    void sync();

    /// Virtual time at which the last enqueued op finishes.
    [[nodiscard]] double vtime() const;

    [[nodiscard]] Device& device() const { return *mDevice; }
    [[nodiscard]] int     id() const { return mId; }
    [[nodiscard]] Engine& engine() const { return *mEngine; }

    /// Engine-private per-stream state, owned here for lifetime simplicity.
    std::shared_ptr<StreamState> engineState;

   private:
    Engine* mEngine;
    Device* mDevice;
    int     mId;
};

/// Sees every op at enqueue, in enqueue order and before the engine runs it
/// (neon::analysis feeds its race detector from here, docs/analysis.md).
/// Called on the enqueuing host thread.
class EnqueueHook
{
   public:
    virtual ~EnqueueHook() = default;
    virtual void onEnqueue(const Stream& stream, const Op& op) = 0;
};

/// Execution engine: how enqueued ops are processed. Two implementations
/// exist (DESIGN.md §4): a deterministic sequential discrete-event engine
/// and a threaded engine with real cross-stream synchronization used to
/// validate scheduler correctness. What an op costs is decided once, here:
/// both engines run every op through execute() (sys/engine_core.hpp) and
/// differ only in how they queue work and how a wait blocks.
class Engine
{
   public:
    virtual ~Engine() = default;

    /// Register `stream` with a plain StreamState (engines that queue work
    /// override and extend it).
    virtual void attach(Stream& stream);
    virtual void detach(Stream& stream);
    virtual void enqueue(Stream& stream, Op op) = 0;
    virtual void sync(Stream& stream) = 0;
    virtual void syncAll() = 0;

    [[nodiscard]] double streamVtime(const Stream& stream) const;
    /// Max vtime across every stream (virtual makespan of the work so far).
    [[nodiscard]] double maxVtime() const;
    /// Zero every stream/device clock (between measured runs).
    void resetClocks();

    [[nodiscard]] Trace& trace() { return mTrace; }

    /// The engine's one enqueue hook (none by default). Install it before
    /// other threads enqueue on this engine.
    void setEnqueueHook(std::shared_ptr<EnqueueHook> hook) { mEnqueueHook = std::move(hook); }
    [[nodiscard]] EnqueueHook* enqueueHook() const { return mEnqueueHook.get(); }

    /// Deterministic fault injection (docs/robustness.md; off by default).
    [[nodiscard]] FaultInjector& faults() { return mFaults; }

    /// Install the Backend's shared host worker pool. CPU-device kernels
    /// with chunked work run through it; SIM_GPU cost accounting never
    /// touches it. May be null (inline execution).
    void setHostPool(std::shared_ptr<ThreadPool> pool) { mHostPool = std::move(pool); }
    [[nodiscard]] const std::shared_ptr<ThreadPool>& hostPool() const { return mHostPool; }

    // --- fail-stop abort protocol (docs/robustness.md) --------------------
    // The first RuntimeError raised while processing an op latches the
    // engine into the aborted state: ops already queued drain without
    // executing (events still record so no thread blocks), new enqueues and
    // host syncs rethrow the stored error. Nothing hangs, nothing is
    // silently corrupted — field state stays what completed ops wrote.
    [[nodiscard]] bool aborted() const { return mAborted.load(std::memory_order_acquire); }
    /// Store `error` (first caller wins) and latch the abort flag.
    void raiseAbort(std::exception_ptr error);
    /// Rethrow the stored abort error, if any.
    void rethrowAbort() const;
    /// Drain all queued work without throwing (Skeleton abort/quiesce path).
    virtual void quiesce() {}
    /// Release the abort latch and stored error (post-mortem recovery in
    /// tests; a lost device stays lost until faults().setPlan()).
    void clearAbort();

   protected:
    /// Clock lock of an engine that runs every op on the enqueuing thread.
    struct NoClockLock
    {
        void lock() {}
        void unlock() {}
    };

    /// Run `op` on `stream`, whose clock is `vtime`, through the
    /// op-execution core (sys/engine_core.hpp) — one dispatch on the op's
    /// alternative: charge() under `clockLock`; for a wait,
    /// `await(waitOp, eventVtime)` blocks until the event is recorded
    /// (false: cancelled, the op ends there) and joinWait() charges the
    /// join under `clockLock`; then finish() runs the body outside the lock.
    template <class ClockLock, class Await>
    void execute(const Stream& stream, double& vtime, const Op& op, ClockLock& clockLock,
                 Await&& await);

    /// Latch the abort and throw a RuntimeError of `kind` naming the op.
    [[noreturn]] void throwRuntimeError(RuntimeError::Kind kind, int device, int stream,
                                        std::string_view opKind, const std::string& opName,
                                        const OpAttribution& attr, int attempts = 0,
                                        double timeout = 0.0);
    /// The abort latch, exposed to bounded event waits as a cancel flag.
    [[nodiscard]] const std::atomic<bool>* abortFlag() const { return &mAborted; }

    /// Set `stream.engineState` and add the stream to the registry.
    void adopt(Stream& stream, std::shared_ptr<StreamState> state);
    /// Snapshot of the attached streams.
    [[nodiscard]] std::vector<Stream*> streams() const;

    Trace                        mTrace;
    FaultInjector                mFaults;
    std::shared_ptr<EnqueueHook> mEnqueueHook;
    std::shared_ptr<ThreadPool>  mHostPool;
    /// Guards stream vtimes and device clocks on engines that process
    /// streams concurrently.
    mutable std::mutex mClockMutex;

   private:
    /// Virtual-time charge of one op: charge() or joinWait() computes it,
    /// finish() consumes it. Kernel/hostFn: busy over [start, end] (after
    /// any stall). Record: fires at end. Wait: the stream idled from start
    /// (its clock before the join) to end (the event's vtime).
    struct OpCharge
    {
        double start = 0.0;
        double end = 0.0;
    };

    /// Accounting step of `op` on `stream`, whose clock is `vtime`: fault
    /// consult and stall row, start time, cost (kernel duration, transfer
    /// plan with failed attempts and backoff rows, hostFn duration), the
    /// opTimeout check, the clock commit and a transfer's per-chunk rows.
    /// Records only read the clock; a wait only consults the faults.
    template <class O>
    OpCharge charge(const Stream& stream, double& vtime, const O& op);
    /// Clock join after a wait's event recorded at `eventVtime`.
    static OpCharge joinWait(double& vtime, double eventVtime)
    {
        const OpCharge c{vtime, eventVtime};
        vtime = std::max(vtime, eventVtime);
        return c;
    }
    /// Body (unless dry-run) and remaining trace rows of a charged op;
    /// records fire their event.
    template <class O>
    void finish(const Stream& stream, const O& op, const OpCharge& c);

    /// Consult the fault injector for the op about to be charged; on
    /// permanent device loss, throw with the attribution of the op that
    /// triggered the loss.
    FaultDecision consultFaults(const Stream& stream, OpKind kind, const std::string& opName,
                                const OpAttribution& attr);
    /// Execute a KernelOp's computation on `dev`. Chunked work on a CPU
    /// device goes through the host pool (when it helps); everything else
    /// runs inline. Records OpKind::HostPool utilization rows anchored
    /// at `startV` when the trace is enabled.
    void runKernelWork(const Device& dev, int streamId, const KernelOp& op, double startV);
    /// One trace row of a work op (or of its stall/retry) on `stream`.
    void traceRow(const Stream& stream, OpKind kind, std::string_view name, double startV,
                  double endV, uint64_t bytes, const OpAttribution& attr);

    std::atomic<bool>  mAborted{false};
    mutable std::mutex mAbortMutex;
    std::exception_ptr mAbortError;

    mutable std::mutex          mRegistryMutex;
    std::unordered_set<Stream*> mStreams;
    std::unordered_set<Device*> mDevices;
};

}  // namespace neon::sys
