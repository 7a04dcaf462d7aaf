#pragma once
// Stream: FIFO command queue bound to one device (CUDA Stream analogue,
// paper §IV-A), and the Engine that runs its ops. Ops run in FIFO order on
// the enqueuing thread; only their virtual clocks model asynchrony.
//
// One driving thread (DESIGN.md §4): one host thread at a time drives a
// Backend and everything built on it — its engine, streams, trace, fault
// injector, devices and data chains — so none of them takes a lock. Only
// the host pool's workers run concurrently, and they run kernel chunks only.

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
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

class Stream
{
   public:
    /// Streams are created through Engine/Backend; the ctor registers the
    /// stream with its engine.
    Stream(Engine& engine, Device& device, int id);
    ~Stream();

    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    /// Run `op` now. The op borrows what it names for this call only.
    void enqueue(const Op& op);

    // Convenience wrappers -------------------------------------------------
    void transfer(const TransferOp& op);
    /// Run `fn` in stream order.
    void hostFn(std::string_view name, double simDuration, const std::function<void()>& fn,
                const OpAttribution& attr = {});
    /// Record `event` at this stream's clock.
    void record(Event& event, const OpAttribution& attr = {});
    /// Hold this stream until `event`'s recorded time; `event` must already
    /// be recorded (InternalError otherwise).
    void wait(const Event& event, const OpAttribution& attr = {});

    /// Host blocks until every enqueued op completed.
    void sync();

    /// Virtual time at which the last enqueued op finishes.
    [[nodiscard]] double vtime() const { return mVtime; }

    [[nodiscard]] Device& device() const { return *mDevice; }
    [[nodiscard]] int     id() const { return mId; }
    [[nodiscard]] Engine& engine() const { return *mEngine; }

   private:
    friend class Engine;

    Engine* mEngine;
    Device* mDevice;
    int     mId;
    double  mVtime = 0.0;  ///< virtual time at which the stream's last op ends
};

/// Sees every op at enqueue, in enqueue order and before the engine runs it
/// (neon::analysis feeds its race detector from here, docs/analysis.md).
/// Called on the enqueuing host thread. The op is borrowed (see Op): a hook
/// copies what it keeps.
class EnqueueHook
{
   public:
    virtual ~EnqueueHook() = default;
    virtual void onEnqueue(const Stream& stream, const Op& op) = 0;
    /// Engine::resetClocks ran: every op enqueued so far has run, and the
    /// data chains that would order later ops after them are dropped.
    virtual void onReset() {}
};

/// Execution engine (DESIGN.md §4): a deterministic discrete-event engine.
/// Ops execute eagerly at enqueue — the Skeleton's task list is a
/// topological order of the multi-GPU graph, so eager in-order execution is
/// hazard-free — while per-stream, per-device virtual clocks model what an
/// 8-GPU node would have done concurrently. Waiting on an event that has not
/// been recorded yet is a scheduler ordering bug and throws InternalError.
class Engine
{
   public:
    void attach(Stream& stream);
    void detach(Stream& stream);
    /// Run `op` on `stream` now: charge its virtual time, then run its body.
    void enqueue(Stream& stream, const Op& op);
    /// Ops already ran at enqueue: nothing to wait for, but a stored abort
    /// surfaces to hosts that only sync (never enqueue again).
    void sync() const { rethrowAbort(); }

    /// Max vtime across every stream (virtual makespan of the work so far).
    [[nodiscard]] double maxVtime() const;
    /// Zero every stream/device clock (between measured runs) and tell
    /// the enqueue hook.
    void resetClocks();

    [[nodiscard]] Trace& trace() { return mTrace; }

    /// The engine's one enqueue hook (none by default).
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
    // The first RuntimeError raised while running an op latches the engine
    // into the aborted state: new enqueues and host syncs rethrow the stored
    // error. Nothing is silently corrupted — field state stays what
    // completed ops wrote.
    [[nodiscard]] bool aborted() const { return mAbortError != nullptr; }
    /// Store `error` unless an earlier one is stored (the first wins).
    void raiseAbort(std::exception_ptr error)
    {
        if (!mAbortError) {
            mAbortError = std::move(error);
        }
    }
    /// Rethrow the stored abort error, if any.
    void rethrowAbort() const
    {
        if (mAbortError) {
            std::rethrow_exception(mAbortError);
        }
    }
    /// Release the abort latch (post-mortem recovery in tests; a lost
    /// device stays lost until faults().setPlan()).
    void clearAbort() { mAbortError = nullptr; }

   private:
    /// Virtual-time charge of one op: charge() computes it, finish()
    /// consumes it. Kernel/hostFn: busy over [start, end] (after
    /// any stall). Record: fires at end. Wait: the stream idled from start
    /// (its clock before the join) to end (the event's vtime).
    struct OpCharge
    {
        double start = 0.0;
        double end = 0.0;
    };

    /// Accounting step of `op` on `stream`: fault consult and stall row,
    /// start time, cost (kernel duration, transfer plan with failed attempts
    /// and backoff rows, hostFn duration), the opTimeout check, the clock
    /// commit and a transfer's per-chunk rows. Records only read the clock;
    /// a wait consults the faults and joins the clock to its event's vtime.
    template <class O>
    OpCharge charge(Stream& stream, const O& op);
    /// Body (unless dry-run) and remaining trace rows of a charged op;
    /// records fire their event.
    template <class O>
    void finish(const Stream& stream, const O& op, const OpCharge& c);

    /// Consult the fault injector for the op about to be charged; on
    /// permanent device loss, throw with the attribution of the op that
    /// triggered the loss.
    FaultDecision consultFaults(const Stream& stream, OpKind kind, std::string_view opName,
                                const OpAttribution& attr);
    /// Latch the abort and throw a RuntimeError of `kind` naming the op.
    [[noreturn]] void throwRuntimeError(RuntimeError::Kind kind, int device, int stream,
                                        std::string_view opKind, std::string_view opName,
                                        const OpAttribution& attr, int attempts = 0,
                                        double timeout = 0.0);
    /// Execute a KernelOp's computation on `dev`. Chunked work on a CPU
    /// device goes through the host pool (when it helps); everything else
    /// runs inline. Records OpKind::HostPool utilization rows anchored
    /// at `startV` when the trace is enabled.
    void runKernelWork(const Device& dev, int streamId, const KernelOp& op, double startV);
    /// One trace row of a work op (or of its stall/retry) on `stream`.
    void traceRow(const Stream& stream, OpKind kind, std::string_view name, double startV,
                  double endV, uint64_t bytes, const OpAttribution& attr);

    Trace                        mTrace;
    FaultInjector                mFaults;
    std::shared_ptr<EnqueueHook> mEnqueueHook;
    std::shared_ptr<ThreadPool>  mHostPool;

    std::exception_ptr mAbortError;  ///< the latched abort; null while running

    std::unordered_set<Stream*> mStreams;
    std::unordered_set<Device*> mDevices;
};

}  // namespace neon::sys
