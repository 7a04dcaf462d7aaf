#pragma once
// Stream: FIFO command queue bound to one device (CUDA Stream analogue,
// paper §IV-A). All enqueue operations are asynchronous with respect to the
// host; sync() blocks until the queue drains.

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "sys/fault.hpp"
#include "sys/op.hpp"
#include "sys/schedule_log.hpp"
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

    void enqueue(Op op);

    // Convenience wrappers -------------------------------------------------
    void transfer(TransferOp op);
    void hostFn(std::string name, double simDuration, std::function<void()> fn);
    void record(EventPtr event);
    void wait(EventPtr event);

    /// Host blocks until every enqueued op completed.
    void sync();

    /// Virtual time at which the last enqueued op finishes.
    [[nodiscard]] double vtime() const;

    [[nodiscard]] Device& device() const { return *mDevice; }
    [[nodiscard]] int     id() const { return mId; }
    [[nodiscard]] Engine& engine() const { return *mEngine; }

    /// Engine-private per-stream state, owned here for lifetime simplicity.
    std::shared_ptr<void> engineState;

   private:
    Engine* mEngine;
    Device* mDevice;
    int     mId;
};

/// Execution engine interface: how enqueued ops are processed. Two
/// implementations exist (DESIGN.md §4): a deterministic sequential
/// discrete-event engine and a threaded engine with real cross-stream
/// synchronization used to validate scheduler correctness.
class Engine
{
   public:
    virtual ~Engine() = default;

    virtual void attach(Stream& stream) = 0;
    virtual void detach(Stream& stream) = 0;
    virtual void enqueue(Stream& stream, Op op) = 0;
    virtual void sync(Stream& stream) = 0;
    virtual void syncAll() = 0;

    [[nodiscard]] virtual double streamVtime(const Stream& stream) const = 0;
    /// Max vtime across every stream (virtual makespan of the work so far).
    [[nodiscard]] virtual double maxVtime() const = 0;
    /// Zero every stream/device clock (between measured runs).
    virtual void resetClocks() = 0;

    [[nodiscard]] virtual bool isSequential() const = 0;

    [[nodiscard]] Trace& trace() { return mTrace; }

    /// Enqueue-order op log consumed by neon::analysis (off by default).
    [[nodiscard]] ScheduleLog& scheduleLog() { return mScheduleLog; }

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
    /// Consult the fault injector for the op about to be processed; on
    /// permanent device loss, latch the abort and throw a RuntimeError that
    /// names this op and carries the container/run/job attribution of the
    /// op that triggered the loss. `opKindName`/`opName` feed the message.
    FaultDecision consultFaults(const Device& dev, int stream, ScheduleOpKind kind,
                                const OpAttribution& attr, const char* opKindName,
                                const std::string& opName);
    /// Latch the abort and throw an OpTimeout RuntimeError.
    [[noreturn]] void throwOpTimeout(const Device& dev, int stream, const char* opKindName,
                                     const std::string& opName, const OpAttribution& attr,
                                     double limit);
    /// Latch the abort and throw a TransferFailed RuntimeError.
    [[noreturn]] void throwTransferExhausted(const Device& dev, int stream,
                                             const std::string& opName, const OpAttribution& attr,
                                             int attempts);
    /// Latch the abort and throw a SyncTimeout RuntimeError.
    [[noreturn]] void throwSyncTimeout(int device, int stream, const char* opKindName,
                                       const std::string& opName, const OpAttribution& attr,
                                       double limit);
    /// The abort latch, exposed to bounded event waits as a cancel flag.
    [[nodiscard]] const std::atomic<bool>* abortFlag() const { return &mAborted; }

    /// Execute a KernelOp's computation on `dev`. Chunked work on a CPU
    /// device goes through the host pool (when it helps); everything else
    /// runs inline. Records TraceKind::HostPool utilization rows anchored
    /// at `startV` when the trace is enabled. Virtual-clock accounting is
    /// the caller's job — this only runs the body.
    void runKernelWork(const Device& dev, int streamId, const KernelOp& op, double startV);

    Trace         mTrace;
    ScheduleLog   mScheduleLog;
    FaultInjector mFaults;
    std::shared_ptr<ThreadPool> mHostPool;

   private:
    std::atomic<bool>          mAborted{false};
    mutable std::mutex         mAbortMutex;
    std::exception_ptr         mAbortError;
};

}  // namespace neon::sys
