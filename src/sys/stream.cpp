#include "sys/stream.hpp"

#include "core/error.hpp"
#include "sys/device.hpp"

namespace neon::sys {

Stream::Stream(Engine& engine, Device& device, int id)
    : mEngine(&engine), mDevice(&device), mId(id)
{
    mEngine->attach(*this);
}

Stream::~Stream()
{
    mEngine->detach(*this);
}

void Stream::enqueue(Op op)
{
    // Stamp skeleton attribution at enqueue time: the host thread that
    // enqueues is the one that set the trace context, while the threaded
    // engine may process the op on a worker thread much later.
    Trace&       trace = mEngine->trace();
    ScheduleLog& slog = mEngine->scheduleLog();
    const bool   logging = slog.enabled();
    // Fault rules match on run id, so attribution must also be stamped when
    // a plan is active even if neither trace nor schedule log is on.
    if (trace.enabled() || logging || mEngine->faults().active()) {
        const TraceContext ctx = trace.context();
        if (ctx.containerId >= 0 || ctx.runId >= 0 || ctx.jobId >= 0) {
            std::visit(
                [&](auto& o) {
                    if constexpr (requires { o.attr; }) {
                        if (o.attr.containerId < 0) {
                            o.attr = {ctx.containerId, ctx.runId, ctx.jobId};
                        }
                    }
                },
                op);
        }
        if (logging) {
            ScheduleRecord r;
            r.device = mDevice->id();
            r.stream = mId;
            r.containerId = ctx.containerId;
            r.runId = ctx.runId;
            std::visit(
                [&](const auto& o) {
                    using T = std::decay_t<decltype(o)>;
                    if constexpr (std::is_same_v<T, KernelOp>) {
                        r.kind = ScheduleOpKind::Kernel;
                    } else if constexpr (std::is_same_v<T, TransferOp>) {
                        r.kind = ScheduleOpKind::Transfer;
                    } else if constexpr (std::is_same_v<T, HostFnOp>) {
                        r.kind = ScheduleOpKind::HostFn;
                    } else if constexpr (std::is_same_v<T, RecordOp>) {
                        r.kind = ScheduleOpKind::Record;
                        r.eventId = o.event->id();
                    } else if constexpr (std::is_same_v<T, WaitOp>) {
                        r.kind = ScheduleOpKind::Wait;
                        r.eventId = o.event->id();
                    }
                    if constexpr (requires { o.attr; }) {
                        r.containerId = o.attr.containerId;
                        r.runId = o.attr.runId;
                    }
                },
                op);
            slog.add(r);
        }
    }
    mEngine->enqueue(*this, std::move(op));
}

void Stream::transfer(TransferOp op)
{
    enqueue(std::move(op));
}

void Stream::hostFn(std::string name, double simDuration, std::function<void()> fn)
{
    enqueue(HostFnOp{std::move(name), simDuration, std::move(fn), {}});
}

void Stream::record(EventPtr event)
{
    enqueue(RecordOp{std::move(event)});
}

void Stream::wait(EventPtr event)
{
    enqueue(WaitOp{std::move(event), {}});
}

void Stream::sync()
{
    mEngine->sync(*this);
}

double Stream::vtime() const
{
    return mEngine->streamVtime(*this);
}

// Engine: kernel-body execution ----------------------------------------------

void Engine::runKernelWork(const Device& dev, int streamId, const KernelOp& op, double startV)
{
    if (op.work) {
        // Devirtualized path: one indirect call per chunk. The pool only
        // pays off for real host computation with multiple chunks; SIM_GPU
        // devices execute functionally but stay single-threaded so the
        // cost model's serial-compute assumption remains true.
        ThreadPool* pool = mHostPool.get();
        const bool  usePool = pool != nullptr && pool->threadCount() > 1 && op.work.chunks > 1 &&
                             dev.type() == DeviceType::CPU;
        if (usePool && mTrace.enabled()) {
            std::vector<WorkerSample> samples;
            pool->parallelFor(op.work.chunks, op.work.run, op.work.ctx, &samples);
            for (const auto& s : samples) {
                mTrace.record(dev.id(), streamId, TraceKind::HostPool, op.name, startV,
                              startV + s.busySeconds, static_cast<uint64_t>(s.chunks),
                              op.attr.containerId, op.attr.runId, op.attr.jobId, 0, s.worker,
                              streamId);
            }
        } else if (usePool) {
            pool->parallelFor(op.work.chunks, op.work.run, op.work.ctx);
        } else {
            for (int32_t c = 0; c < op.work.chunks; ++c) {
                op.work.run(op.work.ctx, c, op.work.chunks);
            }
        }
        if (op.work.finalize != nullptr) {
            op.work.finalize(op.work.ctx, 0, op.work.chunks);
        }
    }
}

// Engine: fail-stop abort protocol ------------------------------------------

void Engine::raiseAbort(std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mAbortMutex);
        if (!mAbortError) {
            mAbortError = std::move(error);
        }
    }
    mAborted.store(true, std::memory_order_release);
}

void Engine::rethrowAbort() const
{
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(mAbortMutex);
        error = mAbortError;
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

void Engine::clearAbort()
{
    {
        std::lock_guard<std::mutex> lock(mAbortMutex);
        mAbortError = nullptr;
    }
    mAborted.store(false, std::memory_order_release);
}

FaultDecision Engine::consultFaults(const Device& dev, int stream, ScheduleOpKind kind,
                                    const OpAttribution& attr, const char* opKindName,
                                    const std::string& opName)
{
    FaultDecision d = mFaults.decide(dev.id(), stream, kind, attr);
    if (d.deviceLost) {
        RuntimeError::Info info;
        info.kind = RuntimeError::Kind::DeviceLost;
        info.device = dev.id();
        info.stream = stream;
        info.opKind = opKindName;
        info.opName = opName;
        info.containerId = d.lostAttr.containerId;
        info.runId = d.lostAttr.runId;
        info.jobId = d.lostAttr.jobId;
        auto error = std::make_exception_ptr(RuntimeError(std::move(info)));
        raiseAbort(error);
        std::rethrow_exception(error);
    }
    return d;
}

void Engine::throwOpTimeout(const Device& dev, int stream, const char* opKindName,
                            const std::string& opName, const OpAttribution& attr, double limit)
{
    RuntimeError::Info info;
    info.kind = RuntimeError::Kind::OpTimeout;
    info.device = dev.id();
    info.stream = stream;
    info.opKind = opKindName;
    info.opName = opName;
    info.containerId = attr.containerId;
    info.runId = attr.runId;
    info.jobId = attr.jobId;
    info.timeout = limit;
    auto error = std::make_exception_ptr(RuntimeError(std::move(info)));
    raiseAbort(error);
    std::rethrow_exception(error);
}

void Engine::throwTransferExhausted(const Device& dev, int stream, const std::string& opName,
                                    const OpAttribution& attr, int attempts)
{
    RuntimeError::Info info;
    info.kind = RuntimeError::Kind::TransferFailed;
    info.device = dev.id();
    info.stream = stream;
    info.opKind = "transfer";
    info.opName = opName;
    info.containerId = attr.containerId;
    info.runId = attr.runId;
    info.jobId = attr.jobId;
    info.attempts = attempts;
    auto error = std::make_exception_ptr(RuntimeError(std::move(info)));
    raiseAbort(error);
    std::rethrow_exception(error);
}

void Engine::throwSyncTimeout(int device, int stream, const char* opKindName,
                              const std::string& opName, const OpAttribution& attr, double limit)
{
    RuntimeError::Info info;
    info.kind = RuntimeError::Kind::SyncTimeout;
    info.device = device;
    info.stream = stream;
    info.opKind = opKindName;
    info.opName = opName;
    info.containerId = attr.containerId;
    info.runId = attr.runId;
    info.jobId = attr.jobId;
    info.timeout = limit;
    auto error = std::make_exception_ptr(RuntimeError(std::move(info)));
    raiseAbort(error);
    std::rethrow_exception(error);
}

}  // namespace neon::sys
