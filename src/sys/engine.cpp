#include "sys/stream.hpp"

// The engine (DESIGN.md §4): stream registry and clocks, fault consult and
// structured errors, and the op-execution core — what an op costs in
// virtual time, which fault and trace rows it produces and when its body
// runs.

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>

#include "sys/device.hpp"
#include "sys/transfer_plan.hpp"

namespace neon::sys {

// Stream registry and clocks -----------------------------------------------

void Engine::attach(Stream& stream)
{
    mStreams.insert(&stream);
    mDevices.insert(&stream.device());
}

void Engine::detach(Stream& stream)
{
    mStreams.erase(&stream);
}

double Engine::maxVtime() const
{
    double v = 0.0;
    for (const Stream* s : mStreams) {
        v = std::max(v, s->mVtime);
    }
    return v;
}

void Engine::resetClocks()
{
    for (Stream* s : mStreams) {
        s->mVtime = 0.0;
    }
    for (Device* d : mDevices) {
        d->resetClocks();
    }
}

// Kernel-body execution ----------------------------------------------------

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
                mTrace.record(dev.id(), streamId, OpKind::HostPool, op.name, startV,
                              startV + s.busySeconds, static_cast<uint64_t>(s.chunks), op.attr, 0,
                              s.worker, streamId);
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

// Fault consult and structured errors --------------------------------------

FaultDecision Engine::consultFaults(const Stream& stream, OpKind kind, std::string_view opName,
                                    const OpAttribution& attr)
{
    FaultDecision d = mFaults.decide(stream.device().id(), stream.id(), kind, attr);
    if (d.deviceLost) {
        throwRuntimeError(RuntimeError::Kind::DeviceLost, stream.device().id(), stream.id(),
                          to_string(kind), opName, d.lostAttr);
    }
    return d;
}

void Engine::throwRuntimeError(RuntimeError::Kind kind, int device, int stream,
                               std::string_view opKind, std::string_view opName,
                               const OpAttribution& attr, int attempts, double timeout)
{
    RuntimeError::Info info;
    info.kind = kind;
    info.device = device;
    info.stream = stream;
    info.opKind = opKind;
    info.opName = opName;
    info.containerId = attr.containerId;
    info.runId = attr.runId;
    info.jobId = attr.jobId;
    info.attempts = attempts;
    info.timeout = timeout;
    auto error = std::make_exception_ptr(RuntimeError(std::move(info)));
    raiseAbort(error);
    std::rethrow_exception(error);
}

// Op-execution core ---------------------------------------------------------

inline void Engine::traceRow(const Stream& stream, OpKind kind, std::string_view name,
                             double startV, double endV, uint64_t bytes, const OpAttribution& attr)
{
    mTrace.record(stream.device().id(), stream.id(), kind, name, startV, endV, bytes, attr);
}

template <class O>
Engine::OpCharge Engine::charge(Stream& stream, const O& op)
{
    double& vtime = stream.mVtime;
    if constexpr (std::is_same_v<O, RecordOp>) {
        // Records are fault-exempt: they fire at the stream's clock.
        return {vtime, vtime};
    } else if constexpr (std::is_same_v<O, WaitOp>) {
        if (mFaults.active()) {
            consultFaults(stream, OpKind::Wait, "wait", op.attr);
        }
        if (!op.event->recorded()) {
            throw InternalError(
                "engine: wait on an unrecorded event — the task list is not a "
                "topological order of the dependency graph");
        }
        // Join: the stream idles from its clock until the event's vtime.
        const OpCharge c{vtime, op.event->vtime()};
        vtime = std::max(vtime, c.end);
        return c;
    } else {
        Device&          dev = stream.device();
        const SimConfig& cfg = dev.config();
        double           start = vtime;
        FaultDecision    d;
        TransferSchedule plan;  // transfer only: one DMA window per chunk when traced
        if constexpr (std::is_same_v<O, KernelOp>) {
            start = std::max(vtime, dev.computeAvailable);
        }
        if (mFaults.active()) {
            d = consultFaults(stream, kKindOf<O>, op.name, op.attr);
            if (d.stallSeconds > 0.0) {
                traceRow(stream, OpKind::Fault, "stall:" + std::string(op.name), start,
                         start + d.stallSeconds, 0, op.attr);
                start += d.stallSeconds;
            }
        }
        double end = start;
        if constexpr (std::is_same_v<O, KernelOp>) {
            end = start + kernelDuration(cfg, op.items, op.hint);
        } else if constexpr (std::is_same_v<O, HostFnOp>) {
            end = start + op.simDuration;
        } else {
            // Failed attempts occupy the DMA engines just like real
            // transfers, then back off exponentially in virtual time.
            const int failed = std::min(d.failedAttempts, cfg.retry.maxAttempts);
            for (int attempt = 1; attempt <= failed; ++attempt) {
                const TransferSchedule bad = planTransfer(dev, start, op, d.slowdown, false);
                const double           retryAt = bad.end + retryBackoff(cfg, attempt);
                traceRow(stream, OpKind::Fault,
                         "retry#" + std::to_string(attempt) + ":" + std::string(op.name), start,
                         retryAt, bad.totalBytes, op.attr);
                start = retryAt;
            }
            if (d.failedAttempts >= cfg.retry.maxAttempts) {
                vtime = start;
                throwRuntimeError(RuntimeError::Kind::TransferFailed, dev.id(), stream.id(),
                                  to_string(kKindOf<O>), op.name, op.attr, cfg.retry.maxAttempts);
            }
            plan = planTransfer(dev, start, op, d.slowdown, mTrace.enabled());
            end = std::max(plan.end, start);
        }
        if (cfg.opTimeout > 0.0 && end - vtime > cfg.opTimeout) {
            throwRuntimeError(RuntimeError::Kind::OpTimeout, dev.id(), stream.id(),
                              to_string(kKindOf<O>), op.name, op.attr, 0, cfg.opTimeout);
        }
        if constexpr (std::is_same_v<O, KernelOp>) {
            dev.computeAvailable = end;
        }
        vtime = end;
        for (const TransferWindow& w : plan.windows) {
            traceRow(stream, OpKind::Transfer, op.name, w.start, w.end, w.bytes, op.attr);
        }
        return {start, end};
    }
}

template <class O>
void Engine::finish(const Stream& stream, const O& op, const OpCharge& c)
{
    const Device& dev = stream.device();
    if constexpr (std::is_same_v<O, RecordOp>) {
        op.event->record(c.end, dev.id(), stream.id());
    } else if constexpr (std::is_same_v<O, WaitOp>) {
        if (c.end > c.start && mTrace.enabled()) {
            mTrace.record(dev.id(), stream.id(), OpKind::Wait, "wait", c.start, c.end, 0, op.attr,
                          op.event->id(), op.event->recordedDevice(), op.event->recordedStream());
        }
    } else if constexpr (std::is_same_v<O, TransferOp>) {
        // The rows were recorded by charge().
        if (!dev.config().dryRun) {
            for (const TransferChunk& chunk : op.chunks) {
                if (chunk.src != nullptr && chunk.dst != nullptr) {
                    std::memcpy(chunk.dst, chunk.src, chunk.bytes);
                }
            }
        }
    } else {
        if (!dev.config().dryRun) {
            if constexpr (std::is_same_v<O, KernelOp>) {
                runKernelWork(dev, stream.id(), op, c.start);
            } else if (op.fn != nullptr && *op.fn) {
                (*op.fn)();
            }
        }
        traceRow(stream, kKindOf<O>, op.name, c.start, c.end, 0, op.attr);
    }
}

void Engine::enqueue(Stream& stream, const Op& op)
{
    // Fail-stop: once a RuntimeError aborted the engine, further enqueues
    // rethrow it instead of silently executing against inconsistent state.
    if (aborted()) {
        rethrowAbort();
    }
    std::visit([&](const auto& o) { finish(stream, o, charge(stream, o)); }, op);
}

}  // namespace neon::sys
