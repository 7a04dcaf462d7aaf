#pragma once
// The op-execution core shared by both engines (DESIGN.md §4): what an op
// costs in virtual time, which fault and trace rows it produces and when its
// body runs. Only the engine implementations include this header: each
// instantiates Engine::execute with its clock lock and its way of blocking on
// a wait, so the core compiles inline into every engine's per-op path.

#include <algorithm>
#include <cstring>
#include <mutex>
#include <string>
#include <type_traits>

#include "sys/device.hpp"
#include "sys/stream.hpp"
#include "sys/transfer_plan.hpp"

namespace neon::sys {

inline void Engine::traceRow(const Stream& stream, OpKind kind, std::string_view name,
                             double startV, double endV, uint64_t bytes, const OpAttribution& attr)
{
    mTrace.record(stream.device().id(), stream.id(), kind, name, startV, endV, bytes, attr);
}

template <class ClockLock, class Await>
void Engine::execute(const Stream& stream, double& vtime, const Op& op, ClockLock& clockLock,
                     Await&& await)
{
    std::visit(
        [&](const auto& o) {
            OpCharge c;
            {
                std::lock_guard<ClockLock> lock(clockLock);
                c = charge(stream, vtime, o);
            }
            if constexpr (std::is_same_v<std::decay_t<decltype(o)>, WaitOp>) {
                double eventVtime = 0.0;
                if (!await(o, eventVtime)) {
                    return;
                }
                std::lock_guard<ClockLock> lock(clockLock);
                c = joinWait(vtime, eventVtime);
            }
            finish(stream, o, c);
        },
        op);
}

template <class O>
Engine::OpCharge Engine::charge(const Stream& stream, double& vtime, const O& op)
{
    if constexpr (std::is_same_v<O, RecordOp>) {
        // Records are fault-exempt: they must always fire so waiters wake.
        return {vtime, vtime};
    } else if constexpr (std::is_same_v<O, WaitOp>) {
        if (mFaults.active()) {
            consultFaults(stream, OpKind::Wait, "wait", op.attr);
        }
        return {vtime, vtime};
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
                traceRow(stream, OpKind::Fault, "stall:" + op.name, start, start + d.stallSeconds,
                         0, op.attr);
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
                         "retry#" + std::to_string(attempt) + ":" + op.name, start, retryAt,
                         bad.totalBytes, op.attr);
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
            } else if (op.fn) {
                op.fn();
            }
        }
        traceRow(stream, kKindOf<O>, op.name, c.start, c.end, 0, op.attr);
    }
}

}  // namespace neon::sys
