#include "sys/stream.hpp"

#include <algorithm>

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
    if (EnqueueHook* hook = mEngine->enqueueHook()) {
        hook->onEnqueue(*this, op);
    }
    mEngine->enqueue(*this, std::move(op));
}

void Stream::transfer(TransferOp op)
{
    enqueue(std::move(op));
}

void Stream::hostFn(std::string name, double simDuration, std::function<void()> fn,
                    const OpAttribution& attr)
{
    enqueue(HostFnOp{std::move(name), simDuration, std::move(fn), attr});
}

void Stream::record(EventPtr event, const OpAttribution& attr)
{
    enqueue(RecordOp{std::move(event), attr});
}

void Stream::wait(EventPtr event, const OpAttribution& attr)
{
    enqueue(WaitOp{std::move(event), attr});
}

void Stream::sync()
{
    mEngine->sync(*this);
}

double Stream::vtime() const
{
    return mEngine->streamVtime(*this);
}

// Engine: stream registry and clocks ---------------------------------------

void Engine::attach(Stream& stream)
{
    adopt(stream, std::make_shared<StreamState>());
}

void Engine::adopt(Stream& stream, std::shared_ptr<StreamState> state)
{
    stream.engineState = std::move(state);
    std::lock_guard<std::mutex> lock(mRegistryMutex);
    mStreams.insert(&stream);
    mDevices.insert(&stream.device());
}

void Engine::detach(Stream& stream)
{
    std::lock_guard<std::mutex> lock(mRegistryMutex);
    mStreams.erase(&stream);
}

std::vector<Stream*> Engine::streams() const
{
    std::lock_guard<std::mutex> lock(mRegistryMutex);
    return {mStreams.begin(), mStreams.end()};
}

double Engine::streamVtime(const Stream& stream) const
{
    std::lock_guard<std::mutex> lock(mClockMutex);
    return stream.engineState->vtime;
}

double Engine::maxVtime() const
{
    std::scoped_lock lock(mRegistryMutex, mClockMutex);
    double v = 0.0;
    for (const Stream* s : mStreams) {
        v = std::max(v, s->engineState->vtime);
    }
    return v;
}

void Engine::resetClocks()
{
    std::scoped_lock lock(mRegistryMutex, mClockMutex);
    for (Stream* s : mStreams) {
        s->engineState->vtime = 0.0;
    }
    for (Device* d : mDevices) {
        d->resetClocks();
    }
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

FaultDecision Engine::consultFaults(const Stream& stream, OpKind kind, const std::string& opName,
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
                               std::string_view opKind, const std::string& opName,
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

}  // namespace neon::sys
