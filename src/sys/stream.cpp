#include "sys/stream.hpp"

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

void Stream::enqueue(const Op& op)
{
    if (EnqueueHook* hook = mEngine->enqueueHook()) {
        hook->onEnqueue(*this, op);
    }
    mEngine->enqueue(*this, op);
}

void Stream::transfer(const TransferOp& op)
{
    enqueue(op);
}

void Stream::hostFn(std::string_view name, double simDuration, const std::function<void()>& fn,
                    const OpAttribution& attr)
{
    enqueue(HostFnOp{name, simDuration, &fn, attr});
}

void Stream::record(Event& event, const OpAttribution& attr)
{
    enqueue(RecordOp{&event, attr});
}

void Stream::wait(const Event& event, const OpAttribution& attr)
{
    enqueue(WaitOp{&event, attr});
}

void Stream::sync()
{
    mEngine->sync();
}

}  // namespace neon::sys
