#include "sys/event.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace neon::sys {

namespace {
std::atomic<uint64_t> gNextEventId{1};
}

Event::Event() : mId(gNextEventId.fetch_add(1, std::memory_order_relaxed)) {}

void Event::record(double vtime, int device, int stream)
{
    {
        std::lock_guard<std::mutex> lock(mMutex);
        mRecorded = true;
        mVtime = vtime;
        mDevice = device;
        mStream = stream;
    }
    mCv.notify_all();
}

bool Event::recorded() const
{
    std::lock_guard<std::mutex> lock(mMutex);
    return mRecorded;
}

double Event::vtime() const
{
    std::lock_guard<std::mutex> lock(mMutex);
    return mVtime;
}

int Event::recordedDevice() const
{
    std::lock_guard<std::mutex> lock(mMutex);
    return mDevice;
}

int Event::recordedStream() const
{
    std::lock_guard<std::mutex> lock(mMutex);
    return mStream;
}

EventWaitStatus Event::waitRecorded(double timeoutSeconds, const std::atomic<bool>* cancel,
                                    double* vtimeOut) const
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(std::max(timeoutSeconds, 0.0)));
    // Wait in short slices so a cancel raised by another thread (engine
    // abort) is observed promptly even though it cannot notify our cv.
    constexpr auto               kSlice = std::chrono::milliseconds(2);
    std::unique_lock<std::mutex> lock(mMutex);
    for (;;) {
        if (mRecorded) {
            if (vtimeOut != nullptr) {
                *vtimeOut = mVtime;
            }
            return EventWaitStatus::Recorded;
        }
        if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
            return EventWaitStatus::Cancelled;
        }
        if (timeoutSeconds > 0.0 && Clock::now() >= deadline) {
            return EventWaitStatus::TimedOut;
        }
        mCv.wait_for(lock, kSlice, [this] { return mRecorded; });
    }
}

}  // namespace neon::sys
