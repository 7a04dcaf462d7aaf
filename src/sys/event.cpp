#include "sys/event.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace neon::sys {

namespace {
std::atomic<uint64_t> gNextEventId{1};
}

Event::Event() : mId(gNextEventId.fetch_add(1, std::memory_order_relaxed)) {}

void Event::wakeWaiters()
{
    // Notify under the mutex: a waiter registered itself while holding it,
    // so it is either inside wait_for (and woken) or has not yet re-checked
    // the flag (and will see it).
    std::lock_guard<std::mutex> lock(mMutex);
    mCv.notify_all();
}

EventWaitStatus Event::waitRecorded(double timeoutSeconds, const std::atomic<bool>* cancel,
                                    double* vtimeOut) const
{
    if (!recorded()) {
        using Clock = std::chrono::steady_clock;
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(std::max(timeoutSeconds, 0.0)));
        // Wait in short slices so a cancel raised by another thread (engine
        // abort) is observed promptly even though it cannot notify our cv.
        constexpr auto               kSlice = std::chrono::milliseconds(2);
        std::unique_lock<std::mutex> lock(mMutex);
        mWaiters.fetch_add(1);
        EventWaitStatus status = EventWaitStatus::Recorded;
        while (!mRecorded.load()) {
            if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
                status = EventWaitStatus::Cancelled;
                break;
            }
            if (timeoutSeconds > 0.0 && Clock::now() >= deadline) {
                status = EventWaitStatus::TimedOut;
                break;
            }
            mCv.wait_for(lock, kSlice);
        }
        mWaiters.fetch_sub(1);
        if (status != EventWaitStatus::Recorded) {
            return status;
        }
    }
    if (vtimeOut != nullptr) {
        *vtimeOut = mVtime;
    }
    return EventWaitStatus::Recorded;
}

}  // namespace neon::sys
