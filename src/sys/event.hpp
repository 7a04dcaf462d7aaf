#pragma once
// Event: completion marker used to inject dependencies between streams
// (paper §IV-A "Queue-based Run-time Model" — CUDA Events analogue).
//
// An event carries both the real completion state (used by the threaded
// engine's blocking waits) and the virtual timestamp at which it was
// recorded (used by the discrete-event clock). For trace export every event
// also has a process-unique id and remembers which (device, stream)
// recorded it, so wait edges can be drawn in chrome://tracing.
//
// Recording and querying take no lock: record() writes the fields, then
// publishes them by storing the recorded flag; the queries load the flag
// first and read the fields only when it is set. The mutex and condition
// variable serve only a waitRecorded() that has to block, and a record()
// that finds such a waiter registered.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

namespace neon::sys {

/// Outcome of a bounded event wait (threaded engine host syncs).
enum class EventWaitStatus : uint8_t
{
    Recorded,   ///< the event was recorded; the vtime out-param is valid
    TimedOut,   ///< wall-clock timeout expired before the record
    Cancelled,  ///< the cancel flag was raised (engine abort) while waiting
};

class Event
{
   public:
    Event();

    /// Mark the event complete at virtual time `vtime` and wake waiters.
    /// `device`/`stream` identify the recording stream (trace attribution).
    /// An event is recorded once.
    void record(double vtime, int device = -1, int stream = -1)
    {
        mVtime = vtime;
        mDevice = device;
        mStream = stream;
        // Sequentially consistent with waitRecorded()'s registration: either
        // a blocking waiter sees the flag, or this record sees the waiter.
        mRecorded.store(true);
        if (mWaiters.load() != 0) {
            wakeWaiters();
        }
    }

    [[nodiscard]] bool recorded() const { return mRecorded.load(std::memory_order_acquire); }
    /// Virtual timestamp of the record; 0 until recorded().
    [[nodiscard]] double vtime() const { return recorded() ? mVtime : 0.0; }

    /// Process-unique id.
    [[nodiscard]] uint64_t id() const { return mId; }
    /// (device, stream) that recorded the event; -1 until recorded.
    [[nodiscard]] int recordedDevice() const { return recorded() ? mDevice : -1; }
    [[nodiscard]] int recordedStream() const { return recorded() ? mStream : -1; }

    /// Bounded wait: returns Recorded (vtimeOut filled) once recorded,
    /// TimedOut after `timeoutSeconds` of wall-clock time (0 = no limit),
    /// or Cancelled as soon as `cancel` (optional) becomes true.
    EventWaitStatus waitRecorded(double timeoutSeconds, const std::atomic<bool>* cancel,
                                 double* vtimeOut) const;

   private:
    /// Slow path of record(): a waiter is blocked on the condition variable.
    void wakeWaiters();

    const uint64_t                  mId;
    double                          mVtime = 0.0;
    int                             mDevice = -1;
    int                             mStream = -1;
    std::atomic<bool>               mRecorded{false};
    mutable std::atomic<int>        mWaiters{0};  ///< blocked waitRecorded() calls
    mutable std::mutex              mMutex;
    mutable std::condition_variable mCv;
};

using EventPtr = std::shared_ptr<Event>;

}  // namespace neon::sys
