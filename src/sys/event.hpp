#pragma once
// Event: completion marker used to inject dependencies between streams
// (paper §IV-A "Queue-based Run-time Model" — CUDA Events analogue).
//
// An event carries both the real completion state (used by the threaded
// engine's condition-variable waits) and the virtual timestamp at which it
// was recorded (used by the discrete-event clock). For trace export every
// event also has a process-unique id and remembers which (device, stream)
// recorded it, so wait edges can be drawn in chrome://tracing.

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
    void record(double vtime, int device = -1, int stream = -1);

    [[nodiscard]] bool   recorded() const;
    /// Virtual timestamp of the record; only meaningful once recorded().
    [[nodiscard]] double vtime() const;

    /// Process-unique id.
    [[nodiscard]] uint64_t id() const { return mId; }
    /// (device, stream) that recorded the event; -1 until recorded.
    [[nodiscard]] int recordedDevice() const;
    [[nodiscard]] int recordedStream() const;

    /// Bounded wait: returns Recorded (vtimeOut filled) once recorded,
    /// TimedOut after `timeoutSeconds` of wall-clock time (0 = no limit),
    /// or Cancelled as soon as `cancel` (optional) becomes true.
    EventWaitStatus waitRecorded(double timeoutSeconds, const std::atomic<bool>* cancel,
                                 double* vtimeOut) const;

   private:
    const uint64_t                  mId;
    mutable std::mutex              mMutex;
    mutable std::condition_variable mCv;
    bool                            mRecorded = false;
    double                          mVtime = 0.0;
    int                             mDevice = -1;
    int                             mStream = -1;
};

using EventPtr = std::shared_ptr<Event>;

}  // namespace neon::sys
