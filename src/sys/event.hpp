#pragma once
// Event: completion marker used to inject dependencies between streams
// (paper §IV-A "Queue-based Run-time Model" — CUDA Events analogue).
//
// An event carries the virtual timestamp at which it was recorded (used by
// the discrete-event clock). For trace export every event also has a
// process-unique id and remembers which (device, stream) recorded it, so
// wait edges can be drawn in chrome://tracing.

#include <cstdint>
#include <memory>

namespace neon::sys {

class Event
{
   public:
    Event();

    /// Mark the event complete at virtual time `vtime`. `device`/`stream`
    /// identify the recording stream (trace attribution). An event is
    /// recorded once.
    void record(double vtime, int device = -1, int stream = -1)
    {
        mVtime = vtime;
        mDevice = device;
        mStream = stream;
        mRecorded = true;
    }

    [[nodiscard]] bool recorded() const { return mRecorded; }
    /// Virtual timestamp of the record; 0 until recorded().
    [[nodiscard]] double vtime() const { return mVtime; }

    /// Process-unique id.
    [[nodiscard]] uint64_t id() const { return mId; }
    /// (device, stream) that recorded the event; -1 until recorded.
    [[nodiscard]] int recordedDevice() const { return mDevice; }
    [[nodiscard]] int recordedStream() const { return mStream; }

   private:
    const uint64_t mId;
    double         mVtime = 0.0;
    int            mDevice = -1;
    int            mStream = -1;
    bool           mRecorded = false;
};

using EventPtr = std::shared_ptr<Event>;

}  // namespace neon::sys
