// Event record/wait handshake across threads: record() publishes its fields
// through the recorded flag without a lock, and wakes waiters blocked in
// waitRecorded(). Run under TSan to check the publication.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "sys/event.hpp"

namespace neon::sys {

TEST(EventHandshake, BlockedWaitersAndPollersSeeTheRecord)
{
    constexpr int    kReps = 200;
    constexpr int    kWaiters = 4;
    constexpr double kVtime = 1.25e-3;
    constexpr int    kDevice = 3;
    constexpr int    kStream = 2;
    for (int rep = 0; rep < kReps; ++rep) {
        Event                                 ev;
        std::atomic<int>                      started{0};
        std::array<EventWaitStatus, kWaiters> status{};
        std::array<double, kWaiters>          vtime{};
        std::array<int, kWaiters>             device{};
        std::array<int, kWaiters>             stream{};
        std::vector<std::thread>              threads;
        for (int w = 0; w < kWaiters; ++w) {
            threads.emplace_back([&, w] {
                started.fetch_add(1);
                status[w] = ev.waitRecorded(0.0, nullptr, &vtime[w]);
                device[w] = ev.recordedDevice();
                stream[w] = ev.recordedStream();
            });
        }
        bool pollerSawEarlyVtime = false;
        threads.emplace_back([&] {
            started.fetch_add(1);
            while (!ev.recorded()) {
                // vtime() reads the fields only once the flag is set.
                const double v = ev.vtime();
                if (v != 0.0 && (v != kVtime || !ev.recorded())) {
                    pollerSawEarlyVtime = true;
                }
            }
            if (ev.vtime() != kVtime) {
                pollerSawEarlyVtime = true;
            }
        });
        while (started.load() < kWaiters + 1) {
            std::this_thread::yield();
        }
        ev.record(kVtime, kDevice, kStream);
        for (auto& t : threads) {
            t.join();
        }
        for (int w = 0; w < kWaiters; ++w) {
            ASSERT_EQ(status[w], EventWaitStatus::Recorded) << "rep " << rep << " waiter " << w;
            ASSERT_EQ(vtime[w], kVtime) << "rep " << rep << " waiter " << w;
            ASSERT_EQ(device[w], kDevice) << "rep " << rep << " waiter " << w;
            ASSERT_EQ(stream[w], kStream) << "rep " << rep << " waiter " << w;
        }
        ASSERT_FALSE(pollerSawEarlyVtime) << "rep " << rep;
    }
}

}  // namespace neon::sys
