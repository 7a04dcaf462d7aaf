#pragma once
// Threaded engine: one worker thread per stream, real condition-variable
// event waits. Functionally equivalent to the sequential engine but with
// genuine cross-stream concurrency — used to validate that the Skeleton's
// event placement is sufficient for correctness (a missing event shows up
// as a data race/wrong result or a deadlock, not as silent luck).

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "sys/stream.hpp"

namespace neon::sys {

class ThreadedEngine final : public Engine
{
   public:
    void attach(Stream& stream) override;
    void detach(Stream& stream) override;
    void enqueue(Stream& stream, Op op) override;
    void sync(Stream& stream) override;
    void syncAll() override;

    /// Drain every stream's queue without throwing (abort-recovery path).
    void quiesce() override;

   private:
    struct State : StreamState
    {
        std::deque<Op>          queue;
        std::mutex              mutex;
        std::condition_variable cvWork;
        std::condition_variable cvIdle;
        bool                    stop = false;
        bool                    busy = false;
        std::atomic<bool>       cancel{false};  ///< detach in progress: give up waits
        std::thread             worker;
    };
    static State& stateOf(const Stream& stream);

    void workerLoop(Stream* stream, State* state);
    void process(Stream& stream, State& state, const Op& op);
    /// Block until `state`'s queue is drained and its worker idle, or until
    /// `limitSeconds` of wall time passed (0: no limit). True when idle.
    static bool waitIdle(State& state, double limitSeconds);
};

}  // namespace neon::sys
