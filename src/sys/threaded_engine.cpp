#include "sys/threaded_engine.hpp"

#include <algorithm>
#include <chrono>

#include "sys/device.hpp"
#include "sys/engine_core.hpp"

namespace neon::sys {

namespace {
std::chrono::steady_clock::time_point wallDeadline(double seconds)
{
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(std::max(seconds, 0.0)));
}
}  // namespace

ThreadedEngine::State& ThreadedEngine::stateOf(const Stream& stream)
{
    return static_cast<State&>(*stream.engineState);
}

void ThreadedEngine::attach(Stream& stream)
{
    auto   state = std::make_shared<State>();
    State* s = state.get();
    adopt(stream, std::move(state));
    s->worker = std::thread([this, &stream, s] { workerLoop(&stream, s); });
}

void ThreadedEngine::detach(Stream& stream)
{
    State& st = stateOf(stream);
    st.cancel.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(st.mutex);
        st.stop = true;
    }
    st.cvWork.notify_all();
    if (st.worker.joinable()) {
        st.worker.join();
    }
    Engine::detach(stream);
}

void ThreadedEngine::enqueue(Stream& stream, Op op)
{
    // Fail-stop: once a RuntimeError aborted the engine, further enqueues
    // rethrow it instead of silently queueing against inconsistent state.
    if (aborted()) {
        rethrowAbort();
    }
    State& st = stateOf(stream);
    {
        std::lock_guard<std::mutex> lock(st.mutex);
        st.queue.push_back(std::move(op));
    }
    st.cvWork.notify_one();
}

void ThreadedEngine::workerLoop(Stream* stream, State* state)
{
    for (;;) {
        Op op;
        {
            std::unique_lock<std::mutex> lock(state->mutex);
            state->cvWork.wait(lock, [state] { return state->stop || !state->queue.empty(); });
            if (state->queue.empty()) {
                if (state->stop) {
                    return;
                }
                continue;
            }
            op = std::move(state->queue.front());
            state->queue.pop_front();
            state->busy = true;
        }
        try {
            process(*stream, *state, op);
        } catch (...) {
            // First error wins; the engine latches aborted and the queue
            // drains in suppressed mode so no thread stays blocked.
            raiseAbort(std::current_exception());
        }
        {
            std::lock_guard<std::mutex> lock(state->mutex);
            state->busy = false;
        }
        state->cvIdle.notify_all();
    }
}

void ThreadedEngine::process(Stream& stream, State& state, const Op& op)
{
    // Suppressed drain after an abort: records still fire so waiters wake,
    // waits are skipped so nothing blocks, work ops are skipped so nothing
    // executes against inconsistent state.
    if (aborted() && !std::holds_alternative<RecordOp>(op)) {
        return;
    }
    // Only the accounting holds the clock lock: bodies and copies run
    // outside it so real work does not serialize the other workers.
    execute(stream, state.vtime, op, mClockMutex, [&](const WaitOp& w, double& eventVtime) {
        // Bounded wait: a scheduler bug (event never recorded) surfaces as
        // a SyncTimeout RuntimeError instead of a deadlock; an engine abort
        // or a stream detach cancels the wait promptly.
        const double limit = stream.device().config().hostSyncTimeout;
        const auto   deadline = wallDeadline(limit);
        for (;;) {
            const EventWaitStatus ws = w.event->waitRecorded(0.05, abortFlag(), &eventVtime);
            if (ws == EventWaitStatus::Recorded) {
                return true;
            }
            if (ws == EventWaitStatus::Cancelled || state.cancel.load(std::memory_order_acquire)) {
                return false;
            }
            if (limit > 0.0 && std::chrono::steady_clock::now() >= deadline) {
                throwRuntimeError(RuntimeError::Kind::SyncTimeout, stream.device().id(),
                                  stream.id(), "wait", "wait", w.attr, 0, limit);
            }
        }
    });
}

bool ThreadedEngine::waitIdle(State& state, double limitSeconds)
{
    const auto deadline = wallDeadline(limitSeconds);
    // Sliced wait: the workers notify cvIdle on every completed op, but an
    // abort raised from another stream's worker cannot, so poll it too.
    constexpr auto               kSlice = std::chrono::milliseconds(2);
    const auto                   idle = [&state] { return state.queue.empty() && !state.busy; };
    std::unique_lock<std::mutex> lock(state.mutex);
    while (!idle()) {
        if (limitSeconds > 0.0 && std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        state.cvIdle.wait_for(lock, kSlice, idle);
    }
    return true;
}

void ThreadedEngine::sync(Stream& stream)
{
    const double limit = stream.device().config().hostSyncTimeout;
    // A drain stuck after an abort surfaces the root cause, not a timeout.
    if (!waitIdle(stateOf(stream), limit) && !aborted()) {
        throwRuntimeError(RuntimeError::Kind::SyncTimeout, stream.device().id(), stream.id(),
                          "sync", "stream sync", {}, 0, limit);
    }
    rethrowAbort();
}

void ThreadedEngine::syncAll()
{
    for (Stream* s : streams()) {
        sync(*s);
    }
    rethrowAbort();
}

void ThreadedEngine::quiesce()
{
    // Suppressed ops drain fast (waits are cancelled by the abort flag);
    // bound the wait anyway — quiesce must never throw or hang.
    for (Stream* s : streams()) {
        waitIdle(stateOf(*s), std::max(s->device().config().hostSyncTimeout, 1.0));
    }
}

}  // namespace neon::sys
