#include "sys/sequential_engine.hpp"

#include "sys/engine_core.hpp"

namespace neon::sys {

void SequentialEngine::enqueue(Stream& stream, Op op)
{
    // Fail-stop: once a RuntimeError aborted the engine, further enqueues
    // rethrow it instead of silently executing against inconsistent state.
    if (aborted()) {
        rethrowAbort();
    }
    NoClockLock unlocked;
    execute(stream, stream.engineState->vtime, op, unlocked,
            [](const WaitOp& w, double& eventVtime) {
                if (!w.event->recorded()) {
                    throw InternalError(
                        "sequential engine: wait on an unrecorded event — the task "
                        "list is not a topological order of the dependency graph");
                }
                eventVtime = w.event->vtime();
                return true;
            });
}

}  // namespace neon::sys
