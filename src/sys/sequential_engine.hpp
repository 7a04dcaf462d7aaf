#pragma once
// Deterministic discrete-event engine: ops execute eagerly at enqueue time
// (the Skeleton's task list is a topological order of the multi-GPU graph,
// so eager in-order execution is hazard-free) while per-stream, per-device
// virtual clocks model what an 8-GPU node would have done concurrently.
//
// Waiting on an event that has not been recorded yet is, under this engine,
// a scheduler ordering bug and throws InternalError — a strong built-in
// correctness check on the Skeleton's task ordering.

#include "sys/stream.hpp"

namespace neon::sys {

class SequentialEngine final : public Engine
{
   public:
    void enqueue(Stream& stream, Op op) override;

    // Ops already executed eagerly: nothing to wait for — but a stored
    // abort must surface to hosts that only sync (never enqueue again).
    void sync(Stream&) override { rethrowAbort(); }
    void syncAll() override { rethrowAbort(); }
};

}  // namespace neon::sys
