#pragma once
// Operations that can be enqueued on a Stream. The runtime model is
// queue-based (paper §IV-A): each stream processes its ops in FIFO order;
// cross-stream ordering is expressed only through events.

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include <memory>

#include "sys/cost_model.hpp"
#include "sys/event.hpp"
#include "sys/thread_pool.hpp"

namespace neon::sys {

/// Trace attribution carried by work ops: which skeleton graph node,
/// which run() window and which service job enqueued the op. Stamped by
/// Stream::enqueue from the engine trace's current context
/// (sys/trace.hpp); -1 outside a skeleton / outside a service job.
struct OpAttribution
{
    int containerId = -1;
    int runId = -1;
    int jobId = -1;
};

/// Devirtualized kernel payload: the container factory pre-splits the
/// launch into a fixed chunk partition (domain::spanChunkCount) and hands
/// the engine two plain function pointers over an opaque context. The hot
/// path is exactly one indirect call per chunk — no std::function hops.
/// `owner` keeps the trampoline context alive if the Container is dropped
/// while the threaded engine still holds queued ops.
struct KernelWork
{
    ChunkFn run = nullptr;       ///< run(ctx, chunk, chunks): one chunk's cells
    ChunkFn finalize = nullptr;  ///< optional, after all chunks (reduce tree)
    void*   ctx = nullptr;
    int32_t chunks = 0;
    std::shared_ptr<void> owner;

    [[nodiscard]] explicit operator bool() const { return run != nullptr; }
};

/// A device kernel: `work` performs the real computation on host devices;
/// the simulated duration comes from `items` and `hint`.
struct KernelOp
{
    std::string    name;
    size_t         items = 0;
    KernelCostHint hint;
    KernelWork     work;
    OpAttribution  attr;
};

/// One contiguous device-to-device copy; `direction` selects the DMA engine
/// (0: towards the lower-id neighbour, 1: towards the higher-id neighbour).
struct TransferChunk
{
    size_t                bytes = 0;
    int                   direction = 0;
    std::function<void()> copy;
};

/// A group of copies issued together (e.g. one haloUpdate on one device).
/// Chunks with the same direction serialize on that DMA engine; the two
/// directions proceed in parallel — this is what makes the SoA layout pay
/// `n` latencies per direction while AoS pays one (paper §IV-C2).
struct TransferOp
{
    std::string                name;
    std::vector<TransferChunk> chunks;
    OpAttribution              attr;
};

/// Host-side work executed in stream order (e.g. the reduce combine step).
struct HostFnOp
{
    std::string           name;
    double                simDuration = 0.0;
    std::function<void()> fn;
    OpAttribution         attr;
};

/// Record `event` when the stream reaches this op.
struct RecordOp
{
    EventPtr event;
};

/// Hold the stream until `event` is recorded.
struct WaitOp
{
    EventPtr      event;
    OpAttribution attr;
};

using Op = std::variant<KernelOp, TransferOp, HostFnOp, RecordOp, WaitOp>;

}  // namespace neon::sys
