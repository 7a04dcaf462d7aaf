#pragma once
// Operations that can be enqueued on a Stream. The runtime model is
// queue-based (paper §IV-A): each stream processes its ops in FIFO order;
// cross-stream ordering is expressed only through events.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "sys/cost_model.hpp"
#include "sys/event.hpp"
#include "sys/thread_pool.hpp"

namespace neon::sys {

/// What an op is, for fault rules, trace rows, race analysis and errors. The
/// first five kinds follow Op's alternative order, so an op's kind is its
/// index(); Fault and HostPool name trace rows only. The string spellings
/// ("kernel", "transfer", ...) are stable public API: reports, tests and the
/// chrome-trace export key on them.
enum class OpKind : uint8_t
{
    Kernel,
    Transfer,
    HostFn,
    Record,
    Wait,
    Fault,     ///< injected stall or failed transfer attempt (trace row)
    HostPool,  ///< one pool worker's share of a CPU kernel (trace row)
};

[[nodiscard]] inline const std::string& to_string(OpKind k)
{
    static const std::string kNames[] = {"kernel", "transfer", "hostFn",  "record",
                                         "wait",   "fault",    "hostPool"};
    return kNames[static_cast<size_t>(k)];
}

/// Attribution carried by every op: which skeleton graph node, which run()
/// window and which service job enqueued it. Passed in by the enqueuer (the
/// Skeleton per task); -1 outside a skeleton / outside a service job.
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
struct KernelWork
{
    ChunkFn run = nullptr;       ///< run(ctx, chunk, chunks): one chunk's cells
    ChunkFn finalize = nullptr;  ///< optional, after all chunks (reduce tree)
    void*   ctx = nullptr;
    int32_t chunks = 0;

    [[nodiscard]] explicit operator bool() const { return run != nullptr; }
};

/// A device kernel: `work` performs the real computation on host devices;
/// the simulated duration comes from `items` and `hint`.
struct KernelOp
{
    std::string_view name;
    size_t           items = 0;
    KernelCostHint   hint;
    KernelWork       work;
    OpAttribution    attr;
};

/// One contiguous device-to-device copy of `bytes` from `src` to `dst`;
/// `direction` selects the DMA engine (0: towards the lower-id neighbour, 1:
/// towards the higher-id neighbour). A plain descriptor: the engine copies
/// it unless the device is dry-run. Null buffers (cost-only ops) copy
/// nothing.
struct TransferChunk
{
    size_t      bytes = 0;
    int         direction = 0;
    const void* src = nullptr;
    void*       dst = nullptr;
};

/// A group of copies issued together (e.g. one haloUpdate on one device).
/// Chunks with the same direction serialize on that DMA engine; the two
/// directions proceed in parallel — this is what makes the SoA layout pay
/// `n` latencies per direction while AoS pays one (paper §IV-C2).
struct TransferOp
{
    std::string_view               name;
    std::span<const TransferChunk> chunks;
    OpAttribution                  attr;
};

/// Host-side work executed in stream order (e.g. the reduce combine step).
struct HostFnOp
{
    std::string_view             name;
    double                       simDuration = 0.0;
    const std::function<void()>* fn = nullptr;
    OpAttribution                attr;
};

/// Record `event` when the stream reaches this op.
struct RecordOp
{
    Event*        event = nullptr;
    OpAttribution attr;
};

/// Hold the stream until `event` is recorded.
struct WaitOp
{
    const Event*  event = nullptr;
    OpAttribution attr;
};

/// One enqueued operation. An op is a borrowed view: its names, chunk list,
/// callable, kernel context and event belong to the enqueuer and are valid
/// only for the Stream::enqueue call that runs it. No EnqueueHook may keep
/// an op (or anything it points to) past onEnqueue; copy what you need.
using Op = std::variant<KernelOp, TransferOp, HostFnOp, RecordOp, WaitOp>;

[[nodiscard]] inline OpKind kindOf(const Op& op)
{
    return static_cast<OpKind>(op.index());
}

/// The kind of the Op alternative `O`.
template <class O>
inline constexpr OpKind kKindOf = []<size_t... I>(std::index_sequence<I...>) {
    return static_cast<OpKind>(((std::is_same_v<O, std::variant_alternative_t<I, Op>> ? I : 0) +
                                ...));
}(std::make_index_sequence<std::variant_size_v<Op>>());

static_assert(kKindOf<KernelOp> == OpKind::Kernel && kKindOf<TransferOp> == OpKind::Transfer &&
                  kKindOf<HostFnOp> == OpKind::HostFn && kKindOf<RecordOp> == OpKind::Record &&
                  kKindOf<WaitOp> == OpKind::Wait,
              "Op lists its alternatives in OpKind order");

}  // namespace neon::sys
