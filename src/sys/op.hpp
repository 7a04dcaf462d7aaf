#pragma once
// Operations that can be enqueued on a Stream. The runtime model is
// queue-based (paper §IV-A): each stream processes its ops in FIFO order;
// cross-stream ordering is expressed only through events.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

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
/// The op borrows `ctx`: ops run at enqueue, while the enqueuer holds it.
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
    std::string    name;
    size_t         items = 0;
    KernelCostHint hint;
    KernelWork     work;
    OpAttribution  attr;
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

/// The chunks of a TransferOp: a list shared by every op built from it, so
/// a halo builds each device's list once and each exchange it enqueues
/// shares that list instead of copying it. push_back() builds a list in
/// place, copying it first when another op still shares it.
class TransferChunks
{
   public:
    TransferChunks() = default;
    explicit TransferChunks(std::vector<TransferChunk> chunks)
        : mList(std::make_shared<std::vector<TransferChunk>>(std::move(chunks)))
    {
    }

    void push_back(const TransferChunk& chunk)
    {
        if (mList == nullptr) {
            mList = std::make_shared<std::vector<TransferChunk>>();
        } else if (mList.use_count() > 1) {
            mList = std::make_shared<std::vector<TransferChunk>>(*mList);
        }
        mList->push_back(chunk);
    }

    [[nodiscard]] size_t size() const { return mList ? mList->size() : 0; }
    [[nodiscard]] bool   empty() const { return size() == 0; }
    [[nodiscard]] const TransferChunk* begin() const { return mList ? mList->data() : nullptr; }
    [[nodiscard]] const TransferChunk* end() const
    {
        return mList ? mList->data() + mList->size() : nullptr;
    }

   private:
    std::shared_ptr<std::vector<TransferChunk>> mList;
};

/// A group of copies issued together (e.g. one haloUpdate on one device).
/// Chunks with the same direction serialize on that DMA engine; the two
/// directions proceed in parallel — this is what makes the SoA layout pay
/// `n` latencies per direction while AoS pays one (paper §IV-C2).
struct TransferOp
{
    std::string    name;
    TransferChunks chunks;
    OpAttribution  attr;
};

/// Host-side work executed in stream order (e.g. the reduce combine step).
/// Borrows its name and callable: ops run inside Stream::enqueue, while the
/// enqueuer (a scalar container's launch) holds both.
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
    EventPtr      event;
    OpAttribution attr;
};

/// Hold the stream until `event` is recorded.
struct WaitOp
{
    EventPtr      event;
    OpAttribution attr;
};

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
