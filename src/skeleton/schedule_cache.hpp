#pragma once
// Schedule compilation cache (docs/performance.md). The skeleton pipeline
// (dependency graph -> OCC transform -> transitive reduction -> level/
// stream/event schedule) is a pure function of the *structure* of the
// container sequence — which data objects each container reads/writes and
// how, not which concrete fields they are — plus the OCC mode, the device
// count and the stream cap. A structural key over exactly those inputs
// memoizes the full compilation: a repeated sequence() with the same
// structure replays a stored recipe (node blueprints + final edge list +
// task list) against the *new* containers instead of recompiling.
//
// Collisions are handled by construction, not hope: the cache buckets by
// the 64-bit hash but compares the full canonical encoding on lookup, so
// two distinct structures that happen to share a hash stay distinct.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.hpp"
#include "set/container.hpp"
#include "skeleton/graph.hpp"

namespace neon::skeleton {

/// Canonical structural key of one sequence() request. `words` is the full
/// encoding (uids remapped to first-occurrence slots so structurally
/// identical pipelines over different fields collide on purpose); `hash`
/// is its 64-bit digest used for bucketing.
struct ScheduleKey
{
    uint64_t              hash = 0;
    std::vector<uint64_t> words;

    /// Full-encoding equality — the collision-proof comparison.
    [[nodiscard]] bool operator==(const ScheduleKey& other) const { return words == other.words; }
};

/// Build the structural key: per container its kind/pattern/reduce flag,
/// per-device INTERNAL/BOUNDARY span sizes (they steer the two-way OCC
/// split), and per access record (uid slot, access, compute, halo?,
/// scalar?); plus occ, devCount and maxStreams.
[[nodiscard]] ScheduleKey makeScheduleKey(const std::vector<set::Container>& containers,
                                          int devCount, Occ occ, int maxStreams);

/// One graph node of a compiled schedule, reduced to structure + schedule
/// results. `origin` says how to rebind it to a fresh container sequence.
struct NodeBlueprint
{
    NodeOrigin origin;
    DataView   view = DataView::STANDARD;
    bool       alive = true;
    bool       coherent = true;
    int        level = -1;
    int        stream = -1;
    bool       needsEvent = false;
};

/// Everything sequence() produces, minus the concrete containers: replaying
/// a recipe against a structurally identical sequence is O(nodes + edges)
/// with no dependency analysis, no OCC transform and no BFS scheduling.
struct ScheduleRecipe
{
    std::vector<NodeBlueprint> nodes;
    std::vector<GraphEdge>     edges;
    std::vector<Task>          tasks;
    int                        nStreams = 1;
    int                        levelCount = 0;
};

/// Capture the compiled graph + task list into a reusable recipe.
[[nodiscard]] ScheduleRecipe captureRecipe(const Graph& graph, const std::vector<Task>& tasks,
                                           int nStreams);

/// Replay `recipe` against `containers`, rebuilding an identical graph
/// whose nodes launch the *new* containers (halo nodes rebind to the new
/// fields' HaloOps through the recorded access index).
[[nodiscard]] Graph instantiateRecipe(const ScheduleRecipe&              recipe,
                                      const std::vector<set::Container>& containers);

/// Process-wide LRU cache of compiled schedules, shared by every Skeleton
/// (the recipe is backend-agnostic: the key already pins devCount).
/// Thread-safe.
class ScheduleCache
{
   public:
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        size_t   size = 0;
        size_t   capacity = 0;
    };

    /// The global instance used by Skeleton::sequence().
    static ScheduleCache& instance();

    /// Lookup; bumps LRU and the hit/miss counters.
    [[nodiscard]] std::shared_ptr<const ScheduleRecipe> find(const ScheduleKey& key);
    /// Insert (replaces an existing entry for the same key); evicts the
    /// least recently used entry beyond capacity.
    void insert(const ScheduleKey& key, std::shared_ptr<const ScheduleRecipe> recipe);

    [[nodiscard]] Stats stats() const;
    /// Drop every entry (counters survive; tests reset via setCapacity).
    void clear();
    /// Drop every entry compiled for `devCount` devices. Recovery path:
    /// after a backend shrink the old-geometry recipes must never be
    /// replayed onto resized spans (docs/robustness.md). Returns the number
    /// of entries dropped.
    size_t invalidateDevCount(int devCount);
    /// Resize; also resets the counters (test hook). Capacity >= 1.
    void setCapacity(size_t capacity);

    explicit ScheduleCache(size_t capacity = 128);
    ~ScheduleCache();
    ScheduleCache(const ScheduleCache&) = delete;
    ScheduleCache& operator=(const ScheduleCache&) = delete;

   private:
    struct ImplData;
    std::unique_ptr<ImplData> mData;
};

}  // namespace neon::skeleton
