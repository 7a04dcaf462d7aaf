#pragma once
// The multi-GPU application graph (paper §V, Fig. 4). Nodes wrap
// Containers; data edges carry the dependency kind (RaW/WaR/WaW) inferred
// from the Loader's access records; hint edges bias the scheduler's launch
// order without forcing completion (paper §V-B, orange arrows).

#include <string>
#include <vector>

#include "core/types.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"

namespace neon::skeleton {

enum class EdgeKind : uint8_t
{
    RaW,   ///< read-after-write
    WaR,   ///< write-after-read
    WaW,   ///< write-after-write
    Hint,  ///< scheduling hint only — no completion requirement
};

/// Which completion-event slots a dependent task must wait on (DESIGN.md §4).
enum class WaitScope : uint8_t
{
    SameDev,     ///< compute -> compute: partition data stays on its device
    Neighbours,  ///< halo parent: transfers into dev d come from d-1 / d+1
    Root,        ///< ScalarOp parent: work happened on device 0's stream
    All,         ///< ScalarOp child of a device-wide parent (reduce combine)
};

std::string to_string(EdgeKind k);
std::string to_string(WaitScope s);

/// One entry of the scheduler's ordered task list (paper §V-C). Lives next
/// to the graph (rather than in skeleton.hpp) because a compiled schedule
/// is exactly (graph, task list) — the cache recipe stores both.
struct Task
{
    int nodeId = -1;
    int stream = 0;
    /// Parents whose completion events this task waits on (with scope).
    struct Wait
    {
        int       parent = -1;
        WaitScope scope = WaitScope::SameDev;
    };
    std::vector<Wait> waits;
};

/// Where a graph node came from in the sequence() input — recorded by
/// buildGraph (and propagated through the OCC splits) so a compiled
/// schedule can be replayed against a structurally identical container
/// sequence without re-running the pipeline (skeleton/schedule_cache.hpp).
struct NodeOrigin
{
    enum class Src : uint8_t
    {
        User,     ///< containers[container] itself
        Halo,     ///< haloUpdate of containers[container].accesses()[access]
        Combine,  ///< containers[container].combineStep()
    };
    Src src = Src::User;
    int container = -1;
    int access = -1;
};

struct GraphNode
{
    int            id = -1;
    set::Container container;
    DataView       view = DataView::STANDARD;
    NodeOrigin     origin;
    bool           alive = true;
    /// False for stencil nodes whose halo read is stale until a halo-update
    /// node is inserted before them (paper §V-A "coherency flag").
    bool coherent = true;

    // scheduling results
    int  level = -1;
    int  stream = -1;
    bool needsEvent = false;

    [[nodiscard]] Compute              pattern() const { return container.pattern(); }
    [[nodiscard]] set::Container::Kind kind() const { return container.kind(); }
    [[nodiscard]] std::string          label() const;
};

struct GraphEdge
{
    int      from = -1;
    int      to = -1;
    EdgeKind kind = EdgeKind::RaW;
};

class Graph
{
   public:
    /// Reserve-ahead for the node/edge arenas (both are flat vectors; one
    /// reservation avoids regrowth while buildGraph/applyOcc append).
    void reserve(int nodes, int edges);

    int  addNode(set::Container container, DataView view = DataView::STANDARD);
    void addEdge(int from, int to, EdgeKind kind);
    /// Append an already-validated edge without the dedup/alive scans —
    /// cache-replay path only (the recipe's edge list is the final,
    /// deduplicated edge set of a previously compiled graph).
    void restoreEdge(const GraphEdge& edge);
    /// Remove every edge (data and hint) between `from` and `to`.
    void removeEdges(int from, int to);
    /// Mark dead and drop all its edges (used when OCC replaces a node).
    void killNode(int id);

    [[nodiscard]] GraphNode&       node(int id);
    [[nodiscard]] const GraphNode& node(int id) const;
    [[nodiscard]] int              nodeCount() const { return static_cast<int>(mNodes.size()); }
    [[nodiscard]] int              aliveCount() const;

    [[nodiscard]] bool hasDataEdge(int from, int to) const;
    [[nodiscard]] bool hasEdge(int from, int to, EdgeKind kind) const;
    /// Kind of the data edge `from -> to` (must exist).
    [[nodiscard]] EdgeKind dataEdgeKind(int from, int to) const;

    [[nodiscard]] std::vector<int> dataParents(int id) const;
    [[nodiscard]] std::vector<int> dataChildren(int id) const;
    [[nodiscard]] std::vector<int> parents(int id, bool includeHints) const;
    [[nodiscard]] std::vector<int> children(int id, bool includeHints) const;
    [[nodiscard]] const std::vector<GraphEdge>& edges() const { return mEdges; }

    /// WaitScope of the dependency `from -> to` (derived from node kinds).
    [[nodiscard]] WaitScope waitScope(int from, int to) const;

    /// BFS levels over alive nodes: every node lands one level after its
    /// last parent (paper §V-C(a), Fig. 5).
    [[nodiscard]] std::vector<std::vector<int>> bfsLevels(bool includeHints) const;

    /// Remove data edges implied by a longer data path (paper §V-B: "the
    /// dependency between the map and the dot product nodes is removed as
    /// redundant").
    void transitiveReduce();

    /// Graphviz dump for documentation and debugging.
    [[nodiscard]] std::string toDot() const;

   private:
    void rebuildAdjacency();

    std::vector<GraphNode> mNodes;
    std::vector<GraphEdge> mEdges;
    /// Per-node edge-index lists (into mEdges), kept in sync by
    /// addNode/addEdge and rebuilt after bulk removals: parents/children/
    /// hasDataEdge queries scan a node's degree instead of every edge.
    std::vector<std::vector<int>> mOut;
    std::vector<std::vector<int>> mIn;
};

}  // namespace neon::skeleton
