#include "skeleton/graph.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_set>

#include "core/error.hpp"

namespace neon::skeleton {

std::string to_string(EdgeKind k)
{
    switch (k) {
        case EdgeKind::RaW: return "RaW";
        case EdgeKind::WaR: return "WaR";
        case EdgeKind::WaW: return "WaW";
        case EdgeKind::Hint: return "hint";
    }
    return "?";
}

std::string to_string(WaitScope s)
{
    switch (s) {
        case WaitScope::SameDev: return "sameDev";
        case WaitScope::Neighbours: return "neighbours";
        case WaitScope::Root: return "root";
        case WaitScope::All: return "all";
    }
    return "?";
}

std::string GraphNode::label() const
{
    std::string l = container.name();
    if (view != DataView::STANDARD) {
        l += view == DataView::INTERNAL ? ".int" : ".bdr";
    }
    return l;
}

void Graph::reserve(int nodes, int edges)
{
    mNodes.reserve(static_cast<size_t>(nodes));
    mEdges.reserve(static_cast<size_t>(edges));
    mOut.reserve(static_cast<size_t>(nodes));
    mIn.reserve(static_cast<size_t>(nodes));
}

int Graph::addNode(set::Container container, DataView view)
{
    GraphNode n;
    n.id = static_cast<int>(mNodes.size());
    n.container = std::move(container);
    n.view = view;
    mNodes.push_back(std::move(n));
    mOut.emplace_back();
    mIn.emplace_back();
    return mNodes.back().id;
}

void Graph::addEdge(int from, int to, EdgeKind kind)
{
    NEON_CHECK(from != to, "self edges are not allowed");
    NEON_CHECK(node(from).alive && node(to).alive, "addEdge: both endpoints must be alive");
    // Deduplicate: one data edge per pair is enough (keep the first kind);
    // a hint on top of a data edge is redundant.
    if (kind == EdgeKind::Hint) {
        if (hasEdge(from, to, EdgeKind::Hint) || hasDataEdge(from, to)) {
            return;
        }
    } else if (hasDataEdge(from, to)) {
        return;
    }
    restoreEdge({from, to, kind});
}

void Graph::restoreEdge(const GraphEdge& edge)
{
    const int idx = static_cast<int>(mEdges.size());
    mEdges.push_back(edge);
    mOut[static_cast<size_t>(edge.from)].push_back(idx);
    mIn[static_cast<size_t>(edge.to)].push_back(idx);
}

void Graph::rebuildAdjacency()
{
    for (auto& v : mOut) {
        v.clear();
    }
    for (auto& v : mIn) {
        v.clear();
    }
    for (size_t i = 0; i < mEdges.size(); ++i) {
        mOut[static_cast<size_t>(mEdges[i].from)].push_back(static_cast<int>(i));
        mIn[static_cast<size_t>(mEdges[i].to)].push_back(static_cast<int>(i));
    }
}

void Graph::removeEdges(int from, int to)
{
    std::erase_if(mEdges, [&](const GraphEdge& e) { return e.from == from && e.to == to; });
    rebuildAdjacency();
}

void Graph::killNode(int id)
{
    GraphNode& n = node(id);
    n.alive = false;
    // Clear any scheduling state: a dead node must not contribute to level
    // widths or stream counts if it dies after a schedule was computed.
    n.level = -1;
    n.stream = -1;
    n.needsEvent = false;
    std::erase_if(mEdges, [&](const GraphEdge& e) { return e.from == id || e.to == id; });
    rebuildAdjacency();
}

GraphNode& Graph::node(int id)
{
    return mNodes[static_cast<size_t>(id)];
}

const GraphNode& Graph::node(int id) const
{
    return mNodes[static_cast<size_t>(id)];
}

int Graph::aliveCount() const
{
    return static_cast<int>(
        std::count_if(mNodes.begin(), mNodes.end(), [](const auto& n) { return n.alive; }));
}

bool Graph::hasDataEdge(int from, int to) const
{
    const auto& out = mOut[static_cast<size_t>(from)];
    return std::any_of(out.begin(), out.end(), [&](int i) {
        const GraphEdge& e = mEdges[static_cast<size_t>(i)];
        return e.to == to && e.kind != EdgeKind::Hint;
    });
}

bool Graph::hasEdge(int from, int to, EdgeKind kind) const
{
    const auto& out = mOut[static_cast<size_t>(from)];
    return std::any_of(out.begin(), out.end(), [&](int i) {
        const GraphEdge& e = mEdges[static_cast<size_t>(i)];
        return e.to == to && e.kind == kind;
    });
}

EdgeKind Graph::dataEdgeKind(int from, int to) const
{
    for (int i : mOut[static_cast<size_t>(from)]) {
        const GraphEdge& e = mEdges[static_cast<size_t>(i)];
        if (e.to == to && e.kind != EdgeKind::Hint) {
            return e.kind;
        }
    }
    throw InternalError("dataEdgeKind: no data edge between the given nodes");
}

std::vector<int> Graph::dataParents(int id) const
{
    return parents(id, false);
}

std::vector<int> Graph::dataChildren(int id) const
{
    return children(id, false);
}

std::vector<int> Graph::parents(int id, bool includeHints) const
{
    std::vector<int> out;
    out.reserve(mIn[static_cast<size_t>(id)].size());
    for (int i : mIn[static_cast<size_t>(id)]) {
        const GraphEdge& e = mEdges[static_cast<size_t>(i)];
        if ((includeHints || e.kind != EdgeKind::Hint) &&
            std::find(out.begin(), out.end(), e.from) == out.end()) {
            out.push_back(e.from);
        }
    }
    return out;
}

std::vector<int> Graph::children(int id, bool includeHints) const
{
    std::vector<int> out;
    out.reserve(mOut[static_cast<size_t>(id)].size());
    for (int i : mOut[static_cast<size_t>(id)]) {
        const GraphEdge& e = mEdges[static_cast<size_t>(i)];
        if ((includeHints || e.kind != EdgeKind::Hint) &&
            std::find(out.begin(), out.end(), e.to) == out.end()) {
            out.push_back(e.to);
        }
    }
    return out;
}

WaitScope Graph::waitScope(int from, int to) const
{
    const auto& p = node(from);
    const auto& c = node(to);
    // Parent first: a scalar -> scalar edge runs device 0 to device 0.
    if (p.kind() == set::Container::Kind::ScalarOp) {
        return WaitScope::Root;  // scalar work happens on device 0's stream
    }
    if (c.kind() == set::Container::Kind::ScalarOp) {
        return WaitScope::All;  // e.g. reduce combine reads every partial
    }
    if (p.kind() == set::Container::Kind::Halo ||
        c.kind() == set::Container::Kind::Halo) {
        // A halo node touches the neighbours' memory: transfers into d come
        // from d-1/d+1 (parent case), and a halo overwriting halos that
        // d-1/d+1 were reading must wait for those readers (child case).
        return WaitScope::Neighbours;
    }
    return WaitScope::SameDev;
}

std::vector<std::vector<int>> Graph::bfsLevels(bool includeHints) const
{
    std::vector<int> pending(mNodes.size(), 0);
    int              alive = 0;
    for (const auto& n : mNodes) {
        if (!n.alive) {
            continue;
        }
        ++alive;
        pending[static_cast<size_t>(n.id)] = static_cast<int>(parents(n.id, includeHints).size());
    }
    std::vector<std::vector<int>> levels;
    std::vector<int>              frontier;
    for (const auto& n : mNodes) {
        if (n.alive && pending[static_cast<size_t>(n.id)] == 0) {
            frontier.push_back(n.id);
        }
    }
    int visited = 0;
    while (!frontier.empty()) {
        levels.push_back(frontier);
        visited += static_cast<int>(frontier.size());
        std::vector<int> next;
        for (int id : frontier) {
            for (int c : children(id, includeHints)) {
                if (--pending[static_cast<size_t>(c)] == 0) {
                    next.push_back(c);
                }
            }
        }
        frontier = std::move(next);
    }
    NEON_CHECK(visited == alive, "application graph contains a cycle");
    return levels;
}

void Graph::transitiveReduce()
{
    // For each data edge (u, v): if v is reachable from u through another
    // data path, the edge is redundant.
    auto reachableAvoidingDirect = [&](int u, int v) {
        std::unordered_set<int> seen;
        std::queue<int>         q;
        for (int c : dataChildren(u)) {
            if (c != v) {
                q.push(c);
            }
        }
        while (!q.empty()) {
            int x = q.front();
            q.pop();
            if (x == v) {
                return true;
            }
            if (!seen.insert(x).second) {
                continue;
            }
            for (int c : dataChildren(x)) {
                q.push(c);
            }
        }
        return false;
    };

    std::vector<GraphEdge> keep;
    for (const auto& e : mEdges) {
        if (e.kind == EdgeKind::Hint || !reachableAvoidingDirect(e.from, e.to)) {
            keep.push_back(e);
        }
    }
    // On a DAG, checking every edge against the *original* graph yields the
    // unique minimal transitive reduction: an edge covered by a longer path
    // stays covered after all such edges are removed (induction on
    // topological distance).
    mEdges.swap(keep);
    rebuildAdjacency();
}

std::string Graph::toDot() const
{
    std::ostringstream os;
    os << "digraph app {\n  rankdir=TB;\n";
    for (const auto& n : mNodes) {
        if (!n.alive) {
            continue;
        }
        os << "  n" << n.id << " [label=\"" << n.label() << "\\n"
           << neon::to_string(n.pattern()) << "\"];\n";
    }
    for (const auto& e : mEdges) {
        os << "  n" << e.from << " -> n" << e.to << " [label=\"" << to_string(e.kind) << "\""
           << (e.kind == EdgeKind::Hint ? " style=dashed color=orange" : "") << "];\n";
    }
    os << "}\n";
    return os.str();
}

}  // namespace neon::skeleton
