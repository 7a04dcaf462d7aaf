#include "analysis/graph_lint.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "analysis/access_model.hpp"
#include "analysis/node_meta.hpp"

namespace neon::analysis {

namespace {

using skeleton::EdgeKind;
using skeleton::Graph;
using skeleton::Task;
using skeleton::WaitScope;

using SegSet = std::unordered_set<Segment, SegmentHash>;

struct NodeSets
{
    SegSet reads;
    SegSet writes;
};

struct LintContext
{
    const Graph&                   g;
    int                            devCount;
    std::vector<int>               alive;
    std::vector<ContainerMeta>     meta;   // by node id
    std::vector<NodeSets>          sets;   // union over devices, by id
    std::vector<std::vector<bool>> reach;  // data-edge reachability
};

Violation pairViolation(ViolationKind kind, const Graph& g, int a, int b, std::string message)
{
    Violation v;
    v.kind = kind;
    v.nodeA = a;
    v.nodeB = b;
    if (a >= 0) {
        v.containerA = g.node(a).label();
    }
    if (b >= 0) {
        v.containerB = g.node(b).label();
    }
    v.message = std::move(message);
    return v;
}

/// Kahn's algorithm over data + hint edges; returns ids stuck in a cycle.
std::vector<int> findCycle(const Graph& g)
{
    const int        n = g.nodeCount();
    std::vector<int> pending(static_cast<size_t>(n), 0);
    std::queue<int>  q;
    int              alive = 0;
    for (int id = 0; id < n; ++id) {
        if (!g.node(id).alive) {
            continue;
        }
        ++alive;
        pending[static_cast<size_t>(id)] = static_cast<int>(g.parents(id, true).size());
        if (pending[static_cast<size_t>(id)] == 0) {
            q.push(id);
        }
    }
    int visited = 0;
    while (!q.empty()) {
        const int id = q.front();
        q.pop();
        ++visited;
        for (int c : g.children(id, true)) {
            if (--pending[static_cast<size_t>(c)] == 0) {
                q.push(c);
            }
        }
    }
    std::vector<int> stuck;
    if (visited != alive) {
        for (int id = 0; id < n; ++id) {
            if (g.node(id).alive && pending[static_cast<size_t>(id)] > 0) {
                stuck.push_back(id);
            }
        }
    }
    return stuck;
}

LintContext buildContext(const Graph& g, int devCount)
{
    LintContext ctx{g, devCount, {}, {}, {}, {}};
    const int   n = g.nodeCount();
    ctx.meta.resize(static_cast<size_t>(n));
    ctx.sets.resize(static_cast<size_t>(n));
    for (int id = 0; id < n; ++id) {
        if (!g.node(id).alive) {
            continue;
        }
        ctx.alive.push_back(id);
        ctx.meta[static_cast<size_t>(id)] = metaFor(g.node(id), devCount);
        auto& ns = ctx.sets[static_cast<size_t>(id)];
        for (int d = 0; d < devCount; ++d) {
            const AccessSets s = segmentsFor(ctx.meta[static_cast<size_t>(id)], d, devCount);
            ns.reads.insert(s.reads.begin(), s.reads.end());
            ns.writes.insert(s.writes.begin(), s.writes.end());
        }
    }
    // Data-edge reachability (BFS per node; graphs are small).
    ctx.reach.assign(static_cast<size_t>(n), std::vector<bool>(static_cast<size_t>(n), false));
    for (int src : ctx.alive) {
        std::queue<int> q;
        q.push(src);
        auto& row = ctx.reach[static_cast<size_t>(src)];
        while (!q.empty()) {
            const int id = q.front();
            q.pop();
            for (int c : g.dataChildren(id)) {
                if (!row[static_cast<size_t>(c)]) {
                    row[static_cast<size_t>(c)] = true;
                    q.push(c);
                }
            }
        }
    }
    return ctx;
}

/// Segment-level conflict: a common segment written by at least one side.
bool segmentConflict(const NodeSets& a, const NodeSets& b)
{
    for (const Segment& s : a.writes) {
        if (b.writes.count(s) > 0 || b.reads.count(s) > 0) {
            return true;
        }
    }
    for (const Segment& s : b.writes) {
        if (a.reads.count(s) > 0) {
            return true;
        }
    }
    return false;
}

/// Uid-level conflict: a uid both nodes access with at least one WRITE.
bool uidConflict(const ContainerMeta& a, const ContainerMeta& b)
{
    for (const auto& aa : a.accesses) {
        for (const auto& ba : b.accesses) {
            if (aa.uid == ba.uid &&
                (aa.access == Access::WRITE || ba.access == Access::WRITE)) {
                return true;
            }
        }
    }
    return false;
}

bool writesUid(const ContainerMeta& m, uint64_t uid)
{
    return std::any_of(m.accesses.begin(), m.accesses.end(), [&](const MetaAccess& a) {
        return a.uid == uid && a.access == Access::WRITE;
    });
}

void checkCoverage(const LintContext& ctx, AnalysisReport& rep)
{
    for (size_t i = 0; i < ctx.alive.size(); ++i) {
        for (size_t j = i + 1; j < ctx.alive.size(); ++j) {
            const int u = ctx.alive[i];
            const int v = ctx.alive[j];
            ++rep.pairsChecked;
            if (!segmentConflict(ctx.sets[static_cast<size_t>(u)],
                                 ctx.sets[static_cast<size_t>(v)])) {
                continue;
            }
            if (ctx.reach[static_cast<size_t>(u)][static_cast<size_t>(v)] ||
                ctx.reach[static_cast<size_t>(v)][static_cast<size_t>(u)]) {
                continue;
            }
            rep.violations.push_back(pairViolation(
                ViolationKind::MissingDependency, ctx.g, u, v,
                "'" + ctx.g.node(u).label() + "' (node " + std::to_string(u) + ") and '" +
                    ctx.g.node(v).label() + "' (node " + std::to_string(v) +
                    ") have conflicting accesses but no dependency path orders them"));
        }
    }
}

void checkEdges(const LintContext& ctx, AnalysisReport& rep)
{
    for (const auto& e : ctx.g.edges()) {
        if (e.kind == EdgeKind::Hint) {
            continue;
        }
        ++rep.edgesChecked;
        if (!uidConflict(ctx.meta[static_cast<size_t>(e.from)],
                         ctx.meta[static_cast<size_t>(e.to)])) {
            rep.violations.push_back(pairViolation(
                ViolationKind::SpuriousEdge, ctx.g, e.from, e.to,
                to_string(e.kind) + " edge '" + ctx.g.node(e.from).label() + "' -> '" +
                    ctx.g.node(e.to).label() + "' orders nodes that share no written data"));
        }
    }
}

void checkHaloFreshness(const LintContext& ctx, AnalysisReport& rep)
{
    if (ctx.devCount <= 1) {
        return;
    }
    for (int s : ctx.alive) {
        const auto& m = ctx.meta[static_cast<size_t>(s)];
        if (m.kind != MetaNodeKind::Compute || m.view == DataView::INTERNAL) {
            continue;
        }
        for (const auto& a : m.accesses) {
            if (!a.stencilHalo) {
                continue;
            }
            // Need a halo-update node H with a path H ~> s and no non-halo
            // writer of the field on a path in between (which would restale
            // the halo H refreshed).
            bool fresh = false;
            for (int h : ctx.alive) {
                const auto& hm = ctx.meta[static_cast<size_t>(h)];
                if (hm.kind != MetaNodeKind::Halo || !writesUid(hm, a.uid)) {
                    continue;
                }
                if (!ctx.reach[static_cast<size_t>(h)][static_cast<size_t>(s)]) {
                    continue;
                }
                bool restaled = false;
                for (int w : ctx.alive) {
                    const auto& wm = ctx.meta[static_cast<size_t>(w)];
                    if (w == h || w == s || wm.kind == MetaNodeKind::Halo ||
                        !writesUid(wm, a.uid)) {
                        continue;
                    }
                    if (ctx.reach[static_cast<size_t>(h)][static_cast<size_t>(w)] &&
                        ctx.reach[static_cast<size_t>(w)][static_cast<size_t>(s)]) {
                        restaled = true;
                        break;
                    }
                }
                if (!restaled) {
                    fresh = true;
                    break;
                }
            }
            if (!fresh) {
                Violation v = pairViolation(
                    ViolationKind::StaleHaloRead, ctx.g, -1, s,
                    "'" + ctx.g.node(s).label() + "' (node " + std::to_string(s) +
                        ") stencil-reads the halo of '" + a.name +
                        "' with no fresh halo-update node ordered before it" +
                        (ctx.g.node(s).coherent ? "" : " (node is marked incoherent)"));
                rep.violations.push_back(std::move(v));
            }
        }
    }
}

void checkSchedule(const LintContext& ctx, const std::vector<Task>& tasks, int nStreams,
                   AnalysisReport& rep)
{
    const Graph& g = ctx.g;

    // Dead nodes must not appear in any scheduling state (satellite fix:
    // Graph::killNode resets them; this is the machine check).
    for (int id = 0; id < g.nodeCount(); ++id) {
        const auto& n = g.node(id);
        if (!n.alive && (n.level != -1 || n.stream != -1 || n.needsEvent)) {
            rep.violations.push_back(pairViolation(
                ViolationKind::DeadNodeScheduled, g, id, -1,
                "dead node " + std::to_string(id) + " ('" + n.label() +
                    "') still carries scheduling state (level/stream/event)"));
        }
    }

    std::unordered_map<int, size_t> order;
    std::unordered_map<int, const Task*> taskOf;
    for (size_t i = 0; i < tasks.size(); ++i) {
        const Task& t = tasks[i];
        if (!g.node(t.nodeId).alive) {
            rep.violations.push_back(
                pairViolation(ViolationKind::DeadNodeScheduled, g, t.nodeId, -1,
                              "dead node " + std::to_string(t.nodeId) + " ('" +
                                  g.node(t.nodeId).label() + "') appears in the task list"));
            continue;
        }
        order[t.nodeId] = i;
        taskOf[t.nodeId] = &t;
    }

    for (int id : ctx.alive) {
        const auto& n = g.node(id);
        if (n.level < 0 || n.stream < 0 || n.stream >= nStreams) {
            rep.violations.push_back(pairViolation(
                ViolationKind::LevelOrder, g, id, -1,
                "alive node " + std::to_string(id) + " ('" + n.label() +
                    "') has no valid level/stream assignment (level " +
                    std::to_string(n.level) + ", stream " + std::to_string(n.stream) + ")"));
        }
        if (order.find(id) == order.end()) {
            rep.violations.push_back(pairViolation(
                ViolationKind::LevelOrder, g, id, -1,
                "alive node " + std::to_string(id) + " ('" + n.label() +
                    "') is missing from the task list"));
        }
    }

    for (const auto& e : g.edges()) {
        const auto& u = g.node(e.from);
        const auto& v = g.node(e.to);
        const auto  ou = order.find(e.from);
        const auto  ov = order.find(e.to);
        if (ou != order.end() && ov != order.end() && ou->second > ov->second) {
            rep.violations.push_back(pairViolation(
                ViolationKind::LevelOrder, g, e.from, e.to,
                "task list runs '" + v.label() + "' before its " + to_string(e.kind) +
                    " parent '" + u.label() + "'"));
        }
        if (e.kind == EdgeKind::Hint) {
            continue;
        }
        if (u.level >= v.level) {
            rep.violations.push_back(pairViolation(
                ViolationKind::LevelOrder, g, e.from, e.to,
                to_string(e.kind) + " edge '" + u.label() + "' (level " +
                    std::to_string(u.level) + ") -> '" + v.label() + "' (level " +
                    std::to_string(v.level) + ") contradicts the level assignment"));
        }
        const WaitScope scope = g.waitScope(e.from, e.to);
        if (scope == WaitScope::SameDev && u.stream == v.stream) {
            continue;  // FIFO order on the shared stream suffices
        }
        const Task* vt = (ov != order.end()) ? taskOf[e.to] : nullptr;
        const bool  hasWait =
            vt != nullptr && std::any_of(vt->waits.begin(), vt->waits.end(),
                                         [&](const Task::Wait& w) { return w.parent == e.from; });
        if (!hasWait) {
            rep.violations.push_back(pairViolation(
                ViolationKind::MissingWait, g, e.from, e.to,
                "'" + v.label() + "' depends on '" + u.label() + "' (" + to_string(e.kind) +
                    ", scope " + to_string(scope) +
                    ") across streams but its task carries no event wait on it"));
        } else if (!u.needsEvent) {
            rep.violations.push_back(pairViolation(
                ViolationKind::MissingWait, g, e.from, e.to,
                "'" + v.label() + "' waits on '" + u.label() +
                    "' but the parent records no completion event"));
        }
    }
}

AnalysisReport lintImpl(const Graph& g, const std::vector<Task>* tasks, int nStreams,
                        int devCount)
{
    AnalysisReport rep;
    if (const std::vector<int> stuck = findCycle(g); !stuck.empty()) {
        std::string names;
        for (int id : stuck) {
            names += (names.empty() ? "" : ", ") + g.node(id).label();
        }
        rep.violations.push_back(pairViolation(
            ViolationKind::GraphCycle, g, stuck.front(), -1,
            "dependency graph contains a cycle through: " + names));
        return rep;  // downstream checks assume a DAG
    }
    const LintContext ctx = buildContext(g, devCount);
    checkCoverage(ctx, rep);
    checkEdges(ctx, rep);
    checkHaloFreshness(ctx, rep);
    if (tasks != nullptr) {
        checkSchedule(ctx, *tasks, nStreams, rep);
    }
    return rep;
}

}  // namespace

AnalysisReport lintGraph(const Graph& graph, int devCount)
{
    return lintImpl(graph, nullptr, 0, devCount);
}

AnalysisReport lintSchedule(const Graph& graph, const std::vector<Task>& tasks, int nStreams,
                            int devCount)
{
    return lintImpl(graph, &tasks, nStreams, devCount);
}

}  // namespace neon::analysis
