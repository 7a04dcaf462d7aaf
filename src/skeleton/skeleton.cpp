#include "skeleton/skeleton.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "analysis/env.hpp"
#include "analysis/graph_lint.hpp"
#include "analysis/node_meta.hpp"
#include "analysis/race_detector.hpp"
#include "analysis/sanitizer.hpp"
#include "core/error.hpp"
#include "core/log.hpp"
#include "skeleton/schedule_cache.hpp"
#include "sys/stream.hpp"

namespace neon::skeleton {

namespace {

using neon::Access;
using set::Container;

/// True when two containers iterate identically shaped spans on every
/// device — the precondition for view-aligned dependency splitting in the
/// two-way extended OCC transform.
bool sameSpanShape(const Container& a, const Container& b)
{
    if (a.devCount() != b.devCount()) {
        return false;
    }
    for (int d = 0; d < a.devCount(); ++d) {
        if (a.items(d, DataView::INTERNAL) != b.items(d, DataView::INTERNAL) ||
            a.items(d, DataView::BOUNDARY) != b.items(d, DataView::BOUNDARY)) {
            return false;
        }
    }
    return true;
}

/// True when `writer` writes a field that `stencil` reads through its
/// stencil pattern. Such reads reach across the internal/boundary cut, so
/// either half of the writer conflicts with either half of the stencil.
bool writesStencilInput(const Container& writer, const Container& stencil)
{
    for (const auto& wa : writer.accesses()) {
        if (wa.access != Access::WRITE) {
            continue;
        }
        for (const auto& ra : stencil.accesses()) {
            if (ra.access == Access::READ && ra.compute == Compute::STENCIL &&
                ra.uid == wa.uid) {
                return true;
            }
        }
    }
    return false;
}

int levelCountOf(const Graph& g)
{
    int n = 0;
    for (int id = 0; id < g.nodeCount(); ++id) {
        if (g.node(id).alive) {
            n = std::max(n, g.node(id).level + 1);
        }
    }
    return n;
}

/// Slot of each node's completion events in a run's event block: nDev
/// consecutive events per node that records one, in task order — the order
/// runs have always created them in, so event ids stay put. -1 for nodes
/// that record none. Returns the number of completion slots.
int assignEventSlots(const Graph& g, const std::vector<Task>& tasks, int nDev,
                     std::vector<int>& slots)
{
    slots.assign(static_cast<size_t>(g.nodeCount()), -1);
    int next = 0;
    for (const Task& t : tasks) {
        if (g.node(t.nodeId).needsEvent) {
            slots[static_cast<size_t>(t.nodeId)] = next;
            next += nDev;
        }
    }
    return next;
}

/// Resolve every (device, stream) the schedule uses to a raw Stream
/// pointer once per compilation: Backend::stream() checks its indices and
/// walks the lazily grown stream table per call, and the stream objects are
/// stable, so the run hot loop can index a flat array instead.
void prefetchStreams(set::Backend& backend, std::vector<sys::Stream*>& out, int nStreams)
{
    const int nDev = backend.devCount();
    out.assign(static_cast<size_t>(nDev) * static_cast<size_t>(nStreams), nullptr);
    for (int d = 0; d < nDev; ++d) {
        for (int s = 0; s < nStreams; ++s) {
            out[static_cast<size_t>(d * nStreams + s)] = &backend.stream(d, s);
        }
    }
}

std::string describeSchedule(const std::string& name, const std::string& backendStr, Occ occ,
                             int nStreams, const Graph& graph, const std::vector<Task>& tasks)
{
    std::ostringstream os;
    os << "skeleton '" << name << "' on " << backendStr << "\n";
    os << "occ: " << to_string(occ) << ", streams: " << nStreams << "\n";
    os << "task order:\n";
    for (const Task& t : tasks) {
        const GraphNode& n = graph.node(t.nodeId);
        os << "  [s" << t.stream << "] " << n.label();
        if (!t.waits.empty()) {
            os << "  waits:";
            for (const auto& w : t.waits) {
                os << " " << graph.node(w.parent).label() << "(" << to_string(w.scope) << ")";
            }
        }
        os << "\n";
    }
    os << "graph:\n" << graph.toDot();
    return os.str();
}

}  // namespace

Graph buildGraph(const std::vector<set::Container>& containers, int devCount)
{
    Graph g;

    std::unordered_map<uint64_t, int>              lastWriter;
    std::unordered_map<uint64_t, std::vector<int>> readers;
    std::unordered_map<uint64_t, bool>             haloFresh;

    // Wire a node into the dependency bookkeeping from its access records.
    auto connect = [&](int id) {
        const auto& accesses = g.node(id).container.accesses();
        for (const auto& a : accesses) {
            if (a.access == Access::READ) {
                auto it = lastWriter.find(a.uid);
                if (it != lastWriter.end() && it->second != id) {
                    g.addEdge(it->second, id, EdgeKind::RaW);
                }
                readers[a.uid].push_back(id);
            }
        }
        const bool isHalo = g.node(id).kind() == Container::Kind::Halo;
        for (const auto& a : accesses) {
            if (a.access == Access::WRITE) {
                for (int r : readers[a.uid]) {
                    if (r != id && !g.hasDataEdge(r, id)) {
                        g.addEdge(r, id, EdgeKind::WaR);
                    }
                }
                auto it = lastWriter.find(a.uid);
                if (it != lastWriter.end() && it->second != id && !g.hasDataEdge(it->second, id)) {
                    g.addEdge(it->second, id, EdgeKind::WaW);
                }
                lastWriter[a.uid] = id;
                readers[a.uid].clear();
                haloFresh[a.uid] = isHalo;
            }
        }
    };

    for (size_t ci = 0; ci < containers.size(); ++ci) {
        const auto& c = containers[ci];
        NEON_CHECK(c.valid(), "invalid container in sequence");
        // Insert halo-update nodes for stale stencil reads (paper §V-B:
        // "Neon adds halo update nodes to ensure the stencil operation
        // nodes operate on the latest halo data values").
        bool coherent = true;
        if (devCount > 1) {
            const auto& accesses = c.accesses();
            for (size_t ai = 0; ai < accesses.size(); ++ai) {
                const auto& a = accesses[ai];
                if (a.compute == Compute::STENCIL && a.access == Access::READ &&
                    a.halo != nullptr && !haloFresh[a.uid]) {
                    coherent = false;
                    const int h = g.addNode(Container::haloUpdate(a.halo));
                    g.node(h).origin = {NodeOrigin::Src::Halo, static_cast<int>(ci),
                                        static_cast<int>(ai)};
                    connect(h);
                }
            }
        }
        const int id = g.addNode(c);
        g.node(id).coherent = coherent;
        g.node(id).origin = {NodeOrigin::Src::User, static_cast<int>(ci), -1};
        connect(id);
        if (c.isReduce()) {
            // The combine step is a first-class graph node so the scheduler
            // places the all-device synchronization it implies.
            const int cid = g.addNode(c.combineStep());
            g.node(cid).origin = {NodeOrigin::Src::Combine, static_cast<int>(ci), -1};
            connect(cid);
        }
    }
    return g;
}

void applyOcc(Graph& g, Occ occ, int devCount)
{
    if (occ == Occ::NONE || devCount <= 1) {
        return;
    }

    struct SplitPair
    {
        int intId;
        int bdrId;
    };
    std::vector<SplitPair> stencilSplits;

    auto splitViews = [&](int id) -> SplitPair {
        const set::Container c = g.node(id).container;
        const NodeOrigin     origin = g.node(id).origin;
        const SplitPair sp{g.addNode(c, DataView::INTERNAL), g.addNode(c, DataView::BOUNDARY)};
        g.node(sp.intId).origin = origin;
        g.node(sp.bdrId).origin = origin;
        return sp;
    };

    // ---- Standard OCC: split every halo-dependent stencil node ----------
    const int nStencilPass = g.nodeCount();
    for (int id = 0; id < nStencilPass; ++id) {
        if (!g.node(id).alive || g.node(id).kind() != Container::Kind::Compute ||
            g.node(id).pattern() != Compute::STENCIL || g.node(id).view != DataView::STANDARD) {
            continue;
        }
        const auto parents = g.dataParents(id);
        std::vector<int> haloParents;
        for (int p : parents) {
            if (g.node(p).kind() == Container::Kind::Halo) {
                haloParents.push_back(p);
            }
        }
        if (haloParents.empty()) {
            continue;
        }
        const auto [si, sb] = splitViews(id);
        for (int p : parents) {
            const EdgeKind k = g.dataEdgeKind(p, id);
            if (std::find(haloParents.begin(), haloParents.end(), p) != haloParents.end()) {
                // Only the boundary half needs fresh halo data — but both
                // halves still need the *producers* of the halo'd field
                // (the halo node subsumed the producer -> stencil edge when
                // it became the field's last writer). Parents that merely
                // read the field (WaR into the halo node) wrote nothing the
                // stencil consumes; carrying them over would serialize
                // readers with the internal half for no reason.
                g.addEdge(p, sb, k);
                for (int q : g.dataParents(p)) {
                    if (g.dataEdgeKind(q, p) == EdgeKind::WaR) {
                        continue;
                    }
                    g.addEdge(q, si, EdgeKind::RaW);
                    g.addEdge(q, sb, EdgeKind::RaW);
                }
            } else {
                g.addEdge(p, si, k);
                g.addEdge(p, sb, k);
            }
        }
        for (int c : g.dataChildren(id)) {
            const EdgeKind k = g.dataEdgeKind(id, c);
            g.addEdge(si, c, k);
            g.addEdge(sb, c, k);
        }
        // Hints: issue the halo transfers first, then the internal half, so
        // communication overlaps the internal computation (paper Fig. 4d).
        for (int h : haloParents) {
            g.addEdge(h, si, EdgeKind::Hint);
        }
        g.addEdge(si, sb, EdgeKind::Hint);
        g.killNode(id);
        stencilSplits.push_back({si, sb});
    }

    // ---- Extended OCC: split map nodes feeding halo updates -------------
    if (occ == Occ::EXTENDED || occ == Occ::TWO_WAY) {
        const int nHaloPass = g.nodeCount();
        for (int h = 0; h < nHaloPass; ++h) {
            if (!g.node(h).alive || g.node(h).kind() != Container::Kind::Halo) {
                continue;
            }
            for (int p : g.dataParents(h)) {
                const auto& pn = g.node(p);
                if (!pn.alive || pn.kind() != Container::Kind::Compute ||
                    pn.pattern() != Compute::MAP || pn.view != DataView::STANDARD) {
                    continue;
                }
                const auto parents = g.dataParents(p);
                const auto children = g.dataChildren(p);
                const auto [pi, pb] = splitViews(p);
                for (int q : parents) {
                    const EdgeKind k = g.dataEdgeKind(q, p);
                    g.addEdge(q, pi, k);
                    g.addEdge(q, pb, k);
                }
                for (int c : children) {
                    const EdgeKind k = g.dataEdgeKind(p, c);
                    if (g.node(c).kind() == Container::Kind::Halo && k != EdgeKind::WaR) {
                        // The halo sends only boundary cells of the field
                        // this map *wrote*: it can start right after the
                        // boundary half. A WaR edge means the map merely
                        // read the field — that edge is the transitive
                        // guard against the field's next writer, so both
                        // halves must keep it.
                        g.addEdge(pb, c, k);
                        // When the halo became the field's last writer it
                        // subsumed this map's edges to later readers and
                        // writers of the field. Those consumers stay ordered
                        // after pb through the halo, but nothing orders them
                        // after pi — restore that directly (readers need
                        // pi's internal cells: RaW; rewriters overwrite
                        // them: WaW).
                        for (int r : g.dataChildren(c)) {
                            const EdgeKind rk = g.dataEdgeKind(c, r) == EdgeKind::WaR
                                                    ? EdgeKind::WaW
                                                    : EdgeKind::RaW;
                            g.addEdge(pi, r, rk);
                        }
                    } else {
                        g.addEdge(pi, c, k);
                        g.addEdge(pb, c, k);
                    }
                }
                // Launch the boundary map first (paper Fig. 1c).
                g.addEdge(pb, pi, EdgeKind::Hint);
                g.killNode(p);
            }
        }
    }

    // ---- Two-way extended: split map/reduce nodes after the stencil -----
    if (occ == Occ::TWO_WAY) {
        for (const auto& sp : stencilSplits) {
            for (int c : g.dataChildren(sp.intId)) {
                const auto& cn = g.node(c);
                if (!cn.alive || cn.kind() != Container::Kind::Compute ||
                    cn.view != DataView::STANDARD) {
                    continue;
                }
                if (cn.pattern() != Compute::MAP && cn.pattern() != Compute::REDUCE) {
                    continue;
                }
                // View-aligned dependencies are only valid when the child
                // iterates the same span partition as the stencil.
                if (!sameSpanShape(g.node(sp.intId).container, cn.container)) {
                    continue;
                }
                // View alignment pairs si->ci / sb->cb because the child's
                // accesses are cell-local. That breaks down when the child
                // *writes* a field the stencil reads through the stencil
                // pattern: the opposite halves conflict too (WaR) and the
                // split would leave them unordered. Keep such children
                // whole.
                if (writesStencilInput(cn.container, g.node(sp.intId).container)) {
                    continue;
                }
                const bool           isReduce = cn.pattern() == Compute::REDUCE;
                const set::Container child = cn.container;  // splitViews moves the nodes
                const auto           parents = g.dataParents(c);
                const auto           children = g.dataChildren(c);
                const auto [ci, cb] = splitViews(c);
                for (int q : parents) {
                    const EdgeKind k = g.dataEdgeKind(q, c);
                    const auto&    qn = g.node(q);
                    // Map/reduce reads are cell-local, so a split parent's
                    // halves pair with the matching child halves — except
                    // the halves of another split stencil that reads, through
                    // its stencil, a field this child writes: each of them
                    // must precede both child halves.
                    const bool aligned = qn.view != DataView::STANDARD &&
                                         !writesStencilInput(child, qn.container);
                    if (aligned && qn.view == DataView::INTERNAL) {
                        g.addEdge(q, ci, k);
                    } else if (aligned) {
                        g.addEdge(q, cb, k);
                    } else {
                        g.addEdge(q, ci, k);
                        g.addEdge(q, cb, k);
                    }
                }
                for (int ch : children) {
                    const EdgeKind k = g.dataEdgeKind(c, ch);
                    g.addEdge(ci, ch, k);
                    g.addEdge(cb, ch, k);
                }
                if (isReduce) {
                    // Paper §V-B: "a data dependency is also added between
                    // the internal and the boundary cells computations".
                    g.addEdge(ci, cb, EdgeKind::WaW);
                } else {
                    g.addEdge(ci, cb, EdgeKind::Hint);
                }
                g.killNode(c);
            }
        }
    }
}

std::vector<Task> scheduleGraph(Graph& g, int maxStreams, int* streamCountOut)
{
    NEON_CHECK(maxStreams >= 1, "need at least one stream");

    // Rescheduling (e.g. after a graph mutation) must not inherit stale
    // state from a previous schedule of the same graph.
    for (int id = 0; id < g.nodeCount(); ++id) {
        GraphNode& n = g.node(id);
        if (n.alive) {
            n.level = -1;
            n.stream = -1;
            n.needsEvent = false;
        }
    }

    // (a) Map nodes to streams: BFS levels over data edges; inherit a
    // parent's stream when free to skip events later (paper §V-C(a)).
    const auto levels = g.bfsLevels(false);
    int        width = 0;
    for (const auto& level : levels) {
        width = std::max(width, static_cast<int>(level.size()));
    }
    const int nStreams = std::min(std::max(width, 1), maxStreams);
    if (streamCountOut != nullptr) {
        *streamCountOut = nStreams;
    }

    for (size_t li = 0; li < levels.size(); ++li) {
        std::vector<bool> taken(static_cast<size_t>(nStreams), false);
        std::vector<int>  unassigned;
        for (int id : levels[li]) {
            g.node(id).level = static_cast<int>(li);
            int choice = -1;
            for (int p : g.dataParents(id)) {
                const int ps = g.node(p).stream;
                if (ps >= 0 && ps < nStreams && !taken[static_cast<size_t>(ps)]) {
                    choice = ps;
                    break;
                }
            }
            if (choice >= 0) {
                g.node(id).stream = choice;
                taken[static_cast<size_t>(choice)] = true;
            } else {
                unassigned.push_back(id);
            }
        }
        int cursor = 0;
        for (int id : unassigned) {
            int free = -1;
            for (int s = 0; s < nStreams; ++s) {
                if (!taken[static_cast<size_t>(s)]) {
                    free = s;
                    break;
                }
            }
            if (free < 0) {
                free = cursor++ % nStreams;  // level wider than the cap
            }
            g.node(id).stream = free;
            taken[static_cast<size_t>(free)] = true;
        }
    }

    // (b) Organize event synchronization: a dependency needs an event unless
    // it is same-device-scoped and rides the same stream FIFO (§V-C(b)).
    std::unordered_map<int, std::vector<Task::Wait>> waits;
    for (const auto& e : g.edges()) {
        if (e.kind == EdgeKind::Hint) {
            continue;
        }
        const WaitScope scope = g.waitScope(e.from, e.to);
        if (scope == WaitScope::SameDev && g.node(e.from).stream == g.node(e.to).stream) {
            continue;  // FIFO order on the shared stream is enough
        }
        auto& w = waits[e.to];
        if (std::none_of(w.begin(), w.end(),
                         [&](const Task::Wait& x) { return x.parent == e.from; })) {
            w.push_back({e.from, scope});
            g.node(e.from).needsEvent = true;
        }
    }

    // (c) Task list order: BFS over data + hint edges (§V-C(c), Fig. 6).
    std::vector<Task> tasks;
    for (const auto& level : g.bfsLevels(true)) {
        for (int id : level) {
            Task t;
            t.nodeId = id;
            t.stream = g.node(id).stream;
            if (auto it = waits.find(id); it != waits.end()) {
                t.waits = it->second;
            }
            tasks.push_back(std::move(t));
        }
    }
    return tasks;
}

/// One compilation result. Skeleton::sequence() swaps in a fresh state each
/// time (copy-on-write), so CompiledSchedule handles snapshot the state
/// they were minted with and can detect being superseded by identity.
struct Skeleton::ScheduleState
{
    std::string       name = "app";
    SequenceOptions   options;
    Graph             graph;
    std::vector<Task> tasks;
    int               nStreams = 1;
    int               levelCount = 0;
    uint64_t          hash = 0;
    bool              cacheHit = false;
    /// Backend geometry epoch at sequence() time; run() refuses when the
    /// live backend has moved on (repartition/rebind => re-sequence).
    uint64_t geomEpoch = 0;
    /// Sorted, deduplicated data-object uids the sequence reads / writes
    /// (from the user containers' access records; halo nodes operate on the
    /// same uids). Drives the per-uid inter-run chains in runBody.
    std::vector<uint64_t> readUids;
    std::vector<uint64_t> writeUids;
    /// Raw stream pointers, indexed [dev * nStreams + stream] (see
    /// prefetchStreams): the run hot loop must not look streams up through
    /// the backend per task per device.
    std::vector<sys::Stream*> streams;
    /// Per node, the first of its nDev completion events in a run's event
    /// block (assignEventSlots); the tail events follow at completionEvents.
    std::vector<int> eventSlot;
    int              completionEvents = 0;
    /// Container metadata of this graph, registered per run window with the
    /// race session; built lazily on the first analyzed run.
    std::shared_ptr<const analysis::ContainerMetaMap> metaCache;
};

struct Skeleton::Impl
{
    set::Backend                   backend;
    std::shared_ptr<ScheduleState> state;  ///< null until the first sequence()
    /// Run-id window [windowFirst, windowLast]: opened by the first run()
    /// after a sync(), extended by subsequent run()s, closed by sync().
    int  windowFirst = -1;
    int  windowLast = -1;
    bool windowClosed = true;
    /// Tail barrier of the most recent run issued through this skeleton.
    sys::EventPtr lastTail;
    /// Data-chain events a run waits on (DataBarriers::acquire); reused
    /// across runs so a cached run does not allocate the list.
    std::vector<const sys::Event*> chainDeps;
};

struct CompiledSchedule::Impl
{
    Skeleton                                 skeleton;
    std::shared_ptr<Skeleton::ScheduleState> state;

    Impl(Skeleton sk, std::shared_ptr<Skeleton::ScheduleState> st)
        : skeleton(std::move(sk)), state(std::move(st))
    {
    }
};

namespace {

/// Abort path shared by run()/sync(): rethrow the fault enriched with
/// skeleton attribution (graph-node label, last consistently completed run).
[[noreturn]] void rethrowEnriched(const Graph& graph, const RuntimeError& e)
{
    RuntimeError::Info info = e.info;
    if (info.containerId >= 0 && info.containerId < graph.nodeCount() &&
        info.containerLabel.empty()) {
        info.containerLabel = graph.node(info.containerId).label();
    }
    if (info.runId >= 0 && info.lastCompletedRun < 0) {
        info.lastCompletedRun = info.runId - 1;
    }
    throw RuntimeError(std::move(info));
}

}  // namespace

Skeleton::Skeleton(set::Backend backend) : mImpl(std::make_shared<Impl>())
{
    NEON_CHECK(backend.valid(), set::Backend::emptyError("Skeleton"));
    mImpl->backend = std::move(backend);
}

CompiledSchedule Skeleton::sequence(std::vector<set::Container> containers,
                                    SequenceOptions options)
{
    Impl&          s = *mImpl;
    const int      nDev = s.backend.devCount();
    const uint64_t geomEpoch = s.backend.geometryEpoch();
    for (const auto& c : containers) {
        NEON_CHECK(c.valid(), "invalid container in sequence");
        NEON_CHECK(c.devCount() == nDev,
                   "container '" + c.name() + "' was built for " +
                       std::to_string(c.devCount()) + " device(s) but the skeleton backend has " +
                       std::to_string(nDev));
        // Partition-geometry staleness guard (docs/robustness.md): a
        // container records the backend geometry epoch it was built under;
        // sequencing one that predates a repartition/rebind would replay
        // trampolines over spans that no longer exist.
        NEON_CHECK(c.geometryEpoch() == geomEpoch,
                   "container '" + c.name() + "' predates a partition-geometry change (epoch " +
                       std::to_string(c.geometryEpoch()) + ", backend epoch " +
                       std::to_string(geomEpoch) +
                       "); call Container::rebuild() after Grid::repartition/rebindBackend");
    }

    auto state = std::make_shared<ScheduleState>();
    state->name = options.name;
    state->options = options;
    state->geomEpoch = geomEpoch;

    // NEON_SANITIZE=1: every launch through this skeleton runs the
    // instrumented trampolines; an atexit diff fails the process with exit
    // code 4 on contract violations (tools/neon-lint --sanitize).
    if (analysis::sanitizeEnvEnabled()) {
        state->options.sanitize = true;
        analysis::installSanitizeExitHook();
    }

    // Read/write uid sets for the per-uid inter-run chains. Collected from
    // the user containers (cache-hit or not): halo/combine nodes the
    // pipeline adds touch the same uids.
    for (const auto& c : containers) {
        for (const auto& a : c.accesses()) {
            (a.access == Access::WRITE ? state->writeUids : state->readUids).push_back(a.uid);
        }
    }
    for (auto* uids : {&state->readUids, &state->writeUids}) {
        std::sort(uids->begin(), uids->end());
        uids->erase(std::unique(uids->begin(), uids->end()), uids->end());
    }
    // Room for one chain event per uid, so even a run's first data-chain
    // waits allocate no list.
    s.chainDeps.reserve(state->readUids.size() + state->writeUids.size());

    const ScheduleKey key = makeScheduleKey(containers, nDev, options.occ, options.maxStreams);
    state->hash = key.hash;

    std::shared_ptr<const ScheduleRecipe> recipe;
    if (options.cache) {
        recipe = ScheduleCache::instance().find(key);
    }
    if (recipe != nullptr) {
        // Cache hit: replay the recipe against the *new* containers —
        // O(nodes + edges), no analysis / OCC / BFS.
        state->graph = instantiateRecipe(*recipe, containers);
        state->tasks = recipe->tasks;
        state->nStreams = recipe->nStreams;
        state->levelCount = recipe->levelCount;
        state->cacheHit = true;
    } else {
        state->graph = buildGraph(containers, nDev);
        applyOcc(state->graph, options.occ, nDev);
        state->graph.transitiveReduce();
        state->tasks = scheduleGraph(state->graph, options.maxStreams, &state->nStreams);
        state->levelCount = levelCountOf(state->graph);
        if (options.cache) {
            ScheduleCache::instance().insert(
                key, std::make_shared<const ScheduleRecipe>(
                         captureRecipe(state->graph, state->tasks, state->nStreams)));
        }
    }
    state->completionEvents = assignEventSlots(state->graph, state->tasks, nDev, state->eventSlot);
    prefetchStreams(s.backend, state->streams, state->nStreams);
    s.state = std::move(state);

    log::debug("skeleton '", s.state->name, "': ", s.state->graph.aliveCount(), " nodes, ",
               s.state->tasks.size(), " tasks, ", s.state->nStreams,
               " streams, occ=", to_string(options.occ),
               s.state->cacheHit ? ", schedule cache hit" : ", schedule cache miss");

    // NEON_ANALYSIS=1: lint every schedule as it is built and arm the race
    // detector over this backend's command stream (docs/analysis.md).
    if (analysis::envEnabled()) {
        analysis::installEnvHooks(s.backend);
        analysis::reportEnvViolations("graph lint ('" + s.state->name + "')", validate());
    }

    CompiledSchedule handle;
    handle.mImpl = std::make_shared<CompiledSchedule::Impl>(*this, s.state);
    return handle;
}

analysis::AnalysisReport Skeleton::validate() const
{
    const Impl& s = *mImpl;
    NEON_CHECK(s.state != nullptr, "Skeleton::sequence must be called before validate()");
    return analysis::lintSchedule(s.state->graph, s.state->tasks, s.state->nStreams,
                                  s.backend.devCount());
}

analysis::AnalysisReport Skeleton::validate(ValidateMode mode)
{
    analysis::AnalysisReport rep = std::as_const(*this).validate();
    if (mode == ValidateMode::Static) {
        return rep;
    }
    // Deep: run the active schedule once through the sanitized trampolines
    // (this advances field state like any run), then diff the observations
    // scoped to exactly this graph's containers.
    Impl& s = *mImpl;
    auto  state = s.state;
    const bool prev = state->options.sanitize;
    state->options.sanitize = true;
    run();
    sync();
    state->options.sanitize = prev;
    std::vector<uint64_t> seqs;
    for (int id = 0; id < state->graph.nodeCount(); ++id) {
        const GraphNode& n = state->graph.node(id);
        if (n.alive) {
            seqs.push_back(n.container.sanitizeSeq());
        }
    }
    rep.merge(analysis::AccessSanitizer::diff(seqs));
    return rep;
}

void Skeleton::debugMutateGraph(const std::function<void(Graph&)>& fn)
{
    Impl& s = *mImpl;
    NEON_CHECK(s.state != nullptr, "Skeleton::sequence must be called before debugMutateGraph()");
    // Copy-on-write: outstanding CompiledSchedule handles keep the old
    // state (and become superseded); the mutation never reaches the cache.
    auto next = std::make_shared<ScheduleState>(*s.state);
    fn(next->graph);
    next->tasks = scheduleGraph(next->graph, next->options.maxStreams, &next->nStreams);
    next->levelCount = levelCountOf(next->graph);
    next->cacheHit = false;
    next->metaCache.reset();
    next->completionEvents =
        assignEventSlots(next->graph, next->tasks, s.backend.devCount(), next->eventSlot);
    prefetchStreams(s.backend, next->streams, next->nStreams);
    s.state = std::move(next);
}

void Skeleton::debugMutateTasks(const std::function<void(std::vector<Task>&)>& fn)
{
    Impl& s = *mImpl;
    NEON_CHECK(s.state != nullptr, "Skeleton::sequence must be called before debugMutateTasks()");
    auto next = std::make_shared<ScheduleState>(*s.state);
    fn(next->tasks);
    next->completionEvents =
        assignEventSlots(next->graph, next->tasks, s.backend.devCount(), next->eventSlot);
    s.state = std::move(next);
}

void Skeleton::run()
{
    run(RunScope{});
}

void Skeleton::run(const RunScope& scope)
{
    Impl& s = *mImpl;
    NEON_CHECK(s.state != nullptr, "Skeleton::sequence must be called before run()");
    NEON_CHECK(scope.streamBase >= 0, "Skeleton::run: streamBase must be non-negative");
    NEON_CHECK(s.state->geomEpoch == s.backend.geometryEpoch(),
               "Skeleton::run: partition geometry changed since sequence() (epoch " +
                   std::to_string(s.state->geomEpoch) + " -> " +
                   std::to_string(s.backend.geometryEpoch()) +
                   "); rebuild the containers and re-sequence()");
    const int nDev = s.backend.devCount();

    // Open/extend the observability run window. runBody attributes every op
    // of the run to its run id (and, per task, its graph-node id) so the
    // trace can be sliced per window and errors name their container.
    const int runId = s.backend.engine().trace().nextRunId();
    if (s.windowClosed) {
        s.windowFirst = runId;
        s.windowClosed = false;
    }
    s.windowLast = runId;

    // While race analysis is on, give it the graph that issues this run so
    // the detector can attach read/write sets to the run's ops.
    if (auto* races = analysis::RaceSession::of(s.backend.engine())) {
        if (s.state->metaCache == nullptr) {
            s.state->metaCache = analysis::metaMapFor(s.state->graph, nDev);
        }
        races->registerRun(runId, s.state->metaCache);
    }

    try {
        runBody(runId, scope);
    } catch (const RuntimeError& e) {
        s.windowClosed = true;
        rethrowEnriched(s.state->graph, e);
    }
}

sys::EventPtr Skeleton::lastRunTail() const
{
    return mImpl->lastTail;
}

void Skeleton::runBody(int runId, const RunScope& scope)
{
    Impl& s = *mImpl;
    // Pin the state: a container-launched host function could in principle
    // re-sequence() this skeleton mid-run.
    const std::shared_ptr<ScheduleState> statePtr = s.state;
    ScheduleState&                       st = *statePtr;
    const int                            nDev = s.backend.devCount();
    // Data-chain waits and the tail barrier belong to the run, not a node.
    const sys::OpAttribution runAttr{-1, runId, scope.jobId};

    // Leased runs resolve their stream block here instead of using the
    // base-0 pointers prefetched at sequence() time; the extra lookups only
    // hit the service dispatch path.
    std::vector<sys::Stream*> leasedStreams;
    if (scope.streamBase != 0) {
        leasedStreams.resize(static_cast<size_t>(nDev) * static_cast<size_t>(st.nStreams));
        for (int d = 0; d < nDev; ++d) {
            for (int stIdx = 0; stIdx < st.nStreams; ++stIdx) {
                leasedStreams[static_cast<size_t>(d * st.nStreams + stIdx)] =
                    &s.backend.stream(d, scope.streamBase + stIdx);
            }
        }
    }
    const std::vector<sys::Stream*>& streamTab =
        scope.streamBase != 0 ? leasedStreams : st.streams;
    auto streamAt = [&](int d, int idx) -> sys::Stream& {
        return *streamTab[static_cast<size_t>(d * st.nStreams + idx)];
    };

    // Inter-run ordering: successive runs touching the same data objects
    // chain through the backend's per-uid event tails (writers wait the
    // last write and every read since it; readers wait the last write).
    // Runs over disjoint uid sets share no events and overlap freely —
    // that is what lets independent service jobs fill each other's
    // transfer gaps. The chains live on the *backend*, not this skeleton:
    // alternating skeletons (e.g. the even/odd steps of a ping-pong LBM)
    // are chained too.
    if (scope.chainData) {
        std::vector<const sys::Event*>& deps = s.chainDeps;
        s.backend.dataBarriers().acquire(st.readUids, st.writeUids, deps);
        for (const sys::Event* dep : deps) {
            // Every stream of this run waits: the dep may have been
            // recorded on any stream of any previous run (no FIFO shortcut
            // is safe across leases).
            for (int d = 0; d < nDev; ++d) {
                for (int stIdx = 0; stIdx < st.nStreams; ++stIdx) {
                    streamAt(d, stIdx).wait(*dep, runAttr);
                }
            }
        }
        deps.clear();  // keeps the capacity for the next run
    }

    // One event block per run: the completion events (nDev per recording
    // node, in task order), then nDev * nStreams tail events. Ops borrow
    // their event for the enqueue call only, so the block dies with the run.
    const int  tailBase = st.completionEvents;
    const auto events =
        std::make_unique<sys::Event[]>(static_cast<size_t>(tailBase + nDev * st.nStreams));

    for (const Task& t : st.tasks) {
        const GraphNode&         n = st.graph.node(t.nodeId);
        const sys::OpAttribution attr{t.nodeId, runId, scope.jobId};
        // A scalar task (reduce combine, scalarOp) launches on device 0
        // only, so it waits and records there only: every consumer reads
        // its device-0 event (WaitScope::Root).
        const int devs = n.kind() == set::Container::Kind::ScalarOp ? 1 : nDev;
        for (int d = 0; d < devs; ++d) {
            sys::Stream& stream = streamAt(d, t.stream);
            for (const auto& w : t.waits) {
                const int ev = st.eventSlot[static_cast<size_t>(w.parent)];
                switch (w.scope) {
                    case WaitScope::SameDev:
                        stream.wait(events[ev + d], attr);
                        break;
                    case WaitScope::Neighbours:
                        for (int dd = std::max(d - 1, 0); dd <= std::min(d + 1, nDev - 1); ++dd) {
                            stream.wait(events[ev + dd], attr);
                        }
                        break;
                    case WaitScope::Root:
                        stream.wait(events[ev], attr);
                        break;
                    case WaitScope::All:
                        for (int dd = 0; dd < nDev; ++dd) {
                            stream.wait(events[ev + dd], attr);
                        }
                        break;
                }
            }
            n.container.launch(d, stream, n.view, st.options.sanitize, attr);
            if (n.needsEvent) {
                stream.record(events[st.eventSlot[static_cast<size_t>(t.nodeId)] + d], attr);
            }
        }
    }

    // Record the tail barrier: the run's stream (0, base) gathers every
    // other stream's tail event and records one barrier whose virtual
    // timestamp is the run's completion time. The barrier outlives the run
    // (DataBarriers, lastRunTail()), so it is the one shared event.
    for (int d = 0; d < nDev; ++d) {
        for (int stIdx = 0; stIdx < st.nStreams; ++stIdx) {
            if (d == 0 && stIdx == 0) {
                continue;
            }
            sys::Event& tail = events[tailBase + d * st.nStreams + stIdx];
            streamAt(d, stIdx).record(tail, runAttr);
            streamAt(0, 0).wait(tail, runAttr);
        }
    }
    auto barrier = std::make_shared<sys::Event>();
    streamAt(0, 0).record(*barrier, runAttr);
    if (scope.chainData) {
        s.backend.dataBarriers().publish(st.readUids, st.writeUids, barrier);
    }
    s.lastTail = std::move(barrier);
}

void Skeleton::sync()
{
    try {
        mImpl->backend.sync();
    } catch (const RuntimeError& e) {
        mImpl->windowClosed = true;
        static const Graph kEmpty;
        rethrowEnriched(mImpl->state ? mImpl->state->graph : kEmpty, e);
    }
    mImpl->windowClosed = true;
}

const Graph& Skeleton::graph() const
{
    static const Graph kEmpty;
    return mImpl->state ? mImpl->state->graph : kEmpty;
}

const std::vector<Task>& Skeleton::taskList() const
{
    static const std::vector<Task> kEmpty;
    return mImpl->state ? mImpl->state->tasks : kEmpty;
}

int Skeleton::streamCount() const
{
    return mImpl->state ? mImpl->state->nStreams : 1;
}

const std::string& Skeleton::name() const
{
    static const std::string kDefault = "app";
    return mImpl->state ? mImpl->state->name : kDefault;
}

set::Backend& Skeleton::backend()
{
    return mImpl->backend;
}

CompiledSchedule Skeleton::compiled() const
{
    NEON_CHECK(mImpl->state != nullptr, "Skeleton::sequence must be called before compiled()");
    CompiledSchedule handle;
    handle.mImpl = std::make_shared<CompiledSchedule::Impl>(Skeleton(*this), mImpl->state);
    return handle;
}

std::pair<int, int> Skeleton::runWindow() const
{
    return {mImpl->windowFirst, mImpl->windowLast};
}

ExecutionReport Skeleton::executionReport() const
{
    const Impl& s = *mImpl;
    if (s.windowFirst < 0) {
        return ExecutionReport::fromEntries({}, s.backend.devCount());
    }
    const auto entries =
        s.backend.engine().trace().entriesForRuns(s.windowFirst, s.windowLast);
    return ExecutionReport::fromEntries(entries, s.backend.devCount());
}

std::string Skeleton::describe() const
{
    const Impl& s = *mImpl;
    NEON_CHECK(s.state != nullptr, "Skeleton::sequence must be called before describe()");
    const ScheduleState& st = *s.state;
    return describeSchedule(st.name, s.backend.toString(), st.options.occ, st.nStreams, st.graph,
                            st.tasks);
}

// --- CompiledSchedule ------------------------------------------------------

bool CompiledSchedule::current() const
{
    return mImpl != nullptr && mImpl->skeleton.mImpl->state == mImpl->state;
}

uint64_t CompiledSchedule::structuralHash() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return mImpl->state->hash;
}

bool CompiledSchedule::cacheHit() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return mImpl->state->cacheHit;
}

const std::string& CompiledSchedule::name() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return mImpl->state->name;
}

int CompiledSchedule::nodeCount() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return mImpl->state->graph.aliveCount();
}

int CompiledSchedule::levelCount() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return mImpl->state->levelCount;
}

int CompiledSchedule::streamCount() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return mImpl->state->nStreams;
}

int CompiledSchedule::taskCount() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return static_cast<int>(mImpl->state->tasks.size());
}

const Graph& CompiledSchedule::graph() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return mImpl->state->graph;
}

const std::vector<Task>& CompiledSchedule::taskList() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    return mImpl->state->tasks;
}

void CompiledSchedule::run()
{
    run(RunScope{});
}

void CompiledSchedule::run(const RunScope& scope)
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    NEON_CHECK(current(),
               "CompiledSchedule::run: superseded by a later sequence()/mutation on the "
               "owning skeleton");
    mImpl->skeleton.run(scope);
}

void CompiledSchedule::sync()
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    mImpl->skeleton.sync();
}

analysis::AnalysisReport CompiledSchedule::lint() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    const Skeleton::ScheduleState& st = *mImpl->state;
    return analysis::lintSchedule(st.graph, st.tasks, st.nStreams,
                                  mImpl->skeleton.mImpl->backend.devCount());
}

std::string CompiledSchedule::describe() const
{
    NEON_CHECK(mImpl != nullptr, "CompiledSchedule: empty handle (default-constructed)");
    const Skeleton::ScheduleState& st = *mImpl->state;
    return describeSchedule(st.name, mImpl->skeleton.mImpl->backend.toString(), st.options.occ,
                            st.nStreams, st.graph, st.tasks);
}

}  // namespace neon::skeleton
