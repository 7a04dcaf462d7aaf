// OCC graph transforms (paper §V-B): node splits, edge rewiring, hints.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "patterns/blas.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {

using set::Backend;
using set::Container;
using set::GlobalScalar;

namespace {

struct App
{
    dgrid::DGrid         grid;
    dgrid::DField<float> X;
    dgrid::DField<float> Y;
    GlobalScalar<float>  a;
    GlobalScalar<float>  r;
    Container            axpy;     // X += a*Y
    Container            laplace;  // Y = lap(X)
    Container            dot;      // r = X.Y

    explicit App(int nDev)
        : grid(Backend::cpu(nDev), {4, 4, 8 * nDev}, Stencil::laplace7()),
          X(grid.newField<float>("X", 1, 0.0f)),
          Y(grid.newField<float>("Y", 1, 0.0f)),
          a(grid.backend(), "a", 0.5f),
          r(grid.backend(), "r", 0.0f)
    {
        axpy = patterns::axpy(grid, a, Y, X, "axpy");
        laplace = grid.newContainer("laplace", [this](auto& l) {
            auto xp = l.load(X, Access::READ, Compute::STENCIL);
            auto yp = l.load(Y, Access::WRITE);
            return [=](const dgrid::DCell& cell) mutable {
                float acc = -6.0f * xp(cell);
                for (const auto& off : Stencil::laplace7().points()) {
                    acc += xp.nghVal(cell, off);
                }
                yp(cell) = acc;
            };
        });
        dot = patterns::dot(grid, X, Y, r, "dot");
    }
};

int find(const Graph& g, const std::string& label)
{
    for (int i = 0; i < g.nodeCount(); ++i) {
        if (g.node(i).alive && g.node(i).label() == label) {
            return i;
        }
    }
    ADD_FAILURE() << "node not found: " << label;
    return -1;
}

bool exists(const Graph& g, const std::string& label)
{
    for (int i = 0; i < g.nodeCount(); ++i) {
        if (g.node(i).alive && g.node(i).label() == label) {
            return true;
        }
    }
    return false;
}

Graph makeGraph(const App& app, Occ occ, int nDev)
{
    Graph g = buildGraph({app.axpy, app.laplace, app.dot}, nDev);
    applyOcc(g, occ, nDev);
    return g;
}

}  // namespace

TEST(Occ, NoneKeepsGraphUntouched)
{
    App   app(2);
    Graph g = makeGraph(app, Occ::NONE, 2);
    EXPECT_EQ(g.aliveCount(), 5);
    EXPECT_TRUE(exists(g, "laplace"));
}

TEST(Occ, SingleDeviceIsNeverSplit)
{
    App   app(1);
    Graph g = makeGraph(app, Occ::TWO_WAY, 1);
    EXPECT_EQ(g.aliveCount(), 4);  // no halo, no splits
    EXPECT_TRUE(exists(g, "laplace"));
}

TEST(Occ, StandardSplitsStencilOnly)
{
    App   app(2);
    Graph g = makeGraph(app, Occ::STANDARD, 2);
    // axpy, halo, laplace.int, laplace.bdr, dot, combine
    EXPECT_EQ(g.aliveCount(), 6);
    EXPECT_FALSE(exists(g, "laplace"));
    const int halo = find(g, "halo(X)");
    const int si = find(g, "laplace.int");
    const int sb = find(g, "laplace.bdr");
    const int axpy = find(g, "axpy");
    const int dot = find(g, "dot");

    // Halo feeds only the boundary half; both halves feed the child.
    EXPECT_FALSE(g.hasDataEdge(halo, si));
    EXPECT_TRUE(g.hasDataEdge(halo, sb));
    EXPECT_TRUE(g.hasDataEdge(axpy, si));
    EXPECT_TRUE(g.hasDataEdge(axpy, sb));
    EXPECT_TRUE(g.hasDataEdge(si, dot));
    EXPECT_TRUE(g.hasDataEdge(sb, dot));
    // Scheduling hint: halo before internal stencil (paper Fig. 4d).
    EXPECT_TRUE(g.hasEdge(halo, si, EdgeKind::Hint));
    EXPECT_EQ(g.node(si).view, DataView::INTERNAL);
    EXPECT_EQ(g.node(sb).view, DataView::BOUNDARY);
}

TEST(Occ, ExtendedAlsoSplitsUpstreamMap)
{
    App   app(2);
    Graph g = makeGraph(app, Occ::EXTENDED, 2);
    // axpy.int, axpy.bdr, halo, laplace.int, laplace.bdr, dot, combine
    EXPECT_EQ(g.aliveCount(), 7);
    EXPECT_FALSE(exists(g, "axpy"));
    const int pi = find(g, "axpy.int");
    const int pb = find(g, "axpy.bdr");
    const int halo = find(g, "halo(X)");
    const int si = find(g, "laplace.int");
    const int sb = find(g, "laplace.bdr");

    // Only the boundary map gates the halo transfers.
    EXPECT_TRUE(g.hasDataEdge(pb, halo));
    EXPECT_FALSE(g.hasDataEdge(pi, halo));
    // The stencil halves still need both map halves (neighbour reads cross
    // the internal/boundary line within a partition).
    EXPECT_TRUE(g.hasDataEdge(pi, si));
    EXPECT_TRUE(g.hasDataEdge(pb, si));
    EXPECT_TRUE(g.hasDataEdge(pi, sb));
    EXPECT_TRUE(g.hasDataEdge(pb, sb));
    // Boundary map launches first.
    EXPECT_TRUE(g.hasEdge(pb, pi, EdgeKind::Hint));
}

TEST(Occ, TwoWaySplitsDownstreamReduceWithOrderingEdge)
{
    App   app(2);
    Graph g = makeGraph(app, Occ::TWO_WAY, 2);
    // axpy.int/bdr, halo, laplace.int/bdr, dot.int/bdr, combine
    EXPECT_EQ(g.aliveCount(), 8);
    const int si = find(g, "laplace.int");
    const int sb = find(g, "laplace.bdr");
    const int di = find(g, "dot.int");
    const int db = find(g, "dot.bdr");
    const int combine = find(g, "combine(r)");

    // View-aligned dependencies (map/reduce reads are cell-local).
    EXPECT_TRUE(g.hasDataEdge(si, di));
    EXPECT_FALSE(g.hasDataEdge(sb, di));
    EXPECT_TRUE(g.hasDataEdge(sb, db));
    EXPECT_FALSE(g.hasDataEdge(si, db));
    // Paper: data dependency between internal and boundary reduce halves.
    EXPECT_TRUE(g.hasDataEdge(di, db));
    // Both halves feed the combine.
    EXPECT_TRUE(g.hasDataEdge(di, combine));
    EXPECT_TRUE(g.hasDataEdge(db, combine));
}

TEST(Occ, ScalarOpsAreNeverSplit)
{
    App  app(2);
    auto useR = patterns::axpy(app.grid, app.r, app.Y, app.X, "useR");
    Graph g = buildGraph({app.laplace, app.dot, useR}, 2);
    applyOcc(g, Occ::TWO_WAY, 2);
    EXPECT_TRUE(exists(g, "combine(r)"));
    EXPECT_FALSE(exists(g, "combine(r).int"));
}

TEST(Occ, GraphStaysAcyclicAcrossVariants)
{
    for (int nDev : {2, 4}) {
        App app(nDev);
        for (Occ occ : {Occ::NONE, Occ::STANDARD, Occ::EXTENDED, Occ::TWO_WAY}) {
            Graph g = makeGraph(app, occ, nDev);
            EXPECT_NO_THROW(g.bfsLevels(true)) << to_string(occ) << " nDev=" << nDev;
            g.transitiveReduce();
            EXPECT_NO_THROW(g.bfsLevels(true));
        }
    }
}

TEST(Occ, SchedulerAssignsStreamsWithinLevels)
{
    App   app(2);
    Graph g = makeGraph(app, Occ::STANDARD, 2);
    g.transitiveReduce();
    int  nStreams = 0;
    auto tasks = scheduleGraph(g, 8, &nStreams);
    EXPECT_GE(nStreams, 2);  // halo and internal stencil overlap
    EXPECT_EQ(tasks.size(), static_cast<size_t>(g.aliveCount()));
    // Independent same-level nodes must not share a stream (width allows).
    for (const auto& level : g.bfsLevels(false)) {
        std::vector<int> used;
        for (int id : level) {
            EXPECT_EQ(std::count(used.begin(), used.end(), g.node(id).stream), 0);
            used.push_back(g.node(id).stream);
        }
    }
}

TEST(Occ, SameStreamSameDevDependencySkipsEvent)
{
    App   app(2);
    Graph g = buildGraph({app.axpy, app.axpy}, 2);  // WaW chain, same stream
    g.transitiveReduce();
    int  nStreams = 0;
    auto tasks = scheduleGraph(g, 8, &nStreams);
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_EQ(tasks[1].waits.size(), 0u);  // FIFO order suffices
    EXPECT_FALSE(g.node(tasks[0].nodeId).needsEvent);
}

TEST(Occ, TaskOrderIsTopological)
{
    for (Occ occ : {Occ::STANDARD, Occ::EXTENDED, Occ::TWO_WAY}) {
        App   app(4);
        Graph g = makeGraph(app, occ, 4);
        g.transitiveReduce();
        int  nStreams = 0;
        auto tasks = scheduleGraph(g, 8, &nStreams);
        std::vector<int> pos(static_cast<size_t>(g.nodeCount()), -1);
        for (size_t i = 0; i < tasks.size(); ++i) {
            pos[static_cast<size_t>(tasks[i].nodeId)] = static_cast<int>(i);
        }
        for (const auto& e : g.edges()) {
            EXPECT_LT(pos[static_cast<size_t>(e.from)], pos[static_cast<size_t>(e.to)])
                << to_string(occ);
        }
    }
}

namespace {

/// One op of a skeleton-fuzz sequence (tests/fuzz/test_skeleton_fuzz.cpp):
/// "sten" reads fa through a 7-point stencil into fb, "map" blends fa into
/// fb, "dot" reduces fa . fb into s1, "scal" mixes s0 and s1 into s0.
struct FuzzOp
{
    std::string op;
    int         a = 0;
    int         b = 0;
};

/// Build `ops` over 4 fields on `nDev` CPU devices under two-way OCC; the
/// schedule must lint clean and three runs must be race free.
void expectTwoWayScheduleClean(index_3d dim, int nDev, int maxStreams,
                               const std::vector<FuzzOp>& ops)
{
    Backend      backend = Backend::cpu(nDev);
    dgrid::DGrid grid(backend, dim, Stencil::laplace7());
    GlobalScalar<double> s0(backend, "s0", 0.3);
    GlobalScalar<double> s1(backend, "s1", 0.7);
    std::vector<dgrid::DField<double>> f;
    for (int i = 0; i < 4; ++i) {
        f.push_back(grid.newField<double>("f" + std::to_string(i), 1, 0.1 * i + 0.05));
    }
    std::vector<Container> seq;
    for (size_t k = 0; k < ops.size(); ++k) {
        const std::string name = ops[k].op + std::to_string(k);
        auto              src = f[static_cast<size_t>(ops[k].a)];
        auto              dst = f[static_cast<size_t>(ops[k].b)];
        if (ops[k].op == "sten") {
            seq.push_back(grid.newContainer(name, [src, dst](auto& l) mutable {
                auto sp = l.load(src, Access::READ, Compute::STENCIL);
                auto dp = l.load(dst, Access::WRITE);
                return [=](const dgrid::DCell& c) mutable {
                    double acc = -6.0 * sp(c);
                    for (const auto& off : Stencil::laplace7().points()) {
                        acc += sp.nghVal(c, off);
                    }
                    dp(c) = sp(c) + 0.05 * acc;
                };
            }));
        } else if (ops[k].op == "map") {
            seq.push_back(grid.newContainer(name, [src, dst, s = s0](auto& l) mutable {
                auto sp = l.load(src, Access::READ);
                auto dp = l.load(dst, Access::WRITE);
                auto sv = l.load(s, Access::READ);
                return [=](const dgrid::DCell& c) mutable {
                    dp(c) = 0.9 * dp(c) + sv() * sp(c) + 0.01;
                };
            }));
        } else if (ops[k].op == "dot") {
            seq.push_back(patterns::dot(grid, src, dst, s1, name));
        } else {
            seq.push_back(Container::scalarOp<double>(
                name, backend, {s0, s1}, {s0}, [x = s0, y = s1]() mutable {
                    x.set(0.5 * x.hostValue() + y.hostValue() / (1.0 + std::abs(y.hostValue())));
                }));
        }
    }

    auto analyzer = backend.analysis();
    analyzer.enable();
    Skeleton skl(backend);
    skl.sequence(seq, SequenceOptions().withOcc(Occ::TWO_WAY).withMaxStreams(maxStreams));
    const auto lint = skl.validate();
    EXPECT_TRUE(lint.clean()) << lint.toString();
    for (int r = 0; r < 3; ++r) {
        skl.run();
    }
    skl.sync();
    const auto races = analyzer.raceReport();
    EXPECT_TRUE(races.clean()) << races.toString();
}

}  // namespace

// A two-way split child (map4 after sten3) that writes a field another
// split stencil (sten2) reads through its stencil: each half of that
// stencil must precede both child halves, not only the matching one.
TEST(Occ, TwoWayOrdersCrossHalfWaRFromOtherSplitStencils)
{
    // Skeleton-fuzz seed 5427.
    expectTwoWayScheduleClean({4, 6, 14}, 2, 2,
                              {{"sten", 0, 1},
                               {"dot", 3, 3},
                               {"sten", 3, 2},
                               {"sten", 1, 0},
                               {"map", 0, 3},
                               {"dot", 3, 2}});
    // Skeleton-fuzz seed 2179.
    expectTwoWayScheduleClean({8, 6, 13}, 4, 5,
                              {{"sten", 1, 3},
                               {"map", 1, 0},
                               {"sten", 1, 2},
                               {"dot", 3, 0},
                               {"sten", 0, 1},
                               {"scal", 0, 2},
                               {"sten", 3, 0},
                               {"map", 2, 3},
                               {"sten", 1, 0}});
}

}  // namespace neon::skeleton
