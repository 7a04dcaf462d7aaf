// buildGraph on the paper's running example (Fig. 4): a map (axpy), a
// stencil (laplace) and a reduction (dot). Verifies RaW/WaR edges, halo
// insertion, the coherency flag, combine-node expansion and the redundant
// edge removed by transitive reduction.

#include <gtest/gtest.h>

#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "patterns/blas.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {

using set::Backend;
using set::Container;
using set::GlobalScalar;

namespace {

struct Fig4App
{
    dgrid::DGrid         grid;
    dgrid::DField<float> X;
    dgrid::DField<float> Y;
    GlobalScalar<float>  a;
    GlobalScalar<float>  r;
    Container            axpy;     // X += a*Y          (MapOp)
    Container            laplace;  // Y = laplacian(X)  (StencilOp)
    Container            dot;      // r = X . Y         (ReduceOp)

    explicit Fig4App(int nDev)
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

    [[nodiscard]] std::vector<Container> sequence() const { return {axpy, laplace, dot}; }
};

/// Find the single alive node whose label matches.
int findNode(const Graph& g, const std::string& label)
{
    int found = -1;
    for (int i = 0; i < g.nodeCount(); ++i) {
        if (g.node(i).alive && g.node(i).label() == label) {
            EXPECT_EQ(found, -1) << "duplicate node " << label;
            found = i;
        }
    }
    EXPECT_GE(found, 0) << "node not found: " << label;
    return found;
}

}  // namespace

TEST(BuildGraph, SingleDeviceHasNoHaloNodes)
{
    Fig4App app(1);
    Graph   g = buildGraph(app.sequence(), 1);
    // axpy, laplace, dot-kernel, dot-combine.
    EXPECT_EQ(g.aliveCount(), 4);
    for (int i = 0; i < g.nodeCount(); ++i) {
        EXPECT_NE(g.node(i).kind(), Container::Kind::Halo);
        EXPECT_TRUE(g.node(i).coherent);
    }
}

TEST(BuildGraph, MultiDeviceInsertsHaloBeforeStencil)
{
    Fig4App app(2);
    Graph   g = buildGraph(app.sequence(), 2);
    EXPECT_EQ(g.aliveCount(), 5);

    const int axpy = findNode(g, "axpy");
    const int halo = findNode(g, "halo(X)");
    const int laplace = findNode(g, "laplace");
    const int dot = findNode(g, "dot");
    const int combine = findNode(g, "combine(r)");

    // Paper Fig. 4c: axpy -> halo -> laplace; laplace -> dot -> combine.
    EXPECT_TRUE(g.hasDataEdge(axpy, halo));
    EXPECT_TRUE(g.hasDataEdge(halo, laplace));
    EXPECT_TRUE(g.hasDataEdge(laplace, dot));
    EXPECT_TRUE(g.hasDataEdge(dot, combine));
    // laplace writes Y which axpy read: WaR (paper §V-A).
    EXPECT_TRUE(g.hasEdge(axpy, laplace, EdgeKind::WaR));
    // The stencil node is flagged incoherent (needed a halo update).
    EXPECT_FALSE(g.node(laplace).coherent);
    EXPECT_TRUE(g.node(axpy).coherent);
}

TEST(BuildGraph, PatternFlagsMatchPaper)
{
    Fig4App app(2);
    Graph   g = buildGraph(app.sequence(), 2);
    EXPECT_EQ(g.node(findNode(g, "axpy")).pattern(), Compute::MAP);
    EXPECT_EQ(g.node(findNode(g, "laplace")).pattern(), Compute::STENCIL);
    EXPECT_EQ(g.node(findNode(g, "dot")).pattern(), Compute::REDUCE);
    EXPECT_EQ(g.node(findNode(g, "combine(r)")).kind(), Container::Kind::ScalarOp);
    for (int i = 0; i < g.nodeCount(); ++i) {
        EXPECT_EQ(g.node(i).view, DataView::STANDARD);
    }
}

TEST(BuildGraph, TransitiveReductionRemovesRedundantDotDependency)
{
    // dot reads X (written by halo) and Y (written by laplace). The direct
    // halo->dot edge is covered by halo->laplace->dot and must be removed —
    // the paper's "dependency ... removed as redundant" (Fig. 4c).
    Fig4App app(2);
    Graph   g = buildGraph(app.sequence(), 2);
    const int halo = findNode(g, "halo(X)");
    const int dot = findNode(g, "dot");
    EXPECT_TRUE(g.hasDataEdge(halo, dot));
    g.transitiveReduce();
    EXPECT_FALSE(g.hasDataEdge(halo, dot));
    EXPECT_TRUE(g.hasDataEdge(findNode(g, "laplace"), dot));
}

TEST(BuildGraph, HaloNotReinsertedWhenFresh)
{
    // Two consecutive stencils on the same (unmodified) field: one halo.
    Fig4App app(2);
    auto    g = buildGraph({app.laplace, app.dot, app.laplace}, 2);
    int     halos = 0;
    for (int i = 0; i < g.nodeCount(); ++i) {
        if (g.node(i).alive && g.node(i).kind() == Container::Kind::Halo) {
            ++halos;
        }
    }
    EXPECT_EQ(halos, 1);
}

TEST(BuildGraph, HaloReinsertedAfterWrite)
{
    // stencil, map writes X, stencil again: two halo updates needed.
    Fig4App app(2);
    auto    g = buildGraph({app.laplace, app.axpy, app.laplace}, 2);
    int     halos = 0;
    for (int i = 0; i < g.nodeCount(); ++i) {
        if (g.node(i).alive && g.node(i).kind() == Container::Kind::Halo) {
            ++halos;
        }
    }
    EXPECT_EQ(halos, 2);
}

TEST(BuildGraph, WaWBetweenConsecutiveWriters)
{
    Fig4App app(1);
    // laplace writes Y twice in a row -> WaW edge.
    auto g = buildGraph({app.laplace, app.laplace}, 1);
    EXPECT_EQ(g.aliveCount(), 2);
    EXPECT_TRUE(g.hasEdge(0, 1, EdgeKind::RaW) || g.hasEdge(0, 1, EdgeKind::WaW));
}

TEST(BuildGraph, ScopesFollowNodeKinds)
{
    Fig4App app(2);
    Graph   g = buildGraph(app.sequence(), 2);
    const int axpy = findNode(g, "axpy");
    const int halo = findNode(g, "halo(X)");
    const int laplace = findNode(g, "laplace");
    const int dot = findNode(g, "dot");
    const int combine = findNode(g, "combine(r)");
    // Any edge touching a halo node is neighbour-scoped: the halo writes
    // into the neighbours' memory.
    EXPECT_EQ(g.waitScope(axpy, halo), WaitScope::Neighbours);
    EXPECT_EQ(g.waitScope(halo, laplace), WaitScope::Neighbours);
    EXPECT_EQ(g.waitScope(dot, combine), WaitScope::All);
    // A map reading the scalar written by combine waits on device 0 only.
    auto readA = patterns::axpy(app.grid, app.r, app.Y, app.X, "useR");
    auto g2 = buildGraph({app.dot, readA}, 2);
    const int comb2 = findNode(g2, "combine(r)");
    const int use = findNode(g2, "useR");
    EXPECT_TRUE(g2.hasDataEdge(comb2, use));
    EXPECT_EQ(g2.waitScope(comb2, use), WaitScope::Root);
    // A scalarOp reading the scalar written by combine: both run on device
    // 0, so the scalar -> scalar edge waits on device 0 only.
    GlobalScalar<float> s(app.grid.backend(), "s", 0.0f);
    auto scal = Container::scalarOp<float>("scaleR", app.grid.backend(), {app.r}, {s},
                                           [r = app.r, s]() mutable { s.set(2.0f * r.hostValue()); });
    auto g3 = buildGraph({app.dot, scal}, 2);
    const int comb3 = findNode(g3, "combine(r)");
    const int scale = findNode(g3, "scaleR");
    EXPECT_TRUE(g3.hasDataEdge(comb3, scale));
    EXPECT_EQ(g3.waitScope(comb3, scale), WaitScope::Root);
}

}  // namespace neon::skeleton
