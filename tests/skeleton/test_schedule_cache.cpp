// Schedule compilation cache (skeleton/schedule_cache.hpp) and the
// CompiledSchedule handle sequence() returns: structural keys must be
// stable across fresh field objects, sensitive to every compilation knob,
// collision-safe on the full encoding, and a cache-replayed schedule must
// be indistinguishable from a recompiled one (same graph shape, clean
// lint, bitwise-equal results).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/analysis.hpp"
#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "patterns/blas.hpp"
#include "skeleton/schedule_cache.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {

using set::Backend;
using set::Container;
using set::GlobalScalar;

namespace {

/// One pipeline instance over its own fresh fields: map -> stencil -> dot
/// -> scalar -> axpy (same shape as the end-to-end exec tests).
struct Pipeline
{
    dgrid::DGrid                 grid;
    dgrid::DField<double>        A, B, C;
    GlobalScalar<double>         s, alpha;
    std::vector<set::Container>  ops;

    explicit Pipeline(const Backend& backend, index_3d dim)
        : grid(backend, dim, Stencil::laplace7()),
          A(grid.newField<double>("A", 1, 0.0)),
          B(grid.newField<double>("B", 1, 0.0)),
          C(grid.newField<double>("C", 1, 0.0)),
          s(backend, "s", 0.0),
          alpha(backend, "alpha", 0.0)
    {
        A.forEachHost([](const index_3d& g, int, double& v) {
            v = 0.01 * g.x + 0.02 * g.y + 0.005 * g.z + 0.1;
        });
        A.updateDev();
        auto mapB = grid.newContainer("mapB", [this](auto& l) {
            auto a = l.load(A, Access::READ);
            auto b = l.load(B, Access::WRITE);
            return [=](const dgrid::DCell& cell) mutable { b(cell) = a(cell) + 1.0; };
        });
        auto stencilC = grid.newContainer("stencilC", [this](auto& l) {
            auto b = l.load(B, Access::READ, Compute::STENCIL);
            auto c = l.load(C, Access::WRITE);
            return [=](const dgrid::DCell& cell) mutable {
                double acc = -6.0 * b(cell);
                for (const auto& off : Stencil::laplace7().points()) {
                    acc += b.nghVal(cell, off);
                }
                c(cell) = acc;
            };
        });
        auto dotBC = patterns::dot(grid, B, C, s, "dotBC");
        auto sc = s;
        auto al = alpha;
        auto alphaOp = Container::scalarOp<double>(
            "alpha", grid.backend(), {s}, {alpha},
            [sc, al]() mutable { al.set(sc.hostValue() / (std::abs(sc.hostValue()) + 100.0)); });
        auto axpyA = patterns::axpy(grid, alpha, C, A, "axpyA");
        ops = {mapB, stencilC, dotBC, alphaOp, axpyA};
    }

    std::vector<double> snapshot()
    {
        A.updateHost();
        std::vector<double> out;
        const index_3d      dim = grid.dim();
        out.resize(static_cast<size_t>(dim.size()));
        dim.forEach([&](const index_3d& g) { out[static_cast<size_t>(dim.pitch(g))] = A.hVal(g); });
        return out;
    }
};

void resetCache()
{
    ScheduleCache::instance().clear();
    ScheduleCache::instance().setCapacity(128);
}

}  // namespace

TEST(ScheduleCache, HitOnStructurallyIdenticalSequenceOverFreshFields)
{
    resetCache();
    Backend  backend = Backend::cpu(2);
    Pipeline p1(backend, {6, 5, 14});
    Skeleton s1(backend);
    const CompiledSchedule c1 =
        s1.sequence(p1.ops, SequenceOptions().withName("first").withOcc(Occ::STANDARD));
    EXPECT_FALSE(c1.cacheHit());

    // Same structure, brand-new fields and containers (fresh uids).
    Pipeline p2(backend, {6, 5, 14});
    Skeleton s2(backend);
    const CompiledSchedule c2 =
        s2.sequence(p2.ops, SequenceOptions().withName("second").withOcc(Occ::STANDARD));
    EXPECT_TRUE(c2.cacheHit());
    EXPECT_EQ(c1.structuralHash(), c2.structuralHash());

    // The replayed schedule is shape-identical to the compiled one.
    EXPECT_EQ(c1.nodeCount(), c2.nodeCount());
    EXPECT_EQ(c1.levelCount(), c2.levelCount());
    EXPECT_EQ(c1.streamCount(), c2.streamCount());
    EXPECT_EQ(c1.taskCount(), c2.taskCount());
    EXPECT_EQ(s1.graph().edges().size(), s2.graph().edges().size());
    ASSERT_EQ(s1.taskList().size(), s2.taskList().size());
    for (size_t i = 0; i < s1.taskList().size(); ++i) {
        EXPECT_EQ(s1.taskList()[i].nodeId, s2.taskList()[i].nodeId);
        EXPECT_EQ(s1.taskList()[i].stream, s2.taskList()[i].stream);
        EXPECT_EQ(s1.taskList()[i].waits.size(), s2.taskList()[i].waits.size());
    }
    // ...and it lints clean against the *new* containers' access records.
    EXPECT_TRUE(s2.validate().clean()) << s2.validate().toString();

    const auto st = ScheduleCache::instance().stats();
    EXPECT_GE(st.hits, 1u);
    EXPECT_GE(st.insertions, 1u);
}

TEST(ScheduleCache, NameIsNotPartOfTheKey)
{
    resetCache();
    Backend  backend = Backend::cpu(2);
    Pipeline p1(backend, {7, 4, 12});
    Skeleton s1(backend);
    const auto c1 = s1.sequence(p1.ops, SequenceOptions().withName("alpha"));
    Pipeline p2(backend, {7, 4, 12});
    Skeleton s2(backend);
    const auto c2 = s2.sequence(p2.ops, SequenceOptions().withName("omega"));
    EXPECT_FALSE(c1.cacheHit());
    EXPECT_TRUE(c2.cacheHit());
    EXPECT_EQ(c2.name(), "omega");  // display name still rebinds
}

TEST(ScheduleCache, EveryCompilationKnobChangesTheKey)
{
    resetCache();
    Backend  backend = Backend::cpu(2);
    Pipeline p(backend, {5, 5, 12});
    Skeleton skl(backend);
    const auto base = skl.sequence(p.ops, SequenceOptions());

    // occ
    const auto occ = skl.sequence(p.ops, SequenceOptions().withOcc(Occ::STANDARD));
    EXPECT_FALSE(occ.cacheHit());
    EXPECT_NE(base.structuralHash(), occ.structuralHash());
    // maxStreams
    const auto streams = skl.sequence(p.ops, SequenceOptions().withMaxStreams(2));
    EXPECT_FALSE(streams.cacheHit());
    EXPECT_NE(base.structuralHash(), streams.structuralHash());
    // device count (also changes span shapes)
    Backend  b3 = Backend::cpu(3);
    Pipeline p3(b3, {5, 5, 12});
    Skeleton s3(b3);
    const auto dev = s3.sequence(p3.ops, SequenceOptions());
    EXPECT_FALSE(dev.cacheHit());
    EXPECT_NE(base.structuralHash(), dev.structuralHash());
    // span sizes (same ops, different dim)
    Pipeline pd(backend, {5, 5, 16});
    Skeleton sd(backend);
    const auto dim = sd.sequence(pd.ops, SequenceOptions());
    EXPECT_FALSE(dim.cacheHit());
    EXPECT_NE(base.structuralHash(), dim.structuralHash());
    // structure (one op dropped)
    auto fewer = p.ops;
    fewer.pop_back();
    const auto drop = skl.sequence(fewer, SequenceOptions());
    EXPECT_FALSE(drop.cacheHit());
    EXPECT_NE(base.structuralHash(), drop.structuralHash());
}

TEST(ScheduleCache, CachedReplayProducesBitwiseEqualResults)
{
    resetCache();
    Backend backend = Backend::cpu(3);

    Pipeline pa(backend, {6, 6, 18});
    Skeleton sa(backend);
    const auto ca =
        sa.sequence(pa.ops, SequenceOptions().withOcc(Occ::STANDARD).withCache(false));
    EXPECT_FALSE(ca.cacheHit());
    for (int it = 0; it < 3; ++it) {
        sa.run();
    }
    sa.sync();
    const auto refA = pa.snapshot();
    const double refS = pa.s.hostValue();

    // Prime the cache with a compile, then replay onto fresh fields.
    Pipeline pb(backend, {6, 6, 18});
    Skeleton sb(backend);
    (void)sb.sequence(pb.ops, SequenceOptions().withOcc(Occ::STANDARD));
    Pipeline pc(backend, {6, 6, 18});
    Skeleton sc(backend);
    auto cc = sc.sequence(pc.ops, SequenceOptions().withOcc(Occ::STANDARD));
    EXPECT_TRUE(cc.cacheHit());
    EXPECT_TRUE(sc.validate().clean()) << sc.validate().toString();
    for (int it = 0; it < 3; ++it) {
        cc.run();
    }
    cc.sync();
    const auto gotA = pc.snapshot();

    ASSERT_EQ(refA.size(), gotA.size());
    for (size_t i = 0; i < refA.size(); ++i) {
        EXPECT_EQ(refA[i], gotA[i]) << "cell " << i;
    }
    EXPECT_EQ(refS, pc.s.hostValue());
}

TEST(ScheduleCache, CacheOffCompilesEveryTime)
{
    resetCache();
    Backend  backend = Backend::cpu(2);
    Pipeline p(backend, {4, 4, 10});
    Skeleton skl(backend);
    const auto c1 = skl.sequence(p.ops, SequenceOptions().withCache(false));
    const auto c2 = skl.sequence(p.ops, SequenceOptions().withCache(false));
    EXPECT_FALSE(c1.cacheHit());
    EXPECT_FALSE(c2.cacheHit());
    const auto st = ScheduleCache::instance().stats();
    EXPECT_EQ(st.size, 0u);
    EXPECT_EQ(st.insertions, 0u);
}

TEST(ScheduleCache, LruEvictionBeyondCapacity)
{
    ScheduleCache cache(2);

    auto keyOf = [](uint64_t tag) {
        ScheduleKey k;
        k.words = {tag};
        k.hash = tag * 1000003ull;
        return k;
    };
    auto recipe = std::make_shared<const ScheduleRecipe>();

    cache.insert(keyOf(1), recipe);
    cache.insert(keyOf(2), recipe);
    EXPECT_NE(cache.find(keyOf(1)), nullptr);  // 1 is now most recent
    cache.insert(keyOf(3), recipe);            // evicts 2 (least recent)
    EXPECT_EQ(cache.find(keyOf(2)), nullptr);
    EXPECT_NE(cache.find(keyOf(1)), nullptr);
    EXPECT_NE(cache.find(keyOf(3)), nullptr);

    const auto st = cache.stats();
    EXPECT_EQ(st.size, 2u);
    EXPECT_EQ(st.capacity, 2u);
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.insertions, 3u);
}

TEST(ScheduleCache, HashCollisionsAreDisambiguatedByFullEncoding)
{
    ScheduleCache cache(8);

    // Two distinct structures forced onto the same 64-bit hash: the cache
    // must keep both and return the right one by full-word comparison.
    ScheduleKey a;
    a.words = {1, 2, 3};
    a.hash = 0xdeadbeef;
    ScheduleKey b;
    b.words = {4, 5, 6};
    b.hash = 0xdeadbeef;

    auto ra = std::make_shared<const ScheduleRecipe>();
    auto rb = std::make_shared<const ScheduleRecipe>();
    cache.insert(a, ra);
    cache.insert(b, rb);

    EXPECT_EQ(cache.find(a), ra);
    EXPECT_EQ(cache.find(b), rb);
    EXPECT_EQ(cache.stats().size, 2u);
}

TEST(CompiledSchedule, SupersededHandleRefusesToRunButStillIntrospects)
{
    resetCache();
    Backend  backend = Backend::cpu(2);
    Pipeline p(backend, {5, 4, 9});
    Skeleton skl(backend);
    CompiledSchedule first = skl.sequence(p.ops, SequenceOptions().withName("v1"));
    EXPECT_TRUE(first.current());

    CompiledSchedule second =
        skl.sequence(p.ops, SequenceOptions().withName("v2").withOcc(Occ::STANDARD));
    EXPECT_FALSE(first.current());
    EXPECT_TRUE(second.current());

    // The snapshot stays fully inspectable and lintable...
    EXPECT_EQ(first.name(), "v1");
    EXPECT_GT(first.taskCount(), 0);
    EXPECT_TRUE(first.lint().clean()) << first.lint().toString();
    EXPECT_FALSE(first.describe().empty());
    // ...but only the active schedule may execute.
    EXPECT_THROW(first.run(), NeonException);
    second.run();
    second.sync();
}

TEST(CompiledSchedule, DebugMutationSupersedesOutstandingHandles)
{
    resetCache();
    Backend  backend = Backend::cpu(2);
    Pipeline p(backend, {4, 5, 11});
    Skeleton skl(backend);
    CompiledSchedule handle = skl.sequence(p.ops, SequenceOptions());
    ASSERT_TRUE(handle.current());
    skl.debugMutateTasks([](std::vector<Task>& tasks) { tasks.pop_back(); });
    EXPECT_FALSE(handle.current());
    EXPECT_THROW(handle.run(), NeonException);
    // The handle's snapshot kept the pre-mutation task list.
    EXPECT_EQ(handle.taskCount(), static_cast<int>(skl.taskList().size()) + 1);
}

TEST(CompiledSchedule, SkeletonCompiledReturnsActiveHandle)
{
    resetCache();
    Backend  backend = Backend::cpu(1);
    Pipeline p(backend, {4, 4, 8});
    Skeleton skl(backend);
    (void)skl.sequence(p.ops, SequenceOptions().withName("active"));
    const CompiledSchedule h = skl.compiled();
    EXPECT_TRUE(h.current());
    EXPECT_EQ(h.name(), "active");
    EXPECT_EQ(h.streamCount(), skl.streamCount());
}

TEST(CompiledSchedule, EmptyHandleThrows)
{
    CompiledSchedule empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_FALSE(empty.current());
    EXPECT_THROW(empty.run(), NeonException);
    EXPECT_THROW((void)empty.structuralHash(), NeonException);
}

TEST(ScheduleCache, CachedReplayLintsIdenticallyToColdCompile)
{
    resetCache();
    Backend backend = Backend::cpu(2);

    Pipeline p1(backend, {16, 16, 32});
    Skeleton s1(backend);
    const CompiledSchedule c1 = s1.sequence(p1.ops, SequenceOptions().withName("cold"));
    EXPECT_FALSE(c1.cacheHit());
    const analysis::AnalysisReport r1 = c1.lint();
    EXPECT_TRUE(r1.clean()) << r1.toString();

    Pipeline p2(backend, {16, 16, 32});
    Skeleton s2(backend);
    const CompiledSchedule c2 = s2.sequence(p2.ops, SequenceOptions().withName("replay"));
    EXPECT_TRUE(c2.cacheHit());
    const analysis::AnalysisReport r2 = c2.lint();

    // The replayed schedule must lint exactly like the cold compile: same
    // violations (none), same pair/op counters, same rendering.
    EXPECT_TRUE(r2.clean()) << r2.toString();
    EXPECT_EQ(r1.opsAnalyzed, r2.opsAnalyzed);
    EXPECT_EQ(r1.pairsChecked, r2.pairsChecked);
    EXPECT_EQ(r1.toString(), r2.toString());
}

TEST(ScheduleCache, CachedReplayKeepsSanitizerAttribution)
{
    // A recipe replay rebinds graph nodes onto the *new* containers through
    // NodeOrigin; the access sanitizer must therefore instrument the new
    // kernels and attribute their violations identically to a cold compile.
    resetCache();
    Backend backend = Backend::cpu(2);

    auto runDeep = [&backend](const char* name) {
        dgrid::DGrid          grid(backend, {8, 8, 16}, Stencil::laplace7());
        dgrid::DField<double> f = grid.newField<double>("f", 1, 1.0);
        auto sneaky = grid.newContainer("sneaky", [f](auto& l) mutable {
            auto p = l.load(f, Access::READ);
            return [=](const dgrid::DCell& c) mutable { p(c) = 2.0; };
        });
        analysis::AccessSanitizer::reset();
        Skeleton skl(backend);
        skl.sequence({sneaky}, SequenceOptions().withName(name));
        const bool hit = skl.compiled().cacheHit();
        const analysis::AnalysisReport rep = skl.validate(ValidateMode::Deep);
        analysis::AccessSanitizer::reset();
        std::string attributed;
        for (const auto& v : rep.violations) {
            if (v.kind == analysis::ViolationKind::WriteViaReadAccess) {
                attributed = v.containerA;
            }
        }
        return std::make_pair(hit, attributed);
    };

    const auto cold = runDeep("cold");
    EXPECT_FALSE(cold.first);
    EXPECT_EQ(cold.second, "sneaky");

    const auto replay = runDeep("replay");
    EXPECT_TRUE(replay.first);
    EXPECT_EQ(replay.second, "sneaky");
}

}  // namespace neon::skeleton
