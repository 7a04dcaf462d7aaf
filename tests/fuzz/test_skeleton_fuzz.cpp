// Property-based skeleton fuzz battery (docs/robustness.md).
//
// Each seed derives a random skeleton — grid shape, field count, device
// count, map/stencil/reduce/scalar mix, OCC mode, stream cap, run count —
// and asserts six properties:
//   1. Skeleton::validate() (the schedule lint) is clean,
//   2. the happens-before race detector is clean,
//   3. a schedule-cache replay of the same structure is bitwise identical
//      to a full recompile and lints clean (docs/performance.md), and so
//      is a run at another host-pool width,
//   4. under a fixed-seed transient FaultPlan, the cached and recompiled
//      schedules fire the identical number of fault events (the fault
//      ordinals are a pure function of the schedule, so a replay that
//      reordered anything would change them),
//   5. the lint reports each of two seeded schedule faults: every wait of
//      one task dropped, one halo-update node killed,
//   6. with one data edge removed and the graph rescheduled, the lint
//      either reports the schedule or the schedule computes the unmutated
//      bits (an edge that a longer path implies is harmless to drop).
// The seed picks each mutation's target.
//
// The battery runs 2000 seeds, sharded 8 x 250 so ctest parallelizes it.
// On failure every assertion prints the seed; reproduce a single seed with
//
//   NEON_FUZZ_SEED=<n> ./test_skeleton_fuzz
//
// which makes every shard run exactly that seed (and only that seed).

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "dgrid/dfield.hpp"
#include "patterns/blas.hpp"
#include "skeleton/schedule_cache.hpp"
#include "skeleton/skeleton.hpp"
#include "sys/fault.hpp"

namespace neon::skeleton {

using set::Backend;
using set::Container;
using set::GlobalScalar;

namespace {

constexpr unsigned kSeedBase = 1000;
constexpr int      kShards = 8;
constexpr int      kSeedsPerShard = 250;

/// Everything one seed decides, derived up front so every execution builds
/// the exact same skeleton.
struct FuzzCase
{
    index_3d dim{0, 0, 0};
    int      nDev = 1;
    int      nFields = 2;
    int      maxStreams = 1;
    int      runs = 1;
    int      hostThreads = 1;  ///< host-pool width (NEON_THREADS overrides)
    Occ      occ = Occ::NONE;
    struct OpDesc
    {
        int op = 0;  ///< 0 map, 1 stencil, 2 dot-reduce, 3 scalar op
        int a = 0;
        int b = 0;
    };
    std::vector<OpDesc> ops;

    explicit FuzzCase(unsigned seed)
    {
        std::mt19937 rng(seed * 2654435761u + 17u);
        auto         pick = [&rng](int lo, int hi) {
            return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
        };
        dim = index_3d{pick(3, 8), pick(3, 7), pick(4, 16)};
        nDev = pick(1, 4);
        nFields = pick(2, 4);
        maxStreams = pick(1, 8);
        runs = pick(1, 3);
        constexpr int kThreadAxis[] = {1, 2, 3, 8};
        hostThreads = kThreadAxis[pick(0, 3)];
        constexpr Occ kOccs[] = {Occ::NONE, Occ::STANDARD, Occ::EXTENDED, Occ::TWO_WAY};
        occ = kOccs[pick(0, 3)];
        const int length = pick(3, 9);
        for (int k = 0; k < length; ++k) {
            OpDesc d;
            d.op = pick(0, 3);
            d.a = pick(0, nFields - 1);
            d.b = pick(0, nFields - 1);
            if (d.op == 1 && d.b == d.a) {
                d.b = (d.a + 1) % nFields;  // stencils must not write their input
            }
            ops.push_back(d);
        }
    }

    [[nodiscard]] std::string toString() const
    {
        static const char* kOpNames[] = {"map", "sten", "dot", "scal"};
        std::string out = "dim=" + std::to_string(dim.x) + "x" + std::to_string(dim.y) + "x" +
                          std::to_string(dim.z) + " nDev=" + std::to_string(nDev) +
                          " nFields=" + std::to_string(nFields) +
                          " maxStreams=" + std::to_string(maxStreams) +
                          " runs=" + std::to_string(runs) +
                          " hostThreads=" + std::to_string(hostThreads) +
                          " occ=" + neon::to_string(occ) +
                          " ops=[";
        for (size_t i = 0; i < ops.size(); ++i) {
            out += std::string(i > 0 ? " " : "") + kOpNames[ops[i].op] + "(f" +
                   std::to_string(ops[i].a) + "->f" + std::to_string(ops[i].b) + ")";
        }
        return out + "]";
    }
};

/// A seeded schedule fault, applied between sequence() and run().
enum class Mutation : uint8_t
{
    None,
    DropWaits,   ///< every wait of one task (debugMutateTasks)
    RemoveEdge,  ///< one data edge, then reschedule (debugMutateGraph)
    KillHalo,    ///< one halo-update node, then reschedule
};

struct Snapshot
{
    std::vector<double> data;
    double              s0v = 0.0;
    double              s1v = 0.0;
    bool                cacheHit = false;
    int                 faultEvents = -1;
    bool                mutated = false;    ///< the mutation found a target
    bool                lintClean = false;  ///< validate() of the (mutated) schedule
};

struct ExecMode
{
    bool useCache = false;       ///< consult/populate the schedule cache
    bool expectCacheHit = false;  ///< assert sequence() was a cache hit
    bool lint = false;            ///< assert validate() is clean
    uint64_t faultSeed = 0;       ///< != 0: fixed-seed transient FaultPlan
    bool sanitize = false;        ///< run instrumented; assert a clean diff
    Mutation mutation = Mutation::None;
    unsigned target = 0;  ///< picks the mutation's target (modulo the candidates)
};

/// Apply `mode.mutation` to `skl`'s schedule; false when the schedule has
/// no candidate target (no task waits, no data edge, no halo node).
bool mutate(Skeleton& skl, const ExecMode& mode)
{
    std::vector<int> candidates;
    switch (mode.mutation) {
        case Mutation::None: return false;
        case Mutation::DropWaits: {
            const auto& tasks = skl.taskList();
            for (int t = 0; t < static_cast<int>(tasks.size()); ++t) {
                if (!tasks[static_cast<size_t>(t)].waits.empty()) {
                    candidates.push_back(t);
                }
            }
            if (candidates.empty()) {
                return false;
            }
            const int t = candidates[mode.target % candidates.size()];
            skl.debugMutateTasks(
                [t](std::vector<Task>& tasks) { tasks[static_cast<size_t>(t)].waits.clear(); });
            return true;
        }
        case Mutation::RemoveEdge: {
            const auto& edges = skl.graph().edges();
            for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
                if (edges[static_cast<size_t>(e)].kind != EdgeKind::Hint) {
                    candidates.push_back(e);
                }
            }
            if (candidates.empty()) {
                return false;
            }
            const GraphEdge edge = edges[static_cast<size_t>(
                candidates[mode.target % candidates.size()])];
            skl.debugMutateGraph([edge](Graph& g) { g.removeEdges(edge.from, edge.to); });
            return true;
        }
        case Mutation::KillHalo: {
            const Graph& g = skl.graph();
            for (int id = 0; id < g.nodeCount(); ++id) {
                if (g.node(id).alive && g.node(id).kind() == Container::Kind::Halo) {
                    candidates.push_back(id);
                }
            }
            if (candidates.empty()) {
                return false;
            }
            const int halo = candidates[mode.target % candidates.size()];
            skl.debugMutateGraph([halo](Graph& graph) { graph.killNode(halo); });
            return true;
        }
    }
    return false;
}

Snapshot execute(const FuzzCase& fc, const ExecMode& mode)
{
    set::BackendSpec spec = set::BackendSpec::cpu(fc.nDev).withHostThreads(fc.hostThreads);
    Backend          backend = Backend::make(spec);
    auto    analyzer = backend.analysis();
    analyzer.enable();
    if (mode.faultSeed != 0) {
        backend.faults().setPlan(sys::FaultPlan(mode.faultSeed)
                                     .add(sys::FaultSpec::transientTransfer(1)
                                              .withProbability(0.4)));
        backend.profiler().enable();  // faultEvents() counts trace rows
    }

    dgrid::DGrid grid(backend, fc.dim, Stencil::laplace7());
    GlobalScalar<double> s0(grid.backend(), "s0", 0.3);
    GlobalScalar<double> s1(grid.backend(), "s1", 0.7);

    std::vector<dgrid::DField<double>> fields;
    for (int i = 0; i < fc.nFields; ++i) {
        auto f = grid.newField<double>("f" + std::to_string(i), 1, 0.0);
        f.forEachHost([i](const index_3d& g, int, double& v) {
            v = 0.01 * (g.x + 2 * g.y + 3 * g.z) + 0.1 * i + 0.05;
        });
        f.updateDev();
        fields.push_back(std::move(f));
    }

    std::vector<Container> seq;
    for (size_t k = 0; k < fc.ops.size(); ++k) {
        const auto&       d = fc.ops[k];
        auto              src = fields[static_cast<size_t>(d.a)];
        auto              dst = fields[static_cast<size_t>(d.b)];
        const std::string tag = std::to_string(k);
        switch (d.op) {
            case 0: {  // map: dst = 0.9*dst + s0*src + 0.01
                auto s = s0;
                seq.push_back(
                    grid.newContainer("map" + tag, [src, dst, s](auto& l) mutable {
                        auto sp = l.load(src, Access::READ);
                        auto dp = l.load(dst, Access::WRITE);
                        auto sv = l.load(s, Access::READ);
                        return [=](const dgrid::DCell& c) mutable {
                            dp(c) = 0.9 * dp(c) + sv() * sp(c) + 0.01;
                        };
                    }));
                break;
            }
            case 1: {  // stencil: dst = src + 0.05 * laplacian(src)
                seq.push_back(
                    grid.newContainer("sten" + tag, [src, dst](auto& l) mutable {
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
                break;
            }
            case 2: {  // reduce: s1 = src . dst
                seq.push_back(patterns::dot(grid, src, dst, s1, "dot" + tag));
                break;
            }
            case 3: {  // scalar: s0 = bounded mix of s0, s1
                auto x = s0;
                auto y = s1;
                seq.push_back(Container::scalarOp<double>(
                    "scal" + tag, grid.backend(), {x, y}, {x}, [x, y]() mutable {
                        x.set(0.5 * x.hostValue() +
                              y.hostValue() / (1.0 + std::abs(y.hostValue())));
                    }));
                break;
            }
            default: break;
        }
    }

    Skeleton               skl(grid.backend());
    const CompiledSchedule compiled = skl.sequence(seq, SequenceOptions()
                                                            .withName("fuzz")
                                                            .withOcc(fc.occ)
                                                            .withMaxStreams(fc.maxStreams)
                                                            .withCache(mode.useCache)
                                                            .withSanitize(mode.sanitize));
    if (mode.expectCacheHit) {
        EXPECT_TRUE(compiled.cacheHit()) << "expected a schedule-cache hit";
    }
    Snapshot snap;
    snap.mutated = mutate(skl, mode);
    if (mode.lint || snap.mutated) {
        const auto lint = skl.validate();
        snap.lintClean = lint.clean();
        if (mode.lint) {
            EXPECT_TRUE(snap.lintClean) << lint.toString();
        }
    }
    // A dropped wait or a killed halo is a seeded bug: the verdict is the
    // lint's, the run would only compute what the bug computes. A removed
    // edge runs when the lint passes it.
    if (snap.mutated && (mode.mutation != Mutation::RemoveEdge || !snap.lintClean)) {
        return snap;
    }
    if (mode.sanitize) {
        analysis::AccessSanitizer::reset();
    }
    for (int r = 0; r < fc.runs; ++r) {
        skl.run();
    }
    skl.sync();

    const auto races = analyzer.raceReport();
    EXPECT_TRUE(races.clean()) << races.toString();
    if (mode.sanitize) {
        const auto diff = analysis::AccessSanitizer::diff();
        EXPECT_TRUE(diff.clean()) << diff.toString();
        analysis::AccessSanitizer::reset();
    }

    for (auto& f : fields) {
        f.updateHost();
        fc.dim.forEach([&](const index_3d& g) { snap.data.push_back(f.hVal(g)); });
    }
    snap.s0v = s0.hostValue();
    snap.s1v = s1.hostValue();
    snap.cacheHit = compiled.cacheHit();
    if (mode.faultSeed != 0) {
        snap.faultEvents = backend.profiler().faultEvents();
    }
    return snap;
}

void expectBitwiseEqual(const Snapshot& a, const Snapshot& b, const char* what, unsigned seed)
{
    ASSERT_EQ(a.data.size(), b.data.size());
    for (size_t i = 0; i < a.data.size(); ++i) {
        ASSERT_EQ(a.data[i], b.data[i])
            << what << ": field value diverged at flat index " << i << " (seed " << seed << ")";
    }
    ASSERT_EQ(a.s0v, b.s0v) << what << ": scalar s0 diverged (seed " << seed << ")";
    ASSERT_EQ(a.s1v, b.s1v) << what << ": scalar s1 diverged (seed " << seed << ")";
}

void runSeed(unsigned seed)
{
    const FuzzCase fc(seed);
    SCOPED_TRACE("reproduce with: NEON_FUZZ_SEED=" + std::to_string(seed) + "  [" +
                 fc.toString() + "]");

    // Reference: full recompile (cache off).
    const Snapshot refSnap = execute(fc, ExecMode{false, false, true, 0});
    // Prime the schedule cache, then replay the recipe onto fresh fields;
    // the replayed schedule must lint clean and compute identical bits.
    const Snapshot primeSnap = execute(fc, ExecMode{true, false, false, 0});
    const Snapshot replaySnap = execute(fc, ExecMode{true, true, true, 0});

    // Bitwise equality: with a race-free schedule both compilation paths
    // perform the identical sequence of floating-point operations per cell.
    expectBitwiseEqual(refSnap, primeSnap, "compile(cache-on)", seed);
    expectBitwiseEqual(refSnap, replaySnap, "cache replay", seed);

    // Host-pool determinism: a different pool width must not change a bit
    // (the chunk partition is span-derived, never thread-derived). A set
    // NEON_THREADS collapses both runs to the same width — trivially equal.
    FuzzCase alt = fc;
    alt.hostThreads = fc.hostThreads == 1 ? 4 : 1;
    const Snapshot poolSnap = execute(alt, ExecMode{true, true, false, 0});
    expectBitwiseEqual(refSnap, poolSnap, "host-pool width", seed);

    // Sanitizer leg (every 4th seed: the instrumented trampolines roughly
    // double kernel cost): a sanitize-on run must report zero violations —
    // the generated kernels never stray from their declarations — and
    // produce bitwise-identical field state.
    if (seed % 4 == 0) {
        ExecMode sanMode{true, true, false, 0};
        sanMode.sanitize = true;
        expectBitwiseEqual(refSnap, execute(fc, sanMode), "sanitize", seed);
    }

    // Mutation leg: each seeded schedule fault must be caught by the lint,
    // except a removed edge that computes the unmutated bits anyway.
    std::mt19937 pickTarget(seed * 2246822519u + 3u);
    for (const Mutation m : {Mutation::DropWaits, Mutation::RemoveEdge, Mutation::KillHalo}) {
        ExecMode mode;
        mode.mutation = m;
        mode.target = static_cast<unsigned>(pickTarget());
        const Snapshot mut = execute(fc, mode);
        if (!mut.mutated) {
            continue;
        }
        if (m == Mutation::RemoveEdge && mut.lintClean) {
            expectBitwiseEqual(refSnap, mut, "lint-clean edge removal", seed);
        } else {
            EXPECT_FALSE(mut.lintClean)
                << "the lint missed mutation " << static_cast<int>(m) << " (seed " << seed
                << ")";
        }
    }

    // Fault-ordinal equality: decisions are a pure function of the plan
    // seed and each op's (device, stream, kind, per-stream ordinal, run),
    // so a faithful replay fires exactly the faults the recompile fires —
    // and transient transfer faults stay invisible to the data.
    if (fc.nDev > 1) {
        const uint64_t faultSeed = 77'000u + seed;
        const Snapshot faultOff = execute(fc, ExecMode{false, false, false, faultSeed});
        const Snapshot faultOn = execute(fc, ExecMode{true, true, false, faultSeed});
        ASSERT_EQ(faultOff.faultEvents, faultOn.faultEvents)
            << "fault ordinals diverged between recompile and cache replay (seed " << seed
            << ")";
        expectBitwiseEqual(refSnap, faultOff, "faulted recompile", seed);
        expectBitwiseEqual(faultOff, faultOn, "faulted cache replay", seed);
    }
}

/// NEON_FUZZ_SEED=<n>: run exactly that seed (reproduction workflow).
bool pinnedSeed(unsigned* out)
{
    const char* env = std::getenv("NEON_FUZZ_SEED");
    if (env == nullptr || *env == '\0') {
        return false;
    }
    *out = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    return true;
}

}  // namespace

class SkeletonFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(SkeletonFuzz, LintRacesCleanAndMutationsCaught)
{
    unsigned pinned = 0;
    if (pinnedSeed(&pinned)) {
        if (GetParam() != 0) {
            GTEST_SKIP() << "NEON_FUZZ_SEED pins a single seed; shard 0 runs it";
        }
        runSeed(pinned);
        return;
    }
    const unsigned first = kSeedBase + static_cast<unsigned>(GetParam() * kSeedsPerShard);
    for (unsigned s = first; s < first + kSeedsPerShard; ++s) {
        runSeed(s);
        if (::testing::Test::HasFatalFailure()) {
            return;  // the SCOPED_TRACE above already printed the seed
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Battery, SkeletonFuzz, ::testing::Range(0, kShards),
                         [](const auto& info) {
                             return "shard" + std::to_string(info.param);
                         });

}  // namespace neon::skeleton
