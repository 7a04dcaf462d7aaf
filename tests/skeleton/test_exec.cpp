// End-to-end Skeleton execution: a map -> stencil -> reduce -> scalar ->
// map pipeline iterated several times must produce identical results for
// every (device count) x (OCC variant) x (host-pool width) combination —
// the paper's core promise that the runtime's distribution and
// optimizations never change semantics. Also checks that OCC actually
// shortens the virtual timeline on the simulated multi-GPU backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
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

constexpr index_3d kDim{6, 5, 16};
constexpr int      kIters = 3;

double initA(const index_3d& g)
{
    return 0.01 * g.x + 0.02 * g.y + 0.005 * g.z + 0.1;
}

/// Plain host reference of the pipeline (no Neon machinery).
struct Reference
{
    std::vector<double> A, B, C;
    double              s = 0.0;
    double              alpha = 0.0;

    Reference()
        : A(kDim.size()), B(kDim.size()), C(kDim.size())
    {
        kDim.forEach([&](const index_3d& g) { A[kDim.pitch(g)] = initA(g); });
        for (int it = 0; it < kIters; ++it) {
            step();
        }
    }

    void step()
    {
        kDim.forEach([&](const index_3d& g) { B[kDim.pitch(g)] = A[kDim.pitch(g)] + 1.0; });
        kDim.forEach([&](const index_3d& g) {
            double acc = -6.0 * B[kDim.pitch(g)];
            for (const auto& off : Stencil::laplace7().points()) {
                const index_3d n = g + off;
                acc += kDim.contains(n) ? B[kDim.pitch(n)] : 0.0;
            }
            C[kDim.pitch(g)] = acc;
        });
        s = 0.0;
        kDim.forEach([&](const index_3d& g) { s += B[kDim.pitch(g)] * C[kDim.pitch(g)]; });
        alpha = s / (std::abs(s) + 100.0);
        kDim.forEach([&](const index_3d& g) { A[kDim.pitch(g)] += alpha * C[kDim.pitch(g)]; });
    }
};

struct RunResult
{
    std::vector<double> A;
    double              s = 0.0;
};

/// How the CPU devices run their kernels: on one host thread, or with the
/// chunks fanned out over a four-worker host pool.
enum class HostPool : std::uint8_t
{
    Sequential,
    Threaded,
};

RunResult runPipeline(int nDev, Occ occ, HostPool pool,
                      sys::SimConfig cfg = sys::SimConfig::zeroCost(),
                      double* vtimeOut = nullptr, index_3d dim = kDim)
{
    set::BackendSpec spec;
    spec.nDevices = nDev;
    spec.config = cfg;
    spec.hostThreads = pool == HostPool::Sequential ? 1 : 4;
    Backend      backend = Backend::make(spec);
    dgrid::DGrid grid(backend, dim, Stencil::laplace7());
    auto         A = grid.newField<double>("A", 1, 0.0);
    auto         B = grid.newField<double>("B", 1, 0.0);
    auto         C = grid.newField<double>("C", 1, 0.0);
    GlobalScalar<double> s(backend, "s", 0.0);
    GlobalScalar<double> alpha(backend, "alpha", 0.0);

    A.forEachHost([](const index_3d& g, int, double& v) { v = initA(g); });
    A.updateDev();

    auto mapB = grid.newContainer("mapB", [&](auto& l) {
        auto a = l.load(A, Access::READ);
        auto b = l.load(B, Access::WRITE);
        return [=](const dgrid::DCell& cell) mutable { b(cell) = a(cell) + 1.0; };
    });
    auto stencilC = grid.newContainer("stencilC", [&](auto& l) {
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
    auto alphaOp = Container::scalarOp<double>(
        "alpha", backend, {s}, {alpha},
        [s, alpha]() mutable { alpha.set(s.hostValue() / (std::abs(s.hostValue()) + 100.0)); });
    auto axpyA = patterns::axpy(grid, alpha, C, A, "axpyA");

    Skeleton skl(backend);
    skl.sequence({mapB, stencilC, dotBC, alphaOp, axpyA},
                 SequenceOptions().withName("pipeline").withOcc(occ));

    const double v0 = backend.profiler().makespan();
    for (int it = 0; it < kIters; ++it) {
        skl.run();
        skl.sync();
    }
    if (vtimeOut != nullptr) {
        *vtimeOut = backend.profiler().makespan() - v0;
    }

    RunResult out;
    A.updateHost();
    out.A.resize(dim.size());
    dim.forEach([&](const index_3d& g) { out.A[dim.pitch(g)] = A.hVal(g); });
    out.s = s.hostValue();
    return out;
}

}  // namespace

using ExecCase = std::tuple<int, Occ, HostPool>;

class SkeletonExec : public ::testing::TestWithParam<ExecCase>
{
};

TEST_P(SkeletonExec, MatchesHostReference)
{
    const auto [nDev, occ, pool] = GetParam();
    static const Reference ref;

    RunResult got = runPipeline(nDev, occ, pool);
    EXPECT_NEAR(got.s, ref.s, std::abs(ref.s) * 1e-10 + 1e-10);
    kDim.forEach([&](const index_3d& g) {
        const double expect = ref.A[kDim.pitch(g)];
        EXPECT_NEAR(got.A[kDim.pitch(g)], expect, std::abs(expect) * 1e-10 + 1e-12)
            << g.to_string();
    });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkeletonExec,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(Occ::NONE, Occ::STANDARD, Occ::EXTENDED, Occ::TWO_WAY),
                       ::testing::Values(HostPool::Sequential, HostPool::Threaded)),
    [](const auto& info) {
        return "dev" + std::to_string(std::get<0>(info.param)) + "_" +
               to_string(std::get<1>(info.param)) + "_" +
               (std::get<2>(info.param) == HostPool::Sequential ? "seq" : "thr");
    });

TEST(SkeletonVtime, OccShortensTheVirtualTimeline)
{
    // On the simulated DGX with 8 devices, overlapping halo transfers with
    // internal compute must reduce the makespan (paper Fig. 7/8).
    // Large enough that compute and transfers dwarf launch overheads.
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    const index_3d dim{32, 32, 128};
    double tNone = 0.0;
    double tStd = 0.0;
    runPipeline(8, Occ::NONE, HostPool::Sequential, cfg, &tNone, dim);
    runPipeline(8, Occ::STANDARD, HostPool::Sequential, cfg, &tStd, dim);
    EXPECT_LT(tStd, tNone);
}

TEST(SkeletonVtime, SingleDeviceOccIsFree)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    double tNone = 0.0;
    double tTwo = 0.0;
    runPipeline(1, Occ::NONE, HostPool::Sequential, cfg, &tNone);
    runPipeline(1, Occ::TWO_WAY, HostPool::Sequential, cfg, &tTwo);
    EXPECT_DOUBLE_EQ(tNone, tTwo);
}

TEST(SkeletonVtime, TraceShowsCommunicationComputationOverlap)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    Backend        backend =
        Backend::make({.nDevices = 4, .deviceType = sys::DeviceType::CPU, .config = cfg});
    dgrid::DGrid   grid(backend, {16, 16, 64}, Stencil::laplace7());
    auto           B = grid.newField<double>("B", 1, 0.0);
    auto           C = grid.newField<double>("C", 1, 0.0);

    auto stencilC = grid.newContainer("stencil", [&](auto& l) {
        auto b = l.load(B, Access::READ, Compute::STENCIL);
        auto c = l.load(C, Access::WRITE);
        return [=](const dgrid::DCell& cell) mutable { c(cell) = b.nghVal(cell, {0, 0, 1}); };
    });
    auto mapB = grid.newContainer("map", [&](auto& l) {
        auto c = l.load(C, Access::READ);
        auto b = l.load(B, Access::WRITE);
        return [=](const dgrid::DCell& cell) mutable { b(cell) = c(cell) + 1.0; };
    });

    Skeleton skl(backend);
    skl.sequence({mapB, stencilC}, SequenceOptions().withName("overlap").withOcc(Occ::STANDARD));
    backend.profiler().trace().clear();
    backend.profiler().trace().enable(true);
    skl.run();
    skl.sync();
    backend.profiler().trace().enable(false);

    // Some transfer interval must overlap some kernel interval on the same
    // device — the definition of OCC.
    bool overlapped = false;
    const auto entries = backend.profiler().trace().entries();
    for (const auto& t : entries) {
        if (t.kind != "transfer") {
            continue;
        }
        for (const auto& k : entries) {
            if (k.kind == "kernel" && k.device == t.device && k.startV < t.endV &&
                t.startV < k.endV) {
                overlapped = true;
            }
        }
    }
    EXPECT_TRUE(overlapped);
}

TEST(SkeletonApi, RunBeforeSequenceThrows)
{
    Skeleton skl(Backend::cpu(1));
    EXPECT_THROW(skl.run(), NeonException);
}

TEST(SkeletonApi, MismatchedBackendIsRejected)
{
    // A container built on a 2-device grid cannot run on a 4-device
    // skeleton: its partitions and spans were sized for the wrong backend.
    dgrid::DGrid grid(Backend::cpu(2), {4, 4, 8}, Stencil::laplace7());
    auto         f = grid.newField<double>("f", 1, 0.0);
    auto c = grid.newContainer("touch", [&](auto& l) {
        auto fp = l.load(f, Access::WRITE);
        return [=](const dgrid::DCell& cell) mutable { fp(cell) = 1.0; };
    });
    Skeleton skl(Backend::cpu(4));
    EXPECT_THROW(skl.sequence({c}, SequenceOptions().withName("mismatch")), NeonException);
}

TEST(SkeletonApi, ReportMentionsTasksAndStreams)
{
    Backend      b = Backend::cpu(2);
    dgrid::DGrid grid(b, {4, 4, 8}, Stencil::laplace7());
    auto         f = grid.newField<double>("f", 1, 0.0);
    auto c = grid.newContainer("touch", [&](auto& l) {
        auto fp = l.load(f, Access::WRITE);
        return [=](const dgrid::DCell& cell) mutable { fp(cell) = 1.0; };
    });
    Skeleton skl(b);
    skl.sequence({c}, SequenceOptions().withName("demo"));
    auto rep = skl.describe();
    EXPECT_NE(rep.find("demo"), std::string::npos);
    EXPECT_NE(rep.find("touch"), std::string::npos);
    EXPECT_NE(rep.find("digraph"), std::string::npos);
}

}  // namespace neon::skeleton
