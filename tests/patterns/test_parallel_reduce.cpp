// NEON_THREADS bitwise-determinism guarantee (docs/performance.md, "Host
// parallelism"): dot / norm2Sq reductions and map field state must be
// bitwise identical for any host-pool width, with the access sanitizer on
// or off. The chunk partition is span-derived and the
// per-chunk partials fold through a fixed-shape combine tree, so no float
// is ever added in a different order.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "dgrid/dfield.hpp"
#include "patterns/blas.hpp"
#include "set/sanitize.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::patterns {

using set::Backend;
using set::GlobalScalar;

namespace {

// Odd extents on purpose: chunk boundaries land mid-partition, and the
// reduce folds an odd chunk count (7 chunks on 1 device, 3 per device on 2).
constexpr index_3d kDim{24, 20, 33};

struct RunResult
{
    double              dot = 0.0;
    double              norm = 0.0;
    std::vector<double> field;
    bool                poolRan = false;  ///< hostPool rows appeared in the trace
};

/// One full pipeline (map -> dot -> norm2Sq, 3 runs) at a given pool width,
/// optionally through the sanitizer's instrumented trampolines.
RunResult runAt(int hostThreads, int nDev, bool sanitize = false)
{
    set::BackendSpec spec = set::BackendSpec::cpu(nDev).withHostThreads(hostThreads);
    Backend          backend = Backend::make(spec);
    backend.profiler().enable();

    dgrid::DGrid grid(backend, kDim, Stencil::laplace7());
    auto         x = grid.newField<double>("x", 1, 0.0);
    auto         y = grid.newField<double>("y", 1, 0.0);
    // Magnitudes spread over several orders so float addition order matters.
    x.forEachHost([](const index_3d& g, int, double& v) {
        v = 1e-6 * g.x + 0.1 * g.y + 100.0 * g.z + 0.7;
    });
    y.forEachHost([](const index_3d& g, int, double& v) {
        v = 3.0 - 0.01 * g.x + 1e-5 * (g.y + g.z);
    });
    x.updateDev();
    y.updateDev();

    GlobalScalar<double> alpha(backend, "alpha", 0.25);
    GlobalScalar<double> d(backend, "d", 0.0);
    GlobalScalar<double> n(backend, "n", 0.0);

    skeleton::Skeleton skl(backend);
    skl.sequence({axpy(grid, alpha, x, y), dot(grid, x, y, d), norm2Sq(grid, y, n)},
                 skeleton::SequenceOptions().withName("reduce").withSanitize(sanitize));
    for (int r = 0; r < 3; ++r) {
        skl.run();
    }
    skl.sync();

    RunResult out;
    out.dot = d.hostValue();
    out.norm = n.hostValue();
    y.updateHost();
    y.forEachHost([&](const index_3d&, int, double& v) { out.field.push_back(v); });
    out.poolRan = backend.profiler().trace().countKind(sys::OpKind::HostPool) > 0;
    return out;
}

class ParallelReduce : public ::testing::Test
{
   protected:
    void SetUp() override
    {
        // The env override would collapse the width axis this test sweeps.
        unsetenv("NEON_THREADS");
    }
};

}  // namespace

TEST_F(ParallelReduce, BitwiseIdenticalAcrossPoolWidths)
{
    const RunResult ref = runAt(1, 2);
    for (const int width : {2, 8}) {
        const RunResult got = runAt(width, 2);
        EXPECT_EQ(got.dot, ref.dot) << "dot diverged at width " << width;
        EXPECT_EQ(got.norm, ref.norm) << "norm2Sq diverged at width " << width;
        ASSERT_EQ(got.field.size(), ref.field.size());
        for (size_t i = 0; i < ref.field.size(); ++i) {
            ASSERT_EQ(got.field[i], ref.field[i])
                << "field diverged at flat index " << i << ", width " << width;
        }
        // The sweep is only meaningful if the pool actually engaged.
        EXPECT_TRUE(got.poolRan) << "no hostPool trace rows at width " << width;
    }
}

TEST_F(ParallelReduce, SanitizedMatchesPlainAtEveryWidth)
{
    auto& session = set::sanitize::Session::instance();
    for (const int nDev : {1, 2}) {
        for (const int width : {1, 2, 8}) {
            const RunResult plain = runAt(width, nDev);
            session.clear();
            const RunResult san = runAt(width, nDev, true);
            EXPECT_FALSE(session.snapshot().empty()) << "sanitized kernels committed nothing";
            session.clear();
            EXPECT_EQ(san.dot, plain.dot) << "dot diverged, " << nDev << " dev, width " << width;
            EXPECT_EQ(san.norm, plain.norm)
                << "norm2Sq diverged, " << nDev << " dev, width " << width;
            ASSERT_EQ(san.field, plain.field) << nDev << " dev, width " << width;
        }
    }
}

}  // namespace neon::patterns
