// NEON_THREADS bitwise-determinism guarantee (docs/performance.md, "Host
// parallelism"): dot / norm2Sq reductions and map field state must be
// bitwise identical for any host-pool width, with the access sanitizer on
// or off, in double and float, on 1 to 3 devices. The chunk partition is
// span-derived, each chunk sums into fixed lanes, and the per-chunk
// partials fold through a fixed-shape combine tree, so no float is ever
// added in a different order.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
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
// reduce folds an odd chunk count (7 chunks on 1 device, 3 per device on 2,
// 2 per device on 3).
constexpr index_3d kDim{24, 20, 33};

template <typename T>
struct RunResult
{
    T              dot{};
    T              norm{};
    std::vector<T> field;
    bool           poolRan = false;  ///< hostPool rows appeared in the trace
};

/// One full pipeline (map -> dot -> norm2Sq, 3 runs) at a given pool width,
/// optionally through the sanitizer's instrumented trampolines.
template <typename T>
RunResult<T> runAt(int hostThreads, int nDev, bool sanitize = false)
{
    set::BackendSpec spec = set::BackendSpec::cpu(nDev).withHostThreads(hostThreads);
    Backend          backend = Backend::make(spec);
    backend.profiler().enable();

    dgrid::DGrid grid(backend, kDim, Stencil::laplace7());
    auto         x = grid.newField<T>("x", 1, T{});
    auto         y = grid.newField<T>("y", 1, T{});
    // Magnitudes spread over several orders so float addition order matters.
    x.forEachHost([](const index_3d& g, int, T& v) {
        v = static_cast<T>(1e-6 * g.x + 0.1 * g.y + 100.0 * g.z + 0.7);
    });
    y.forEachHost([](const index_3d& g, int, T& v) {
        v = static_cast<T>(3.0 - 0.01 * g.x + 1e-5 * (g.y + g.z));
    });
    x.updateDev();
    y.updateDev();

    GlobalScalar<T> alpha(backend, "alpha", T(0.25));
    GlobalScalar<T> d(backend, "d", T{});
    GlobalScalar<T> n(backend, "n", T{});

    skeleton::Skeleton skl(backend);
    skl.sequence({axpy(grid, alpha, x, y), dot(grid, x, y, d), norm2Sq(grid, y, n)},
                 skeleton::SequenceOptions().withName("reduce").withSanitize(sanitize));
    for (int r = 0; r < 3; ++r) {
        skl.run();
    }
    skl.sync();

    RunResult<T> out;
    out.dot = d.hostValue();
    out.norm = n.hostValue();
    y.updateHost();
    y.forEachHost([&](const index_3d&, int, T& v) { out.field.push_back(v); });
    out.poolRan = backend.profiler().trace().countKind(sys::OpKind::HostPool) > 0;
    return out;
}

template <typename T>
void expectSameAcrossWidths()
{
    for (const int nDev : {1, 2, 3}) {
        const RunResult<T> ref = runAt<T>(1, nDev);
        for (const int width : {2, 8}) {
            SCOPED_TRACE(std::to_string(nDev) + " dev, width " + std::to_string(width));
            const RunResult<T> got = runAt<T>(width, nDev);
            EXPECT_EQ(got.dot, ref.dot) << "dot diverged";
            EXPECT_EQ(got.norm, ref.norm) << "norm2Sq diverged";
            ASSERT_EQ(got.field.size(), ref.field.size());
            for (size_t i = 0; i < ref.field.size(); ++i) {
                ASSERT_EQ(got.field[i], ref.field[i]) << "field diverged at flat index " << i;
            }
            // The sweep is only meaningful if the pool actually engaged.
            EXPECT_TRUE(got.poolRan) << "no hostPool trace rows";
        }
    }
}

template <typename T>
void expectSanitizedMatchesPlain()
{
    auto& session = set::sanitize::Session::instance();
    for (const int nDev : {1, 2, 3}) {
        for (const int width : {1, 2, 8}) {
            SCOPED_TRACE(std::to_string(nDev) + " dev, width " + std::to_string(width));
            const RunResult<T> plain = runAt<T>(width, nDev);
            session.clear();
            const RunResult<T> san = runAt<T>(width, nDev, true);
            EXPECT_FALSE(session.snapshot().empty()) << "sanitized kernels committed nothing";
            session.clear();
            EXPECT_EQ(san.dot, plain.dot) << "dot diverged";
            EXPECT_EQ(san.norm, plain.norm) << "norm2Sq diverged";
            ASSERT_EQ(san.field, plain.field);
        }
    }
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
    {
        SCOPED_TRACE("double");
        expectSameAcrossWidths<double>();
    }
    {
        SCOPED_TRACE("float");
        expectSameAcrossWidths<float>();
    }
}

TEST_F(ParallelReduce, SanitizedMatchesPlainAtEveryWidth)
{
    {
        SCOPED_TRACE("double");
        expectSanitizedMatchesPlain<double>();
    }
    {
        SCOPED_TRACE("float");
        expectSanitizedMatchesPlain<float>();
    }
}

}  // namespace neon::patterns
