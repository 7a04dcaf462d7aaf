// Dry-run fidelity: the cost model must produce *identical* virtual times
// whether kernels execute for real or are skipped — this is what licenses
// running paper-size domains through the simulator without the data.

#include <gtest/gtest.h>

#include <cstdint>

#include "dgrid/dfield.hpp"
#include "lbm/cavity3d.hpp"
#include "patterns/blas.hpp"
#include "poisson/poisson.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {

using set::Backend;

namespace {

double lbmVtime(bool dryRun, int nDev, Occ occ)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = dryRun;
    Backend      backend = Backend::simGpu(nDev, cfg);
    dgrid::DGrid grid(backend, {24, 24, 24}, lbm::D3Q19::stencil());
    lbm::CavityD3Q19<dgrid::DGrid> solver(grid, 0.6, 0.1, occ);
    solver.run(4);
    backend.sync();
    return backend.profiler().makespan();
}

double cgVtime(bool dryRun, int nDev, Occ occ)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = dryRun;
    Backend      backend = Backend::simGpu(nDev, cfg);
    dgrid::DGrid grid(backend, {16, 16, 16}, Stencil::laplace7());
    auto         x = grid.newField<double>("x", 1, 0.0);
    auto         b = grid.newField<double>("b", 1, 0.0);
    solver::CgOptions options;
    options.maxIterations = 5;
    options.fixedIterations = true;
    options.occ = occ;
    poisson::solveSine(grid, x, b, options);
    backend.sync();
    return backend.profiler().makespan();
}

}  // namespace

// gtest prints a parameter without operator<< as its raw bytes, and ctest
// names each case after that print. The tail is spelled out and zeroed so
// the names carry no uninitialized padding.
struct DryCase
{
    int          nDev;
    Occ          occ;
    std::uint8_t tail[3] = {};
};
static_assert(sizeof(DryCase) == 8, "DryCase must have no padding");

class DryRunFidelity : public ::testing::TestWithParam<DryCase>
{
};

TEST_P(DryRunFidelity, LbmVirtualTimeIdentical)
{
    const DryCase& c = GetParam();
    EXPECT_DOUBLE_EQ(lbmVtime(false, c.nDev, c.occ), lbmVtime(true, c.nDev, c.occ));
}

TEST_P(DryRunFidelity, CgVirtualTimeIdentical)
{
    const DryCase& c = GetParam();
    EXPECT_DOUBLE_EQ(cgVtime(false, c.nDev, c.occ), cgVtime(true, c.nDev, c.occ));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DryRunFidelity,
                         ::testing::Values(DryCase{1, Occ::NONE}, DryCase{2, Occ::NONE},
                                           DryCase{4, Occ::STANDARD},
                                           DryCase{4, Occ::EXTENDED},
                                           DryCase{8, Occ::TWO_WAY}),
                         [](const auto& info) {
                             return "dev" + std::to_string(info.param.nDev) + "_" +
                                    to_string(info.param.occ);
                         });

TEST(DryRunFidelity, DryRunNeverTouchesHostMirrors)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    Backend      backend = Backend::simGpu(2, cfg);
    dgrid::DGrid grid(backend, {8, 8, 8}, Stencil::laplace7());
    auto         f = grid.newField<float>("f", 2, 0.0f);
    // No mirror is allocated in dry-run mode; update calls are no-ops.
    EXPECT_NO_THROW(f.updateDev());
    EXPECT_NO_THROW(f.updateHost());
}

}  // namespace neon::skeleton
