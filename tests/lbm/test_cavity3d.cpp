// Neon D3Q19 lid-driven cavity: physics sanity (mass conservation without
// lid, equilibrium preservation, flow development with lid), exact
// agreement with the native fused baseline, bit-exact multi-device / OCC /
// grid / layout independence, and a golden hash of the output bits.

#include <gtest/gtest.h>

#include <cstdint>

#include "dgrid/dfield.hpp"
#include "egrid/efield.hpp"
#include "lbm/cavity3d.hpp"
#include "lbm/native3d.hpp"
#include "population_hash.hpp"

namespace neon::lbm {

using set::Backend;

namespace {

constexpr index_3d kDim{12, 12, 12};
constexpr double   kTau = 0.8;

dgrid::DGrid denseGrid(int nDev)
{
    return dgrid::DGrid(Backend::cpu(nDev), kDim, D3Q19::stencil());
}

}  // namespace

TEST(Cavity3d, RestStateStaysAtEquilibriumWithoutLid)
{
    CavityD3Q19<dgrid::DGrid> lbm(denseGrid(1), kTau, 0.0);
    lbm.run(4);
    lbm.sync();
    lbm.current().updateHost();
    const auto m = lbm.macroAt({6, 6, 6});
    EXPECT_NEAR(m.rho, 1.0, 1e-6);
    EXPECT_NEAR(m.u[0], 0.0, 1e-7);
    EXPECT_NEAR(m.u[1], 0.0, 1e-7);
    EXPECT_NEAR(m.u[2], 0.0, 1e-7);
}

TEST(Cavity3d, MassIsConservedWithoutLid)
{
    CavityD3Q19<dgrid::DGrid> lbm(denseGrid(2), kTau, 0.0);
    const double m0 = lbm.totalMass();
    lbm.run(10);
    const double m1 = lbm.totalMass();
    EXPECT_NEAR(m1, m0, m0 * 1e-6);
}

TEST(Cavity3d, MassIsConservedWithLid)
{
    // Half-way bounce-back adds momentum, not mass.
    CavityD3Q19<dgrid::DGrid> lbm(denseGrid(1), kTau, 0.05);
    const double m0 = lbm.totalMass();
    lbm.run(20);
    const double m1 = lbm.totalMass();
    EXPECT_NEAR(m1, m0, m0 * 1e-5);
}

TEST(Cavity3d, LidDrivesTheFlow)
{
    CavityD3Q19<dgrid::DGrid> lbm(denseGrid(1), kTau, 0.1);
    lbm.run(50);
    lbm.sync();
    lbm.current().updateHost();
    // Cell just below the lid moves along +x.
    const auto near = lbm.macroAt({6, 6, kDim.z - 2});
    EXPECT_GT(near.u[0], 1e-4);
    // Cavity centre is much slower than the lid.
    const auto centre = lbm.macroAt({6, 6, 6});
    EXPECT_LT(std::abs(centre.u[0]), 0.05);
}

TEST(Cavity3d, MatchesNativeFusedBaselineExactly)
{
    CavityD3Q19<dgrid::DGrid>          neon(denseGrid(1), kTau, 0.1);
    native::NativeCavityD3Q19<float>   ref(kDim, kTau, 0.1, native::Variant::Fused);
    neon.run(8);
    ref.run(8);
    neon.sync();
    neon.current().updateHost();
    kDim.forEach([&](const index_3d& g) {
        const auto a = neon.macroAt(g);
        const auto b = ref.macroAt(g);
        ASSERT_EQ(a.rho, b.rho) << g.to_string();
        for (int d = 0; d < 3; ++d) {
            ASSERT_EQ(a.u[static_cast<size_t>(d)], b.u[static_cast<size_t>(d)]) << g.to_string();
        }
    });
}

TEST(Cavity3d, GoldenPopulationHash)
{
    // Neon and the native baselines share forEachDirection and the
    // equilibrium, so the exact test above cannot see a change that hits
    // both; this pins the bits themselves. Regenerate only for an intended
    // change of the physics or its arithmetic.
    CavityD3Q19<dgrid::DGrid> lbm(denseGrid(1), kTau, 0.1);
    lbm.run(8);
    lbm.sync();
    lbm.current().updateHost();
    const uint64_t hash = populationHash(lbm.current(), kDim, D3Q19::Q);
    EXPECT_EQ(hash, 0xfb98c966b89afd92ULL) << std::hex << hash;
}

// gtest prints a parameter without operator<< as its raw bytes, and ctest
// names each case after that print. The tail is spelled out and zeroed so
// the names carry no uninitialized padding.
struct CavityCase
{
    int          nDev;
    Occ          occ;
    std::uint8_t tail[3] = {};
};
static_assert(sizeof(CavityCase) == 8, "CavityCase must have no padding");

class Cavity3dSweep : public ::testing::TestWithParam<CavityCase>
{
};

TEST_P(Cavity3dSweep, DeviceCountAndOccDoNotChangePhysics)
{
    const auto [nDev, occ, tail] = GetParam();
    CavityD3Q19<dgrid::DGrid> a(denseGrid(1), kTau, 0.1, Occ::NONE);
    CavityD3Q19<dgrid::DGrid> b(denseGrid(nDev), kTau, 0.1, occ);
    a.run(6);
    b.run(6);
    a.sync();
    b.sync();
    a.current().updateHost();
    b.current().updateHost();
    kDim.forEach([&](const index_3d& g) {
        for (int i = 0; i < D3Q19::Q; ++i) {
            ASSERT_EQ(a.current().hVal(g, i), b.current().hVal(g, i))
                << g.to_string() << " i=" << i;
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sweep, Cavity3dSweep,
                         ::testing::Values(CavityCase{2, Occ::NONE},
                                           CavityCase{2, Occ::STANDARD},
                                           CavityCase{3, Occ::STANDARD},
                                           CavityCase{4, Occ::TWO_WAY},
                                           CavityCase{8, Occ::STANDARD}),
                         [](const auto& info) {
                             return "dev" + std::to_string(info.param.nDev) + "_" +
                                    to_string(info.param.occ);
                         });

TEST(Cavity3d, SparseFullBoxMatchesDense)
{
    egrid::EGrid sparse(Backend::cpu(2), kDim, [](const index_3d&) { return true; },
                        D3Q19::stencil());
    CavityD3Q19<egrid::EGrid> a(sparse, kTau, 0.1);
    CavityD3Q19<dgrid::DGrid> b(denseGrid(1), kTau, 0.1);
    a.run(5);
    b.run(5);
    a.sync();
    b.sync();
    a.current().updateHost();
    b.current().updateHost();
    kDim.forEach([&](const index_3d& g) {
        for (int i = 0; i < D3Q19::Q; ++i) {
            ASSERT_EQ(a.current().hVal(g, i), b.current().hVal(g, i))
                << g.to_string() << " i=" << i;
        }
    });
}

TEST(Cavity3d, SparseSphericalDomainConservesMass)
{
    // Free-form domain (paper §I): fluid inside a sphere, bounce-back at
    // the curved wall served by the sparse grid's inactive neighbours.
    const index_3d dim{14, 14, 14};
    auto inSphere = [&](const index_3d& g) {
        const double dx = g.x - 6.5;
        const double dy = g.y - 6.5;
        const double dz = g.z - 6.5;
        return dx * dx + dy * dy + dz * dz < 6.0 * 6.0;
    };
    egrid::EGrid grid(Backend::cpu(2), dim, inSphere, D3Q19::stencil());
    EXPECT_LT(grid.activeCount(), dim.size());

    CavityD3Q19<egrid::EGrid> lbm(grid, kTau, 0.0);
    const double m0 = lbm.totalMass();
    lbm.run(10);
    const double m1 = lbm.totalMass();
    EXPECT_NEAR(m1, m0, m0 * 1e-5);

    // Rest fluid stays at rest even against the curved wall.
    lbm.current().updateHost();
    const auto m = lbm.macroAt({7, 7, 7});
    EXPECT_NEAR(m.u[0], 0.0, 1e-6);
    EXPECT_NEAR(m.u[2], 0.0, 1e-6);
}

TEST(Cavity3d, AoSLayoutMatchesSoA)
{
    CavityD3Q19<dgrid::DGrid> soa(denseGrid(2), kTau, 0.1, Occ::NONE,
                                  MemLayout::structOfArrays);
    CavityD3Q19<dgrid::DGrid> aos(denseGrid(2), kTau, 0.1, Occ::NONE,
                                  MemLayout::arrayOfStructs);
    soa.run(5);
    aos.run(5);
    soa.sync();
    aos.sync();
    soa.current().updateHost();
    aos.current().updateHost();
    kDim.forEach([&](const index_3d& g) {
        for (int i = 0; i < D3Q19::Q; ++i) {
            ASSERT_EQ(soa.current().hVal(g, i), aos.current().hVal(g, i))
                << g.to_string() << " i=" << i;
        }
    });
}

}  // namespace neon::lbm
