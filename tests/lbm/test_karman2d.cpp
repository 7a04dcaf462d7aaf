// D2Q9 Karman vortex street: exact baseline equivalence, uniform-flow
// sanity, vortex shedding, bit-exact multi-device independence, and a
// golden hash of the output bits.

#include <gtest/gtest.h>

#include "dgrid/dfield.hpp"
#include "lbm/karman2d.hpp"
#include "population_hash.hpp"

namespace neon::lbm {

using set::Backend;

namespace {

KarmanConfig smallConfig()
{
    KarmanConfig cfg;
    cfg.nx = 96;
    cfg.ny = 32;
    cfg.inflow = 0.05;
    cfg.reynolds = 120.0;
    return cfg;
}

dgrid::DGrid channelGrid(const KarmanConfig& cfg, int nDev)
{
    return dgrid::DGrid(Backend::cpu(nDev), {cfg.nx, 1, cfg.ny}, D2Q9::stencilXZ());
}

}  // namespace

TEST(Karman2d, NeonMatchesNativeBaseline)
{
    const auto cfg = smallConfig();
    KarmanD2Q9<dgrid::DGrid> neon(channelGrid(cfg, 1), cfg);
    NativeKarmanD2Q9<float>  ref(cfg);
    neon.run(30);
    ref.run(30);
    neon.sync();
    neon.current().updateHost();
    for (int32_t h = 0; h < cfg.ny; ++h) {
        for (int32_t x = 0; x < cfg.nx; ++x) {
            const auto a = neon.macroAt({x, 0, h});
            const auto b = ref.macroAt({x, h, 0});
            ASSERT_EQ(a[0], b[0]) << x << "," << h;
            ASSERT_EQ(a[1], b[1]) << x << "," << h;
            ASSERT_EQ(a[2], b[2]) << x << "," << h;
        }
    }
}

TEST(Karman2d, GoldenPopulationHash)
{
    // As Cavity3d.GoldenPopulationHash: pins the bits that the shared
    // forEachDirection and equilibrium produce on both sides of the test
    // above.
    const auto               cfg = smallConfig();
    KarmanD2Q9<dgrid::DGrid> sim(channelGrid(cfg, 1), cfg);
    sim.run(30);
    sim.sync();
    sim.current().updateHost();
    const uint64_t hash = populationHash(sim.current(), {cfg.nx, 1, cfg.ny}, D2Q9::Q);
    EXPECT_EQ(hash, 0xf4e236110351f315ULL) << std::hex << hash;
}

TEST(Karman2d, MultiDeviceMatchesSingle)
{
    const auto cfg = smallConfig();
    KarmanD2Q9<dgrid::DGrid> one(channelGrid(cfg, 1), cfg);
    KarmanD2Q9<dgrid::DGrid> four(channelGrid(cfg, 4), cfg, Occ::STANDARD);
    one.run(20);
    four.run(20);
    one.sync();
    four.sync();
    one.current().updateHost();
    four.current().updateHost();
    for (int32_t h = 0; h < cfg.ny; ++h) {
        for (int32_t x = 0; x < cfg.nx; ++x) {
            for (int i = 0; i < D2Q9::Q; ++i) {
                ASSERT_EQ(one.current().hVal({x, 0, h}, i), four.current().hVal({x, 0, h}, i))
                    << x << "," << h << " i=" << i;
            }
        }
    }
}

TEST(Karman2d, UniformFlowWithoutCylinder)
{
    // No obstacle, free-slip-less channel: with walls the profile develops,
    // but far from walls the speed stays near the inflow after few steps.
    KarmanConfig cfg = smallConfig();
    cfg.reynolds = 50.0;
    KarmanD2Q9<dgrid::DGrid> sim(channelGrid(cfg, 1), cfg);
    sim.run(10);
    sim.sync();
    sim.current().updateHost();
    const auto m = sim.macroAt({cfg.nx / 2, 0, cfg.ny / 2});
    EXPECT_NEAR(m[0], 1.0, 0.05);
    EXPECT_GT(m[1], 0.0);
}

TEST(Karman2d, WakeDevelopsBehindCylinder)
{
    const auto cfg = smallConfig();
    KarmanD2Q9<dgrid::DGrid> sim(channelGrid(cfg, 2), cfg);
    sim.run(400);
    sim.sync();
    sim.current().updateHost();
    // Downstream of the cylinder the flow is slower than the free stream
    // beside it (wake deficit).
    const int32_t cx = static_cast<int32_t>(cfg.cylinderX());
    const int32_t cy = static_cast<int32_t>(cfg.cylinderY());
    const auto    wake = sim.macroAt({cx + static_cast<int32_t>(2 * cfg.cylinderRadius()), 0, cy});
    const auto    side = sim.macroAt({cx, 0, 4});
    EXPECT_LT(wake[1], side[1]);
}

TEST(Karman2d, VortexSheddingProducesTransverseOscillation)
{
    // Run long enough for the Karman street to establish, then record the
    // transverse velocity at a probe: it must oscillate (sign changes).
    KarmanConfig cfg = smallConfig();
    cfg.nx = 128;
    cfg.ny = 48;
    cfg.inflow = 0.08;
    cfg.reynolds = 160.0;
    KarmanD2Q9<dgrid::DGrid> sim(channelGrid(cfg, 1), cfg);
    sim.run(1500);

    const index_3d probe{static_cast<int32_t>(cfg.cylinderX() + 4 * cfg.cylinderRadius()), 0,
                         static_cast<int32_t>(cfg.cylinderY())};
    int    signChanges = 0;
    double prev = 0.0;
    for (int s = 0; s < 40; ++s) {
        sim.run(25);
        sim.sync();
        sim.current().updateHost();
        const double uy = sim.macroAt(probe)[2];
        if (s > 5 && uy * prev < 0.0) {
            ++signChanges;
        }
        prev = uy;
    }
    EXPECT_GE(signChanges, 2) << "no vortex shedding detected";
}

}  // namespace neon::lbm
