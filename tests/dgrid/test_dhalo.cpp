// Halo update correctness for DField: after haloUpdate, neighbour reads
// across partition boundaries see the owning partition's values, for every
// layout / cardinality / device-count combination. Also checks the transfer
// count accounting of §IV-C2 (2 per device for AoS, 2*card for SoA).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "dgrid/dfield.hpp"
#include "set/container.hpp"

namespace neon::dgrid {

using set::Backend;
using set::Container;
using set::StreamSet;

// gtest prints a parameter without operator<< as its raw bytes, and ctest
// names each case after that print. The tail is spelled out and zeroed so
// the names carry no uninitialized padding.
struct HaloCase
{
    int          nDev;
    int          card;
    MemLayout    layout;
    std::uint8_t tail[3] = {};
};
static_assert(sizeof(HaloCase) == 12, "HaloCase must have no padding");

/// "dev<n>_card<c>_<layout>": the test-name suffix.
std::string caseName(const HaloCase& c)
{
    return "dev" + std::to_string(c.nDev) + "_card" + std::to_string(c.card) + "_" +
           (c.layout == MemLayout::structOfArrays ? "SoA" : "AoS");
}

class DHaloParam : public ::testing::TestWithParam<HaloCase>
{
};

TEST_P(DHaloParam, NeighbourReadsSeeOwnerValuesAfterHalo)
{
    const auto [nDev, card, layout, tail] = GetParam();
    DGrid grid(Backend::cpu(nDev), {4, 4, 16}, Stencil::laplace7());
    auto  f = grid.newField<double>("f", card, -7.0, layout);
    f.forEachHost([](const index_3d& g, int c, double& v) {
        v = g.x + 17.0 * g.y + 289.0 * g.z + 4913.0 * c;
    });
    f.updateDev();

    StreamSet streams(grid.backend(), 0);
    auto      h = Container::haloUpdate(f.haloOps());
    h.run(streams);
    grid.backend().sync();

    // Every neighbour read from every owned cell must match the global
    // ground truth (or the outside value off-domain).
    for (int d = 0; d < nDev; ++d) {
        auto part = f.getPartition(d);
        // Re-point partition at the *device* buffer (already is) but read on
        // host: CPU backend device buffers are host memory.
        grid.span(d, DataView::STANDARD).forEach([&](const DCell& cell) {
            const index_3d g = part.globalIdx(cell);
            for (const auto& off : grid.stencil().points()) {
                const index_3d n = g + off;
                for (int c = 0; c < card; ++c) {
                    const auto got = part.nghData(cell, off, c);
                    if (grid.dim().contains(n)) {
                        EXPECT_TRUE(got.isValid);
                        EXPECT_DOUBLE_EQ(got.value, n.x + 17.0 * n.y + 289.0 * n.z + 4913.0 * c)
                            << "cell " << g.to_string() << " off " << off.to_string();
                    } else {
                        EXPECT_FALSE(got.isValid);
                        EXPECT_DOUBLE_EQ(got.value, -7.0);
                    }
                }
            }
        });
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DHaloParam,
    ::testing::Values(HaloCase{2, 1, MemLayout::structOfArrays},
                      HaloCase{2, 3, MemLayout::structOfArrays},
                      HaloCase{2, 3, MemLayout::arrayOfStructs},
                      HaloCase{4, 1, MemLayout::structOfArrays},
                      HaloCase{4, 5, MemLayout::arrayOfStructs},
                      HaloCase{8, 2, MemLayout::structOfArrays}),
    [](const auto& info) { return caseName(info.param); });

namespace {

/// Count transfer chunks a halo send enqueues for one device.
size_t chunkCount(const DField<float>& f, int dev)
{
    auto& backend = f.grid().backend();
    backend.profiler().trace().clear();
    backend.profiler().trace().enable(true);
    f.haloOps()->enqueueHaloSend(dev, backend.stream(dev));
    backend.sync();
    backend.profiler().trace().enable(false);
    size_t n = 0;
    for (const auto& e : backend.profiler().trace().entries()) {
        if (e.kind == "transfer") {
            ++n;
        }
    }
    return n;
}

}  // namespace

TEST(DHalo, AoSUsesTwoTransfersPerInteriorDevice)
{
    DGrid grid(Backend::cpu(3), {4, 4, 12}, Stencil::laplace7());
    auto  f = grid.newField<float>("f", 4, 0.0f, MemLayout::arrayOfStructs);
    EXPECT_EQ(chunkCount(f, 1), 2u);  // one send per direction
    EXPECT_EQ(chunkCount(f, 0), 1u);  // edge device: one neighbour
}

TEST(DHalo, SoAUsesTwoTransfersPerComponent)
{
    DGrid grid(Backend::cpu(3), {4, 4, 12}, Stencil::laplace7());
    auto  f = grid.newField<float>("f", 4, 0.0f, MemLayout::structOfArrays);
    EXPECT_EQ(chunkCount(f, 1), 2u * 4);
    EXPECT_EQ(chunkCount(f, 2), 1u * 4);
}

TEST(DHalo, SingleDeviceHaloIsNoop)
{
    DGrid grid(Backend::cpu(1), {4, 4, 4}, Stencil::laplace7());
    auto  f = grid.newField<float>("f", 1, 0.0f);
    EXPECT_EQ(chunkCount(f, 0), 0u);
}

}  // namespace neon::dgrid
