// DField indexing: layouts x cardinalities x device counts; host mirror.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "dgrid/dfield.hpp"

namespace neon::dgrid {

using set::Backend;

// gtest prints a parameter without operator<< as its raw bytes, and ctest
// names each case after that print. The tail is spelled out and zeroed so
// the names carry no uninitialized padding.
struct FieldCase
{
    int          nDev;
    int          card;
    MemLayout    layout;
    std::uint8_t tail[3] = {};
};
static_assert(sizeof(FieldCase) == 12, "FieldCase must have no padding");

/// "dev<n>_card<c>_<layout>": the test-name suffix.
std::string caseName(const FieldCase& c)
{
    return "dev" + std::to_string(c.nDev) + "_card" + std::to_string(c.card) + "_" +
           (c.layout == MemLayout::structOfArrays ? "SoA" : "AoS");
}

class DFieldParam : public ::testing::TestWithParam<FieldCase>
{
};

TEST_P(DFieldParam, HostRoundTripThroughDevice)
{
    const auto [nDev, card, layout, tail] = GetParam();
    DGrid grid(Backend::cpu(nDev), {5, 4, 12}, Stencil::laplace7());
    auto  f = grid.newField<float>("f", card, -1.0f, layout);

    f.forEachHost([](const index_3d& g, int c, float& v) {
        v = static_cast<float>(g.x + 10 * g.y + 100 * g.z + 1000 * c);
    });
    f.updateDev();
    // Overwrite host mirror, read back from device.
    f.fillHost(0.0f);
    f.updateHost();
    f.forEachHost([](const index_3d& g, int c, float& v) {
        EXPECT_EQ(v, static_cast<float>(g.x + 10 * g.y + 100 * g.z + 1000 * c));
    });
}

TEST_P(DFieldParam, PartitionAccessMatchesHostMirror)
{
    const auto [nDev, card, layout, tail] = GetParam();
    DGrid grid(Backend::cpu(nDev), {4, 4, 12}, Stencil::laplace7());
    auto  f = grid.newField<double>("f", card, 0.0, layout);
    f.forEachHost([](const index_3d& g, int c, double& v) { v = g.x + 3.0 * g.z + 7.0 * c; });
    f.updateDev();

    for (int d = 0; d < nDev; ++d) {
        auto part = f.getPartition(d);
        grid.span(d, DataView::STANDARD).forEach([&](const DCell& cell) {
            const index_3d g = part.globalIdx(cell);
            for (int c = 0; c < card; ++c) {
                EXPECT_DOUBLE_EQ(part(cell, c), g.x + 3.0 * g.z + 7.0 * c);
            }
        });
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DFieldParam,
    ::testing::Values(FieldCase{1, 1, MemLayout::structOfArrays},
                      FieldCase{1, 3, MemLayout::structOfArrays},
                      FieldCase{1, 3, MemLayout::arrayOfStructs},
                      FieldCase{2, 1, MemLayout::structOfArrays},
                      FieldCase{3, 4, MemLayout::structOfArrays},
                      FieldCase{3, 4, MemLayout::arrayOfStructs},
                      FieldCase{4, 19, MemLayout::structOfArrays}),
    [](const auto& info) { return caseName(info.param); });

TEST(DField, OutsideDomainReturnsOutsideValue)
{
    DGrid grid(Backend::cpu(1), {3, 3, 3}, Stencil::laplace7());
    auto  f = grid.newField<float>("f", 1, 42.0f);
    f.forEachHost([](const index_3d&, int, float& v) { v = 1.0f; });
    f.updateDev();
    auto       part = f.getPartition(0);
    const auto dim = grid.dim();

    auto low = part.nghData(DCell(0, 0, 0, dim), {-1, 0, 0});
    EXPECT_FALSE(low.isValid);
    EXPECT_EQ(low.value, 42.0f);
    auto high = part.nghData(DCell(2, 2, 2, dim), {0, 0, 1});
    EXPECT_FALSE(high.isValid);
    EXPECT_EQ(high.value, 42.0f);
    auto in = part.nghData(DCell(1, 1, 1, dim), {0, 0, 1});
    EXPECT_TRUE(in.isValid);
    EXPECT_EQ(in.value, 1.0f);
}

TEST(DField, SoABufferIsComponentMajor)
{
    DGrid grid(Backend::cpu(1), {2, 2, 2}, Stencil::laplace7());
    auto  f = grid.newField<int>("f", 2, 0, MemLayout::structOfArrays);
    auto  p = f.getPartition(0);
    // Component stride is one full (z+halo) volume.
    const size_t compStride = static_cast<size_t>(2) * 2 * (2 + 2 * grid.haloRadius());
    EXPECT_EQ(p.bufIdx(0, 0, 0, 1) - p.bufIdx(0, 0, 0, 0), compStride);
    EXPECT_EQ(p.bufIdx(1, 0, 0, 0) - p.bufIdx(0, 0, 0, 0), 1u);
}

TEST(DField, AoSBufferIsCellMajor)
{
    DGrid grid(Backend::cpu(1), {2, 2, 2}, Stencil::laplace7());
    auto  f = grid.newField<int>("f", 3, 0, MemLayout::arrayOfStructs);
    auto  p = f.getPartition(0);
    EXPECT_EQ(p.bufIdx(0, 0, 0, 1) - p.bufIdx(0, 0, 0, 0), 1u);
    EXPECT_EQ(p.bufIdx(1, 0, 0, 0) - p.bufIdx(0, 0, 0, 0), 3u);
}

TEST(DField, AllocatedBytesCoverHalos)
{
    DGrid  grid(Backend::cpu(2), {4, 4, 8}, Stencil::laplace7());
    auto   f = grid.newField<float>("f", 2, 0.0f);
    size_t expected = 0;
    for (int d = 0; d < 2; ++d) {
        expected += 4u * 4 * (grid.part(d).zCount + 2) * 2 * sizeof(float);
    }
    EXPECT_EQ(f.allocatedBytes(), expected);
}

}  // namespace neon::dgrid
