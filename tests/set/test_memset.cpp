#include "set/memset.hpp"

#include <gtest/gtest.h>

namespace neon::set {

TEST(MemSet, AllocatesPerDeviceCounts)
{
    Backend        b = Backend::cpu(3);
    MemSet<double> m(b, "m", {10, 20, 30});
    EXPECT_EQ(m.setCount(), 3);
    EXPECT_EQ(m.count(0), 10u);
    EXPECT_EQ(m.count(2), 30u);
    EXPECT_EQ(m.totalCount(), 60u);
    EXPECT_EQ(b.device(0).bytesInUse(), 10 * sizeof(double));
    EXPECT_EQ(b.device(1).bytesInUse(), 20 * sizeof(double));
}

TEST(MemSet, HostLogicalViewSpansPartitions)
{
    Backend     b = Backend::cpu(2);
    MemSet<int> m(b, "m", {3, 2});
    for (size_t g = 0; g < 5; ++g) {
        m.eRef(g) = static_cast<int>(g * 10);
    }
    EXPECT_EQ(m.rawHost(0)[0], 0);
    EXPECT_EQ(m.rawHost(0)[2], 20);
    EXPECT_EQ(m.rawHost(1)[0], 30);
    EXPECT_EQ(m.rawHost(1)[1], 40);
    EXPECT_THROW(m.eRef(5), NeonException);
}

TEST(MemSet, UpdateDevAndHostRoundTrip)
{
    Backend     b = Backend::cpu(2);
    MemSet<int> m(b, "m", {4, 4});
    for (size_t g = 0; g < 8; ++g) {
        m.eRef(g) = static_cast<int>(g);
    }
    m.updateDev();
    // Mutate device, read back.
    m.rawDev(1)[3] = 99;
    m.updateHost();
    EXPECT_EQ(m.eRef(7), 99);
    EXPECT_EQ(m.eRef(0), 0);
}

TEST(MemSet, UidsAreUnique)
{
    Backend     b = Backend::cpu(1);
    MemSet<int> a(b, "a", {1});
    MemSet<int> c(b, "c", {1});
    EXPECT_NE(a.uid(), c.uid());
}

TEST(MemSet, FreesDeviceMemoryOnDestruction)
{
    Backend b = Backend::cpu(1);
    {
        MemSet<int> m(b, "m", {1000});
        EXPECT_EQ(b.device(0).bytesInUse(), 4000u);
    }
    EXPECT_EQ(b.device(0).bytesInUse(), 0u);
}

TEST(MemSet, DryRunSkipsHostMirror)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    Backend     b = Backend::simGpu(2, cfg);
    MemSet<float> m(b, "m", {1u << 20, 1u << 20});
    EXPECT_FALSE(m.hasHostMirror());
    EXPECT_EQ(b.device(0).bytesInUse(), (1u << 20) * sizeof(float));
    m.updateDev();  // no-op, must not crash
}

}  // namespace neon::set
