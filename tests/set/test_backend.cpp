#include "set/backend.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "dgrid/dgrid.hpp"
#include "set/scalar.hpp"
#include "skeleton/skeleton.hpp"
#include "sys/device.hpp"

namespace neon::set {

TEST(Backend, DefaultIsAnEmptyHandle)
{
    EXPECT_FALSE(Backend{}.valid());
    Backend b = Backend::cpu();
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(b.devCount(), 1);
    EXPECT_EQ(b.device(0).type(), sys::DeviceType::CPU);
    EXPECT_FALSE(b.isDryRun());
}

TEST(Backend, EmptyHandleIsRejectedByWhatKeepsIt)
{
    const Backend empty;
    EXPECT_THROW(dgrid::DGrid(empty, {4, 4, 4}), NeonException);
    EXPECT_THROW(GlobalScalar<double>(empty, "s"), NeonException);
    EXPECT_THROW(skeleton::Skeleton{empty}, NeonException);
}

TEST(Backend, SimGpuCarriesCostModel)
{
    Backend b = Backend::simGpu(4);
    EXPECT_EQ(b.devCount(), 4);
    EXPECT_EQ(b.device(2).type(), sys::DeviceType::SIM_GPU);
    EXPECT_GT(b.config().link.latency, 0.0);
}

TEST(Backend, StreamsAreLazyAndStable)
{
    Backend b = Backend::cpu(2);
    auto&   s = b.stream(1, 3);
    EXPECT_EQ(&b.stream(1, 3), &s);  // same object on repeat
    EXPECT_EQ(s.id(), 3);
    EXPECT_EQ(s.device().id(), 1);
    // Lower indices were created to fill the vector.
    EXPECT_EQ(b.stream(1, 0).id(), 0);
}

TEST(Backend, RejectsBadIndices)
{
    Backend b = Backend::cpu(2);
    EXPECT_THROW(b.device(2), NeonException);
    EXPECT_THROW(b.device(-1), NeonException);
    EXPECT_THROW(b.stream(5, 0), NeonException);
    EXPECT_THROW(b.stream(0, -1), NeonException);
}

TEST(Backend, RejectsZeroDevices)
{
    EXPECT_THROW(Backend::cpu(0), NeonException);
}

TEST(Backend, HandleIsShared)
{
    Backend a = Backend::cpu(3);
    Backend b = a;  // copy shares devices and streams
    EXPECT_EQ(&a.device(0), &b.device(0));
    EXPECT_EQ(&a.stream(2, 0), &b.stream(2, 0));
}

TEST(Backend, ToStringMentionsKindAndCount)
{
    EXPECT_NE(Backend::simGpu(8).toString().find("SIM_GPU x8"), std::string::npos);
    EXPECT_NE(Backend::cpu(1).toString().find("CPU x1"), std::string::npos);
}

TEST(Backend, DataUidsAreProcessUnique)
{
    const auto a = Backend::newDataUid();
    const auto b = Backend::newDataUid();
    EXPECT_NE(a, b);
    EXPECT_NE(b, 0u);
}

TEST(EventSet, MakeAllocatesPerDevice)
{
    auto es = EventSet::make(3);
    EXPECT_TRUE(es.valid());
    EXPECT_EQ(es.devCount(), 3);
    EXPECT_NE(&es[0], &es[1]);
    EXPECT_FALSE(es[2].recorded());
}

TEST(StreamSet, IndexesAColumnOfTheStreamMatrix)
{
    Backend   b = Backend::cpu(3);
    StreamSet ss(b, 2);
    EXPECT_EQ(ss.devCount(), 3);
    EXPECT_EQ(ss.setIdx(), 2);
    EXPECT_EQ(ss[1].id(), 2);
    EXPECT_EQ(ss[1].device().id(), 1);
}

}  // namespace neon::set
