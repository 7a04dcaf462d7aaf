// BackendSpec: named-field construction via Backend::make(), the
// simGpu()/cpu() one-liners, and the toString()/fromString() round trip.

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/error.hpp"
#include "set/backend.hpp"

namespace neon::set {
namespace {

TEST(BackendSpec, MakeBuildsFromNamedFields)
{
    BackendSpec spec;
    spec.nDevices = 3;
    spec.deviceType = sys::DeviceType::SIM_GPU;
    spec.config = sys::SimConfig::dgxA100Like();
    Backend b = Backend::make(spec);
    EXPECT_EQ(b.devCount(), 3);
    EXPECT_EQ(b.spec().preset(), "dgxA100");
}

TEST(BackendSpec, ToStringRoundTripsThroughFromString)
{
    const BackendSpec spec = BackendSpec::simGpu(4, sys::SimConfig::dgxA100Like());
    const std::string text = spec.toString();
    const BackendSpec back = BackendSpec::fromString(text);
    EXPECT_EQ(back.toString(), text);
    EXPECT_EQ(back.nDevices, 4);
    EXPECT_EQ(back.deviceType, sys::DeviceType::SIM_GPU);
    EXPECT_EQ(back.preset(), "dgxA100");
}

TEST(BackendSpec, DryRunSurvivesRoundTrip)
{
    sys::SimConfig cfg = sys::SimConfig::pcieGen3Like();
    cfg.dryRun = true;
    const BackendSpec spec = BackendSpec::simGpu(2, cfg);
    const BackendSpec back = BackendSpec::fromString(spec.toString());
    EXPECT_TRUE(back.config.dryRun);
    EXPECT_EQ(back.preset(), "pcieGen3");
    EXPECT_EQ(back.toString(), spec.toString());
}

TEST(BackendSpec, BackendToStringMatchesSpec)
{
    Backend b = Backend::make(BackendSpec::cpu(2));
    EXPECT_EQ(b.toString(), b.spec().toString());
    const BackendSpec back = BackendSpec::fromString(b.toString());
    EXPECT_EQ(back.nDevices, 2);
    EXPECT_EQ(back.deviceType, sys::DeviceType::CPU);
}

TEST(BackendSpec, WrappersMatchSpecFactories)
{
    Backend g = Backend::simGpu(2);
    EXPECT_EQ(g.devCount(), 2);
    EXPECT_EQ(g.spec().deviceType, sys::DeviceType::SIM_GPU);
    Backend c = Backend::cpu(1);
    EXPECT_EQ(c.spec().deviceType, sys::DeviceType::CPU);
}

TEST(BackendSpec, HostThreadsRoundTripsThroughToString)
{
    const BackendSpec spec = BackendSpec::cpu(2).withHostThreads(8);
    const std::string text = spec.toString();
    EXPECT_NE(text.find("threads=8"), std::string::npos) << text;
    const BackendSpec back = BackendSpec::fromString(text);
    EXPECT_EQ(back.hostThreads, 8);
    EXPECT_EQ(back.toString(), text);
    // Default (auto) width stays out of the string.
    EXPECT_EQ(BackendSpec::cpu(1).toString().find("threads="), std::string::npos);
}

TEST(BackendSpec, HostThreadsResolution)
{
    unsetenv("NEON_THREADS");
    // Explicit spec value wins over auto.
    Backend pinned = Backend::make(BackendSpec::cpu(1).withHostThreads(3));
    EXPECT_EQ(pinned.hostThreads(), 3);
    // Auto resolves to at least one thread.
    Backend fromAuto = Backend::make(BackendSpec::cpu(1));
    EXPECT_GE(fromAuto.hostThreads(), 1);
    // NEON_THREADS overrides the spec.
    setenv("NEON_THREADS", "5", 1);
    Backend fromEnv = Backend::make(BackendSpec::cpu(1).withHostThreads(3));
    unsetenv("NEON_THREADS");
    EXPECT_EQ(fromEnv.hostThreads(), 5);
}

TEST(BackendSpec, FromStringRejectsBadThreadCount)
{
    EXPECT_THROW(BackendSpec::fromString("CPU x1 preset=zeroCost threads=0"), NeonException);
}

TEST(BackendSpec, FromStringRejectsGarbage)
{
    EXPECT_THROW(BackendSpec::fromString("TPU x4"), NeonException);
    EXPECT_THROW(BackendSpec::fromString("SIM_GPU four"), NeonException);
    EXPECT_THROW(BackendSpec::fromString("SIM_GPU x2 engine=sequential"), NeonException);
    EXPECT_THROW(BackendSpec::fromString("SIM_GPU x2 preset=nosuch"), NeonException);
    EXPECT_THROW(BackendSpec::fromString("SIM_GPU x2 wat"), NeonException);
}

TEST(BackendSpec, CustomConfigRefusesRoundTrip)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.link.latency *= 2.0;  // no longer any named preset
    const BackendSpec spec = BackendSpec::simGpu(2, cfg);
    EXPECT_EQ(spec.preset(), "custom");
    EXPECT_THROW(BackendSpec::fromString(spec.toString()), NeonException);
}

TEST(BackendSpec, MakeRejectsZeroDevices)
{
    BackendSpec spec;
    spec.nDevices = 0;
    EXPECT_THROW(Backend::make(spec), NeonException);
}

}  // namespace
}  // namespace neon::set
