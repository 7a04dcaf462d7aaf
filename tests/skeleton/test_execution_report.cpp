// ExecutionReport over skeleton run windows: the OCC overlap metric must
// distinguish Occ::NONE (no overlap) from Occ::STANDARD (halo transfers
// hidden under internal kernels), and the per-container attribution must
// name the launched containers.

#include <gtest/gtest.h>

#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {
namespace {

using set::Backend;

/// Map + stencil pipeline (the paper's Fig. 1 pattern) on a 4-device
/// simulated node with the DGX-A100 cost model.
struct Pipeline
{
    Backend        backend;
    dgrid::DGrid   grid;
    Skeleton       skl;

    explicit Pipeline(Occ occ, index_3d dim = {16, 16, 64})
        : backend(Backend::make({.nDevices = 4,
                                 .deviceType = sys::DeviceType::CPU,
                                 .config = sys::SimConfig::dgxA100Like()})),
          grid(backend, dim, Stencil::laplace7()),
          skl(backend)
    {
        auto B = grid.newField<double>("B", 1, 0.0);
        auto C = grid.newField<double>("C", 1, 0.0);
        auto mapB = grid.newContainer("map", [=](auto& l) mutable {
            auto c = l.load(C, Access::READ);
            auto b = l.load(B, Access::WRITE);
            return [=](const dgrid::DCell& cell) mutable { b(cell) = c(cell) + 1.0; };
        });
        auto stencilC = grid.newContainer("stencil", [=](auto& l) mutable {
            auto b = l.load(B, Access::READ, Compute::STENCIL);
            auto c = l.load(C, Access::WRITE);
            return
                [=](const dgrid::DCell& cell) mutable { c(cell) = b.nghVal(cell, {0, 0, 1}); };
        });
        skl.sequence({mapB, stencilC}, SequenceOptions().withName("pipeline").withOcc(occ));
    }

    ExecutionReport profiledRun(int iters = 2)
    {
        auto profiler = backend.profiler();
        profiler.clear();
        profiler.enable(true);
        for (int i = 0; i < iters; ++i) {
            skl.run();
        }
        skl.sync();
        profiler.enable(false);
        return skl.executionReport();
    }
};

/// True when a byte below 0x20 sits inside a JSON string literal of `json`.
bool rawControlByteInString(const std::string& json)
{
    bool inString = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const auto c = static_cast<unsigned char>(json[i]);
        if (inString && c == '\\') {
            ++i;  // skip the escaped character
        } else if (c == '"') {
            inString = !inString;
        } else if (inString && c < 0x20) {
            return true;
        }
    }
    return false;
}

TEST(ExecutionReport, EmptyBeforeAnyRun)
{
    Pipeline p(Occ::NONE);
    const auto report = p.skl.executionReport();
    EXPECT_TRUE(report.empty());
    EXPECT_EQ(p.skl.runWindow(), (std::pair<int, int>{-1, -1}));
}

TEST(ExecutionReport, OccNoneHasNoOverlap)
{
    Pipeline   p(Occ::NONE);
    const auto report = p.profiledRun();
    ASSERT_FALSE(report.empty());
    EXPECT_GT(report.haloBytes(), 0u);
    // Without OCC the halo update is a barrier between map and stencil:
    // no transfer time may hide under a kernel.
    EXPECT_NEAR(report.overlapPercent(), 0.0, 1.0);
}

TEST(ExecutionReport, OccStandardOverlapsTransfers)
{
    Pipeline   p(Occ::STANDARD);
    const auto report = p.profiledRun();
    ASSERT_FALSE(report.empty());
    EXPECT_GT(report.haloBytes(), 0u);
    EXPECT_GT(report.overlapPercent(), 0.0);
}

TEST(ExecutionReport, AttributesTimePerContainer)
{
    Pipeline   p(Occ::STANDARD);
    const auto report = p.profiledRun();
    bool       sawMap = false;
    bool       sawStencil = false;
    for (const auto& c : report.containers()) {
        sawMap = sawMap || c.name.find("map") != std::string::npos;
        sawStencil = sawStencil || c.name.find("stencil") != std::string::npos;
        EXPECT_GT(c.launches, 0);
    }
    EXPECT_TRUE(sawMap);
    EXPECT_TRUE(sawStencil);
}

TEST(ExecutionReport, DeviceTableCoversBackend)
{
    Pipeline   p(Occ::STANDARD);
    const auto report = p.profiledRun();
    ASSERT_EQ(report.devices().size(), 4u);
    for (const auto& d : report.devices()) {
        EXPECT_GT(d.computeBusy, 0.0);
        EXPECT_GE(d.overlap, 0.0);
        EXPECT_LE(d.overlap, d.transferBusy + 1e-12);
    }
    EXPECT_GT(report.deviceUtilization(), 0.0);
    EXPECT_LE(report.deviceUtilization(), 1.0 + 1e-12);
    EXPECT_GT(report.criticalPath(), 0.0);
    EXPECT_LE(report.criticalPath(), report.makespan() + 1e-12);
}

TEST(ExecutionReport, WindowCoversOnlyRunsSinceLastSync)
{
    Pipeline p(Occ::NONE);
    p.profiledRun(2);
    const auto w1 = p.skl.runWindow();
    EXPECT_GE(w1.first, 0);
    EXPECT_EQ(w1.second, w1.first + 1);

    // A new window opens after the sync; old entries don't leak into it.
    auto profiler = p.backend.profiler();
    profiler.enable(true);
    p.skl.run();
    p.skl.sync();
    profiler.enable(false);
    const auto w2 = p.skl.runWindow();
    EXPECT_GT(w2.first, w1.second);
    EXPECT_EQ(w2.first, w2.second);
    const auto report = p.skl.executionReport();
    ASSERT_FALSE(report.empty());
    const auto whole = profiler.report();
    EXPECT_LT(report.eventCount(), whole.eventCount());
}

TEST(ExecutionReport, SerializesToJsonAndText)
{
    Pipeline   p(Occ::STANDARD);
    const auto report = p.profiledRun();
    const auto json = report.toJson();
    for (const char* key : {"\"overlapPercent\"", "\"haloBytes\"", "\"devices\"", "\"streams\"",
                            "\"containers\"", "\"criticalPath\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
    }
    const auto text = report.toString();
    EXPECT_NE(text.find("overlap"), std::string::npos);
}

TEST(ExecutionReport, JsonEscapesControlCharactersInNames)
{
    sys::TraceEntry e;
    e.kind = "kernel";
    e.name = "step\t1\x01";
    e.endV = 1e-6;
    const auto json = ExecutionReport::fromEntries({e}, 1).toJson();
    EXPECT_NE(json.find("\"name\": \"step\\t1\\u0001\""), std::string::npos) << json;
    EXPECT_FALSE(rawControlByteInString(json)) << json;
}

}  // namespace
}  // namespace neon::skeleton
