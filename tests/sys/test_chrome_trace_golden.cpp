// Golden-file test for Trace::chromeTrace(): a fixed single-device scenario
// with a stalled kernel and a twice-retried transfer must serialize to the
// exact JSON checked in at data/chrome_trace_fault.golden.json — including
// the kind="fault" retry and stall rows the robustness layer emits.
// Timestamps and durations are cost-model values, so they are normalized to
// '#' before comparison; everything else (names, categories, lane ids,
// attribution args, row order) is compared byte for byte.
//
// Regenerate after an intentional exporter change with
//
//   NEON_UPDATE_GOLDEN=1 ./test_sys --gtest_filter='ChromeTraceGolden.*'

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "set/backend.hpp"
#include "sys/fault.hpp"
#include "sys/stream.hpp"
#include "enqueue_kernel.hpp"

namespace neon::sys {
namespace {

std::string goldenPath()
{
    return std::string(NEON_TEST_DATA_DIR) + "/chrome_trace_fault.golden.json";
}

/// Replace every numeric value following "ts": or "dur": with '#'.
std::string normalizeTimes(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    auto endsWith = [&out](const char* suffix) {
        const std::string s(suffix);
        return out.size() >= s.size() && out.compare(out.size() - s.size(), s.size(), s) == 0;
    };
    for (size_t i = 0; i < raw.size();) {
        out += raw[i++];
        if (endsWith("\"ts\":") || endsWith("\"dur\":")) {
            while (i < raw.size() &&
                   (std::isdigit(static_cast<unsigned char>(raw[i])) || raw[i] == '.' ||
                    raw[i] == '-' || raw[i] == '+' || raw[i] == 'e' || raw[i] == 'E')) {
                ++i;
            }
            out += '#';
        }
    }
    return out;
}

std::string recordedTrace()
{
    FaultPlan plan(42);
    plan.add(FaultSpec::transientTransfer(2).onOp(OpKind::Transfer));
    plan.add(FaultSpec::streamStall(1e-3).onOp(OpKind::Kernel));

    set::Backend b = set::Backend::make(
        set::BackendSpec::simGpu(1, SimConfig::dgxA100Like()).withFaults(plan));
    b.profiler().enable();

    enqueueKernel(b.stream(0), "compute", 1'000'000, {100.0, 0.0}, [] {});
    const std::vector<TransferChunk> chunks = {{1 << 20, 1}};
    b.stream(0).transfer({"halo", chunks, {}});
    b.sync();

    return b.profiler().chromeTrace();
}

}  // namespace

TEST(ChromeTraceGolden, FaultAndRetryRowsMatchGoldenFile)
{
    const std::string got = normalizeTimes(recordedTrace());

    if (std::getenv("NEON_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << got;
        GTEST_SKIP() << "golden file regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << goldenPath()
                           << " — regenerate with NEON_UPDATE_GOLDEN=1";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "chromeTrace() output changed; if intentional, regenerate with NEON_UPDATE_GOLDEN=1";

    // The scenario must actually exercise the fault rows the golden locks in.
    EXPECT_NE(got.find("\"retry#1:halo\""), std::string::npos);
    EXPECT_NE(got.find("\"retry#2:halo\""), std::string::npos);
    EXPECT_NE(got.find("\"stall:compute\""), std::string::npos);
    EXPECT_NE(got.find("\"cat\":\"fault\""), std::string::npos);
}

}  // namespace neon::sys
