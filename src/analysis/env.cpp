#include "analysis/env.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "analysis/race_detector.hpp"
#include "set/analyzer.hpp"

namespace neon::analysis {

namespace {

std::atomic<bool> gViolationSeen{false};

void exitHook()
{
    if (gViolationSeen.load(std::memory_order_relaxed)) {
        std::fflush(nullptr);
        std::_Exit(3);
    }
}

}  // namespace

bool envEnabled()
{
    static const bool on = [] {
        const char* v = std::getenv("NEON_ANALYSIS");
        const bool  enabled = v != nullptr && *v != '\0' && std::string(v) != "0";
        if (enabled) {
            std::fprintf(stderr, "[neon-analysis] enabled\n");
        }
        return enabled;
    }();
    return on;
}

void installEnvHooks(const set::Backend& backend)
{
    set::Analyzer races = backend.analysis();
    if (races.enabled()) {
        return;  // this backend's detector is already fed
    }
    races.enable();
    RaceSession::of(backend.engine())->reportFindings();
}

void reportEnvViolations(const std::string& what, const AnalysisReport& report)
{
    if (report.clean()) {
        return;
    }
    static std::once_flag atexitOnce;
    std::call_once(atexitOnce, [] { std::atexit(exitHook); });
    gViolationSeen.store(true, std::memory_order_relaxed);
    std::fprintf(stderr, "[neon-analysis] %s: %zu violation(s)\n", what.c_str(),
                 report.violations.size());
    for (const auto& v : report.violations) {
        std::fprintf(stderr, "[neon-analysis]   %s: %s\n", to_string(v.kind).c_str(),
                     v.message.c_str());
    }
}

}  // namespace neon::analysis
