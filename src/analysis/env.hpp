#pragma once
// NEON_ANALYSIS=1 environment switch (docs/analysis.md). When the variable
// is set, Skeleton::sequence() lints every schedule it builds and arms the
// race detector, which reports each finding as it is made; any violation is
// printed to stderr and latches the process exit code to 3 so
// tools/neon-lint can run unmodified examples and benches under the
// detector and fail on findings.

#include <string>

#include "analysis/report.hpp"

namespace neon::set {
class Backend;
}

namespace neon::analysis {

/// True iff NEON_ANALYSIS is set to a non-empty value other than "0".
/// Read once; the first enabled query prints the "[neon-analysis] enabled"
/// marker tools/neon-lint keys on to tell instrumented from plain runs.
bool envEnabled();

/// Enable race analysis on the backend and print each finding as the
/// detector makes it. Idempotent per backend.
void installEnvHooks(const set::Backend& backend);

/// Print the report's violations to stderr and latch exit code 3 (via an
/// atexit hook) so an otherwise-passing example fails visibly. No-op on a
/// clean report.
void reportEnvViolations(const std::string& what, const AnalysisReport& report);

}  // namespace neon::analysis
