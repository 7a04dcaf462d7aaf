#pragma once
// JSON string escaping shared by every JSON writer in the library (Chrome
// trace export, ExecutionReport, AnalysisReport).

#include <string>
#include <string_view>

namespace neon {

/// Escape `s` for use inside a JSON string literal: quotes, backslashes and
/// every byte below 0x20 (\n, \r and \t by name, the rest as \u00XX).
[[nodiscard]] std::string jsonEscape(std::string_view s);

}  // namespace neon
