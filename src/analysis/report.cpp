#include "analysis/report.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "core/json.hpp"

namespace neon::analysis {

std::string to_string(ViolationKind k)
{
    switch (k) {
        case ViolationKind::MissingDependency: return "missingDependency";
        case ViolationKind::SpuriousEdge: return "spuriousEdge";
        case ViolationKind::StaleHaloRead: return "staleHaloRead";
        case ViolationKind::GraphCycle: return "graphCycle";
        case ViolationKind::LevelOrder: return "levelOrder";
        case ViolationKind::DeadNodeScheduled: return "deadNodeScheduled";
        case ViolationKind::MissingWait: return "missingWait";
        case ViolationKind::Race: return "race";
        case ViolationKind::WaitBeforeRecord: return "waitBeforeRecord";
        case ViolationKind::UndeclaredRead: return "undeclaredRead";
        case ViolationKind::UndeclaredWrite: return "undeclaredWrite";
        case ViolationKind::WriteViaReadAccess: return "writeViaReadAccess";
        case ViolationKind::UndeclaredStencil: return "undeclaredStencil";
        case ViolationKind::StencilRadiusExceeded: return "stencilRadiusExceeded";
        case ViolationKind::OutOfSpanWrite: return "outOfSpanWrite";
        case ViolationKind::OverdeclaredAccess: return "overdeclaredAccess";
    }
    return "?";
}

namespace {

constexpr std::array<ViolationKind, 16> kAllKinds = {
    ViolationKind::MissingDependency,     ViolationKind::SpuriousEdge,
    ViolationKind::StaleHaloRead,         ViolationKind::GraphCycle,
    ViolationKind::LevelOrder,            ViolationKind::DeadNodeScheduled,
    ViolationKind::MissingWait,           ViolationKind::Race,
    ViolationKind::WaitBeforeRecord,      ViolationKind::UndeclaredRead,
    ViolationKind::UndeclaredWrite,       ViolationKind::WriteViaReadAccess,
    ViolationKind::UndeclaredStencil,     ViolationKind::StencilRadiusExceeded,
    ViolationKind::OutOfSpanWrite,        ViolationKind::OverdeclaredAccess,
};

}  // namespace

size_t AnalysisReport::count(ViolationKind k) const
{
    return static_cast<size_t>(std::count_if(violations.begin(), violations.end(),
                                             [&](const Violation& v) { return v.kind == k; }));
}

void AnalysisReport::merge(const AnalysisReport& other)
{
    violations.insert(violations.end(), other.violations.begin(), other.violations.end());
    opsAnalyzed += other.opsAnalyzed;
    edgesChecked += other.edgesChecked;
    pairsChecked += other.pairsChecked;
}

std::string AnalysisReport::summary() const
{
    if (clean()) {
        return "clean";
    }
    std::ostringstream os;
    os << violations.size() << " violation(s):";
    bool first = true;
    for (ViolationKind k : kAllKinds) {
        if (const size_t n = count(k); n > 0) {
            os << (first ? " " : ", ") << n << " " << to_string(k);
            first = false;
        }
    }
    return os.str();
}

std::string AnalysisReport::toString() const
{
    std::ostringstream os;
    os << "analysis: " << summary() << " (" << opsAnalyzed << " ops, " << edgesChecked
       << " edges, " << pairsChecked << " pairs checked)\n";
    for (const Violation& v : violations) {
        os << "  [" << to_string(v.kind) << "] " << v.message << "\n";
    }
    return os.str();
}

std::string AnalysisReport::toJson() const
{
    std::ostringstream os;
    os << "{\"opsAnalyzed\":" << opsAnalyzed << ",\"edgesChecked\":" << edgesChecked
       << ",\"pairsChecked\":" << pairsChecked << ",\"violations\":[";
    for (size_t i = 0; i < violations.size(); ++i) {
        const Violation& v = violations[i];
        os << (i > 0 ? "," : "") << "{\"kind\":\"" << to_string(v.kind) << "\",\"message\":\""
           << jsonEscape(v.message) << "\",\"nodeA\":" << v.nodeA << ",\"nodeB\":" << v.nodeB
           << ",\"containerA\":\"" << jsonEscape(v.containerA) << "\",\"containerB\":\""
           << jsonEscape(v.containerB) << "\",\"runA\":" << v.runA << ",\"runB\":" << v.runB
           << ",\"device\":" << v.device << "}";
    }
    os << "]}";
    return os.str();
}

}  // namespace neon::analysis
