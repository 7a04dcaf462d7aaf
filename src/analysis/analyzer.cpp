#include "set/analyzer.hpp"

#include "analysis/race_detector.hpp"

namespace neon::set {

void Analyzer::enable(bool on)
{
    if (auto* session = analysis::RaceSession::of(mBackend.engine())) {
        session->setEnabled(on);
    } else if (on) {
        mBackend.engine().setEnqueueHook(
            std::make_shared<analysis::RaceSession>(mBackend.devCount()));
    }
}

bool Analyzer::enabled() const
{
    const auto* session = analysis::RaceSession::of(mBackend.engine());
    return session != nullptr && session->enabled();
}

void Analyzer::clear()
{
    if (auto* session = analysis::RaceSession::of(mBackend.engine())) {
        session->clear();
    }
}

analysis::AnalysisReport Analyzer::raceReport() const
{
    const auto* session = analysis::RaceSession::of(mBackend.engine());
    return session != nullptr ? session->report() : analysis::AnalysisReport{};
}

analysis::AnalysisReport Analyzer::drainRaces() const
{
    auto* session = analysis::RaceSession::of(mBackend.engine());
    return session != nullptr ? session->takeNew() : analysis::AnalysisReport{};
}

}  // namespace neon::set
