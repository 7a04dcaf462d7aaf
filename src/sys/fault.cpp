#include "sys/fault.hpp"

#include <algorithm>
#include <sstream>

#include "core/error.hpp"

namespace neon::sys {

namespace {

/// splitmix64: cheap, high-quality 64-bit mix used for the seeded
/// probability gate. Pure function of its input, so decisions replay
/// identically regardless of thread interleaving.
uint64_t mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Deterministic [0,1) draw keyed by plan seed, rule index and op identity.
double draw(uint64_t seed, size_t specIdx, int device, int stream, uint64_t ordinal)
{
    uint64_t h = mix64(seed ^ mix64(static_cast<uint64_t>(specIdx) + 1));
    h = mix64(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(device)) << 32 |
                   static_cast<uint64_t>(static_cast<uint32_t>(stream))));
    h = mix64(h ^ ordinal);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

uint64_t ordinalKey(int device, int stream, OpKind kind)
{
    return static_cast<uint64_t>(static_cast<uint32_t>(device)) << 40 |
           static_cast<uint64_t>(static_cast<uint32_t>(stream)) << 8 |
           static_cast<uint64_t>(kind);
}

bool isWorkOp(OpKind kind)
{
    return kind == OpKind::Kernel || kind == OpKind::Transfer || kind == OpKind::HostFn;
}

}  // namespace

std::string to_string(FaultKind k)
{
    switch (k) {
        case FaultKind::TransientTransferFailure: return "transientTransferFailure";
        case FaultKind::PermanentDeviceLoss: return "permanentDeviceLoss";
        case FaultKind::StreamStall: return "streamStall";
        case FaultKind::LinkDegradation: return "linkDegradation";
    }
    return "?";
}

FaultSpec& FaultSpec::onOp(OpKind k)
{
    NEON_CHECK(k != OpKind::Fault && k != OpKind::HostPool,
               "FaultSpec::onOp: '" + to_string(k) + "' names trace rows, not ops");
    opKind = k;
    return *this;
}

FaultSpec FaultSpec::transientTransfer(int failAttempts)
{
    FaultSpec s;
    s.kind = FaultKind::TransientTransferFailure;
    s.failAttempts = failAttempts;
    return s;
}

FaultSpec FaultSpec::deviceLoss(int device, int fromRun)
{
    FaultSpec s;
    s.kind = FaultKind::PermanentDeviceLoss;
    s.device = device;
    s.run = fromRun;
    return s;
}

FaultSpec FaultSpec::streamStall(double seconds)
{
    FaultSpec s;
    s.kind = FaultKind::StreamStall;
    s.stallSeconds = seconds;
    return s;
}

FaultSpec FaultSpec::linkDegrade(double factor)
{
    FaultSpec s;
    s.kind = FaultKind::LinkDegradation;
    s.slowdownFactor = factor;
    return s;
}

std::string FaultSpec::toString() const
{
    std::ostringstream os;
    os << to_string(kind);
    if (device >= 0) {
        os << " dev" << device;
    }
    if (stream >= 0) {
        os << " s" << stream;
    }
    if (run >= 0) {
        os << " run" << run;
    }
    if (opKind) {
        os << " op=" << to_string(*opKind);
    }
    if (probability < 1.0) {
        os << " p=" << probability;
    }
    switch (kind) {
        case FaultKind::TransientTransferFailure: os << " fail=" << failAttempts; break;
        case FaultKind::StreamStall: os << " stall=" << stallSeconds << "s"; break;
        case FaultKind::LinkDegradation: os << " x" << slowdownFactor; break;
        case FaultKind::PermanentDeviceLoss: break;
    }
    return os.str();
}

std::string FaultPlan::toString() const
{
    std::ostringstream os;
    os << "faultPlan(seed=" << seed << ", " << specs.size() << " rule(s))";
    for (const auto& s : specs) {
        os << "\n  " << s.toString();
    }
    return os.str();
}

void FaultInjector::setPlan(FaultPlan plan)
{
    mPlan = std::move(plan);
    mOrdinals.clear();
    mLost.clear();
    mActive = !mPlan.empty();
}

const FaultPlan& FaultInjector::plan() const
{
    return mPlan;
}

bool FaultInjector::deviceLost(int device) const
{
    return device >= 0 && static_cast<size_t>(device) < mLost.size() &&
           mLost[static_cast<size_t>(device)].has_value();
}

FaultDecision FaultInjector::decide(int device, int stream, OpKind kind, const OpAttribution& attr)
{
    if (!mActive) {
        return {};
    }
    const uint64_t ordinal = mOrdinals[ordinalKey(device, stream, kind)]++;

    FaultDecision d;
    for (size_t i = 0; i < mPlan.specs.size(); ++i) {
        const FaultSpec& spec = mPlan.specs[i];
        if (spec.device >= 0 && spec.device != device) {
            continue;
        }
        if (spec.stream >= 0 && spec.stream != stream) {
            continue;
        }
        if (spec.opKind && *spec.opKind != kind) {
            continue;
        }

        if (spec.kind == FaultKind::PermanentDeviceLoss) {
            if (device >= 0 && static_cast<size_t>(device) < mLost.size() &&
                mLost[static_cast<size_t>(device)]) {
                // Sticky hit: an op of an earlier run still queued on another
                // stream reports the loss under the trigger's attribution.
                d.deviceLost = true;
                d.lostAttr = *mLost[static_cast<size_t>(device)];
            } else if (spec.run < 0 || (attr.runId >= 0 && attr.runId >= spec.run)) {
                // Trigger at the run boundary: the decision depends only on
                // the op's run id, never on cross-stream arrival order.
                if (device >= 0) {
                    if (static_cast<size_t>(device) >= mLost.size()) {
                        mLost.resize(static_cast<size_t>(device) + 1);
                    }
                    mLost[static_cast<size_t>(device)] = attr;
                }
                d.deviceLost = true;
                d.lostAttr = attr;
            }
            continue;
        }

        // Rules below match one run at a time (or any run) and pass the
        // seeded probability gate per matching op.
        if (spec.run >= 0 && attr.runId != spec.run) {
            continue;
        }
        if (spec.probability < 1.0 &&
            draw(mPlan.seed, i, device, stream, ordinal) >= spec.probability) {
            continue;
        }
        switch (spec.kind) {
            case FaultKind::TransientTransferFailure:
                if (kind == OpKind::Transfer) {
                    d.failedAttempts = std::max(d.failedAttempts, spec.failAttempts);
                }
                break;
            case FaultKind::StreamStall:
                if (isWorkOp(kind)) {
                    d.stallSeconds += spec.stallSeconds;
                }
                break;
            case FaultKind::LinkDegradation:
                if (kind == OpKind::Transfer) {
                    d.slowdown *= spec.slowdownFactor;
                }
                break;
            case FaultKind::PermanentDeviceLoss: break;  // handled above
        }
    }
    return d;
}

}  // namespace neon::sys
