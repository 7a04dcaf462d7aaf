#pragma once
// Deterministic fault injection for the simulated multi-GPU runtime
// (docs/robustness.md). A FaultPlan is a seedable list of fault rules —
// transient transfer failures, permanent device loss, stream stalls and
// link degradation — each targetable by device, stream, op kind and run
// index. The engine consults the plan through a FaultInjector as it
// processes ops; every decision is a pure function of the plan seed and the
// op's (device, stream, kind, per-stream ordinal, run id), so a faulted
// run is bitwise reproducible.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sys/op.hpp"

namespace neon::sys {

enum class FaultKind : uint8_t
{
    TransientTransferFailure,  ///< transfer fails N attempts, then succeeds
    PermanentDeviceLoss,       ///< device dies at a run boundary, fail-stop
    StreamStall,               ///< extra virtual latency before matching ops
    LinkDegradation,           ///< transfer durations scaled by a factor
};

std::string to_string(FaultKind k);

/// One injected fault rule. Target filters default to "any" (-1 / nullopt);
/// `probability` gates each matching op through a seeded hash so sub-unit
/// rates stay deterministic. Build with the static factories and narrow
/// with the fluent setters:
///
///   FaultSpec::transientTransfer(2).onDevice(1).onRun(0).withProbability(0.5)
struct FaultSpec
{
    FaultKind kind = FaultKind::TransientTransferFailure;
    int       device = -1;  ///< -1: any device
    int       stream = -1;  ///< -1: any stream
    /// Transient/stall/degrade: exact run id to target (-1: every run).
    /// PermanentDeviceLoss: first lost run — ops of run >= this fail, and
    /// once triggered the device stays lost for everything after (negative:
    /// lost immediately, including pre-run setup ops).
    int                   run = -1;
    std::optional<OpKind> opKind;  ///< restrict to one op kind
    double                probability = 1.0;
    int                   failAttempts = 1;      ///< TransientTransferFailure
    double                stallSeconds = 0.0;    ///< StreamStall
    double                slowdownFactor = 1.0;  ///< LinkDegradation

    static FaultSpec transientTransfer(int failAttempts = 1);
    static FaultSpec deviceLoss(int device, int fromRun = 0);
    static FaultSpec streamStall(double seconds);
    static FaultSpec linkDegrade(double factor);

    FaultSpec& onDevice(int d)
    {
        device = d;
        return *this;
    }
    FaultSpec& onStream(int s)
    {
        stream = s;
        return *this;
    }
    FaultSpec& onRun(int r)
    {
        run = r;
        return *this;
    }
    /// Restrict to ops of kind `k`; throws NeonException for the row-only
    /// kinds (Fault, HostPool), which no op has.
    FaultSpec& onOp(OpKind k);
    FaultSpec& withProbability(double p)
    {
        probability = p;
        return *this;
    }

    [[nodiscard]] std::string toString() const;
};

/// A seeded set of fault rules, installed per Backend via
/// BackendSpec::withFaults (or engine().faults().setPlan() at sys level).
struct FaultPlan
{
    uint64_t               seed = 0;
    std::vector<FaultSpec> specs;

    FaultPlan() = default;
    explicit FaultPlan(uint64_t seed) : seed(seed) {}

    FaultPlan& add(FaultSpec spec)
    {
        specs.push_back(std::move(spec));
        return *this;
    }
    [[nodiscard]] bool        empty() const { return specs.empty(); }
    [[nodiscard]] std::string toString() const;
};

/// What the engine must do to one op: fail this many transfer attempts
/// before succeeding, stall the stream, scale transfer durations — or give
/// up entirely because the device is gone.
struct FaultDecision
{
    int    failedAttempts = 0;
    bool   deviceLost = false;
    double stallSeconds = 0.0;
    double slowdown = 1.0;
    /// deviceLost: attribution of the op that triggered the loss. Every op
    /// that meets the lost device carries it, so the reported run does not
    /// depend on which stream's op meets the loss first.
    OpAttribution lostAttr;
};

/// Engine-owned runtime state of a FaultPlan: per-(device, stream, kind) op
/// ordinals for the seeded probability gate and the sticky lost-device
/// latch, which keeps the triggering op's attribution. Driven by the
/// Backend's one host thread (sys/stream.hpp); each stream's ops are
/// processed in FIFO order, so the ordinals — and therefore every
/// decision — are a function of the schedule.
class FaultInjector
{
   public:
    /// Install `plan` (resets all counters and lost-device latches).
    void setPlan(FaultPlan plan);
    [[nodiscard]] const FaultPlan& plan() const;
    /// Fast check used on the engine's hot path.
    [[nodiscard]] bool active() const { return mActive; }

    /// Decision for the op about to be processed. Increments the op ordinal
    /// for (device, stream, kind).
    FaultDecision decide(int device, int stream, OpKind kind, const OpAttribution& attr);

    /// True once a PermanentDeviceLoss rule has triggered for `device`.
    [[nodiscard]] bool deviceLost(int device) const;

   private:
    FaultPlan                              mPlan;
    bool                                   mActive = false;
    std::unordered_map<uint64_t, uint64_t> mOrdinals;
    /// Per device: the attribution of the op that triggered its loss.
    std::vector<std::optional<OpAttribution>> mLost;
};

}  // namespace neon::sys
