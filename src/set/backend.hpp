#pragma once
// Backend: the Set-level handle to the execution resources (paper §IV-B).
// A Backend owns N devices, the execution engine and a pool of streams
// indexed (device, streamIdx). It is a cheap copyable handle; grids, fields
// and skeletons keep a copy.
//
// Construction goes through Backend::make(BackendSpec) — a named-field
// description that toString()/fromString() round-trip for bench logs — with
// simGpu()/cpu() as one-line preset wrappers. A default-constructed Backend
// is an empty handle, like every other handle in the library: it builds no
// machine, valid() is false, and grids, data objects, skeletons and the
// service refuse it. Observability (trace, Gantt, chrome-trace export,
// ExecutionReport aggregation) hangs off backend.profiler().
//
// One driving thread (DESIGN.md §4): one host thread at a time drives a
// Backend and everything built on it — grids, fields, containers,
// skeletons, a Service — so per-Backend state (streams, leases, data
// chains, trace, fault injector, device accounting) takes no lock. Only
// process-wide state keeps its synchronisation: the host ThreadPool, the
// ScheduleCache, the sanitizer Session and the id counters (newDataUid,
// event ids, container ordinals).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sys/cost_model.hpp"
#include "sys/data_barriers.hpp"
#include "sys/fault.hpp"
#include "sys/stream.hpp"

namespace neon::set {

class Profiler;
class Analyzer;

/// Everything needed to build a Backend, in one named-field struct (an
/// aggregate: `Backend::make({.nDevices = 2, .config = cfg})` works). For
/// a config that matches a named preset the spec round-trips through
/// toString()/fromString(), so bench logs can record the exact machine.
struct BackendSpec
{
    int             nDevices = 1;
    sys::DeviceType deviceType = sys::DeviceType::CPU;
    sys::SimConfig  config = sys::SimConfig::zeroCost();
    /// Host worker threads per Backend for CPU-device kernels
    /// (docs/performance.md, "Host parallelism"). 0 = auto
    /// (hardware_concurrency). Overridden process-wide by NEON_THREADS.
    /// Results are bitwise identical for any value — chunking is derived
    /// from span sizes, never from this.
    int hostThreads = 0;
    /// Deterministic fault-injection plan installed on the engine at make()
    /// time (docs/robustness.md). Not part of the toString() round-trip.
    sys::FaultPlan faults{};
    /// Per-device speed multipliers (empty = homogeneous). Device d's
    /// SimConfig gets memBandwidth and flopRate scaled by speedFactors[d] —
    /// the heterogeneous-machine knob the Repartitioner rebalances against
    /// (docs/robustness.md). Round-trips through toString() as
    /// "speed=1,0.5,...".
    std::vector<double> speedFactors{};

    /// Fluent setter: spec.withFaults(plan) — enables fault injection.
    BackendSpec& withFaults(sys::FaultPlan plan)
    {
        faults = std::move(plan);
        return *this;
    }

    /// Fluent setter: spec.withSpeedFactors({1.0, 0.5}) — heterogeneous mix.
    BackendSpec& withSpeedFactors(std::vector<double> factors)
    {
        speedFactors = std::move(factors);
        return *this;
    }

    /// Fluent setter: spec.withHostThreads(8) — pool width for host kernels.
    BackendSpec& withHostThreads(int threads)
    {
        hostThreads = threads;
        return *this;
    }

    /// The preset `config` matches: "zeroCost" | "dgxA100" | "pcieGen3",
    /// or "custom" for any other cost model.
    [[nodiscard]] std::string preset() const;

    /// e.g. "SIM_GPU x4 preset=dgxA100". Appends
    /// " threads=N" when hostThreads is set and " dryRun" when
    /// config.dryRun is set.
    [[nodiscard]] std::string toString() const;
    /// Parse a toString() result back into a spec (named presets only;
    /// throws NeonException on malformed input or preset "custom").
    static BackendSpec fromString(const std::string& text);

    // Named-preset builders.
    static BackendSpec simGpu(int nDevices, sys::SimConfig config = sys::SimConfig::dgxA100Like());
    static BackendSpec cpu(int nDevices = 1);
};

class Backend
{
   public:
    /// An empty handle: builds nothing. Assign a built Backend before use.
    Backend() = default;

    /// The one construction entry point: build from a named-field spec.
    static Backend make(BackendSpec spec);

    /// n simulated GPUs with a DGX-A100-like cost model.
    static Backend simGpu(int nDevices, sys::SimConfig config = sys::SimConfig::dgxA100Like());
    /// n zero-cost CPU devices (multi-device halo logic testable on CPU).
    static Backend cpu(int nDevices = 1);

    /// False for a default-constructed (empty) handle.
    [[nodiscard]] bool valid() const { return mImpl != nullptr; }
    /// What a constructor that keeps a Backend reports when handed an
    /// empty one: NEON_CHECK(backend.valid(), Backend::emptyError("DGrid")).
    [[nodiscard]] static std::string emptyError(const std::string& who);

    [[nodiscard]] int          devCount() const;
    [[nodiscard]] sys::Device& device(int idx) const;
    [[nodiscard]] sys::Engine& engine() const;
    [[nodiscard]] const sys::SimConfig& config() const;
    [[nodiscard]] const BackendSpec&    spec() const;
    [[nodiscard]] bool         isDryRun() const;
    /// Resolved host-pool width (NEON_THREADS > spec.hostThreads > auto).
    [[nodiscard]] int          hostThreads() const;

    /// Stream `streamIdx` on device `dev`; created lazily.
    [[nodiscard]] sys::Stream& stream(int dev, int streamIdx = 0) const;

    /// Block the host until every stream on every device drained. Rethrows
    /// the engine's stored RuntimeError if a fault aborted execution.
    void sync() const;

    /// The engine's fault injector (install/replace a plan at runtime).
    [[nodiscard]] sys::FaultInjector& faults() const;

    /// Per-data-object inter-run event chains. Successive skeleton runs
    /// that touch the same fields are ordered through these chains
    /// regardless of which Skeleton object issued them (e.g. even/odd LBM
    /// steps), while runs over disjoint field sets share no events and
    /// overlap freely — the basis of the multi-tenant service
    /// (docs/service.md). Replaces the historical single backend-wide
    /// run barrier.
    [[nodiscard]] sys::DataBarriers& dataBarriers() const;

    /// Lease a contiguous block of `count` stream indices (first-fit over
    /// released blocks) so concurrent jobs enqueue onto disjoint streams.
    /// Returns the base index; pass it as RunScope::streamBase.
    [[nodiscard]] int leaseStreams(int count) const;
    /// Return a lease obtained from leaseStreams (the stream objects
    /// themselves persist — only the reservation is released).
    void releaseStreams(int base, int count) const;

    /// Zero all virtual clocks (between measured benchmark runs).
    void resetClocks() const;

    /// Monotone counter bumped by noteGeometryChange(). Containers record
    /// the epoch their launch records were built against; Skeleton::sequence
    /// rejects containers whose epoch lags this value, so a repartition can
    /// never silently launch kernels over stale spans (docs/robustness.md).
    [[nodiscard]] uint64_t geometryEpoch() const;
    /// Called by Grid::repartition after re-slicing: invalidates every
    /// container built against the previous geometry.
    void noteGeometryChange() const;

    /// Observability facade: trace recording, Gantt/chrome-trace export,
    /// makespan, ExecutionReport aggregation (set/profiler.hpp).
    [[nodiscard]] Profiler profiler() const;

    /// Race-analysis facade: schedule-log recording plus happens-before
    /// race reports (set/analyzer.hpp, docs/analysis.md).
    [[nodiscard]] Analyzer analysis() const;

    /// Fresh unique id for a Multi-GPU data object (dependency tracking).
    static uint64_t newDataUid();

    /// spec().toString(): round-trips through BackendSpec::fromString.
    [[nodiscard]] std::string toString() const;

   private:
    friend class Profiler;
    [[nodiscard]] sys::Trace& traceRef() const;
    [[nodiscard]] double      makespanNow() const;

    struct Impl;
    explicit Backend(std::shared_ptr<Impl> impl) : mImpl(std::move(impl)) {}
    std::shared_ptr<Impl> mImpl;
};

/// A column of the backend's stream matrix: stream `setIdx` on every device.
/// This is the paper's "multi-GPU Stream" (§IV-B4).
class StreamSet
{
   public:
    StreamSet() = default;
    StreamSet(Backend backend, int setIdx) : mBackend(std::move(backend)), mSetIdx(setIdx) {}

    [[nodiscard]] sys::Stream& operator[](int dev) const { return mBackend.stream(dev, mSetIdx); }
    [[nodiscard]] int          devCount() const { return mBackend.devCount(); }
    [[nodiscard]] int          setIdx() const { return mSetIdx; }

    void sync() const
    {
        for (int d = 0; d < devCount(); ++d) {
            (*this)[d].sync();
        }
    }

   private:
    Backend mBackend;
    int     mSetIdx = 0;
};

/// One event per device: the paper's "multi-GPU Event" (§IV-B4). Copies
/// share the events, so a set may outlive the run that recorded it.
class EventSet
{
   public:
    EventSet() = default;
    static EventSet make(int nDevices)
    {
        EventSet es;
        es.mEvents.reserve(static_cast<size_t>(nDevices));
        for (int i = 0; i < nDevices; ++i) {
            es.mEvents.push_back(std::make_shared<sys::Event>());
        }
        return es;
    }

    [[nodiscard]] sys::Event& operator[](int dev) const
    {
        return *mEvents[static_cast<size_t>(dev)];
    }
    [[nodiscard]] int  devCount() const { return static_cast<int>(mEvents.size()); }
    [[nodiscard]] bool valid() const { return !mEvents.empty(); }

   private:
    std::vector<sys::EventPtr> mEvents;
};

}  // namespace neon::set

// Complete the forward-declared Profiler/Analyzer for users of
// backend.profiler() / backend.analysis(): each facade header's own include
// of this header is guard-skipped, so the cycle resolves with all classes
// defined in either include order.
#include "set/analyzer.hpp"  // NOLINT
#include "set/profiler.hpp"  // NOLINT
