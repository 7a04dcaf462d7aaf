#pragma once
// neon::service job handles (docs/service.md).
//
// A JobRequest describes one unit of multi-tenant work: a container
// sequence plus scheduling metadata (tenant, virtual arrival time, run
// count). Service::submit() turns it into a Job — a cheap shared handle
// the caller keeps while the service compiles, dispatches and retires the
// work. All timestamps are virtual seconds on the backend's discrete-event
// clock; latency() and queueDelay() are therefore deterministic for a
// fixed trace and config.

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"
#include "skeleton/skeleton.hpp"
#include "sys/execution_report.hpp"

namespace neon::service {

/// One unit of tenant work submitted to a Service.
struct JobRequest
{
    std::string tenant = "default";
    /// Human-readable label; becomes the schedule name and shows up in
    /// error messages and trace exports.
    std::string name = "job";
    /// The container sequence, exactly as Skeleton::sequence takes it.
    std::vector<set::Container> ops;
    skeleton::SequenceOptions   options{};
    /// How many times the compiled schedule runs back-to-back.
    int runs = 1;
    /// Virtual arrival timestamp. Negative = "now" (the service clock at
    /// submit time). The service never starts a job before its arrival.
    double arrival = -1.0;

    JobRequest& withTenant(std::string t)
    {
        tenant = std::move(t);
        return *this;
    }
    JobRequest& withName(std::string n)
    {
        name = std::move(n);
        return *this;
    }
    JobRequest& withRuns(int n)
    {
        runs = n;
        return *this;
    }
    JobRequest& withArrival(double t)
    {
        arrival = t;
        return *this;
    }
};

enum class JobState : uint8_t
{
    Queued,     ///< admitted, waiting for a dispatch slot
    Running,    ///< dispatched onto leased streams, tail not yet retired
    Completed,  ///< tail event retired; latency()/completion() valid
    Failed,     ///< a RuntimeError aborted it; rethrowIfFailed() throws
};

std::string to_string(JobState s);

class Service;

/// Shared handle onto one submitted job. Valid for the lifetime of the
/// Service that issued it; all getters are cheap field reads. Timing
/// getters require the job to have reached the corresponding state
/// (they throw NeonException otherwise).
class Job
{
   public:
    /// Opaque shared job record (defined in service.cpp).
    struct State;

    Job() = default;

    [[nodiscard]] bool valid() const { return mState != nullptr; }
    [[nodiscard]] int  id() const;
    [[nodiscard]] const std::string& tenant() const;
    [[nodiscard]] const std::string& name() const;
    [[nodiscard]] JobState state() const;
    [[nodiscard]] bool     done() const;  ///< Completed or Failed

    // --- virtual-time accounting -------------------------------------------
    [[nodiscard]] double arrival() const;
    /// Dispatch timestamp (throws before Running).
    [[nodiscard]] double start() const;
    /// Tail-event timestamp (throws before Completed/Failed).
    [[nodiscard]] double completion() const;
    [[nodiscard]] double latency() const;     ///< completion - arrival
    [[nodiscard]] double queueDelay() const;  ///< start - arrival

    /// Global dispatch ordinal (0 = first job the service started). The
    /// FIFO-order tests key on this.
    [[nodiscard]] int startSeq() const;
    /// True when the job ran as a member of a structural batch sharing a
    /// stream lease with its siblings.
    [[nodiscard]] bool batched() const;
    /// Structural schedule-cache digest, computed at submit time without
    /// compiling; equal hashes => batchable.
    [[nodiscard]] uint64_t structuralHash() const;

    /// Rethrow the stored RuntimeError (no-op unless state()==Failed).
    void rethrowIfFailed() const;

    /// Per-job ExecutionReport built from the trace entries stamped with
    /// this job's id. Requires profiler trace recording around the run.
    [[nodiscard]] ExecutionReport report() const;

    /// Lint the job's compiled schedule (valid once dispatched).
    [[nodiscard]] analysis::AnalysisReport validate() const;

   private:
    friend class Service;
    explicit Job(std::shared_ptr<State> s) : mState(std::move(s)) {}
    std::shared_ptr<State> mState;
};

}  // namespace neon::service
