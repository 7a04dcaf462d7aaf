#pragma once
// neon::service — a multi-tenant front door for one Backend
// (docs/service.md).
//
// Many independent jobs (each a container sequence, i.e. exactly what
// Skeleton::sequence takes) are submitted concurrently onto a single
// device pool. The service provides what a bare Skeleton does not:
//
//   * admission control — a cap on in-flight jobs plus optional per-tenant
//     quotas; over-quota submissions are refused with an attributed
//     RuntimeError (Kind::AdmissionRejected, jobId + tenant filled in),
//   * scheduling policy — FIFO (global submission order) or fair-share
//     (least-served tenant first, weighted by dispatched work),
//   * stream arbitration — every dispatched job leases a disjoint block of
//     backend streams (Backend::leaseStreams), so jobs with disjoint field
//     sets overlap on the device pool while the per-uid data chains
//     (Backend::dataBarriers) still serialize jobs that share fields,
//   * batching — consecutive policy-order jobs with identical structural
//     schedule hashes (schedule-cache keys, computed at submit without
//     compiling) share one stream lease, amortizing stream pressure.
//
// Time is the backend's virtual clock. The service clock advances on
// submit (to the job's arrival stamp) and inside drain()/wait() (to the
// next arrival or completion event), discrete-event style, so a whole
// traffic replay is deterministic for a fixed seed.
//
// Threading contract: one host thread at a time drives a Backend and
// everything built on it (set/backend.hpp), so a Service is driven by one
// thread too — the one that calls submit()/drain()/wait() — and takes no
// lock.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "service/job.hpp"
#include "set/backend.hpp"

namespace neon::service {

enum class Policy : uint8_t
{
    Fifo,       ///< dispatch in global submission order
    FairShare,  ///< least-served tenant first (by dispatched work weight)
};

std::string to_string(Policy p);

struct ServiceConfig
{
    Policy policy = Policy::Fifo;
    /// Dispatch-slot cap, counted in stream leases: at most this many
    /// dispatch groups (a batch shares one lease and counts once) are in
    /// flight at a time. 1 with batching off reproduces the serialized
    /// FIFO-of-one baseline.
    int maxInFlight = 4;
    /// Per-tenant admission quota over queued + in-flight jobs; 0 = no
    /// quota. Submissions beyond it throw Kind::AdmissionRejected.
    int tenantQuota = 0;
    /// Batch structurally-identical consecutive jobs onto one lease.
    bool batching = true;
    int  maxBatch = 4;
    /// Debug: drop the per-uid data chains between jobs (RunScope
    /// chainData=false). Only for race-detector tests that want the
    /// unordered behavior on purpose.
    bool chainData = true;

    ServiceConfig& withPolicy(Policy p)
    {
        policy = p;
        return *this;
    }
    ServiceConfig& withMaxInFlight(int n)
    {
        maxInFlight = n;
        return *this;
    }
    ServiceConfig& withTenantQuota(int n)
    {
        tenantQuota = n;
        return *this;
    }
    ServiceConfig& withBatching(bool on, int cap = 4)
    {
        batching = on;
        maxBatch = cap;
        return *this;
    }
    ServiceConfig& withChainData(bool on)
    {
        chainData = on;
        return *this;
    }
};

/// Policy hook for surviving a permanent device loss mid-trace
/// (docs/robustness.md, "Self-healing recovery"). Called from the dispatch
/// that hit the loss, with the dying backend and the fault attribution; returns the
/// recovered backend the service should dispatch onto from now on. The
/// handler owns the domain-side recovery: build a survivor backend (e.g.
/// repartition::survivorSpec), rebind its grids and rebuild the submitted
/// containers — the service's stored handles share the rebuilt state.
using RecoveryHandler =
    std::function<set::Backend(set::Backend dying, const RuntimeError::Info& info)>;

class Service
{
   public:
    /// Opaque service state (defined in service.cpp).
    struct Impl;

    explicit Service(set::Backend backend, ServiceConfig config = {});

    /// Install a device-loss recovery handler. Without one, an engine
    /// abort keeps its fail-stop blast radius: every in-flight job fails.
    /// With one, a DeviceLost abort fails only the attributed job; the
    /// service swaps to the handler's recovered backend, drops the stale
    /// schedule-cache recipes keyed on the old device count, and re-queues
    /// the other in-flight jobs for re-dispatch (recompiled against the
    /// survivor geometry).
    void setRecoveryHandler(RecoveryHandler handler);

    /// Admit a job. Advances the service clock to the job's arrival,
    /// retires any in-flight jobs that completed by then, and dispatches
    /// while slots are free. Throws RuntimeError(Kind::AdmissionRejected)
    /// with jobId/tenant attribution when the tenant's quota is exhausted;
    /// the request is not enqueued in that case.
    Job submit(JobRequest request);

    /// Run the discrete-event loop until every admitted job completed or
    /// failed. A fault fails its job at dispatch, never throws here.
    void drain();

    /// drain() until this one job is done (other jobs make progress too,
    /// as required to free slots).
    void wait(const Job& job);

    // --- introspection ------------------------------------------------------
    [[nodiscard]] double now() const;  ///< service virtual clock
    [[nodiscard]] const ServiceConfig& config() const;
    [[nodiscard]] set::Backend&        backend();
    /// Every job ever admitted, in submission order.
    [[nodiscard]] std::vector<Job> jobs() const;
    [[nodiscard]] int queuedCount() const;
    [[nodiscard]] int inFlightCount() const;
    [[nodiscard]] int completedCount() const;
    [[nodiscard]] int failedCount() const;
    /// Multi-member batches formed so far.
    [[nodiscard]] int batchCount() const;

   private:
    std::shared_ptr<Impl> mImpl;
};

}  // namespace neon::service
