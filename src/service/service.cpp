// neon::service implementation: a single-threaded discrete-event dispatch
// pump over one Backend (docs/service.md).
//
// The pump advances a virtual clock from event to event (job arrivals and
// job completions), retires in-flight jobs whose tail event the clock has
// passed, and dispatches queued jobs into free slots per the configured
// policy. Dispatch = compile (schedule-cache backed), lease a disjoint
// stream block, pad the leased streams to the job's start time with a
// host-recorded event, run the schedule under a RunScope carrying the job
// id, and take the tail event's vtime as the job's completion.
//
// Determinism: every timestamp is virtual and completions are read off
// tail events (never off wall time), so a fixed trace and config replay
// identically.

#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "core/error.hpp"
#include "skeleton/schedule_cache.hpp"
#include "sys/event.hpp"

namespace neon::service {

std::string to_string(JobState s)
{
    switch (s) {
        case JobState::Queued: return "queued";
        case JobState::Running: return "running";
        case JobState::Completed: return "completed";
        case JobState::Failed: return "failed";
    }
    return "?";
}

std::string to_string(Policy p)
{
    return p == Policy::Fifo ? "fifo" : "fair-share";
}

namespace {

/// Holds one Backend::leaseStreams reservation; shared by every member of
/// a batch and released when the last member retires.
struct LeaseHold
{
    set::Backend backend;
    int          base = 0;
    int          count = 0;

    LeaseHold(set::Backend b, int bas, int cnt)
        : backend(std::move(b)), base(bas), count(cnt) {}
    LeaseHold(const LeaseHold&) = delete;
    LeaseHold& operator=(const LeaseHold&) = delete;
    ~LeaseHold()
    {
        try {
            backend.releaseStreams(base, count);
        } catch (...) {  // NOLINT(bugprone-empty-catch) — destructor must not throw
        }
    }
};

}  // namespace

struct Job::State
{
    int         id = -1;
    std::string tenant;
    std::string name;
    JobState    state = JobState::Queued;

    double arrival = 0.0;
    double start = -1.0;
    double completion = -1.0;
    int    startSeq = -1;
    bool   isBatched = false;
    int    requeues = 0;  ///< device-loss re-dispatches so far

    int      runs = 1;
    double   weight = 0.0;  ///< fair-share work weight (ops x runs)
    uint64_t hash = 0;      ///< structural schedule digest (batching key)

    std::exception_ptr error;

    // Dispatch plumbing. `ops` is moved into sequence() at dispatch.
    std::vector<set::Container>         ops;
    skeleton::SequenceOptions           options;
    std::shared_ptr<skeleton::Skeleton> skl;
    std::shared_ptr<LeaseHold>          lease;

    set::Backend backend;
};

// --- Job getters ------------------------------------------------------------

namespace {
const Job::State& deref(const std::shared_ptr<Job::State>& s)
{
    NEON_CHECK(s != nullptr, "Job: default-constructed handle");
    return *s;
}
}  // namespace

int                Job::id() const { return deref(mState).id; }
const std::string& Job::tenant() const { return deref(mState).tenant; }
const std::string& Job::name() const { return deref(mState).name; }
JobState           Job::state() const { return deref(mState).state; }
bool               Job::done() const
{
    const JobState s = deref(mState).state;
    return s == JobState::Completed || s == JobState::Failed;
}
double Job::arrival() const { return deref(mState).arrival; }
double Job::start() const
{
    const auto& s = deref(mState);
    NEON_CHECK(s.startSeq >= 0, "Job::start: job not dispatched yet");
    return s.start;
}
double Job::completion() const
{
    const auto& s = deref(mState);
    NEON_CHECK(done(), "Job::completion: job still " + to_string(s.state));
    return s.completion;
}
double Job::latency() const { return completion() - arrival(); }
double Job::queueDelay() const { return start() - arrival(); }
int    Job::startSeq() const
{
    const auto& s = deref(mState);
    NEON_CHECK(s.startSeq >= 0, "Job::startSeq: job not dispatched yet");
    return s.startSeq;
}
bool     Job::batched() const { return deref(mState).isBatched; }
uint64_t Job::structuralHash() const { return deref(mState).hash; }

void Job::rethrowIfFailed() const
{
    const auto& s = deref(mState);
    if (s.state == JobState::Failed && s.error) {
        std::rethrow_exception(s.error);
    }
}

ExecutionReport Job::report() const
{
    const auto& s = deref(mState);
    NEON_CHECK(s.startSeq >= 0, "Job::report: job not dispatched yet");
    set::Backend backend = s.backend;  // profiler() is non-const
    const auto   entries = backend.profiler().trace().entriesForJob(s.id);
    return ExecutionReport::fromEntries(entries, backend.devCount());
}

analysis::AnalysisReport Job::validate() const
{
    const auto& s = deref(mState);
    NEON_CHECK(s.skl != nullptr, "Job::validate: job not dispatched yet");
    return s.skl->validate();
}

// --- Service ----------------------------------------------------------------

struct Service::Impl
{
    set::Backend  backend;
    ServiceConfig config;

    double clock = 0.0;
    int    nextId = 0;
    int    nextStartSeq = 0;
    int    batches = 0;
    int    completed = 0;
    int    failed = 0;

    std::vector<std::shared_ptr<Job::State>> all;       ///< submission order
    std::vector<std::shared_ptr<Job::State>> queue;     ///< submission order
    std::vector<std::shared_ptr<Job::State>> inflight;  ///< dispatch order
    std::unordered_map<std::string, double>  served;    ///< fair-share ledger

    /// Device-loss recovery policy (Service::setRecoveryHandler).
    RecoveryHandler onDeviceLoss;
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Concurrency is counted in stream leases (dispatch groups): a batch of
/// structurally identical jobs shares one lease and occupies one slot.
int activeLeases(const Service::Impl& s)
{
    std::vector<const LeaseHold*> seen;
    for (const auto& j : s.inflight) {
        const LeaseHold* lease = j->lease.get();
        if (lease != nullptr && std::find(seen.begin(), seen.end(), lease) == seen.end()) {
            seen.push_back(lease);
        }
    }
    return static_cast<int>(seen.size());
}

bool slotsFree(const Service::Impl& s)
{
    return activeLeases(s) < std::max(1, s.config.maxInFlight);
}

void markFailed(Service::Impl& s, Job::State& j, RuntimeError::Info info)
{
    info.jobId = j.id;
    info.tenant = j.tenant;
    if (j.state == JobState::Completed) {
        s.completed--;
    }
    j.error = std::make_exception_ptr(RuntimeError(std::move(info)));
    j.state = JobState::Failed;
    if (j.completion < 0) {
        j.completion = std::max(j.start >= 0 ? j.start : j.arrival, s.clock);
    }
    s.failed++;
}

/// Put a dispatched job back in the queue for a fresh dispatch: release
/// its lease/completion/skeleton and restore the pre-dispatch invariants. Its
/// ops handles were kept at dispatch, so the next dispatchOne recompiles
/// them against whatever backend the service holds by then.
void requeue(Service::Impl& s, const std::shared_ptr<Job::State>& j)
{
    j->requeues++;
    j->state = JobState::Queued;
    j->start = -1.0;
    j->startSeq = -1;
    j->isBatched = false;
    j->completion = -1.0;
    j->skl.reset();
    j->lease.reset();
    // Keep submission order: the queue is scanned FIFO by submission
    // ordinal, and `all` is already in that order.
    auto pos = std::upper_bound(s.queue.begin(), s.queue.end(), j,
                                [](const auto& a, const auto& b) { return a->id < b->id; });
    s.queue.insert(pos, j);
}

/// A DeviceLost abort with a recovery handler installed: fail only the
/// attributed job, swap to the handler's survivor backend, drop the stale
/// schedule-cache recipes keyed on the old device count, and re-queue the
/// other in-flight jobs. Returns false when recovery is not possible
/// (no handler, no attribution, or the handler threw) — the caller falls
/// back to the fail-stop blast radius.
bool recoverDeviceLoss(Service::Impl& s, const RuntimeError::Info& info)
{
    if (!s.onDeviceLoss || info.kind != RuntimeError::Kind::DeviceLost) {
        return false;
    }
    const int    oldDevCount = s.backend.devCount();
    set::Backend survivor;
    try {
        survivor = s.onDeviceLoss(s.backend, info);
    } catch (...) {
        return false;  // handler declined; blast radius applies
    }
    if (!survivor.valid()) {
        return false;  // an empty handle is no machine to recover onto
    }
    skeleton::ScheduleCache::instance().invalidateDevCount(oldDevCount);
    s.backend = std::move(survivor);

    // inflight holds only Running jobs: each is requeued or failed.
    const auto running = std::exchange(s.inflight, {});
    for (const auto& j : running) {
        // A job can ride at most 3 recoveries; after that it inherits the
        // failure (guards against a handler that never actually heals).
        if (j->id == info.jobId || info.jobId < 0 || j->requeues >= 3) {
            markFailed(s, *j, info);
            continue;
        }
        requeue(s, j);
    }
    return true;
}

/// Retire every in-flight job whose completion the clock has passed,
/// releasing its share of the stream lease.
void retire(Service::Impl& s)
{
    for (size_t i = s.inflight.size(); i-- > 0;) {
        auto& j = s.inflight[i];
        if (j->completion > s.clock) {
            continue;
        }
        j->state = JobState::Completed;
        s.completed++;
        j->lease.reset();
        s.inflight.erase(s.inflight.begin() + static_cast<std::ptrdiff_t>(i));
    }
}

/// Index into the queue of the next job to dispatch at the current clock,
/// or -1 when nothing has arrived yet. FIFO: lowest submission ordinal.
/// Fair share: job of the least-served tenant (dispatch-weight ledger),
/// submission order breaking ties.
int pickArrived(Service::Impl& s)
{
    int best = -1;
    for (int i = 0; i < static_cast<int>(s.queue.size()); ++i) {
        const auto& j = s.queue[i];
        if (j->arrival > s.clock) {
            continue;
        }
        if (best < 0) {
            best = i;
            if (s.config.policy == Policy::Fifo) {
                break;
            }
            continue;
        }
        if (s.served[j->tenant] < s.served[s.queue[best]->tenant]) {
            best = i;
        }
    }
    return best;
}

/// Compile + lease + pad + run one job. `lease` is null for a batch head
/// (a fresh block is leased and returned through it) and non-null for
/// batch members, which enqueue onto the head's streams behind it.
void dispatchOne(Service::Impl& s, const std::shared_ptr<Job::State>& job,
                 std::shared_ptr<LeaseHold>& lease)
{
    job->start = std::max(s.clock, job->arrival);
    job->startSeq = s.nextStartSeq++;
    s.served[job->tenant] += job->weight;
    job->backend = s.backend;  // recovery may have swapped it since submit
    auto skl = std::make_shared<skeleton::Skeleton>(s.backend);
    try {
        // `ops` is passed by copy (cheap shared handles), not moved: a
        // device-loss recovery may re-queue this job for a fresh dispatch.
        auto      compiled = skl->sequence(job->ops, job->options);
        const int nStreams = compiled.streamCount();
        if (lease == nullptr) {
            const int base = s.backend.leaseStreams(nStreams);
            lease = std::make_shared<LeaseHold>(s.backend, base, nStreams);
        } else {
            NEON_CHECK(nStreams <= lease->count,
                       "service: batch member needs more streams than its head");
        }
        // Arrival padding: a host-recorded event at the start timestamp,
        // waited by every leased stream, pushes their virtual clocks to at
        // least the job's start without ever reading a vtime on the host.
        sys::Event pad;
        pad.record(job->start);
        for (int d = 0; d < s.backend.devCount(); ++d) {
            for (int si = 0; si < nStreams; ++si) {
                s.backend.stream(d, lease->base + si).wait(pad);
            }
        }
        const skeleton::RunScope scope{lease->base, job->id, s.config.chainData};
        for (int r = 0; r < job->runs; ++r) {
            skl->run(scope);
        }
        // Ops run at enqueue, so the tail is already recorded: its vtime is
        // the job's virtual completion.
        job->completion = std::max(skl->lastRunTail()->vtime(), job->start);
        job->skl = std::move(skl);
        job->lease = lease;
        job->state = JobState::Running;
        s.inflight.push_back(job);
    } catch (const RuntimeError& e) {
        // Every fault surfaces here: ops run at enqueue. Clear the latch so
        // subsequent jobs dispatch.
        s.backend.engine().clearAbort();
        if (recoverDeviceLoss(s, e.info) && job->requeues < 3 &&
            !(job->id == e.info.jobId || e.info.jobId < 0)) {
            // Someone else's device loss interrupted this dispatch: this
            // job rides the recovery too.
            requeue(s, job);
            return;
        }
        job->skl = std::move(skl);
        markFailed(s, *job, e.info);
    }
}

/// Dispatch the job at queue index `idx` plus, when batching is on, any
/// directly following policy-order jobs with the identical structural
/// hash (prefix rule — never skips over a non-matching job, so per-tenant
/// dispatch order is preserved) onto the same stream lease.
void dispatchBatch(Service::Impl& s, int idx)
{
    auto head = s.queue[static_cast<size_t>(idx)];
    s.queue.erase(s.queue.begin() + idx);
    std::shared_ptr<LeaseHold> lease;
    dispatchOne(s, head, lease);
    if (head->state != JobState::Running || !s.config.batching) {
        return;
    }
    int members = 1;
    while (members < std::max(1, s.config.maxBatch)) {
        const int next = pickArrived(s);
        if (next < 0 || s.queue[static_cast<size_t>(next)]->hash != head->hash) {
            break;
        }
        auto member = s.queue[static_cast<size_t>(next)];
        s.queue.erase(s.queue.begin() + next);
        dispatchOne(s, member, lease);
        if (member->state != JobState::Running) {
            break;
        }
        member->isBatched = true;
        ++members;
    }
    if (members > 1) {
        head->isBatched = true;
        s.batches++;
    }
}

void dispatchWhilePossible(Service::Impl& s)
{
    while (slotsFree(s)) {
        const int idx = pickArrived(s);
        if (idx < 0) {
            break;
        }
        dispatchBatch(s, idx);
    }
}

/// One discrete-event step: retire, dispatch, and — if work remains but
/// nothing is dispatchable — advance the clock to the next event (earliest
/// queued arrival or earliest in-flight completion).
void step(Service::Impl& s)
{
    retire(s);
    dispatchWhilePossible(s);
    if (s.queue.empty() && s.inflight.empty()) {
        return;
    }
    double next = kInf;
    if (!s.queue.empty() && slotsFree(s)) {
        for (const auto& j : s.queue) {
            next = std::min(next, j->arrival);
        }
    }
    for (auto& j : s.inflight) {
        next = std::min(next, j->completion);
    }
    NEON_CHECK(next < kInf, "service: scheduler stuck (no next event)");
    s.clock = std::max(s.clock, next);
}

}  // namespace

Service::Service(set::Backend backend, ServiceConfig config)
    : mImpl(std::make_shared<Impl>())
{
    NEON_CHECK(backend.valid(), set::Backend::emptyError("Service"));
    NEON_CHECK(config.maxInFlight >= 1, "ServiceConfig: maxInFlight must be >= 1");
    NEON_CHECK(config.maxBatch >= 1, "ServiceConfig: maxBatch must be >= 1");
    mImpl->backend = std::move(backend);
    mImpl->config = config;
}

void Service::setRecoveryHandler(RecoveryHandler handler)
{
    mImpl->onDeviceLoss = std::move(handler);
}

Job Service::submit(JobRequest request)
{
    auto& s = *mImpl;
    NEON_CHECK(!request.ops.empty(), "Service::submit: empty container sequence");

    const double arrival = request.arrival < 0.0 ? s.clock : request.arrival;
    s.clock = std::max(s.clock, arrival);
    retire(s);

    const int id = s.nextId++;
    if (s.config.tenantQuota > 0) {
        int held = 0;
        for (const auto& j : s.queue) {
            held += j->tenant == request.tenant ? 1 : 0;
        }
        for (const auto& j : s.inflight) {
            held += j->tenant == request.tenant ? 1 : 0;
        }
        if (held >= s.config.tenantQuota) {
            RuntimeError::Info info;
            info.kind = RuntimeError::Kind::AdmissionRejected;
            info.opKind = "submit";
            info.opName = request.name;
            info.jobId = id;
            info.tenant = request.tenant;
            throw RuntimeError(std::move(info));
        }
    }

    auto st = std::make_shared<Job::State>();
    st->id = id;
    st->tenant = std::move(request.tenant);
    st->name = request.name;
    st->arrival = arrival;
    st->runs = std::max(1, request.runs);
    st->weight = static_cast<double>(request.ops.size()) * st->runs;
    st->hash = skeleton::makeScheduleKey(request.ops, s.backend.devCount(),
                                         request.options.occ, request.options.maxStreams)
                   .hash;
    st->options = std::move(request.options);
    st->options.name = std::move(request.name);
    st->ops = std::move(request.ops);
    st->backend = s.backend;

    s.all.push_back(st);
    s.queue.push_back(st);
    dispatchWhilePossible(s);
    return Job(st);
}

void Service::drain()
{
    auto& s = *mImpl;
    while (!s.queue.empty() || !s.inflight.empty()) {
        step(s);
    }
    s.backend.sync();
}

void Service::wait(const Job& job)
{
    NEON_CHECK(job.valid(), "Service::wait: invalid job handle");
    auto& s = *mImpl;
    while (!job.done() && (!s.queue.empty() || !s.inflight.empty())) {
        step(s);
    }
}

double Service::now() const
{
    return mImpl->clock;
}

const ServiceConfig& Service::config() const
{
    return mImpl->config;
}

set::Backend& Service::backend()
{
    return mImpl->backend;
}

std::vector<Job> Service::jobs() const
{
    auto&            s = *mImpl;
    std::vector<Job> out;
    out.reserve(s.all.size());
    for (const auto& st : s.all) {
        out.push_back(Job(st));
    }
    return out;
}

int Service::queuedCount() const
{
    return static_cast<int>(mImpl->queue.size());
}

int Service::inFlightCount() const
{
    return static_cast<int>(mImpl->inflight.size());
}

int Service::completedCount() const
{
    return mImpl->completed;
}

int Service::failedCount() const
{
    return mImpl->failed;
}

int Service::batchCount() const
{
    return mImpl->batches;
}

}  // namespace neon::service
