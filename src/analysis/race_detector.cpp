#include "analysis/race_detector.hpp"

#include <algorithm>

#include "analysis/env.hpp"
#include "sys/device.hpp"

namespace neon::analysis {

namespace {

constexpr size_t kMaxEventClocks = 16384;  ///< prune threshold (see below)

uint64_t slotKey(int device, int stream)
{
    return (static_cast<uint64_t>(static_cast<uint32_t>(device)) << 32) |
           static_cast<uint32_t>(stream);
}

}  // namespace

int RaceDetector::slotOf(int device, int stream)
{
    auto [it, inserted] = mSlots.try_emplace(slotKey(device, stream),
                                             static_cast<int>(mVC.size()));
    if (inserted) {
        mVC.emplace_back();
    }
    return it->second;
}

bool RaceDetector::happensBefore(const Prev& p, const Clock& cur)
{
    return p.slot >= 0 && p.slot < static_cast<int>(cur.size()) &&
           cur[static_cast<size_t>(p.slot)] >= p.clock;
}

void RaceDetector::joinInto(Clock& dst, const Clock& src)
{
    if (dst.size() < src.size()) {
        dst.resize(src.size(), 0);
    }
    for (size_t i = 0; i < src.size(); ++i) {
        dst[i] = std::max(dst[i], src[i]);
    }
}

std::string RaceDetector::segName(const Segment& s) const
{
    auto it = mFieldName.find(s.uid);
    return to_string(s, it == mFieldName.end() ? "" : it->second);
}

void RaceDetector::race(const char* flavor, const Segment& s, const Prev& a, const Prev& b)
{
    const std::string key = std::string(flavor) + "|" + std::to_string(s.uid) + "|" +
                            std::to_string(static_cast<int>(s.part)) + "|" +
                            std::to_string(a.node) + "|" + std::to_string(b.node);
    if (!mDedup.insert(key).second) {
        return;
    }
    Violation v;
    v.kind = ViolationKind::Race;
    v.nodeA = a.node;
    v.nodeB = b.node;
    v.containerA = a.label;
    v.containerB = b.label;
    v.runA = a.run;
    v.runB = b.run;
    v.device = b.device;
    v.message = std::string(flavor) + " race on " + segName(s) + ": '" + a.label + "' (node " +
                std::to_string(a.node) + ", run " + std::to_string(a.run) + ", dev " +
                std::to_string(a.device) + ") vs '" + b.label + "' (node " +
                std::to_string(b.node) + ", run " + std::to_string(b.run) + ", dev " +
                std::to_string(b.device) + ") — no happens-before ordering";
    mReport.violations.push_back(std::move(v));
}

void RaceDetector::onRead(const Segment& s, const Prev& cur, const Clock& vc)
{
    SegState& st = mSegs[s];
    if (st.hasWrite && !happensBefore(st.write, vc)) {
        race("RaW", s, st.write, cur);
    }
    for (auto& rd : st.reads) {
        if (rd.slot == cur.slot) {
            rd = cur;  // FIFO: the newer read dominates on its own stream
            return;
        }
    }
    st.reads.push_back(cur);
}

void RaceDetector::onWrite(const Segment& s, const Prev& cur, const Clock& vc)
{
    SegState& st = mSegs[s];
    if (st.hasWrite && !happensBefore(st.write, vc)) {
        race("WaW", s, st.write, cur);
    }
    for (const Prev& rd : st.reads) {
        if (!happensBefore(rd, vc)) {
            race("WaR", s, rd, cur);
        }
    }
    st.write = cur;
    st.hasWrite = true;
    st.reads.clear();
}

void RaceDetector::pruneEvents()
{
    if (mEventClock.size() <= kMaxEventClocks) {
        return;
    }
    // Event clocks are only joined by waits shortly after their record (the
    // skeleton references events within a run plus the next run's barrier),
    // so dropping the oldest half is safe by a wide margin. Dropped ids are
    // remembered so a late wait is treated as a known no-op join rather
    // than a wait-before-record inversion.
    const size_t drop = mEventClock.size() / 2;
    size_t       dropped = 0;
    size_t       i = 0;
    for (; i < mEventOrder.size() && dropped < drop; ++i) {
        if (mEventClock.erase(mEventOrder[i]) > 0) {
            mPrunedEvents.insert(mEventOrder[i]);
            ++dropped;
        }
    }
    mEventOrder.erase(mEventOrder.begin(), mEventOrder.begin() + static_cast<ptrdiff_t>(i));
}

void RaceDetector::feed(const EnqueueRecord& r, const ContainerMetaMap* meta)
{
    ++mReport.opsAnalyzed;
    const int slot = slotOf(r.device, r.stream);
    Clock&    vc = mVC[static_cast<size_t>(slot)];
    if (vc.size() <= static_cast<size_t>(slot)) {
        vc.resize(static_cast<size_t>(slot) + 1, 0);
    }

    switch (r.kind) {
        case sys::OpKind::Record: {
            mEventClock[r.eventId] = vc;
            mEventOrder.push_back(r.eventId);
            if (auto it = mPendingWaits.find(r.eventId); it != mPendingWaits.end()) {
                Violation v;
                v.kind = ViolationKind::WaitBeforeRecord;
                v.nodeB = it->second.containerId;
                v.runB = it->second.runId;
                v.device = it->second.device;
                v.message = "wait on event " + std::to_string(r.eventId) + " (dev " +
                            std::to_string(it->second.device) + " stream " +
                            std::to_string(it->second.stream) +
                            ") was enqueued before the event was recorded";
                mReport.violations.push_back(std::move(v));
                mPendingWaits.erase(it);
            }
            pruneEvents();
            return;
        }
        case sys::OpKind::Wait: {
            if (auto it = mEventClock.find(r.eventId); it != mEventClock.end()) {
                joinInto(vc, it->second);
            } else if (mPrunedEvents.count(r.eventId) == 0) {
                // Unknown event: either recorded before logging was enabled
                // (silent no-op join) or an inversion we flag if its record
                // shows up later.
                mPendingWaits.emplace(r.eventId, r);
            }
            return;
        }
        default: break;  // Kernel / Transfer / HostFn: real work below
    }

    vc[static_cast<size_t>(slot)] += 1;
    const ContainerMeta* m = nullptr;
    if (meta != nullptr && r.containerId >= 0) {
        if (auto it = meta->find(r.containerId); it != meta->end()) {
            m = &it->second;
        }
    }
    if (m == nullptr) {
        return;  // unattributed op: advances the clock, carries no accesses
    }

    // Remember field names and which uids have a halo provider this run.
    for (const auto& a : m->accesses) {
        if (!a.name.empty()) {
            mFieldName.try_emplace(a.uid, a.name);
        }
    }
    auto haloIt = mHaloUids.find(meta);
    if (haloIt == mHaloUids.end()) {
        std::unordered_set<uint64_t> uids;
        for (const auto& [id, cm] : *meta) {
            if (cm.kind == MetaNodeKind::Halo) {
                for (const auto& a : cm.accesses) {
                    uids.insert(a.uid);
                }
            }
        }
        haloIt = mHaloUids.emplace(meta, std::move(uids)).first;
    }

    // Structural stale-halo check: a stencil that reads a halo'd field in a
    // run whose graph carries no halo-update node for it reads stale ghosts.
    if (mDevCount > 1 && m->view != DataView::INTERNAL) {
        for (const auto& a : m->accesses) {
            if (a.stencilHalo && haloIt->second.count(a.uid) == 0) {
                const std::string key =
                    "stale|" + std::to_string(a.uid) + "|" + std::to_string(r.containerId);
                if (mDedup.insert(key).second) {
                    Violation v;
                    v.kind = ViolationKind::StaleHaloRead;
                    v.nodeB = r.containerId;
                    v.containerB = m->label;
                    v.runB = r.runId;
                    v.device = r.device;
                    v.message = "'" + m->label + "' (node " + std::to_string(r.containerId) +
                                ", run " + std::to_string(r.runId) +
                                ") stencil-reads halo of '" + a.name +
                                "' but the run's graph has no halo-update node for it";
                    mReport.violations.push_back(std::move(v));
                }
            }
        }
    }

    const Prev cur{slot, vc[static_cast<size_t>(slot)], r.containerId, r.runId, r.device,
                   m->label};
    const AccessSets sets = segmentsFor(*m, r.device, mDevCount);
    for (const Segment& s : sets.reads) {
        onRead(s, cur, vc);
    }
    for (const Segment& s : sets.writes) {
        onWrite(s, cur, vc);
    }
}

AnalysisReport RaceDetector::takeNew()
{
    AnalysisReport out;
    out.opsAnalyzed = mReport.opsAnalyzed;
    out.violations.assign(mReport.violations.begin() + static_cast<ptrdiff_t>(mNewFrom),
                          mReport.violations.end());
    mNewFrom = mReport.violations.size();
    return out;
}

RaceSession* RaceSession::of(const sys::Engine& engine)
{
    return dynamic_cast<RaceSession*>(engine.enqueueHook());
}

void RaceSession::onEnqueue(const sys::Stream& stream, const sys::Op& op)
{
    EnqueueRecord r;
    r.device = stream.device().id();
    r.stream = stream.id();
    r.kind = sys::kindOf(op);
    std::visit(
        [&r](const auto& o) {
            if constexpr (requires { o.event; }) {
                r.eventId = o.event->id();
            }
            r.containerId = o.attr.containerId;
            r.runId = o.attr.runId;
        },
        op);
    if (!mEnabled) {
        return;
    }
    r.seq = mNextSeq++;
    const auto meta = r.runId >= 0 ? mMetaByRun.find(r.runId) : mMetaByRun.end();
    mDetector.feed(r, meta == mMetaByRun.end() ? nullptr : meta->second.get());
    if (mReportFindings) {
        reportEnvViolations("race detector", mDetector.takeNew());
    }
}

void RaceSession::registerRun(int runId, std::shared_ptr<const ContainerMetaMap> meta)
{
    mMetaByRun[runId] = std::move(meta);
}

void RaceSession::setEnabled(bool on)
{
    mEnabled = on;
}

bool RaceSession::enabled() const
{
    return mEnabled;
}

void RaceSession::reportFindings()
{
    mReportFindings = true;
}

AnalysisReport RaceSession::report() const
{
    return mDetector.report();
}

AnalysisReport RaceSession::takeNew()
{
    return mDetector.takeNew();
}

void RaceSession::clear()
{
    mDetector = RaceDetector(mDevCount);
    mNextSeq = 0;
    mMetaByRun.clear();
}

}  // namespace neon::analysis
