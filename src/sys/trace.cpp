#include "sys/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "core/json.hpp"

namespace neon::sys {

namespace {

/// Fixed-notation microsecond value for Chrome's `ts`/`dur` fields (the
/// viewer rejects scientific notation in some builds).
std::string usFmt(double seconds)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << seconds * 1e6;
    return os.str();
}

/// Rows reserved by the first record: short traces never reallocate.
constexpr size_t kFirstRows = 1024;

}  // namespace

uint32_t Trace::internName(std::string_view name)
{
    // Only a new name allocates.
    auto it = mNameIds.find(name);
    if (it != mNameIds.end()) {
        return it->second;
    }
    const auto id = static_cast<uint32_t>(mNames.size());
    mNames.emplace_back(name);
    mNameIds.emplace(mNames.back(), id);
    return id;
}

void Trace::record(int device, int stream, OpKind kind, std::string_view name, double startV,
                   double endV, uint64_t bytes, const OpAttribution& attr, uint64_t waitEventId,
                   int srcDevice, int srcStream)
{
    if (!mEnabled) {
        return;
    }
    if (mRows.capacity() == 0) {
        mRows.reserve(kFirstRows);
    }
    mRows.push_back({device, stream, kind, internName(name), startV, endV, bytes, attr,
                     waitEventId, srcDevice, srcStream});
}

void Trace::clear()
{
    mRows.clear();
    mNames.clear();
    mNameIds.clear();
}

size_t Trace::size() const
{
    return mRows.size();
}

size_t Trace::countKind(OpKind kind) const
{
    return static_cast<size_t>(std::count_if(mRows.begin(), mRows.end(),
                                             [kind](const Row& r) { return r.kind == kind; }));
}

TraceEntry Trace::materialize(const Row& r) const
{
    return {r.device,      r.stream,    to_string(r.kind),  mNames[r.nameId], r.startV,
            r.endV,        r.bytes,     r.attr.containerId, r.attr.runId,     r.attr.jobId,
            r.waitEventId, r.srcDevice, r.srcStream};
}

template <class Keep>
std::vector<TraceEntry> Trace::entriesWhere(Keep keep) const
{
    std::vector<TraceEntry> out;
    for (const Row& r : mRows) {
        if (keep(r)) {
            out.push_back(materialize(r));
        }
    }
    return out;
}

std::vector<TraceEntry> Trace::entries() const
{
    return entriesWhere([](const Row&) { return true; });
}

std::vector<TraceEntry> Trace::entriesForRuns(int firstRunId, int lastRunId) const
{
    return entriesWhere([=](const Row& r) {
        return r.attr.runId >= firstRunId && r.attr.runId <= lastRunId;
    });
}

std::vector<TraceEntry> Trace::entriesForJob(int jobId) const
{
    return entriesWhere([=](const Row& r) { return r.attr.jobId == jobId; });
}

int Trace::nextRunId()
{
    return mNextRunId++;
}

std::string Trace::gantt(int columns) const
{
    auto entries = this->entries();
    // Waits mark idle time and hostPool rows shadow their kernel row —
    // neither belongs on the device timeline raster.
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [](const TraceEntry& e) {
                                     return e.kind == "wait" || e.kind == "hostPool";
                                 }),
                  entries.end());
    if (entries.empty()) {
        return "(empty trace)\n";
    }
    double tEnd = 0.0;
    for (const auto& e : entries) {
        tEnd = std::max(tEnd, e.endV);
    }
    if (tEnd <= 0.0) {
        tEnd = 1.0;
    }

    // Group rows by (device, stream) and lay entries on a character raster.
    std::map<std::pair<int, int>, std::string> rows;
    for (const auto& e : entries) {
        auto& row = rows[{e.device, e.stream}];
        if (row.empty()) {
            row.assign(static_cast<size_t>(columns), '.');
        }
        int c0 = static_cast<int>(std::floor(e.startV / tEnd * columns));
        int c1 = static_cast<int>(std::ceil(e.endV / tEnd * columns));
        c0 = std::clamp(c0, 0, columns - 1);
        c1 = std::clamp(c1, c0 + 1, columns);
        const char glyph = e.kind == "transfer" ? '~' : (e.kind == "hostFn" ? '#' : '=');
        char label = e.name.empty() ? glyph : e.name.front();
        for (int c = c0; c < c1; ++c) {
            row[static_cast<size_t>(c)] = (c == c0) ? label : glyph;
        }
    }

    std::ostringstream os;
    os << "virtual timeline, total " << tEnd * 1e6 << " us ('=' kernel, '~' transfer, '#' host)\n";
    for (const auto& [key, row] : rows) {
        os << "dev" << key.first << "/s" << key.second << " |" << row << "|\n";
    }
    return os.str();
}

std::string Trace::chromeTrace() const
{
    auto entries = this->entries();
    // Chrome/Perfetto expect events sorted by timestamp; a stable sort keeps
    // enqueue order among equal timestamps.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const TraceEntry& a, const TraceEntry& b) { return a.startV < b.startV; });

    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string& event) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << "\n" << event;
    };

    // hostPool rows get their own thread lanes (one per pool worker) so
    // host-core occupancy shows beside the stream timeline instead of
    // shadowing the kernel slice. Lane tid = kPoolTidBase + worker slot.
    constexpr int kPoolTidBase = 1000;
    auto tidOf = [&](const TraceEntry& e) {
        return e.kind == "hostPool" ? kPoolTidBase + std::max(e.srcDevice, 0) : e.stream;
    };

    // Metadata: name processes after devices and threads after streams.
    std::map<int, std::vector<int>> rows;
    for (const auto& e : entries) {
        auto& streams = rows[e.device];
        const int tid = tidOf(e);
        if (std::find(streams.begin(), streams.end(), tid) == streams.end()) {
            streams.push_back(tid);
        }
    }
    for (const auto& [dev, streams] : rows) {
        std::ostringstream m;
        m << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << dev
          << ",\"args\":{\"name\":\"dev" << dev << "\"}}";
        emit(m.str());
        for (const int s : streams) {
            std::ostringstream t;
            t << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << dev << ",\"tid\":" << s
              << ",\"args\":{\"name\":\"";
            if (s >= kPoolTidBase) {
                t << "hostWorker" << (s - kPoolTidBase);
            } else {
                t << "stream" << s;
            }
            t << "\"}}";
            emit(t.str());
        }
    }

    for (const auto& e : entries) {
        std::ostringstream ev;
        ev << "{\"ph\":\"X\",\"name\":\"" << jsonEscape(e.name.empty() ? e.kind : e.name)
           << "\",\"cat\":\"" << jsonEscape(e.kind) << "\",\"pid\":" << e.device
           << ",\"tid\":" << tidOf(e) << ",\"ts\":" << usFmt(e.startV)
           << ",\"dur\":" << usFmt(std::max(0.0, e.endV - e.startV)) << ",\"args\":{";
        ev << "\"container\":" << e.containerId << ",\"run\":" << e.runId;
        if (e.jobId >= 0) {
            ev << ",\"job\":" << e.jobId;
        }
        if (e.kind == "hostPool") {
            ev << ",\"worker\":" << e.srcDevice << ",\"chunks\":" << e.bytes;
        } else if (e.bytes > 0) {
            ev << ",\"bytes\":" << e.bytes;
        }
        ev << "}}";
        emit(ev.str());

        // Wait edge: flow arrow from the recording (device, stream) at the
        // event's timestamp to the waiting stream.
        if (e.kind == "wait" && e.srcDevice >= 0) {
            std::ostringstream fs;
            fs << "{\"ph\":\"s\",\"id\":" << e.waitEventId
               << ",\"name\":\"dep\",\"cat\":\"wait\",\"pid\":" << e.srcDevice
               << ",\"tid\":" << e.srcStream << ",\"ts\":" << usFmt(e.endV) << "}";
            emit(fs.str());
            std::ostringstream ff;
            ff << "{\"ph\":\"f\",\"bp\":\"e\",\"id\":" << e.waitEventId
               << ",\"name\":\"dep\",\"cat\":\"wait\",\"pid\":" << e.device
               << ",\"tid\":" << e.stream << ",\"ts\":" << usFmt(e.endV) << "}";
            emit(ff.str());
        }
    }
    os << "\n]}\n";
    return os.str();
}

}  // namespace neon::sys
