#include "sys/execution_report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "core/json.hpp"

namespace neon {

namespace {

using Interval = std::pair<double, double>;

/// Merge overlapping intervals in place; returns total covered length.
double mergedLength(std::vector<Interval>& xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    std::vector<Interval> merged;
    merged.push_back(xs.front());
    for (size_t i = 1; i < xs.size(); ++i) {
        if (xs[i].first <= merged.back().second) {
            merged.back().second = std::max(merged.back().second, xs[i].second);
        } else {
            merged.push_back(xs[i]);
        }
    }
    xs = std::move(merged);
    double total = 0.0;
    for (const auto& [a, b] : xs) {
        total += b - a;
    }
    return total;
}

/// Total length of the intersection of two merged (sorted, disjoint) lists.
double intersectionLength(const std::vector<Interval>& a, const std::vector<Interval>& b)
{
    double total = 0.0;
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const double lo = std::max(a[i].first, b[j].first);
        const double hi = std::min(a[i].second, b[j].second);
        if (hi > lo) {
            total += hi - lo;
        }
        if (a[i].second < b[j].second) {
            ++i;
        } else {
            ++j;
        }
    }
    return total;
}

std::string num(double v)
{
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

bool isWork(const sys::TraceEntry& e)
{
    return e.kind == "kernel" || e.kind == "transfer" || e.kind == "hostFn";
}

}  // namespace

ExecutionReport ExecutionReport::fromEntries(const std::vector<sys::TraceEntry>& entries,
                                             int                                 devCount)
{
    ExecutionReport r;
    r.mDevices.resize(static_cast<size_t>(std::max(devCount, 0)));
    for (int d = 0; d < devCount; ++d) {
        r.mDevices[static_cast<size_t>(d)].device = d;
    }
    if (entries.empty()) {
        return r;
    }

    r.mEvents = static_cast<int>(entries.size());
    r.mWindowStart = entries.front().startV;
    r.mWindowEnd = entries.front().endV;
    for (const auto& e : entries) {
        r.mWindowStart = std::min(r.mWindowStart, e.startV);
        r.mWindowEnd = std::max(r.mWindowEnd, e.endV);
    }

    auto deviceSlot = [&](int dev) -> DeviceStats& {
        while (static_cast<int>(r.mDevices.size()) <= dev) {
            DeviceStats ds;
            ds.device = static_cast<int>(r.mDevices.size());
            r.mDevices.push_back(ds);
        }
        return r.mDevices[static_cast<size_t>(dev)];
    };

    // Per-device interval sets, per-stream busy sets, per-container sums.
    std::map<int, std::vector<Interval>>                 kernelIv;
    std::map<int, std::vector<Interval>>                 transferIv;
    std::map<std::pair<int, int>, std::vector<Interval>> streamIv;
    std::map<std::string, ContainerStats>                byName;
    std::map<int, std::set<int>>                         poolWorkers;

    for (const auto& e : entries) {
        if (e.device < 0) {
            continue;
        }
        DeviceStats& ds = deviceSlot(e.device);
        if (e.kind == "wait") {
            ds.waitTime += e.endV - e.startV;
            continue;
        }
        if (e.kind == "fault") {
            ds.faults += 1;
            ds.faultTime += e.endV - e.startV;
            continue;
        }
        if (e.kind == "hostPool") {
            // One row per pool worker that ran chunks of a CPU-device
            // kernel: srcDevice = worker slot, bytes = chunks executed.
            ds.hostPoolBusy += e.endV - e.startV;
            ds.hostPoolChunks += e.bytes;
            poolWorkers[e.device].insert(e.srcDevice);
            continue;
        }
        if (!isWork(e)) {
            continue;
        }
        streamIv[{e.device, e.stream}].push_back({e.startV, e.endV});
        ContainerStats& cs = byName[e.name];
        cs.name = e.name;
        if (e.kind == "kernel") {
            ds.kernels += 1;
            kernelIv[e.device].push_back({e.startV, e.endV});
            cs.launches += 1;
            cs.kernelTime += e.endV - e.startV;
        } else if (e.kind == "transfer") {
            ds.transfers += 1;
            ds.haloBytes += e.bytes;
            transferIv[e.device].push_back({e.startV, e.endV});
            cs.launches += 1;
            cs.transferTime += e.endV - e.startV;
            cs.bytes += e.bytes;
        } else {  // hostFn counts as compute occupancy of its stream
            cs.launches += 1;
            cs.kernelTime += e.endV - e.startV;
        }
    }

    for (auto& [dev, workers] : poolWorkers) {
        deviceSlot(dev).hostWorkers = static_cast<int>(workers.size());
    }

    for (auto& ds : r.mDevices) {
        auto ki = kernelIv.find(ds.device);
        auto ti = transferIv.find(ds.device);
        if (ki != kernelIv.end()) {
            ds.computeBusy = mergedLength(ki->second);
        }
        if (ti != transferIv.end()) {
            ds.transferBusy = mergedLength(ti->second);
        }
        if (ki != kernelIv.end() && ti != transferIv.end()) {
            ds.overlap = intersectionLength(ki->second, ti->second);
        }
    }

    const double makespan = r.makespan();
    for (auto& [key, iv] : streamIv) {
        StreamStats ss;
        ss.device = key.first;
        ss.stream = key.second;
        ss.busy = mergedLength(iv);
        ss.utilization = makespan > 0.0 ? ss.busy / makespan : 0.0;
        r.mStreams.push_back(ss);
    }

    for (auto& [name, cs] : byName) {
        r.mContainers.push_back(cs);
    }
    std::sort(r.mContainers.begin(), r.mContainers.end(),
              [](const ContainerStats& a, const ContainerStats& b) {
                  return a.kernelTime + a.transferTime > b.kernelTime + b.transferTime;
              });

    // Critical path: duration-weighted longest chain of work ops where a
    // successor starts exactly when a predecessor ends (tight dependency in
    // the discrete-event timeline) or follows it on the same stream FIFO.
    std::vector<const sys::TraceEntry*> work;
    for (const auto& e : entries) {
        if (isWork(e)) {
            work.push_back(&e);
        }
    }
    std::sort(work.begin(), work.end(), [](const sys::TraceEntry* a, const sys::TraceEntry* b) {
        return a->startV < b->startV;
    });
    const double        eps = 1e-12 + makespan * 1e-9;
    std::vector<double> dp(work.size(), 0.0);
    for (size_t i = 0; i < work.size(); ++i) {
        const auto& wi = *work[i];
        double      best = 0.0;
        for (size_t j = 0; j < i; ++j) {
            const auto& wj = *work[j];
            if (wj.endV > wi.startV + eps) {
                continue;  // j still running when i starts: not a predecessor
            }
            const bool tight = std::abs(wj.endV - wi.startV) <= eps;
            const bool sameStream = wj.device == wi.device && wj.stream == wi.stream;
            if ((tight || sameStream) && dp[j] > best) {
                best = dp[j];
            }
        }
        dp[i] = best + (wi.endV - wi.startV);
        r.mCriticalPath = std::max(r.mCriticalPath, dp[i]);
    }

    return r;
}

double ExecutionReport::overlapPercent() const
{
    double transfer = 0.0;
    double overlap = 0.0;
    for (const auto& d : mDevices) {
        transfer += d.transferBusy;
        overlap += d.overlap;
    }
    return transfer > 0.0 ? 100.0 * overlap / transfer : 0.0;
}

uint64_t ExecutionReport::haloBytes() const
{
    uint64_t total = 0;
    for (const auto& d : mDevices) {
        total += d.haloBytes;
    }
    return total;
}

double ExecutionReport::deviceUtilization() const
{
    if (mDevices.empty() || makespan() <= 0.0) {
        return 0.0;
    }
    double sum = 0.0;
    for (const auto& d : mDevices) {
        sum += d.computeBusy;
    }
    return sum / (makespan() * static_cast<double>(mDevices.size()));
}

double ExecutionReport::totalWaitTime() const
{
    double total = 0.0;
    for (const auto& d : mDevices) {
        total += d.waitTime;
    }
    return total;
}

int ExecutionReport::faultEvents() const
{
    int total = 0;
    for (const auto& d : mDevices) {
        total += d.faults;
    }
    return total;
}

double ExecutionReport::totalFaultTime() const
{
    double total = 0.0;
    for (const auto& d : mDevices) {
        total += d.faultTime;
    }
    return total;
}

double ExecutionReport::totalHostPoolBusy() const
{
    double total = 0.0;
    for (const auto& d : mDevices) {
        total += d.hostPoolBusy;
    }
    return total;
}

std::string ExecutionReport::toString() const
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(2);
    os << "execution report: " << mEvents << " events, window " << mWindowStart * 1e6 << ".."
       << mWindowEnd * 1e6 << " us (makespan " << makespan() * 1e6 << " us)\n";
    os << "  overlap: " << overlapPercent() << "% of transfer time under compute\n";
    os << "  halo bytes: " << haloBytes() << ", device utilization: " << deviceUtilization() * 100.0
       << "%, critical path: " << criticalPath() * 1e6 << " us, wait: " << totalWaitTime() * 1e6
       << " us\n";
    if (faultEvents() > 0) {
        os << "  faults: " << faultEvents() << " events, " << totalFaultTime() * 1e6
           << " us lost to retries/stalls\n";
    }
    for (const auto& d : mDevices) {
        os << "  dev" << d.device << ": compute " << d.computeBusy * 1e6 << " us, transfer "
           << d.transferBusy * 1e6 << " us, overlap " << d.overlap * 1e6 << " us, "
           << d.kernels << " kernels, " << d.transfers << " transfers, " << d.haloBytes
           << " bytes\n";
        if (d.hostPoolBusy > 0.0 || d.hostPoolChunks > 0) {
            os << "  dev" << d.device << " host pool: " << d.hostPoolBusy * 1e6
               << " us busy across " << d.hostWorkers << " workers, " << d.hostPoolChunks
               << " chunks\n";
        }
    }
    for (const auto& s : mStreams) {
        os << "  dev" << s.device << "/s" << s.stream << ": busy " << s.busy * 1e6 << " us ("
           << s.utilization * 100.0 << "%)\n";
    }
    os << "  containers (by time):\n";
    for (const auto& c : mContainers) {
        os << "    " << c.name << ": " << c.launches << " launches, kernel "
           << c.kernelTime * 1e6 << " us, transfer " << c.transferTime * 1e6 << " us";
        if (c.bytes > 0) {
            os << ", " << c.bytes << " bytes";
        }
        os << "\n";
    }
    return os.str();
}

std::string ExecutionReport::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"window\": {\"start\": " << num(mWindowStart) << ", \"end\": " << num(mWindowEnd)
       << ", \"makespan\": " << num(makespan()) << "},\n";
    os << "  \"events\": " << mEvents << ",\n";
    os << "  \"overlapPercent\": " << num(overlapPercent()) << ",\n";
    os << "  \"haloBytes\": " << haloBytes() << ",\n";
    os << "  \"deviceUtilization\": " << num(deviceUtilization()) << ",\n";
    os << "  \"criticalPath\": " << num(criticalPath()) << ",\n";
    os << "  \"waitTime\": " << num(totalWaitTime()) << ",\n";
    os << "  \"faultEvents\": " << faultEvents() << ",\n";
    os << "  \"faultTime\": " << num(totalFaultTime()) << ",\n";
    os << "  \"devices\": [";
    for (size_t i = 0; i < mDevices.size(); ++i) {
        const auto& d = mDevices[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"device\": " << d.device << ", \"computeBusy\": " << num(d.computeBusy)
           << ", \"transferBusy\": " << num(d.transferBusy) << ", \"overlap\": " << num(d.overlap)
           << ", \"waitTime\": " << num(d.waitTime) << ", \"haloBytes\": " << d.haloBytes
           << ", \"kernels\": " << d.kernels << ", \"transfers\": " << d.transfers
           << ", \"faults\": " << d.faults << ", \"faultTime\": " << num(d.faultTime)
           << ", \"hostPoolBusy\": " << num(d.hostPoolBusy)
           << ", \"hostPoolChunks\": " << d.hostPoolChunks
           << ", \"hostWorkers\": " << d.hostWorkers << "}";
    }
    os << "\n  ],\n";
    os << "  \"streams\": [";
    for (size_t i = 0; i < mStreams.size(); ++i) {
        const auto& s = mStreams[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"device\": " << s.device << ", \"stream\": " << s.stream
           << ", \"busy\": " << num(s.busy) << ", \"utilization\": " << num(s.utilization) << "}";
    }
    os << "\n  ],\n";
    os << "  \"containers\": [";
    for (size_t i = 0; i < mContainers.size(); ++i) {
        const auto& c = mContainers[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"name\": \"" << jsonEscape(c.name) << "\", \"launches\": " << c.launches
           << ", \"kernelTime\": " << num(c.kernelTime)
           << ", \"transferTime\": " << num(c.transferTime) << ", \"bytes\": " << c.bytes << "}";
    }
    os << "\n  ]\n";
    os << "}\n";
    return os.str();
}

}  // namespace neon
