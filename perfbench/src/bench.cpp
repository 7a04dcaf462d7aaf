#include "bench.hpp"

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto   lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

int poolWidth()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return 1;
}

namespace {

std::string num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

}  // namespace

// --- Tracer -----------------------------------------------------------------

int Tracer::open(const char* layer, const char* name)
{
    Span s;
    s.layer = layer;
    s.name = name;
    s.start = secondsSince(mEpoch);
    s.parent = mStack.empty() ? -1 : mStack.back();
    s.op = mOp;
    mSpans.push_back(std::move(s));
    const int id = static_cast<int>(mSpans.size()) - 1;
    mStack.push_back(id);
    return id;
}

void Tracer::close(int id)
{
    mSpans[static_cast<size_t>(id)].end = secondsSince(mEpoch);
    if (!mStack.empty() && mStack.back() == id) {
        mStack.pop_back();
    }
}

double Tracer::duration(int id) const
{
    const auto& s = mSpans[static_cast<size_t>(id)];
    return s.end - s.start;
}

std::vector<double> Tracer::durations(int root, const std::string& name) const
{
    std::vector<double> out;
    const auto&         r = mSpans[static_cast<size_t>(root)];
    for (size_t i = static_cast<size_t>(root) + 1; i < mSpans.size(); ++i) {
        const auto& s = mSpans[i];
        if (s.start >= r.start && s.end <= r.end && s.name == name) {
            out.push_back(s.end - s.start);
        }
    }
    return out;
}

std::vector<std::pair<std::string, double>> Tracer::selfTimes(int root) const
{
    // Spans are stored in open order, so a parent precedes its children and
    // the subtree of `root` is found in one forward pass.
    std::vector<char>   inTree(mSpans.size(), 0);
    std::vector<double> self(mSpans.size(), 0.0);
    inTree[static_cast<size_t>(root)] = 1;
    for (size_t i = 0; i < mSpans.size(); ++i) {
        const int p = mSpans[i].parent;
        if (static_cast<int>(i) != root && p >= 0 && inTree[static_cast<size_t>(p)]) {
            inTree[i] = 1;
        }
        self[i] = mSpans[i].end - mSpans[i].start;
    }
    for (size_t i = 0; i < mSpans.size(); ++i) {
        const int p = mSpans[i].parent;
        if (inTree[i] && static_cast<int>(i) != root && p >= 0) {
            self[static_cast<size_t>(p)] -= mSpans[i].end - mSpans[i].start;
        }
    }
    std::map<std::string, double> byLayer;
    for (size_t i = 0; i < mSpans.size(); ++i) {
        if (inTree[i] && static_cast<int>(i) != root) {
            byLayer[mSpans[i].layer] += self[i];
        }
    }
    std::vector<std::pair<std::string, double>> out(byLayer.begin(), byLayer.end());
    out.emplace_back("unattributed", self[static_cast<size_t>(root)]);
    return out;
}

void Tracer::write(const std::string& path, const std::string& header) const
{
    std::ofstream os(path);
    if (!os) {
        throw std::runtime_error("cannot write span file " + path);
    }
    os << "{" << header << ",\n\"spans\": [\n";
    for (size_t i = 0; i < mSpans.size(); ++i) {
        const auto& s = mSpans[i];
        os << "{\"id\": " << i << ", \"parent\": " << s.parent << ", \"layer\": "
           << quoted(s.layer) << ", \"name\": " << quoted(s.name) << ", \"op\": " << s.op
           << ", \"start_s\": " << num(s.start) << ", \"end_s\": " << num(s.end) << "}"
           << (i + 1 < mSpans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
}

// --- Run --------------------------------------------------------------------

void Run::metric(const std::string& name, double value, const std::string& unit)
{
    if (!std::isfinite(value)) {
        check("finite value for " + name, false);
        value = -1.0;
    }
    mMetrics.push_back({name, value, unit});
}

void Run::check(const std::string& name, bool ok, const std::string& detail)
{
    mChecks.emplace_back(name, ok);
    note(std::string(ok ? "check ok   " : "check FAIL ") + name +
         (detail.empty() ? "" : " (" + detail + ")"));
}

void Run::mustReject(const std::string& name, bool checkPassedOnCorrupt)
{
    check("negative: " + name + " rejects corrupted output", !checkPassedOnCorrupt);
}

void Run::note(const std::string& line)
{
    mNotes.push_back(line);
}

bool Run::correct() const
{
    if (mChecks.empty()) {
        return false;
    }
    for (const auto& c : mChecks) {
        if (!c.second) {
            return false;
        }
    }
    return true;
}

void Run::print() const
{
    for (const auto& n : mNotes) {
        std::cout << "# " << n << "\n";
    }
    for (const auto& m : mMetrics) {
        std::cout << "# " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
    }
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": "
       << mAttempted << ", \"failed\": " << mFailed << ", \"metrics\": {";
    for (size_t i = 0; i < mMetrics.size(); ++i) {
        const auto& m = mMetrics[i];
        os << (i ? ", " : "") << quoted(m.name) << ": {\"value\": " << num(m.value)
           << ", \"unit\": " << quoted(m.unit) << "}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void endToEnd(Run& run, const std::vector<double>& setupSeconds, const Loop& loop,
              const std::string& opName)
{
    run.note("setup repetitions: " + std::to_string(setupSeconds.size()));
    run.note("timed " + opName + " samples: " + std::to_string(loop.msPerOp.size()) + ", " +
             std::to_string(loop.ops) + " " + opName + "s in " + num(loop.wall) + " s");
    // The tail is printed but not a metric: on a shared host its
    // run-to-run spread is set by CPU steal more than by the program
    // (README.md, "End-to-end metrics").
    run.note("ms per " + opName + ": p10 " + num(percentile(loop.msPerOp, 0.1)) + ", p25 " +
             num(percentile(loop.msPerOp, 0.25)) + ", p75 " +
             num(percentile(loop.msPerOp, 0.75)) + ", p90 " +
             num(percentile(loop.msPerOp, 0.9)) + ", max " +
             num(percentile(loop.msPerOp, 1.0)));
    if (loop.msPerOp.size() < 100) {
        run.note("warning: fewer than 100 samples, so p90 has fewer than 10 beyond it");
    }
    run.metric("setup_s", median(setupSeconds), "s");
    run.metric("op_ms.p50", percentile(loop.msPerOp, 0.5), "ms");
    run.metric("ops_per_s", static_cast<double>(loop.ops) / loop.wall, "1/s");
}

}  // namespace perfbench
