#pragma once
// Shared machinery of the benchmark program: run options, the metric sink,
// correctness bookkeeping, wall-clock helpers and the span tracer.
//
// Spans are recorded only from the benchmark's own files, around each call
// it makes into a library module (sys, set, dgrid, skeleton, patterns,
// solver, lbm, poisson, service). They are held in memory and written once
// the run ends. With tracing off, Tracer::span() is a direct call.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall seconds taken by fn().
template <typename Fn>
double timeIt(Fn&& fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/// Linear-interpolated percentile (p in [0,1]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

struct Options
{
    std::string workload;
    uint64_t    seed = 1;
    double      seconds = 10.0;
    bool        trace = false;
    std::string outDir = ".bench_out";
};

/// Host-pool width used by every workload: the CPUs this process may run
/// on (nproc), at least 1.
int poolWidth();

class Tracer
{
   public:
    struct Span
    {
        std::string layer;
        std::string name;
        double      start = 0.0;  ///< seconds since the tracer epoch
        double      end = 0.0;
        int         parent = -1;
        int64_t     op = -1;  ///< step, solve, iteration batch or job id
    };

    void enable(bool on) { mOn = on; }
    /// Operation id stamped on spans opened from now on (-1 = none).
    void setOp(int64_t op) { mOp = op; }

    /// Run fn() inside a span; returns fn()'s result.
    template <typename Fn>
    decltype(auto) span(const char* layer, const char* name, Fn&& fn)
    {
        if (!mOn) {
            return fn();
        }
        Scope scope(*this, open(layer, name));
        return fn();
    }

    /// Open/close a span by hand (for windows that enclose many calls).
    int  open(const char* layer, const char* name);
    void close(int id);

    [[nodiscard]] const std::vector<Span>& spans() const { return mSpans; }
    [[nodiscard]] double duration(int id) const;
    /// Durations of the spans called `name` opened inside span `root`.
    [[nodiscard]] std::vector<double> durations(int root, const std::string& name) const;

    /// Self time per layer over the subtree of span `root`: each span's
    /// duration minus its children's. The root's own self time is the
    /// unattributed remainder (key "unattributed").
    [[nodiscard]] std::vector<std::pair<std::string, double>> selfTimes(int root) const;

    /// Write every span as JSON to `path`, with `header` (a JSON object
    /// body without braces) merged into the top level.
    void write(const std::string& path, const std::string& header) const;

   private:
    struct Scope
    {
        Scope(Tracer& t, int id) : tracer(t), spanId(id) {}
        ~Scope() { tracer.close(spanId); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        Tracer& tracer;
        int     spanId;
    };

    bool              mOn = false;
    int64_t           mOp = -1;
    Clock::time_point mEpoch = Clock::now();
    std::vector<Span> mSpans;
    std::vector<int>  mStack;
};

/// Everything one run reports: metrics in insertion order, correctness
/// checks, and the attempted/failed operation counts.
class Run
{
   public:
    explicit Run(Options options) : opt(std::move(options)) {}

    Options opt;
    Tracer  tracer;

    void metric(const std::string& name, double value, const std::string& unit);
    /// Record a correctness check; `detail` is printed with it.
    void check(const std::string& name, bool ok, const std::string& detail = "");
    /// Record a negative self-check: the check named `name`, given a
    /// deliberately corrupted output, must have failed.
    void mustReject(const std::string& name, bool checkPassedOnCorrupt);
    void note(const std::string& line);
    /// Count operations that failed outside attempt() (e.g. a job that the
    /// service retired as failed).
    void addFailed(int64_t n) { mFailed += n; }

    /// Run one operation; a neon::RuntimeError counts as failed.
    template <typename Fn>
    bool attempt(Fn&& fn)
    {
        ++mAttempted;
        try {
            fn();
            return true;
        } catch (const neon::RuntimeError& e) {
            ++mFailed;
            note(std::string("operation failed: ") + e.what());
            return false;
        }
    }

    [[nodiscard]] bool correct() const;
    /// Print notes and checks, every metric with its unit, then the result
    /// object as the last line of stdout.
    void print() const;

   private:
    struct Metric
    {
        std::string name;
        double      value;
        std::string unit;
    };
    std::vector<Metric>                       mMetrics;
    std::vector<std::pair<std::string, bool>> mChecks;
    std::vector<std::string>                  mNotes;
    int64_t                                   mAttempted = 0;
    int64_t                                   mFailed = 0;
};

/// Closed-loop measurement: call op() until `seconds` have passed and at
/// least `minSamples` samples exist (bounded by 3 x seconds). op() returns
/// how many operations it completed; each call is one sample of wall
/// milliseconds per operation.
struct Loop
{
    std::vector<double> msPerOp;
    int64_t             ops = 0;
    double              wall = 0.0;
};

template <typename Op>
Loop closedLoop(double seconds, int minSamples, Op&& op)
{
    Loop       loop;
    const auto t0 = Clock::now();
    while (true) {
        const double elapsed = secondsSince(t0);
        if (elapsed >= 3.0 * seconds ||
            (elapsed >= seconds && static_cast<int>(loop.msPerOp.size()) >= minSamples)) {
            break;
        }
        const auto    s0 = Clock::now();
        const int64_t n = op();
        const double  dt = secondsSince(s0);
        if (n > 0) {
            loop.msPerOp.push_back(dt * 1e3 / static_cast<double>(n));
            loop.ops += n;
        }
    }
    loop.wall = secondsSince(t0);
    return loop;
}

/// The end-to-end metrics every workload reports (untraced runs).
void endToEnd(Run& run, const std::vector<double>& setupSeconds, const Loop& loop,
              const std::string& opName);

}  // namespace perfbench
