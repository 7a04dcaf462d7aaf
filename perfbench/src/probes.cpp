// Module probes added to every traced run, and the STREAM-style triad
// bandwidth probe the LBM bandwidth fraction is taken against.

#include <unistd.h>

#include <cmath>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

/// Last-level cache size in bytes (sysconf), or 0 when unknown.
double l3Bytes()
{
    const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
    return v > 0 ? static_cast<double>(v) : 0.0;
}

/// Triad a = b + s * c over three arrays of `n` doubles on `width`
/// threads (static partition, first touch by the same threads). Returns
/// the median GB/s of 5 passes, counting 24 bytes per element.
double triadGbps(Run& run, size_t n, int width)
{
    std::vector<double> a(n), b(n), c(n);
    auto parallel = [&](auto&& body) {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<size_t>(width));
        for (int t = 0; t < width; ++t) {
            threads.emplace_back([&, t] {
                body(n * static_cast<size_t>(t) / static_cast<size_t>(width),
                     n * static_cast<size_t>(t + 1) / static_cast<size_t>(width));
            });
        }
        for (auto& th : threads) {
            th.join();
        }
    };
    parallel([&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    const double        s = 3.0;
    std::vector<double> gbps;
    for (int pass = 0; pass < 5; ++pass) {
        const double t = timeIt([&] {
            parallel([&](size_t lo, size_t hi) {
                for (size_t i = lo; i < hi; ++i) {
                    a[i] = b[i] + s * c[i];
                }
            });
        });
        gbps.push_back(24.0 * static_cast<double>(n) / t / 1e9);
    }
    run.check("triad probe: a = b + 3c", a[n / 2] == 7.0 && a[n - 1] == 7.0);
    return median(gbps);
}

}  // namespace

void moduleProbes(Run& run)
{
    const int width = poolWidth();
    // Each triad array is at least 4x the last-level cache (128 MiB
    // assumed when the size is unknown).
    const double l3 = l3Bytes();
    const double arrayBytes = 4.0 * (l3 > 0 ? l3 : 128.0 * 1024 * 1024);
    const auto   n = static_cast<size_t>(std::ceil(arrayBytes / sizeof(double)));
    const double triad = triadGbps(run, n, width);
    run.metric("sys.triad_gbps", triad, "GB/s");
    run.metric("sys.triad_array_mib", static_cast<double>(n * sizeof(double)) / (1024.0 * 1024.0),
               "MiB");
    run.metric("sys.l3_mib", l3 / (1024.0 * 1024.0), "MiB");
    lbmProbe(run, width, triad);
    cgProbe(run, width);
    serviceProbe(run);
}

}  // namespace perfbench
