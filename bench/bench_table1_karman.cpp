// Table I reproduction: Neon vs a "Taichi-like" flat-array baseline on the
// 2-D Karman vortex street, single device, wall-clock LUPS.
//
// The paper compares Neon's library approach against Taichi's compiler
// approach on a single GPU and finds them closely matched (speedup ~1.0).
// Here both run on the CPU backend, so the measured ratio isolates exactly
// what the paper's table isolates: the framework overhead of Neon's
// abstraction versus hand-written flat loops. Domain sizes are scaled down
// from the paper's (4096x1024 ... 32768x8192) to host-executable sizes.
//
// The comparison is on an equal budget: the native solver runs on one host
// thread, and so does Neon (BackendSpec::withHostThreads(1)). Per size, the
// two are timed in interleaved reps (benchtool::interleavedMedians), so host
// load falls on both sides of the ratio alike. Neon on the default pool
// width is reported as its own row. Writes BENCH_table1_report.json;
// tools/check_bench_reports.py gates the one-thread time ratio Neon / native
// at every size.

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/benchtool.hpp"
#include "dgrid/dfield.hpp"
#include "lbm/karman2d.hpp"

using namespace neon;

namespace {

struct SizeCase
{
    int32_t nx;
    int32_t ny;
};

const std::vector<SizeCase>& sizes()
{
    static const std::vector<SizeCase> s = [] {
        std::vector<SizeCase> v{{256, 64}, {512, 128}, {1024, 256}};
        if (benchtool::paperScale()) {
            v.push_back({2048, 512});
        }
        return v;
    }();
    return s;
}

lbm::KarmanConfig configFor(const SizeCase& sc)
{
    lbm::KarmanConfig cfg;
    cfg.nx = sc.nx;
    cfg.ny = sc.ny;
    cfg.inflow = 0.05;
    cfg.reynolds = 150.0;
    return cfg;
}

constexpr int kItersPerRep = 20;
constexpr int kReps = 7;

/// Neon's Karman solver on one CPU device whose host pool has `threads`
/// workers (0: the default width).
struct NeonKarman
{
    NeonKarman(const SizeCase& sc, int threads)
        : backend(set::Backend::make(set::BackendSpec::cpu(1).withHostThreads(threads))),
          grid(backend, {sc.nx, 1, sc.ny}, lbm::D2Q9::stencilXZ()),
          solver(grid, configFor(sc))
    {
    }

    void step(int n)
    {
        solver.run(n);
        solver.sync();
    }

    set::Backend                  backend;
    dgrid::DGrid                  grid;
    lbm::KarmanD2Q9<dgrid::DGrid> solver;
};

/// Seconds of kItersPerRep steps.
template <typename Fn>
double timed(Fn&& step)
{
    const auto t0 = std::chrono::steady_clock::now();
    step(kItersPerRep);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SizeResult
{
    SizeCase sc;
    double   neon1tS = 0.0;      ///< median seconds, Neon on one host thread
    double   nativeS = 0.0;      ///< median seconds, native (paired with neon1tS)
    double   neonPoolS = 0.0;    ///< median seconds, Neon on the default pool
    double   nativePoolS = 0.0;  ///< median seconds, native (paired with neonPoolS)

    [[nodiscard]] double mlups(double seconds) const
    {
        return static_cast<double>(sc.nx) * sc.ny * kItersPerRep / seconds / 1e6;
    }
    /// Neon / native time ratio on one host thread each.
    [[nodiscard]] double ratio1t() const { return neon1tS / nativeS; }
};

}  // namespace

int main()
{
    std::vector<SizeResult> results;
    int                     neonThreads = 0;
    int                     poolThreads = 0;
    for (const auto& sc : sizes()) {
        lbm::NativeKarmanD2Q9<float> native(configFor(sc));
        NeonKarman                   neon1(sc, 1);
        NeonKarman                   neonPool(sc, 0);
        neonThreads = neon1.backend.hostThreads();
        poolThreads = neonPool.backend.hostThreads();
        const auto nativeSide = [&] { return timed([&](int n) { native.run(n); }); };
        const auto vs1t = benchtool::interleavedMedians(
            kReps, [&] { return timed([&](int n) { neon1.step(n); }); }, nativeSide);
        const auto vsPool = benchtool::interleavedMedians(
            kReps, [&] { return timed([&](int n) { neonPool.step(n); }); }, nativeSide);
        results.push_back({sc, vs1t.a, vs1t.b, vsPool.a, vsPool.b});
    }

    auto domain = [](const SizeCase& sc) {
        return std::to_string(sc.nx) + " x " + std::to_string(sc.ny);
    };
    benchtool::Table table;
    table.title = "Table I — Karman vortex street (D2Q9), single device, one host thread, "
                  "wall-clock (medians of " +
                  std::to_string(kReps) + " interleaved reps)";
    table.header = {"Domain", "Neon (MLUPS)", "Taichi-like (MLUPS)", "Speedup"};
    for (const auto& r : results) {
        table.rows.push_back({domain(r.sc), benchtool::fmt(r.mlups(r.neon1tS)),
                              benchtool::fmt(r.mlups(r.nativeS)),
                              benchtool::fmt(r.nativeS / r.neon1tS, 3)});
    }
    table.print();

    benchtool::Table scaling;
    scaling.title = "Neon on the default host pool (" + std::to_string(poolThreads) +
                    " threads, not an equal budget)";
    scaling.header = {"Domain", "Neon (MLUPS)", "vs 1-thread Taichi-like (same pair)"};
    for (const auto& r : results) {
        scaling.rows.push_back({domain(r.sc), benchtool::fmt(r.mlups(r.neonPoolS)),
                                benchtool::fmt(r.nativePoolS / r.neonPoolS, 3)});
    }
    scaling.print();
    std::cout << "Paper's shape: speedup ~1.0 across sizes — the library abstraction\n"
                 "costs little against hand-written flat loops (paper Table I: 0.98-1.14x).\n";

    std::ofstream os("BENCH_table1_report.json");
    os << "{\n"
       << "  \"bench\": \"table1\",\n"
       << "  \"iters_per_rep\": " << kItersPerRep << ",\n"
       << "  \"reps\": " << kReps << ",\n"
       << "  \"neon_threads\": " << neonThreads << ",\n"
       << "  \"pool_threads\": " << poolThreads << ",\n"
       << "  \"sizes\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        os << "    {\"nx\": " << r.sc.nx << ", \"ny\": " << r.sc.ny
           << ", \"mlups\": {\"neon_1t\": " << r.mlups(r.neon1tS)
           << ", \"native\": " << r.mlups(r.nativeS)
           << ", \"neon_pool\": " << r.mlups(r.neonPoolS) << "}, \"ratio_1t\": " << r.ratio1t()
           << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n"
       << "}\n";
    std::cout << "wrote BENCH_table1_report.json\n";
    return 0;
}
