// Benchmark program: one workload per invocation.
//
//   neon_perfbench --workload <lbm-cavity|cg-solve|cg-8gpu-dry|service-mix>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics untraced for --seconds;
// --trace 1 runs the bounded traced window, the per-layer probes and the
// module probes, and writes every span to <out-dir>. Both print the checks
// and metrics as '#' lines, then one JSON result object as the last line.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why)
{
    std::cerr << "neon_perfbench: " << why
              << "\nusage: neon_perfbench --workload <lbm-cavity|cg-solve|cg-8gpu-dry|"
                 "service-mix> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv)
{
    Options opt;
    if (argc % 2 == 0) {
        return usage("every option takes a value");
    }
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload") {
                opt.workload = val;
            } else if (key == "--seed") {
                opt.seed = std::stoull(val);
            } else if (key == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (key == "--trace" && (val == "0" || val == "1")) {
                opt.trace = val == "1";
            } else if (key == "--out-dir") {
                opt.outDir = val;
            } else {
                return usage("unknown option or value: " + key + " " + val);
            }
        } catch (const std::exception&) {
            return usage("bad value for " + key + ": " + val);
        }
    }
    const std::map<std::string, void (*)(Run&)> workloads = {
        {"lbm-cavity", lbmCavity},
        {"cg-solve", cgSolve},
        {"cg-8gpu-dry", cg8GpuDry},
        {"service-mix", serviceMix},
    };
    const auto it = workloads.find(opt.workload);
    if (it == workloads.end() || opt.seconds <= 0) {
        return usage("missing or unknown --workload, or --seconds <= 0");
    }
    // The benchmark fixes engine, pool width and checking modes itself.
    for (const char* var : {"NEON_THREADS", "NEON_ENGINE", "NEON_ANALYSIS", "NEON_SANITIZE"}) {
        unsetenv(var);
    }

    Run run(opt);
    run.note("workload " + opt.workload + ", seed " + std::to_string(opt.seed) +
             ", pool width " + std::to_string(poolWidth()) + ", trace " +
             (opt.trace ? "1" : "0"));
    try {
        it->second(run);
        if (opt.trace) {
            moduleProbes(run);
            run.metric("sys.trace.spans", static_cast<double>(run.tracer.spans().size()),
                       "count");
            std::filesystem::create_directories(opt.outDir);
            const std::string path = opt.outDir + "/spans-" + opt.workload + "-seed" +
                                     std::to_string(opt.seed) + ".json";
            run.tracer.write(path, "\"workload\": \"" + opt.workload +
                                       "\", \"seed\": " + std::to_string(opt.seed) +
                                       ", \"pool_width\": " + std::to_string(poolWidth()));
            run.note("spans written to " + path);
        }
    } catch (const std::exception& e) {
        std::cerr << "neon_perfbench: " << e.what() << "\n";
        return 1;
    }
    run.print();
    return 0;
}
