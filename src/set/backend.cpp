#include "set/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "core/error.hpp"
#include "set/analyzer.hpp"
#include "set/profiler.hpp"
#include "sys/device.hpp"
#include "sys/thread_pool.hpp"

namespace neon::set {

namespace {

bool sameCost(const sys::SimConfig& a, const sys::SimConfig& b)
{
    return a.device.memBandwidth == b.device.memBandwidth &&
           a.device.flopRate == b.device.flopRate &&
           a.device.kernelLaunchOverhead == b.device.kernelLaunchOverhead &&
           a.link.bandwidth == b.link.bandwidth && a.link.latency == b.link.latency &&
           a.deviceMemCapacity == b.deviceMemCapacity;
}

std::string presetNameFor(const sys::SimConfig& cfg)
{
    if (sameCost(cfg, sys::SimConfig::zeroCost())) {
        return "zeroCost";
    }
    if (sameCost(cfg, sys::SimConfig::dgxA100Like())) {
        return "dgxA100";
    }
    if (sameCost(cfg, sys::SimConfig::pcieGen3Like())) {
        return "pcieGen3";
    }
    return "custom";
}

sys::SimConfig presetConfig(const std::string& name)
{
    if (name == "zeroCost") {
        return sys::SimConfig::zeroCost();
    }
    if (name == "dgxA100") {
        return sys::SimConfig::dgxA100Like();
    }
    if (name == "pcieGen3") {
        return sys::SimConfig::pcieGen3Like();
    }
    throw NeonException("unknown backend preset '" + name +
                        "' (expected zeroCost | dgxA100 | pcieGen3)");
}

std::string deviceTypeName(sys::DeviceType t)
{
    return t == sys::DeviceType::CPU ? "CPU" : "SIM_GPU";
}

}  // namespace

std::string BackendSpec::preset() const
{
    return presetNameFor(config);
}

std::string BackendSpec::toString() const
{
    std::ostringstream os;
    os << deviceTypeName(deviceType) << " x" << nDevices << " preset=" << preset();
    if (hostThreads != 0) {
        os << " threads=" << hostThreads;
    }
    if (!speedFactors.empty()) {
        os << " speed=";
        for (size_t i = 0; i < speedFactors.size(); ++i) {
            os << (i == 0 ? "" : ",") << speedFactors[i];
        }
    }
    if (config.dryRun) {
        os << " dryRun";
    }
    return os.str();
}

BackendSpec BackendSpec::fromString(const std::string& text)
{
    BackendSpec        spec;
    std::istringstream is(text);
    std::string        type;
    std::string        count;
    is >> type >> count;
    NEON_CHECK(type == "CPU" || type == "SIM_GPU",
               "BackendSpec::fromString: bad device type in '" + text + "'");
    NEON_CHECK(count.size() > 1 && count[0] == 'x',
               "BackendSpec::fromString: bad device count in '" + text + "'");
    spec.deviceType = type == "CPU" ? sys::DeviceType::CPU : sys::DeviceType::SIM_GPU;
    spec.nDevices = std::stoi(count.substr(1));

    std::string preset = spec.deviceType == sys::DeviceType::CPU ? "zeroCost" : "dgxA100";
    std::string token;
    bool        dryRun = false;
    while (is >> token) {
        if (token.rfind("preset=", 0) == 0) {
            preset = token.substr(7);
        } else if (token.rfind("threads=", 0) == 0) {
            spec.hostThreads = std::stoi(token.substr(8));
            NEON_CHECK(spec.hostThreads >= 1,
                       "BackendSpec::fromString: threads= must be >= 1 in '" + text + "'");
        } else if (token.rfind("speed=", 0) == 0) {
            std::istringstream fs(token.substr(6));
            std::string        part;
            while (std::getline(fs, part, ',')) {
                const double f = std::stod(part);
                NEON_CHECK(f > 0.0, "BackendSpec::fromString: speed factors must be > 0 in '" +
                                        text + "'");
                spec.speedFactors.push_back(f);
            }
            NEON_CHECK(!spec.speedFactors.empty(),
                       "BackendSpec::fromString: empty speed= list in '" + text + "'");
        } else if (token == "dryRun") {
            dryRun = true;
        } else {
            throw NeonException("BackendSpec::fromString: unexpected token '" + token + "'");
        }
    }
    spec.config = presetConfig(preset);
    spec.config.dryRun = dryRun;
    return spec;
}

BackendSpec BackendSpec::simGpu(int nDevices, sys::SimConfig config)
{
    return {.nDevices = nDevices, .deviceType = sys::DeviceType::SIM_GPU, .config = config};
}

BackendSpec BackendSpec::cpu(int nDevices)
{
    return {.nDevices = nDevices};
}

struct Backend::Impl
{
    BackendSpec                                spec;
    int                                        hostThreads = 1;  ///< resolved pool width
    std::shared_ptr<sys::ThreadPool>           pool;
    std::unique_ptr<sys::Engine>               engine;
    std::vector<std::unique_ptr<sys::Device>>  devices;
    // streams[dev][idx], lazily grown
    mutable std::vector<std::vector<std::unique_ptr<sys::Stream>>> streams;
    // Per-uid inter-run event chains (see sys/data_barriers.hpp).
    mutable sys::DataBarriers dataBarriers;
    // Stream-index leases: sorted disjoint [base, base+count) blocks.
    mutable std::vector<std::pair<int, int>> leases;
    // Partition-geometry epoch (see Backend::geometryEpoch).
    mutable uint64_t geometryEpoch = 0;

    ~Impl()
    {
        // Streams must die before the engine (they detach in their dtor).
        streams.clear();
        engine.reset();
        devices.clear();
    }
};

Backend Backend::make(BackendSpec spec)
{
    NEON_CHECK(spec.nDevices >= 1, "backend needs at least one device");
    // NEON_THREADS overrides the host-pool width process-wide; then
    // spec.hostThreads; then auto. Safe to
    // vary freely: the chunk partition is span-derived, so results are
    // bitwise identical for any width.
    int threads = spec.hostThreads;
    if (const char* env = std::getenv("NEON_THREADS"); env != nullptr && *env != '\0') {
        threads = std::atoi(env);
        NEON_CHECK(threads >= 1, "NEON_THREADS must be a positive integer, got '" +
                                     std::string(env) + "'");
    }
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (threads < 1) {
        threads = 1;
    }
    auto  implPtr = std::make_shared<Impl>();
    Impl& impl = *implPtr;
    impl.spec = std::move(spec);
    impl.hostThreads = threads;
    impl.pool = std::make_shared<sys::ThreadPool>(threads);
    impl.engine = std::make_unique<sys::Engine>();
    impl.engine->setHostPool(impl.pool);
    NEON_CHECK(impl.spec.speedFactors.empty() ||
                   static_cast<int>(impl.spec.speedFactors.size()) == impl.spec.nDevices,
               "BackendSpec: speedFactors must be empty or have one entry per device");
    for (int i = 0; i < impl.spec.nDevices; ++i) {
        // Heterogeneous mixes scale each device's compute-side cost model;
        // the engine charges kernels via dev.config(), so the scaled rates
        // flow straight into the virtual timeline and the ExecutionReport.
        sys::SimConfig devConfig = impl.spec.config;
        if (!impl.spec.speedFactors.empty()) {
            const double f = impl.spec.speedFactors[static_cast<size_t>(i)];
            NEON_CHECK(f > 0.0, "BackendSpec: speed factors must be > 0");
            devConfig.device.memBandwidth *= f;
            devConfig.device.flopRate *= f;
        }
        impl.devices.push_back(
            std::make_unique<sys::Device>(i, impl.spec.deviceType, devConfig));
    }
    impl.streams.resize(static_cast<size_t>(impl.spec.nDevices));
    if (!impl.spec.faults.empty()) {
        impl.engine->faults().setPlan(impl.spec.faults);
    }
    return Backend(std::move(implPtr));
}

Backend Backend::simGpu(int nDevices, sys::SimConfig config)
{
    return make(BackendSpec::simGpu(nDevices, config));
}

Backend Backend::cpu(int nDevices)
{
    return make(BackendSpec::cpu(nDevices));
}

std::string Backend::emptyError(const std::string& who)
{
    return who + ": empty Backend handle; build one with Backend::make(spec), "
                 "Backend::cpu(n) or Backend::simGpu(n)";
}

int Backend::devCount() const
{
    return static_cast<int>(mImpl->devices.size());
}

sys::Device& Backend::device(int idx) const
{
    NEON_CHECK(idx >= 0 && idx < devCount(), "device index out of range");
    return *mImpl->devices[static_cast<size_t>(idx)];
}

sys::Engine& Backend::engine() const
{
    return *mImpl->engine;
}

const sys::SimConfig& Backend::config() const
{
    return mImpl->spec.config;
}

const BackendSpec& Backend::spec() const
{
    return mImpl->spec;
}

bool Backend::isDryRun() const
{
    return mImpl->spec.config.dryRun;
}

int Backend::hostThreads() const
{
    return mImpl->hostThreads;
}

sys::Stream& Backend::stream(int dev, int streamIdx) const
{
    NEON_CHECK(dev >= 0 && dev < devCount(), "device index out of range");
    NEON_CHECK(streamIdx >= 0, "stream index must be non-negative");
    auto& perDev = mImpl->streams[static_cast<size_t>(dev)];
    while (static_cast<int>(perDev.size()) <= streamIdx) {
        perDev.push_back(std::make_unique<sys::Stream>(
            *mImpl->engine, device(dev), static_cast<int>(perDev.size())));
    }
    return *perDev[static_cast<size_t>(streamIdx)];
}

void Backend::sync() const
{
    mImpl->engine->sync();
}

sys::FaultInjector& Backend::faults() const
{
    return mImpl->engine->faults();
}

sys::DataBarriers& Backend::dataBarriers() const
{
    return mImpl->dataBarriers;
}

int Backend::leaseStreams(int count) const
{
    NEON_CHECK(count >= 1, "Backend::leaseStreams: count must be >= 1");
    auto& leases = mImpl->leases;
    int   base = 0;
    for (size_t i = 0;; ++i) {
        const bool atEnd = i >= leases.size();
        const int  nextBase = atEnd ? base + count : leases[i].first;
        if (nextBase - base >= count) {
            leases.insert(leases.begin() + static_cast<std::ptrdiff_t>(i), {base, count});
            return base;
        }
        base = leases[i].first + leases[i].second;
    }
}

void Backend::releaseStreams(int base, int count) const
{
    auto& leases = mImpl->leases;
    for (size_t i = 0; i < leases.size(); ++i) {
        if (leases[i].first == base && leases[i].second == count) {
            leases.erase(leases.begin() + static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
    throw NeonException("Backend::releaseStreams: no lease [" + std::to_string(base) + ", " +
                        std::to_string(base + count) + ") is outstanding");
}

double Backend::makespanNow() const
{
    return mImpl->engine->maxVtime();
}

uint64_t Backend::geometryEpoch() const
{
    return mImpl->geometryEpoch;
}

void Backend::noteGeometryChange() const
{
    ++mImpl->geometryEpoch;
}

void Backend::resetClocks() const
{
    mImpl->engine->resetClocks();
    // Chained tail events carry vtime stamps from the old timeline; waiting
    // on them after a reset would fast-forward the fresh clocks.
    mImpl->dataBarriers.clear();
}

sys::Trace& Backend::traceRef() const
{
    return mImpl->engine->trace();
}

Profiler Backend::profiler() const
{
    return Profiler(*this);
}

Analyzer Backend::analysis() const
{
    return Analyzer(*this);
}

uint64_t Backend::newDataUid()
{
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1);
}

std::string Backend::toString() const
{
    return mImpl->spec.toString();
}

}  // namespace neon::set
