#pragma once
// Performance model for the simulated multi-GPU node (DESIGN.md §1).
//
// The paper evaluates on a DGX A100 (NVLink) and on a PCIe Gen3 system. We
// reproduce the timing behaviour of those systems with a calibrated
// bandwidth/latency model: grid kernels are memory-bandwidth bound, GPU-GPU
// transfers pay a per-message latency plus bytes/bandwidth. The model is
// deliberately simple — the paper's scaling results are explained by exactly
// these two quantities (§VI-A: "the bigger the domain, the lower the impact
// of the communication overhead").

#include <cstddef>
#include <cstdint>

namespace neon::sys {

/// What kind of executor a Device models. CPU devices execute with zero
/// simulated cost (useful for wall-clock benchmarking and unit tests);
/// SIM_GPU devices accrue virtual time from the cost model.
enum class DeviceType : uint8_t
{
    CPU,
    SIM_GPU,
};

/// Per-device execution cost parameters.
struct DeviceCostModel
{
    double memBandwidth = 1.24e12;  ///< effective HBM2e bytes/s (~80% of 1555 GB/s)
    double flopRate = 19.5e12;      ///< FP32 peak, flops/s
    double kernelLaunchOverhead = 4e-6;  ///< seconds per kernel launch
};

/// Inter-device link parameters (per neighbouring pair, full duplex).
struct LinkCostModel
{
    double bandwidth = 200e9;  ///< bytes/s per direction (NVLink3-like)
    double latency = 4e-6;     ///< seconds per transfer
};

/// Bounded-retry policy for inter-device transfers (docs/robustness.md).
/// A transfer that fails transiently is retried after an exponential
/// virtual-time backoff; the failed attempts and backoffs are charged to
/// the virtual timeline so a faulted run shows a realistic schedule.
struct RetryPolicy
{
    int    maxAttempts = 4;      ///< total attempts (1 initial + retries)
    double backoffBase = 8e-6;   ///< backoff after the first failure [s]
    double backoffFactor = 2.0;  ///< multiplier per subsequent failure
};

/// Full configuration of the simulated node.
struct SimConfig
{
    DeviceCostModel device;
    LinkCostModel   link;
    RetryPolicy     retry;
    size_t          deviceMemCapacity = 40ull << 30;  ///< bytes per device
    bool            dryRun = false;  ///< account memory/time but skip execution
    /// Per-op watchdog in *virtual* seconds: an op whose simulated span
    /// (including injected stalls and retries) exceeds this raises a
    /// structured RuntimeError instead of silently stretching the timeline.
    /// 0 disables the check.
    double opTimeout = 0.0;

    /// DGX A100-like: 8x A100 40 GB, NVLink.
    static SimConfig dgxA100Like();
    /// Two-socket Xeon + 8x GV100 32 GB over PCIe Gen3.
    static SimConfig pcieGen3Like();
    /// Zero-cost model used for CPU backends: virtual time stays 0.
    static SimConfig zeroCost();
};

/// Hint describing per-item cost of a kernel; derived automatically from the
/// container's parsed field accesses (DESIGN.md §4).
struct KernelCostHint
{
    double bytesPerItem = 0.0;
    double flopsPerItem = 0.0;
};

/// Simulated duration of a kernel over `items` work items.
double kernelDuration(const SimConfig& cfg, size_t items, const KernelCostHint& hint);

/// Simulated duration of a single inter-device transfer of `bytes`.
double transferDuration(const SimConfig& cfg, size_t bytes);

/// Virtual-time backoff charged after the `attempt`-th failed transfer
/// attempt (attempt >= 1): backoffBase * backoffFactor^(attempt-1).
double retryBackoff(const SimConfig& cfg, int attempt);

}  // namespace neon::sys
