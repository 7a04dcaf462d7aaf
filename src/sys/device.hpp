#pragma once
// A (simulated) accelerator device: owns memory with capacity accounting and
// the DES bookkeeping for its compute and copy engines (paper §IV-A:
// "Memory Management" back-end capability).

#include <cstddef>
#include <unordered_map>

#include "sys/cost_model.hpp"

namespace neon::sys {

class Device
{
   public:
    Device(int id, DeviceType type, const SimConfig& config);
    ~Device();

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    /// Allocate `bytes` of device memory. Throws DeviceMemoryError when the
    /// simulated capacity would be exceeded. In dry-run mode the bytes are
    /// accounted but no host memory is allocated; the returned fake address
    /// is only valid as a token for free() and must never be dereferenced.
    void* alloc(size_t bytes);

    /// Release a buffer returned by alloc(). nullptr is ignored.
    void free(void* ptr) noexcept;

    [[nodiscard]] size_t bytesInUse() const;
    /// High-water mark of bytesInUse() since construction.
    [[nodiscard]] size_t peakBytes() const;
    [[nodiscard]] size_t capacity() const { return mConfig.deviceMemCapacity; }
    [[nodiscard]] int    id() const { return mId; }
    [[nodiscard]] DeviceType type() const { return mType; }
    [[nodiscard]] const SimConfig& config() const { return mConfig; }

    // --- DES engine bookkeeping (written by Engine::charge; guarded by the engine) ---
    /// Virtual time at which the compute engine becomes free. Grid kernels
    /// saturate a GPU, so concurrent kernels on one device serialize.
    double computeAvailable = 0.0;
    /// Virtual availability of the two DMA engines (index 0: transfers to
    /// the lower-id neighbour, 1: to the higher-id neighbour).
    double copyAvailable[2] = {0.0, 0.0};

    /// Reset the DES clocks (used between measured benchmark runs).
    void resetClocks();

   private:
    int        mId;
    DeviceType mType;
    SimConfig  mConfig;

    std::unordered_map<void*, size_t> mAllocs;
    size_t                            mInUse = 0;
    size_t                            mPeak = 0;
    size_t                            mDryRunCursor = 0;  ///< fake address source in dry-run
};

}  // namespace neon::sys
