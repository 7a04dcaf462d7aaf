#include "sys/device.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/error.hpp"

namespace neon::sys {

Device::Device(int id, DeviceType type, const SimConfig& config)
    : mId(id), mType(type), mConfig(config)
{
}

Device::~Device()
{
    if (!mConfig.dryRun) {
        for (auto& [ptr, bytes] : mAllocs) {
            ::operator delete(ptr, std::align_val_t{64});
        }
    }
}

void* Device::alloc(size_t bytes)
{
    if (mInUse + bytes > mConfig.deviceMemCapacity) {
        throw DeviceMemoryError(mId, bytes, mInUse, mConfig.deviceMemCapacity);
    }
    void* ptr = nullptr;
    if (mConfig.dryRun) {
        // Unique fake address so free() bookkeeping still works; never deref.
        mDryRunCursor += bytes + 64;
        ptr = reinterpret_cast<void*>(mDryRunCursor);
    } else {
        ptr = ::operator new(bytes, std::align_val_t{64});
    }
    mAllocs.emplace(ptr, bytes);
    mInUse += bytes;
    mPeak = std::max(mPeak, mInUse);
    // In dry-run the returned pointer is a fake address used only as a map
    // key for free(); execution is skipped everywhere so it is never
    // dereferenced.
    return ptr;
}

void Device::free(void* ptr) noexcept
{
    if (ptr == nullptr) {
        return;
    }
    auto it = mAllocs.find(ptr);
    if (it == mAllocs.end()) {
        return;
    }
    mInUse -= it->second;
    if (!mConfig.dryRun) {
        ::operator delete(ptr, std::align_val_t{64});
    }
    mAllocs.erase(it);
}

size_t Device::bytesInUse() const
{
    return mInUse;
}

size_t Device::peakBytes() const
{
    return mPeak;
}

void Device::resetClocks()
{
    computeAvailable = 0.0;
    copyAvailable[0] = 0.0;
    copyAvailable[1] = 0.0;
}

}  // namespace neon::sys
