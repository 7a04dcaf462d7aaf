#pragma once
// MemSet<T>: the simplest Multi-GPU data object (paper §IV-B1, Fig. 2).
// A set of device buffers (one per device), optionally mirrored on the
// host. Exposes the *host logical view* (a contiguous index space spanning
// all partitions) and the *partition local view* (per-device raw buffers).

#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "set/backend.hpp"
#include "sys/device.hpp"

namespace neon::set {

template <typename T>
class MemSet
{
   public:
    MemSet() = default;

    /// Allocate `counts[d]` elements of T on device d (plus a host mirror
    /// unless disabled or in dry-run mode).
    MemSet(Backend backend, std::string name, std::vector<size_t> counts, bool hostMirror = true)
        : mImpl(std::make_shared<Impl>())
    {
        NEON_CHECK(backend.valid(), Backend::emptyError("MemSet '" + name + "'"));
        NEON_CHECK(static_cast<int>(counts.size()) == backend.devCount(),
                   "one count per device required");
        mImpl->backend = std::move(backend);
        mImpl->name = std::move(name);
        mImpl->counts = std::move(counts);
        mImpl->uid = Backend::newDataUid();
        mImpl->devBuffers.resize(mImpl->counts.size(), nullptr);
        for (size_t d = 0; d < mImpl->counts.size(); ++d) {
            mImpl->devBuffers[d] = static_cast<T*>(
                mImpl->backend.device(static_cast<int>(d)).alloc(mImpl->counts[d] * sizeof(T)));
        }
        if (hostMirror && !mImpl->backend.isDryRun()) {
            mImpl->hostBuffers.resize(mImpl->counts.size());
            for (size_t d = 0; d < mImpl->counts.size(); ++d) {
                mImpl->hostBuffers[d].assign(mImpl->counts[d], T{});
            }
        }
    }

    [[nodiscard]] bool valid() const { return mImpl != nullptr; }

    [[nodiscard]] int setCount() const { return static_cast<int>(mImpl->counts.size()); }

    [[nodiscard]] size_t count(int dev) const { return mImpl->counts[static_cast<size_t>(dev)]; }

    [[nodiscard]] size_t totalCount() const
    {
        return std::accumulate(mImpl->counts.begin(), mImpl->counts.end(), size_t{0});
    }

    [[nodiscard]] T* rawDev(int dev) const { return mImpl->devBuffers[static_cast<size_t>(dev)]; }

    [[nodiscard]] T* rawHost(int dev) const
    {
        NEON_CHECK(hasHostMirror(), "MemSet has no host mirror");
        return mImpl->hostBuffers[static_cast<size_t>(dev)].data();
    }

    [[nodiscard]] bool hasHostMirror() const { return !mImpl->hostBuffers.empty(); }

    [[nodiscard]] uint64_t uid() const { return mImpl->uid; }

    [[nodiscard]] const std::string& name() const { return mImpl->name; }

    [[nodiscard]] Backend& backend() const { return mImpl->backend; }

    /// Host logical view: element `g` of the concatenated partitions.
    [[nodiscard]] T& eRef(size_t g) const
    {
        NEON_CHECK(hasHostMirror(), "MemSet has no host mirror");
        for (size_t d = 0; d < mImpl->counts.size(); ++d) {
            if (g < mImpl->counts[d]) {
                return mImpl->hostBuffers[d][g];
            }
            g -= mImpl->counts[d];
        }
        throw NeonException("MemSet::eRef index out of range");
    }

    /// Copy the host mirror into the device buffers (synchronous; used for
    /// initialization — not part of the measured virtual timeline).
    void updateDev() const
    {
        if (mImpl->backend.isDryRun() || !hasHostMirror()) {
            return;
        }
        for (size_t d = 0; d < mImpl->counts.size(); ++d) {
            if (mImpl->counts[d] > 0) {
                std::memcpy(mImpl->devBuffers[d], mImpl->hostBuffers[d].data(),
                            mImpl->counts[d] * sizeof(T));
            }
        }
    }

    /// Copy the device buffers back into the host mirror (synchronous).
    void updateHost() const
    {
        if (mImpl->backend.isDryRun() || !hasHostMirror()) {
            return;
        }
        for (size_t d = 0; d < mImpl->counts.size(); ++d) {
            if (mImpl->counts[d] > 0) {
                std::memcpy(mImpl->hostBuffers[d].data(), mImpl->devBuffers[d],
                            mImpl->counts[d] * sizeof(T));
            }
        }
    }

   private:
    struct Impl
    {
        Backend                     backend;
        std::string                 name;
        std::vector<size_t>         counts;
        std::vector<T*>             devBuffers;
        std::vector<std::vector<T>> hostBuffers;
        uint64_t                    uid = 0;

        ~Impl()
        {
            for (size_t d = 0; d < devBuffers.size(); ++d) {
                backend.device(static_cast<int>(d)).free(devBuffers[d]);
            }
        }
    };
    std::shared_ptr<Impl> mImpl;
};

}  // namespace neon::set
