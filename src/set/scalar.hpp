#pragma once
// GlobalScalar<T>: a single value with one mirror per device plus per-device
// partial accumulators — the output of a ReduceOp (paper §III-b) and the
// carrier for solver scalars (alpha/beta in CG, Listing 3) so that skeletons
// can be built once and run many iterations.

#include <array>
#include <limits>
#include <memory>
#include <string>

#include "core/error.hpp"
#include "core/types.hpp"
#include "set/access.hpp"
#include "set/backend.hpp"
#include "sys/device.hpp"

namespace neon::set {

/// Combination operator of a reduction (paper §III-b: "a user-defined
/// binary and associative operation").
enum class ReduceOp : uint8_t
{
    Sum,
    Max,
    Min,
};

template <typename T>
class GlobalScalar
{
   public:
    /// Marker the Loader uses to stamp access records as scalar accesses
    /// (neon::analysis segments scalars by global/partial, not by view).
    static constexpr bool kIsGlobalScalar = true;

    GlobalScalar() = default;

    GlobalScalar(Backend backend, std::string name, T initial = T{},
                 ReduceOp op = ReduceOp::Sum)
        : mImpl(std::make_shared<Impl>())
    {
        NEON_CHECK(backend.valid(), Backend::emptyError("GlobalScalar '" + name + "'"));
        mImpl->backend = std::move(backend);
        mImpl->name = std::move(name);
        mImpl->op = op;
        mImpl->uid = Backend::newDataUid();
        const int n = mImpl->backend.devCount();
        mImpl->devCopies.resize(static_cast<size_t>(n), nullptr);
        for (int d = 0; d < n; ++d) {
            mImpl->devCopies[static_cast<size_t>(d)] =
                static_cast<T*>(mImpl->backend.device(d).alloc(sizeof(T)));
        }
        mImpl->partials.assign(static_cast<size_t>(n), {T{}, T{}});
        set(initial);
    }

    [[nodiscard]] bool valid() const { return mImpl != nullptr; }

    /// Host-side value. Only meaningful after the writing run was synced.
    [[nodiscard]] T hostValue() const { return mImpl->hostValue; }

    /// Set the value on the host and broadcast to every device mirror.
    void set(T v)
    {
        mImpl->hostValue = v;
        if (!mImpl->backend.isDryRun()) {
            for (T* p : mImpl->devCopies) {
                *p = v;
            }
        }
    }

    /// Per-(device, view-slot) partial written by reduce kernels.
    /// Slot 0: STANDARD/INTERNAL, slot 1: BOUNDARY.
    void setPartial(int dev, int slot, T v)
    {
        mImpl->partials[static_cast<size_t>(dev)][static_cast<size_t>(slot)] = v;
    }

    [[nodiscard]] T partial(int dev, int slot) const
    {
        return mImpl->partials[static_cast<size_t>(dev)][static_cast<size_t>(slot)];
    }

    static constexpr int slotOf(DataView view) { return view == DataView::BOUNDARY ? 1 : 0; }

    [[nodiscard]] ReduceOp reduceOp() const { return mImpl->op; }

    /// Neutral element of the reduction operator; reduce kernels start
    /// their accumulator here and reset unused partial slots to it.
    [[nodiscard]] T identity() const
    {
        switch (mImpl->op) {
            case ReduceOp::Sum: return T{};
            case ReduceOp::Max: return std::numeric_limits<T>::lowest();
            case ReduceOp::Min: return std::numeric_limits<T>::max();
        }
        return T{};
    }

    /// Fold a value into an accumulator with this scalar's operator.
    void fold(T& acc, T v) const
    {
        switch (mImpl->op) {
            case ReduceOp::Sum: acc += v; break;
            case ReduceOp::Max: acc = v > acc ? v : acc; break;
            case ReduceOp::Min: acc = v < acc ? v : acc; break;
        }
    }

    /// Combine all partials into the host value and broadcast to the
    /// devices. Runs as the combine step of a reduction (device 0 stream).
    void combinePartials()
    {
        T acc = identity();
        for (const auto& p : mImpl->partials) {
            fold(acc, p[0]);
            fold(acc, p[1]);
        }
        set(acc);
    }

    // --- Loader/data interface (see Loader::load) -------------------------
    [[nodiscard]] uint64_t           uid() const { return mImpl->uid; }
    [[nodiscard]] const std::string& name() const { return mImpl->name; }
    [[nodiscard]] double             bytesPerItem(Compute = Compute::MAP) const { return 0.0; }
    [[nodiscard]] std::shared_ptr<const HaloOps> haloOps() const { return nullptr; }

    /// Device-side read view: `alpha()` inside a compute lambda.
    struct View
    {
        const T* ptr = nullptr;
        T        operator()() const { return *ptr; }
    };

    [[nodiscard]] View getPartition(int dev, DataView) const
    {
        return View{mImpl->devCopies[static_cast<size_t>(dev)]};
    }

    [[nodiscard]] Backend& backend() const { return mImpl->backend; }

   private:
    struct Impl
    {
        Backend                        backend;
        std::string                    name;
        ReduceOp                       op = ReduceOp::Sum;
        uint64_t                       uid = 0;
        T                              hostValue = T{};
        std::vector<T*>                devCopies;
        std::vector<std::array<T, 2>>  partials;

        ~Impl()
        {
            for (size_t d = 0; d < devCopies.size(); ++d) {
                backend.device(static_cast<int>(d)).free(devCopies[d]);
            }
        }
    };
    std::shared_ptr<Impl> mImpl;
};

}  // namespace neon::set
