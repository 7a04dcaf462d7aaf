#pragma once
// Loader: the object passed to a Container's loading lambda (paper §IV-B2).
// In *parsing* mode it records which Multi-GPU data the container uses and
// how; in *execution* mode it hands out the partition local view for one
// device and data view. The Loader hides the SPMD nature of the Container,
// acting like the rank mechanism in MPI.

#include <array>
#include <cstdint>
#include <type_traits>

#include "domain/concepts.hpp"
#include "set/access.hpp"

namespace neon::set {

class Loader
{
   public:
    static Loader parsing(AccessList* record)
    {
        Loader l;
        l.mRecord = record;
        return l;
    }

    static Loader execution(int devIdx, DataView view)
    {
        Loader l;
        l.mDevIdx = devIdx;
        l.mView = view;
        return l;
    }

    /// Extract the partition local view of `data` for this loader's device,
    /// declaring the access mode and compute pattern. `DataT` must provide
    /// uid(), name(), bytesPerItem(), haloOps() and getPartition(dev, view).
    template <typename DataT>
    auto load(DataT& data, Access access, Compute compute = Compute::MAP)
    {
        static_assert(neon::domain::Loadable<std::remove_cvref_t<DataT>>,
                      "Loader::load requires a type satisfying neon::domain::Loadable "
                      "(see docs/domain.md)");
        constexpr bool kScalar = requires { std::remove_cvref_t<DataT>::kIsGlobalScalar; };
        if (isParsing()) {
            DataAccess rec;
            rec.uid = data.uid();
            rec.access = access;
            rec.compute = compute;
            rec.bytesPerItem = data.bytesPerItem(compute);
            rec.name = data.name();
            if (compute == Compute::STENCIL && access == Access::READ) {
                rec.halo = data.haloOps();
            }
            rec.scalar = kScalar;
            mRecord->push_back(std::move(rec));
        } else if (access == Access::WRITE) {
            // A kernel writing a GlobalScalar shares it between cells.
            mDependent = mDependent || kScalar || !mWritten.add(data.uid());
        } else if (compute == Compute::STENCIL) {
            mDependent = mDependent || !mStencilRead.add(data.uid());
        }
        return data.getPartition(mDevIdx, mView);
    }

    /// Extract a partition WITHOUT declaring the access. The skeleton then
    /// derives no edges or halo updates for it — this is only for data that
    /// is provably private to the container (and is exactly the bug class
    /// the access sanitizer reports as UndeclaredRead/UndeclaredWrite, so
    /// any misuse shows up under NEON_SANITIZE=1).
    template <typename DataT>
    auto loadUnchecked(DataT& data)
    {
        static_assert(neon::domain::Loadable<std::remove_cvref_t<DataT>>,
                      "Loader::loadUnchecked requires a type satisfying "
                      "neon::domain::Loadable (see docs/domain.md)");
        mDependent = true;  // undeclared: nothing is known about its use
        return data.getPartition(mDevIdx, mView);
    }

    [[nodiscard]] bool     isParsing() const { return mRecord != nullptr; }
    [[nodiscard]] int      devIdx() const { return mDevIdx; }
    [[nodiscard]] DataView view() const { return mView; }

    /// Execution mode, after the loading lambda ran: true when the loads
    /// make the kernel's cells independent — no field it writes is also
    /// read through a stencil, it writes no GlobalScalar and it used no
    /// loadUnchecked. Then no cell reads what another cell of the launch
    /// writes, and the trampoline may overlap consecutive cells
    /// (docs/domain.md, "Dense cells").
    [[nodiscard]] bool cellsIndependent() const
    {
        if (mDependent) {
            return false;
        }
        for (uint8_t i = 0; i < mWritten.count; ++i) {
            if (mStencilRead.contains(mWritten.uids[i])) {
                return false;
            }
        }
        return true;
    }

   private:
    Loader() = default;

    /// Fixed-capacity uid set: execution loads run while containers are
    /// built, so they allocate nothing. A full set makes the kernel count
    /// as dependent.
    struct UidSet
    {
        static constexpr uint8_t kCapacity = 8;

        std::array<uint64_t, kCapacity> uids{};
        uint8_t                         count = 0;

        [[nodiscard]] bool contains(uint64_t uid) const
        {
            for (uint8_t i = 0; i < count; ++i) {
                if (uids[i] == uid) {
                    return true;
                }
            }
            return false;
        }

        /// False when the set is full.
        [[nodiscard]] bool add(uint64_t uid)
        {
            if (contains(uid)) {
                return true;
            }
            if (count == kCapacity) {
                return false;
            }
            uids[count++] = uid;
            return true;
        }
    };

    AccessList* mRecord = nullptr;
    int         mDevIdx = 0;
    DataView    mView = DataView::STANDARD;
    UidSet      mWritten;
    UidSet      mStencilRead;
    bool        mDependent = false;
};

}  // namespace neon::set
