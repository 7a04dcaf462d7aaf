#pragma once
// FieldBase<Grid, T>: the shared field core (the "FieldCore" of the Domain
// contract). Owns everything a field needs that is not layout-specific —
// the MemSet storage, host mirror fill/update, the Loader-facing identity
// surface (uid/name/bytesPerItem/haloOps) and the SegmentHalo registration.
// Concrete fields (DField/EField/BField) derive, pass their per-device
// *cell* counts to initCore(), and add only partition addressing and
// host-coordinate access.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/index3d.hpp"
#include "core/types.hpp"
#include "domain/halo.hpp"
#include "domain/partition_plan.hpp"
#include "domain/span.hpp"
#include "set/memset.hpp"

namespace neon::domain {

template <typename GridT, typename T>
class FieldBase
{
   public:
    using Type = T;

    [[nodiscard]] bool valid() const { return mCore != nullptr; }

    // --- Loader/data interface (the Loadable concept) ----------------------
    [[nodiscard]] uint64_t           uid() const { return mCore->data.uid(); }
    [[nodiscard]] const std::string& name() const { return mCore->name; }
    [[nodiscard]] double             bytesPerItem(Compute = Compute::MAP) const
    {
        return sizeof(T) * static_cast<double>(mCore->card);
    }
    [[nodiscard]] std::shared_ptr<const set::HaloOps> haloOps() const { return mCore->halo; }

    // --- host mirror --------------------------------------------------------
    void fillHost(T v) const
    {
        for (int d = 0; d < mCore->data.setCount(); ++d) {
            T*           ptr = mCore->data.rawHost(d);
            const size_t n = mCore->data.count(d);
            std::fill(ptr, ptr + n, v);
        }
    }

    /// Host mirror -> device buffers (synchronous, init-time).
    void updateDev() const { mCore->data.updateDev(); }
    /// Device buffers -> host mirror (synchronous).
    void updateHost() const { mCore->data.updateHost(); }

    // --- metadata -----------------------------------------------------------
    [[nodiscard]] const GridT& grid() const { return mCore->grid; }
    [[nodiscard]] int          cardinality() const { return mCore->card; }
    [[nodiscard]] MemLayout    layout() const { return mCore->layout; }
    [[nodiscard]] T            outsideValue() const { return mCore->outside; }

    /// Total device bytes held by this field (all partitions).
    [[nodiscard]] size_t allocatedBytes() const { return mCore->data.totalCount() * sizeof(T); }

    /// Visit every (active cell, component) of the host mirror — THE host
    /// iteration, shared by all grids. Walks the grid's hostSpan (the
    /// STANDARD span backed by host-side structure pointers) with per-device
    /// partition descriptor and mirror pointer hoisted, so the visit is O(N).
    /// Order: devices ascending, then the span's deterministic cell order,
    /// then components.
    template <typename Fn>  // fn(const index_3d&, int card, T&)
    void forEachActiveHost(Fn&& fn) const
    {
        // The concrete field supplies hostPartition(dev) (host-pointer
        // addressing + flatIdx) and its grid supplies hostSpan(dev).
        using Derived = typename GridT::template FieldType<T>;
        const auto*   self = static_cast<const Derived*>(this);
        const GridT&  g = mCore->grid;
        const int32_t card = mCore->card;
        for (int d = 0; d < g.devCount(); ++d) {
            const auto part = self->hostPartition(d);
            T*         host = rawHost(d);
            forEachSpan(g.hostSpan(d), [&](const auto& cell) {
                const index_3d gc = part.globalIdx(cell);
                for (int32_t c = 0; c < card; ++c) {
                    fn(gc, c, host[part.flatIdx(cell, c)]);
                }
            });
        }
    }

   protected:
    struct Core : RegridClient
    {
        GridT                         grid;
        std::string                   name;
        int                           card = 1;
        T                             outside = T{};
        MemLayout                     layout = MemLayout::structOfArrays;
        set::MemSet<T>                data;
        std::shared_ptr<set::HaloOps> halo;

        /// Re-home this field onto the grid's new decomposition (the grid's
        /// tables are already re-sliced when this runs). Allocates the new
        /// MemSet, migrates the owned windows through TransferOps on the
        /// backend streams — traced, costed and faultable exactly like a
        /// halo exchange — then swaps storage and rebuilds the halo plan.
        void applyRegrid(const RegridInfo& info) override
        {
            set::Backend&       backend = grid.backend();
            std::vector<size_t> counts;
            counts.reserve(info.newCellCounts.size());
            for (const size_t cells : info.newCellCounts) {
                counts.push_back(cells * static_cast<size_t>(card));
            }
            set::MemSet<T> next(backend, name, std::move(counts));
            if (!backend.isDryRun()) {
                // Fresh allocations start at the outside value; migrated
                // cells overwrite their owned windows below. The host
                // mirror is refreshed lazily (updateHost) as usual.
                for (int d = 0; d < next.setCount(); ++d) {
                    T*           ptr = next.rawHost(d);
                    const size_t n = next.count(d);
                    std::fill(ptr, ptr + n, outside);
                }
                next.updateDev();
            }
            if (info.migrateData && !info.migrate.empty()) {
                // One TransferOp per source device; SoA splits each segment
                // into per-component chunks (appendCellCopies, as halos do).
                for (int srcDev = 0; srcDev < data.setCount(); ++srcDev) {
                    std::vector<sys::TransferChunk> chunks;
                    for (const MigrationSegment& seg : info.migrate) {
                        if (seg.srcDev != srcDev || seg.count == 0) {
                            continue;
                        }
                        appendCellCopies(
                            chunks, seg.dstDev >= srcDev ? 1 : 0, layout, card,
                            data.rawDev(srcDev), data.count(srcDev),
                            info.oldOwnedStart[static_cast<size_t>(srcDev)] + seg.srcFirst,
                            next.rawDev(seg.dstDev), next.count(seg.dstDev),
                            info.newOwnedStart[static_cast<size_t>(seg.dstDev)] + seg.dstFirst,
                            seg.count);
                    }
                    if (!chunks.empty()) {
                        const std::string opName = "migrate(" + name + ")";
                        backend.stream(srcDev, 0).transfer({opName, chunks, {}});
                    }
                }
                backend.sync();
            }
            data = std::move(next);
            halo = std::make_shared<SegmentHalo<T>>(data, name, card, layout,
                                                    grid.haloSegments());
        }
    };

    FieldBase() = default;

    /// Allocate storage (`cellCounts[d] * cardinality` elements on device d),
    /// register the grid's halo segments, and initialize the mirrors to the
    /// outside value (skipped in dry-run mode, where no host mirrors exist).
    void initCore(const GridT& grid, std::string name, int cardinality, T outsideValue,
                  MemLayout layout, const std::vector<size_t>& cellCounts)
    {
        NEON_CHECK(cardinality >= 1, "cardinality must be >= 1");
        mCore = std::make_shared<Core>();
        mCore->grid = grid;
        mCore->name = std::move(name);
        mCore->card = cardinality;
        mCore->outside = outsideValue;
        mCore->layout = layout;

        std::vector<size_t> counts;
        counts.reserve(cellCounts.size());
        for (size_t cells : cellCounts) {
            counts.push_back(cells * static_cast<size_t>(cardinality));
        }
        mCore->data = set::MemSet<T>(grid.backend(), mCore->name, std::move(counts));
        mCore->halo = std::make_shared<SegmentHalo<T>>(mCore->data, mCore->name, cardinality,
                                                       layout, grid.haloSegments());
        grid.registerRegridClient(mCore);
        if (!grid.backend().isDryRun()) {
            fillHost(outsideValue);
            updateDev();
        }
    }

    /// Raw host-mirror pointer for device `dev` (derived classes index it
    /// through their partition's bufIdx).
    [[nodiscard]] T* rawHost(int dev) const { return mCore->data.rawHost(dev); }

    std::shared_ptr<Core> mCore;
};

}  // namespace neon::domain
