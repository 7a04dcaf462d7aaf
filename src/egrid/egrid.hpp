#pragma once
// EGrid: element-sparse grid (paper §IV-C2). Only the cells of interest are
// stored, together with a connectivity table mapping each cell and stencil
// point to the neighbour's local index. Partitioning is 1-D along z, with
// plane cuts chosen to balance the *active* cell count per device. Shared
// state, the factory surface and the regrid path live in domain::GridBase /
// domain::GridOps.
//
// Per-partition cell ordering (all in (z,y,x) order within each class):
//   [boundary-low][internal][boundary-high][ghost-low][ghost-high]
// so the segments sent by haloUpdate are contiguous: 2 transfers per device
// for AoS fields, 2*cardinality for SoA — the same accounting as DGrid.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/index3d.hpp"
#include "core/stencil.hpp"
#include "core/types.hpp"
#include "domain/grid_base.hpp"
#include "domain/span.hpp"
#include "set/backend.hpp"
#include "set/memset.hpp"

namespace neon::egrid {

/// Local cell handle: index into the partition's owned-cell range.
struct ECell
{
    int32_t idx = 0;
};

/// domain::Span decoder for the element-sparse grid: a slot IS one cell.
struct ESpanDecoder
{
    template <typename Fn>
    void forEachInSlot(int32_t i, Fn&& fn) const
    {
        fn(ECell{i});
    }
};

/// Iteration space of one (device, view): up to two contiguous index
/// ranges, lowered onto domain::Span with cells as slots.
class ESpan : public domain::Span<ESpanDecoder>
{
   public:
    using Range = domain::SpanRange;

    ESpan() = default;
    explicit ESpan(Range r0, Range r1 = {0, 0})
        : domain::Span<ESpanDecoder>(
              ESpanDecoder{},
              static_cast<size_t>(r0.count) + static_cast<size_t>(r1.count), r0, r1)
    {
    }
};

template <typename T>
class EField;

class EGrid : public domain::GridOps<EGrid>
{
   public:
    using Cell = ECell;
    using Span = ESpan;
    /// Grid-generic field alias: `typename Grid::template FieldType<T>`.
    template <typename T>
    using FieldType = EField<T>;

    /// Per-device partition structure.
    struct PartInfo
    {
        int32_t zFirst = 0;  ///< first global z-plane of this partition
        int32_t zCount = 0;  ///< planes owned
        int32_t nOwned = 0;
        int32_t nBdrLow = 0;
        int32_t nBdrHigh = 0;
        int32_t nGhostLow = 0;
        int32_t nGhostHigh = 0;

        [[nodiscard]] int32_t nLocal() const { return nOwned + nGhostLow + nGhostHigh; }
    };

    EGrid() = default;
    /// Build from an activity predicate over the bounding box `dim`.
    EGrid(set::Backend backend, index_3d dim, const std::function<bool(const index_3d&)>& active,
          Stencil stencil = Stencil::laplace7());
    /// Convenience: register several stencils; the grid uses their union.
    EGrid(set::Backend backend, index_3d dim, const std::function<bool(const index_3d&)>& active,
          const std::vector<Stencil>& stencils)
        : EGrid(std::move(backend), dim, active, Stencil::unionOf(stencils))
    {
    }

    [[nodiscard]] ESpan span(int dev, DataView view) const;
    /// STANDARD span for host-mirror iteration (the element span carries no
    /// device pointers, so it is the same object).
    [[nodiscard]] ESpan hostSpan(int dev) const { return span(dev, DataView::STANDARD); }

    [[nodiscard]] const PartInfo& part(int dev) const;
    [[nodiscard]] size_t          activeCount() const;

    /// Host-side: is a global coordinate active? (false in dry-run mode)
    [[nodiscard]] bool isActive(const index_3d& g) const;
    /// Host-side: (device, owned local index) of an active cell, or (-1,-1).
    [[nodiscard]] std::pair<int, int32_t> localOf(const index_3d& g) const;

    // -- partition-local structure, exposed to EField / tests ---------------
    [[nodiscard]] const set::MemSet<int32_t>&  connectivity() const;
    [[nodiscard]] const set::MemSet<index_3d>& coords() const;
    [[nodiscard]] const set::MemSet<int16_t>&  offsetLut() const;
    [[nodiscard]] int                          lutRadius() const;
    [[nodiscard]] int                          stencilPointCount() const;

    // --- adaptive repartitioning (docs/robustness.md; the regrid path
    // itself — currentPlan / repartition / rebindBackend — is GridOps') ----
    /// Total partition units: z-planes (the grid's z extent).
    [[nodiscard]] int64_t partitionUnits() const { return dim().z; }
    /// Smallest plane count per device (the 2*haloRadius constraint:
    /// boundary classes must not overlap).
    [[nodiscard]] int64_t minUnitsPerDev() const;

   private:
    friend class domain::GridOps<EGrid>;
    struct Impl;

    // Partition hooks (domain::GridOps): active-balanced plane cuts; a
    // buffer holds the owned cells, then the ghost copies.
    [[nodiscard]] domain::PartitionPlan initialCuts() const;
    /// (Re)build parts, halo segments, structure tables and the host map
    /// for `units` planes per device.
    void                             applyUnits(const std::vector<int64_t>& units);
    [[nodiscard]] domain::CellWindow cellWindow(int dev) const;
};

}  // namespace neon::egrid
