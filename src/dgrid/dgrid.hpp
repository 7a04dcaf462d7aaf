#pragma once
// DGrid: dense Cartesian grid partitioned across devices along z
// (paper §IV-C: "both Grids decompose the Cartesian domain only on one
// dimension so that each GPU communicates only with two other neighbour
// GPUs"). Shared state, the factory surface and the regrid path live in
// domain::GridBase / domain::GridOps; this header adds only the
// dense-specific parts: the z-slab partition table and the plane-based span.

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/index3d.hpp"
#include "core/stencil.hpp"
#include "core/types.hpp"
#include "domain/grid_base.hpp"
#include "domain/span.hpp"
#include "set/backend.hpp"

namespace neon::dgrid {

/// Local cell coordinate inside one partition: x/y global, z in [0, zCount),
/// plus the cell's plane-linear index (z * dimY + y) * dimX + x, from which
/// DPartition addresses memory. The index has one producer, the span
/// decoder, plus the (x, y, z) constructor below for cells built by hand,
/// so it always agrees with x/y/z (docs/domain.md, "Dense cells").
struct DCell
{
    int32_t x = 0;
    int32_t y = 0;
    int32_t z = 0;

    /// A hand-built cell of a grid with dimension `dim` (only dim.x and
    /// dim.y enter the index; every partition shares them).
    DCell(int32_t x, int32_t y, int32_t z, const index_3d& dim)
        : DCell(x, y, z, (static_cast<int64_t>(z) * dim.y + y) * dim.x + x)
    {
    }

   private:
    friend struct DSpanDecoder;
    friend struct DInteriorCell;
    template <typename T>
    friend struct DPartition;

    DCell(int32_t x, int32_t y, int32_t z, int64_t idx) : x(x), y(y), z(z), mIdx(idx) {}

    int64_t mIdx = 0;
};

/// A cell whose radius-1 neighbourhood lies inside the global domain:
/// x in [1, dimX-1), y in [1, dimY-1), global z in [1, dimZ-1). Only the
/// span decoder builds one, so the type itself is the proof: DPartition
/// reads a neighbour of it at an offset in [-1, 1]^3 without the bounds
/// test. Kernels taking `const DCell&` receive it as a DCell and keep the
/// checked reads (docs/domain.md, "Dense cells").
struct DInteriorCell : DCell
{
   private:
    friend struct DSpanDecoder;

    DInteriorCell(int32_t x, int32_t y, int32_t z, int64_t idx) : DCell(x, y, z, idx) {}
};

/// domain::Span decoder for the dense grid: a slot is one z-plane, expanded
/// y-outer/x-inner. The Ordered and Rows walks split the plane into rows:
/// in a row with y in [1, dimY-1) of a plane with global z in [1, dimZ-1),
/// the cells x in [1, dimX-1) arrive as DInteriorCell; every other cell is
/// a DCell. The Flat and Lanes walks run the plane as one loop of DCells,
/// keeping x and y by increment. Order and linear index do not depend on
/// the walk or the cell type.
struct DSpanDecoder
{
    /// Has the shaped walks (domain::Walk).
    static constexpr bool kShapedWalks = true;

    int32_t dimX = 0;
    int32_t dimY = 0;
    int32_t zOrigin = 0;  ///< global z of the partition's local plane 0
    int32_t dimZ = 0;     ///< global z extent

    template <typename Fn>
    void forEachInSlot(int32_t z, Fn&& fn) const
    {
        visit<domain::Walk::Ordered>(z, fn);
    }

    /// The shaped walks. Rows and Flat are for kernels whose cells are
    /// independent (no cell reads what another cell of the same launch
    /// writes, set::Loader), so their loops carry `ivdep` and the compiler
    /// may vectorize them with whole cells as lanes. Flat is for kernels
    /// that also read no neighbour: it hands out no DInteriorCell, so a
    /// neighbour read would take the checked path. Lanes is the reductions'
    /// walk: fn(cell, lane) with the lane a compile-time
    /// std::integral_constant. flatten inlines the kernel body, and
    /// everything it calls, at every call site of the plane: GCC's inliner
    /// would otherwise leave some of them as one out-of-line call per cell.
    template <domain::Walk W, typename Fn>
    [[gnu::flatten]] void walk(int32_t z, Fn& fn) const
    {
        visit<W>(z, fn);
    }

   private:
    template <int L>
    using Lane = std::integral_constant<int, L>;

    template <domain::Walk W, typename Fn>
    void visit(int32_t z, Fn& fn) const
    {
        const int64_t plane = static_cast<int64_t>(dimX) * dimY;
        int64_t       idx = z * plane;
        if constexpr (W == domain::Walk::Flat || W == domain::Walk::Lanes) {
            int32_t x = 0;
            int32_t y = 0;
            // The cell at linear index i; steps x and y to the next one.
            // A kernel that never reads them leaves both dead.
            auto next = [&](int64_t i) {
                const DCell cell(x, y, z, i);
                if (++x == dimX) {
                    x = 0;
                    ++y;
                }
                return cell;
            };
            const int64_t end = idx + plane;
            if constexpr (W == domain::Walk::Flat) {
#pragma GCC ivdep
                for (int64_t i = idx; i < end; ++i) {
                    fn(next(i));
                }
            } else {
                // In-plane index i - idx goes to lane (i - idx) % 4: four
                // cells a step, then the plane's last plane % 4 cells.
                static_assert(domain::kReduceLanes == 4);
                int64_t i = idx;
                for (; i + 4 <= end; i += 4) {
                    fn(next(i), Lane<0>{});
                    fn(next(i + 1), Lane<1>{});
                    fn(next(i + 2), Lane<2>{});
                    fn(next(i + 3), Lane<3>{});
                }
                if (i < end) {
                    fn(next(i), Lane<0>{});
                }
                if (i + 1 < end) {
                    fn(next(i + 1), Lane<1>{});
                }
                if (i + 2 < end) {
                    fn(next(i + 2), Lane<2>{});
                }
            }
        } else {
            const int32_t gz = zOrigin + z;
            const bool    interiorPlane = gz >= 1 && gz < dimZ - 1 && dimX >= 3;
            for (int32_t y = 0; y < dimY; ++y) {
                if (!interiorPlane || y < 1 || y >= dimY - 1) {
                    for (int32_t x = 0; x < dimX; ++x, ++idx) {
                        fn(DCell(x, y, z, idx));
                    }
                    continue;
                }
                fn(DCell(0, y, z, idx));
                if constexpr (W == domain::Walk::Rows) {
                    // No iteration depends on another, so GCC may drop the
                    // loop-carried dependence it would otherwise assume
                    // between the kernel's partition pointers and vectorize
                    // the row with whole cells as lanes (docs/performance.md,
                    // "Interior rows").
#pragma GCC ivdep
                    for (int32_t x = 1; x < dimX - 1; ++x) {
                        fn(DInteriorCell(x, y, z, idx + x));
                    }
                } else {
                    for (int32_t x = 1; x < dimX - 1; ++x) {
                        fn(DInteriorCell(x, y, z, idx + x));
                    }
                }
                idx += dimX - 1;
                fn(DCell(dimX - 1, y, z, idx));
                ++idx;
            }
        }
    }
};

/// The iteration space of one (device, DataView) pair: full x/y extent and
/// up to two z ranges (the BOUNDARY view is the union of the low and high
/// slabs, paper Fig. 3). Lowered onto domain::Span with z-planes as slots.
class DSpan : public domain::Span<DSpanDecoder>
{
   public:
    using ZRange = domain::SpanRange;

    DSpan() = default;
    /// Span over planes of a partition whose local plane 0 is global plane
    /// `zOrigin` of a grid `dimZ` planes deep.
    DSpan(int32_t dimX, int32_t dimY, int32_t zOrigin, int32_t dimZ, ZRange r0,
          ZRange r1 = {0, 0})
        : domain::Span<DSpanDecoder>(
              DSpanDecoder{dimX, dimY, zOrigin, dimZ},
              static_cast<size_t>(dimX) * static_cast<size_t>(dimY) *
                  static_cast<size_t>(r0.count + r1.count),
              r0, r1)
    {
    }
};

template <typename T>
class DField;

class DGrid : public domain::GridOps<DGrid>
{
   public:
    using Cell = DCell;
    using Span = DSpan;
    /// Grid-generic field alias: `typename Grid::template FieldType<T>`.
    template <typename T>
    using FieldType = DField<T>;

    /// Per-device slab of the z-decomposition.
    struct PartInfo
    {
        int32_t zOrigin = 0;   ///< global z of local z=0
        int32_t zCount = 0;    ///< owned planes
        int32_t bLow = 0;      ///< boundary planes adjacent to the lower neighbour
        int32_t bHigh = 0;     ///< boundary planes adjacent to the upper neighbour
        bool    hasLow = false;
        bool    hasHigh = false;
    };

    DGrid() = default;
    /// Build a grid over `dim` cells; `stencil` (the union of all stencils
    /// the application uses) determines the halo radius and the
    /// internal/boundary classification.
    DGrid(set::Backend backend, index_3d dim, Stencil stencil = Stencil::laplace7());
    /// Convenience: register several stencils; the grid uses their union
    /// (paper §IV-C2: "the size of the halos are computed based on the
    /// union of all the stencils").
    DGrid(set::Backend backend, index_3d dim, const std::vector<Stencil>& stencils)
        : DGrid(std::move(backend), dim, Stencil::unionOf(stencils))
    {
    }

    [[nodiscard]] DSpan span(int dev, DataView view) const;
    /// STANDARD span for host-mirror iteration (the dense span carries no
    /// device pointers, so it is the same object).
    [[nodiscard]] DSpan hostSpan(int dev) const { return span(dev, DataView::STANDARD); }

    [[nodiscard]] const PartInfo& part(int dev) const;
    [[nodiscard]] size_t          cellCount() const;
    /// Grid-generic activity query (every dense cell is active).
    [[nodiscard]] bool isActive(const index_3d& g) const { return dim().contains(g); }
    /// Constant-time z-plane -> owning device lookup.
    [[nodiscard]] int devOfZ(int32_t z) const;

    // --- adaptive repartitioning (docs/robustness.md; the regrid path
    // itself — currentPlan / repartition / rebindBackend — is GridOps') ----
    /// Total partition units: z-planes (the grid's z extent).
    [[nodiscard]] int64_t partitionUnits() const { return dim().z; }
    /// Smallest owned-plane count repartition() accepts per device: a full
    /// halo's worth, so fed halo halves always come from owned planes.
    [[nodiscard]] int64_t minUnitsPerDev() const;

   private:
    friend class domain::GridOps<DGrid>;

    struct Impl : domain::GridBase::BaseImpl
    {
        std::vector<PartInfo> parts;
        /// z -> owning device LUT (one entry per global z-plane).
        std::vector<int32_t> zToDev;
    };

    // Partition hooks (domain::GridOps): even z-slabs; owned planes sit
    // between two haloRadius-deep halo slabs in every field buffer.
    [[nodiscard]] domain::PartitionPlan initialCuts() const;
    void                                applyUnits(const std::vector<int64_t>& units);
    [[nodiscard]] domain::CellWindow    cellWindow(int dev) const;
};

}  // namespace neon::dgrid
