#pragma once
// BGrid: block-sparse dense grid — the proof that the Domain contract in
// src/domain/ is grid-agnostic. The bounding box is tiled into fixed-size
// cubic blocks (blockDim in {2,3,4}, so a block holds at most 64 cells and
// one uint64_t activity mask); only blocks containing active cells are
// stored. Inside a block the layout is dense (direct voxel addressing, no
// per-cell connectivity), across blocks a 27-direction block-neighbour
// table resolves stencil reads — the memory/indirection middle ground
// between dGrid and eGrid (upstream Neon's bGrid lineage).
//
// Partitioning is 1-D along z in *block rows*, cut to balance active cells
// per device like eGrid. Per-partition block ordering
//   [boundary-low][internal][boundary-high][ghost-low][ghost-high]
// keeps halo traffic contiguous: one segment per neighbour covering the
// active boundary-block row only (inactive blocks travel nowhere).
// Requires stencil.radius() <= blockDim so a stencil read crosses at most
// one block in each axis.

#include <bit>
#include <cstdint>
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

namespace neon::bgrid {

/// Local cell handle: owning local block + voxel coordinate within it.
struct BCell
{
    int32_t block = 0;
    int8_t  x = 0;
    int8_t  y = 0;
    int8_t  z = 0;
};

/// domain::Span decoder for the block-sparse grid: a slot is one block;
/// its active voxels are walked mask-bit by mask-bit (deterministic
/// ascending order — the engine-equivalence guarantees build on it).
struct BSpanDecoder
{
    const uint64_t* masks = nullptr;
    int32_t         blockDim = 2;

    template <typename Fn>
    void forEachInSlot(int32_t b, Fn&& fn) const
    {
        const int32_t bd = blockDim;
        uint64_t      m = masks[b];
        while (m != 0) {
            const int v = std::countr_zero(m);
            m &= m - 1;
            fn(BCell{b, static_cast<int8_t>(v % bd), static_cast<int8_t>((v / bd) % bd),
                     static_cast<int8_t>(v / (bd * bd))});
        }
    }
};

/// Iteration space of one (device, view): up to two contiguous local block
/// ranges, lowered onto domain::Span with blocks as slots.
class BSpan : public domain::Span<BSpanDecoder>
{
   public:
    using Range = domain::SpanRange;

    BSpan() = default;
    BSpan(const uint64_t* masks, int32_t blockDim, size_t cells, Range r0, Range r1 = {0, 0})
        : domain::Span<BSpanDecoder>(BSpanDecoder{masks, blockDim}, cells, r0, r1)
    {
    }
};

template <typename T>
class BField;

class BGrid : public domain::GridOps<BGrid>
{
   public:
    using Cell = BCell;
    using Span = BSpan;
    /// Grid-generic field alias: `typename Grid::template FieldType<T>`.
    template <typename T>
    using FieldType = BField<T>;

    /// Per-device partition structure (all counts in *blocks*).
    struct PartInfo
    {
        int32_t bzFirst = 0;  ///< first global block row of this partition
        int32_t bzCount = 0;  ///< block rows owned
        int32_t nOwned = 0;
        int32_t nBdrLow = 0;
        int32_t nBdrHigh = 0;
        int32_t nGhostLow = 0;
        int32_t nGhostHigh = 0;

        [[nodiscard]] int32_t nLocal() const { return nOwned + nGhostLow + nGhostHigh; }
    };

    BGrid() = default;
    /// Build from an activity predicate over the bounding box `dim`.
    BGrid(set::Backend backend, index_3d dim, const std::function<bool(const index_3d&)>& active,
          Stencil stencil = Stencil::laplace7(), int blockDim = 4);
    /// Convenience: register several stencils; the grid uses their union.
    BGrid(set::Backend backend, index_3d dim, const std::function<bool(const index_3d&)>& active,
          const std::vector<Stencil>& stencils, int blockDim = 4)
        : BGrid(std::move(backend), dim, active, Stencil::unionOf(stencils), blockDim)
    {
    }

    [[nodiscard]] BSpan span(int dev, DataView view) const;
    /// STANDARD span whose mask pointer targets the host mirror, for
    /// host-side iteration (FieldBase::forEachActiveHost).
    [[nodiscard]] BSpan hostSpan(int dev) const;

    [[nodiscard]] const PartInfo& part(int dev) const;
    [[nodiscard]] size_t          activeCount() const;
    [[nodiscard]] int             blockSize() const;  ///< cells per block edge
    [[nodiscard]] int             blockVolume() const;
    [[nodiscard]] const index_3d& blockGridDim() const;

    /// Host-side: is a global coordinate active?
    [[nodiscard]] bool isActive(const index_3d& g) const;
    /// Host-side: (device, local cell index) of an active cell, or (-1,-1).
    [[nodiscard]] std::pair<int, int64_t> localOf(const index_3d& g) const;

    // -- partition-local structure, exposed to BField / tests ---------------
    [[nodiscard]] const set::MemSet<uint64_t>& masks() const;
    [[nodiscard]] const set::MemSet<int32_t>&  blockNgh() const;
    [[nodiscard]] const set::MemSet<index_3d>& origins() const;

    // --- adaptive repartitioning (docs/robustness.md; the regrid path
    // itself — currentPlan / repartition / rebindBackend — is GridOps') ----
    /// Total partition units: block rows of the bounding box (a repartition
    /// is a block-granular mask reassignment).
    [[nodiscard]] int64_t partitionUnits() const { return blockGridDim().z; }
    /// Smallest row count per device (interior devices need disjoint
    /// boundary-low/high rows when multi-device).
    [[nodiscard]] int64_t minUnitsPerDev() const;

   private:
    friend class domain::GridOps<BGrid>;
    struct Impl;

    // Partition hooks (domain::GridOps): active-balanced row cuts; a buffer
    // holds the owned blocks, then the ghost blocks.
    [[nodiscard]] domain::PartitionPlan initialCuts() const;
    /// (Re)build parts, halo segments, structure tables and the host maps
    /// for `units` block rows per device.
    void                             applyUnits(const std::vector<int64_t>& units);
    [[nodiscard]] domain::CellWindow cellWindow(int dev) const;
};

}  // namespace neon::bgrid
