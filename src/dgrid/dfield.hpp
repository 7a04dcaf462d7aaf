#pragma once
// DField<T>: scalar or vector metadata over a DGrid (paper §IV-C2).
// Storage, mirrors and halo registration live in domain::FieldBase; this
// header adds only the dense addressing (DPartition) and plane-based host
// access. Boundary planes are contiguous per component, so one haloUpdate
// issues 2 transfers per device for AoS/scalar fields and 2*cardinality
// transfers for SoA fields — exactly the paper's accounting.

#include <cassert>
#include <string>

#include "dgrid/dgrid.hpp"
#include "domain/field_base.hpp"

namespace neon::dgrid {

/// Partition local view captured by compute lambdas (valid on one device).
/// Every access addresses memory from the cell's linear index and the
/// element strides getPartition() fixes once:
///   element(lin, c) = (haloR * dimX * dimY + lin) * cellStride + c * compStride
/// with lin = (z * dimY + y) * dimX + x the partition-local plane-linear
/// index. SoA fields have cellStride 1 and a component stride of one
/// halo-padded slab (owned planes + 2 haloR); AoS fields have
/// cellStride = card and compStride 1.
template <typename T>
struct DPartition
{
    T*      mem = nullptr;
    int32_t dimX = 0;
    int32_t dimY = 0;
    int32_t haloR = 0;
    int32_t card = 1;
    int32_t zOrigin = 0;
    int32_t globalZ = 0;
    T       outside = T{};
    int64_t cellStride = 1;  ///< elements between linearly adjacent cells
    int64_t compStride = 0;  ///< elements between components of one cell
    int64_t lowHalo = 0;     ///< linear index of owned cell (0, 0, 0): haloR planes

    /// Element index of (x, y, zb, c), zb counting from the lowest halo plane.
    [[nodiscard]] size_t bufIdx(int32_t x, int32_t y, int32_t zb, int32_t c) const
    {
        return static_cast<size_t>(
            ((static_cast<int64_t>(zb) * dimY + y) * dimX + x) * cellStride + c * compStride);
    }

    [[nodiscard]] T& operator()(const DCell& cell, int32_t c = 0) { return mem[at(cell.mIdx, c)]; }

    [[nodiscard]] const T& operator()(const DCell& cell, int32_t c = 0) const
    {
        return mem[at(cell.mIdx, c)];
    }

    struct NghData
    {
        T    value{};
        bool isValid = false;
    };

    /// Read a neighbour's value; cells outside the global domain return the
    /// field's outsideValue (isValid == false). Neighbours in another
    /// partition are served from the halo planes, so |offset.z| must not
    /// exceed haloR (unchecked here; the access sanitizer reports it).
    [[nodiscard]] NghData nghData(const DCell& cell, const index_3d& offset, int32_t c = 0) const
    {
        // One branch: a negative coordinate wraps to a huge unsigned value.
        const auto nx = static_cast<uint32_t>(cell.x + offset.x);
        const auto ny = static_cast<uint32_t>(cell.y + offset.y);
        const auto gz = static_cast<uint32_t>(zOrigin + cell.z + offset.z);
        if ((nx >= static_cast<uint32_t>(dimX)) | (ny >= static_cast<uint32_t>(dimY)) |
            (gz >= static_cast<uint32_t>(globalZ))) {
            return {outside, false};
        }
        return {mem[at(cell.mIdx + linearOffset(offset), c)], true};
    }

    /// Interior cells (DInteriorCell): an offset in [-1, 1]^3 stays inside
    /// the global domain — and, as the halo radius is at least 1, inside
    /// the allocation — so the read skips the bounds test. Any other
    /// offset takes the checked read. Value and validity equal the checked
    /// read's for every offset; for a literal offset the test folds away.
    [[nodiscard]] NghData nghData(const DInteriorCell& cell, const index_3d& offset,
                                  int32_t c = 0) const
    {
        if (withinOne(offset)) {
            return {mem[at(cell.mIdx + linearOffset(offset), c)], true};
        }
        return nghData(static_cast<const DCell&>(cell), offset, c);
    }

    [[nodiscard]] T nghVal(const DCell& cell, const index_3d& offset, int32_t c = 0) const
    {
        return nghData(cell, offset, c).value;
    }

    [[nodiscard]] T nghVal(const DInteriorCell& cell, const index_3d& offset,
                           int32_t c = 0) const
    {
        return nghData(cell, offset, c).value;
    }

    /// Unchecked neighbour read: the caller guarantees the neighbour is
    /// inside the global domain (e.g. it already inspected a flag field
    /// whose outsideValue marks walls). Skips the bounds tests of
    /// nghData() — the overhead the paper attributes Neon's remaining
    /// gap to hand-written kernels to (§VI-B).
    [[nodiscard]] T nghValUnchecked(const DCell& cell, const index_3d& offset,
                                    int32_t c = 0) const
    {
        return mem[at(cell.mIdx + linearOffset(offset), c)];
    }

    [[nodiscard]] index_3d globalIdx(const DCell& cell) const
    {
        return {cell.x, cell.y, zOrigin + cell.z};
    }

    /// Flat buffer index of an owned cell — what FieldBase::forEachActiveHost
    /// adds to rawHost() (domain contract, shared by every grid's partition).
    [[nodiscard]] size_t flatIdx(const DCell& cell, int32_t c) const { return at(cell.mIdx, c); }

    [[nodiscard]] index_3d globalDim() const { return {dimX, dimY, globalZ}; }

    [[nodiscard]] int32_t cardinality() const { return card; }

    // Access-sanitizer contracts (set/sanitize.hpp, docs/analysis.md): the
    // span slot a cell iterates under (DSpan slots are z-planes) and how
    // far a neighbour offset reaches toward another partition (only z
    // crosses device boundaries on DGrid; x/y stay inside the slab).
    [[nodiscard]] static int32_t spanSlotOf(const DCell& cell) { return cell.z; }
    [[nodiscard]] static int32_t stencilExtent(const index_3d& offset)
    {
        return offset.z < 0 ? -offset.z : offset.z;
    }

   private:
    [[nodiscard]] size_t at(int64_t lin, int32_t c) const
    {
        return static_cast<size_t>((lowHalo + lin) * cellStride + c * compStride);
    }

    [[nodiscard]] static bool withinOne(const index_3d& offset)
    {
        // -1 wraps to 0 and 1 to 2; anything else lands above 2.
        return (static_cast<uint32_t>(offset.x) + 1U <= 2U) &
               (static_cast<uint32_t>(offset.y) + 1U <= 2U) &
               (static_cast<uint32_t>(offset.z) + 1U <= 2U);
    }

    [[nodiscard]] int64_t linearOffset(const index_3d& offset) const
    {
        return (static_cast<int64_t>(offset.z) * dimY + offset.y) * dimX + offset.x;
    }
};

template <typename T>
class DField : public domain::FieldBase<DGrid, T>
{
    using Base = domain::FieldBase<DGrid, T>;

   public:
    using Partition = DPartition<T>;
    using Base::cardinality;
    using Base::grid;
    using Base::layout;
    using Base::outsideValue;

    DField() = default;

    DField(const DGrid& grid, std::string name, int cardinality, T outsideValue, MemLayout layout)
    {
        // Each partition stores its owned planes plus the 2r halo planes.
        std::vector<size_t> cells;
        const int           r = grid.haloRadius();
        for (int d = 0; d < grid.devCount(); ++d) {
            const auto& p = grid.part(d);
            cells.push_back(static_cast<size_t>(grid.dim().x) * static_cast<size_t>(grid.dim().y) *
                            static_cast<size_t>(p.zCount + 2 * r));
        }
        this->initCore(grid, std::move(name), cardinality, outsideValue, layout, cells);
    }

    /// Contract (domain::Loadable): the partition is *view-agnostic* — the
    /// span passed at launch decides which cells are visited; the partition
    /// only addresses memory. Every DataView must yield the same partition.
    [[nodiscard]] Partition getPartition(int dev, [[maybe_unused]] DataView view =
                                                      DataView::STANDARD) const
    {
        assert(dev >= 0 && dev < grid().devCount());
        const auto& p = grid().part(dev);
        Partition   part;
        part.mem = this->mCore->data.rawDev(dev);
        part.dimX = grid().dim().x;
        part.dimY = grid().dim().y;
        part.haloR = grid().haloRadius();
        part.card = cardinality();
        part.zOrigin = p.zOrigin;
        part.globalZ = grid().dim().z;
        part.outside = outsideValue();
        const int64_t plane = static_cast<int64_t>(part.dimX) * part.dimY;
        const bool    soa = layout() == MemLayout::structOfArrays;
        part.cellStride = soa ? 1 : part.card;
        part.compStride = soa ? plane * (p.zCount + 2 * part.haloR) : 1;
        part.lowHalo = plane * part.haloR;
        return part;
    }

    // --- host-side access ---------------------------------------------------
    /// Reference into the host mirror at a global coordinate (constant-time
    /// z -> device lookup through the grid's LUT).
    [[nodiscard]] T& hRef(const index_3d& g, int32_t c = 0) const
    {
        const int   dev = grid().devOfZ(g.z);
        const auto& p = grid().part(dev);
        const auto  part = hostPartition(dev);
        return this->rawHost(dev)[part.bufIdx(g.x, g.y, g.z - p.zOrigin + part.haloR, c)];
    }

    [[nodiscard]] T hVal(const index_3d& g, int32_t c = 0) const { return hRef(g, c); }

    /// Dense-grid alias for the shared host visit (global z-major order,
    /// lowered onto the grid's hostSpan by domain::FieldBase).
    template <typename Fn>  // fn(const index_3d&, int card, T&)
    void forEachHost(Fn&& fn) const
    {
        Base::forEachActiveHost(std::forward<Fn>(fn));
    }

    /// Partition descriptor pointing at the host mirror (indexing only;
    /// FieldBase::forEachActiveHost pairs it with rawHost()).
    [[nodiscard]] Partition hostPartition(int dev) const
    {
        Partition part = getPartition(dev);
        part.mem = nullptr;  // callers index via flatIdx against rawHost
        return part;
    }
};

}  // namespace neon::dgrid
