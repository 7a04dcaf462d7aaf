#pragma once
// Shared halo-exchange machinery (paper §IV-C2 "haloUpdate asynchronous
// mechanism"). Every 1-D-partitioned grid reduces its halo traffic to the
// same normal form: per device, a short list of *cell-unit* segments
// [srcFirst, srcFirst+count) of its local cell space that must land at
// [dstFirst, dstFirst+count) of a neighbour's. The grid computes the
// segments once at construction (dGrid: boundary z-planes, eGrid: the
// boundary cell classes, bGrid: active boundary block rows); SegmentHalo
// turns them into transfers for any field over that grid, resolving the
// memory layout once, when the field's halo is built:
//   - structOfArrays: one chunk per (segment, component), component pitch
//     = count(dev) / cardinality;
//   - arrayOfStructs: one chunk per segment, offsets scaled by cardinality.
// This reproduces the paper's transfer accounting (2 transfers per interior
// device for AoS/scalar fields, 2*cardinality for SoA) for every grid.

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "set/access.hpp"
#include "set/memset.hpp"
#include "sys/stream.hpp"

namespace neon::domain {

/// One contiguous boundary->ghost copy, in cell units (layout-agnostic).
struct HaloSegment
{
    int     nbr = 0;        ///< destination device
    int     direction = 0;  ///< 1: to higher-z neighbour, 0: to lower-z
    int64_t srcFirst = 0;   ///< first cell in the sender's local cell space
    int64_t dstFirst = 0;   ///< first cell in the receiver's local cell space
    int64_t count = 0;      ///< cells to copy
};

/// Append the copies of `count` cells from cell `srcFirst` of `src` to cell
/// `dstFirst` of `dst` to `out`: one chunk per component in structOfArrays
/// (component pitch = the device's element count / `card`), one chunk in
/// arrayOfStructs (offsets scaled by `card`). `srcCount`/`dstCount` are the
/// two devices' element counts. Halo exchanges and field migration share it.
template <typename T>
void appendCellCopies(std::vector<sys::TransferChunk>& out, int direction, MemLayout layout,
                      int card, const T* src, size_t srcCount, int64_t srcFirst, T* dst,
                      size_t dstCount, int64_t dstFirst, int64_t count)
{
    static_assert(std::is_trivially_copyable_v<T>, "transfers copy field elements bytewise");
    const auto ucard = static_cast<size_t>(card);
    if (layout == MemLayout::structOfArrays) {
        const size_t srcPitch = srcCount / ucard;
        const size_t dstPitch = dstCount / ucard;
        const auto   len = static_cast<size_t>(count);
        for (size_t c = 0; c < ucard; ++c) {
            out.push_back({len * sizeof(T), direction,
                           src + c * srcPitch + static_cast<size_t>(srcFirst),
                           dst + c * dstPitch + static_cast<size_t>(dstFirst)});
        }
    } else {
        const size_t len = static_cast<size_t>(count) * ucard;
        out.push_back({len * sizeof(T), direction, src + static_cast<size_t>(srcFirst) * ucard,
                       dst + static_cast<size_t>(dstFirst) * ucard});
    }
}

/// The one HaloOps implementation shared by every field type. Holds value
/// copies of the shared handles (not the field Impl) so the access records
/// it travels in keep the buffers alive without a reference cycle.
///
/// The buffers of a field are fixed until a regrid replaces its halo, so
/// each device's chunk list and the op name are built once, here; every
/// exchange enqueues an op that borrows them.
template <typename T>
class SegmentHalo final : public set::HaloOps
{
   public:
    SegmentHalo(set::MemSet<T> data, std::string name, int card, MemLayout layout,
                std::vector<std::vector<HaloSegment>> segments)
        : mData(std::move(data)),
          mName(std::move(name)),
          mOpName("halo(" + mName + ")"),
          mSegments(std::move(segments))
    {
        mChunks.reserve(mSegments.size());
        for (int dev = 0; dev < static_cast<int>(mSegments.size()); ++dev) {
            std::vector<sys::TransferChunk> chunks;
            for (const HaloSegment& seg : mSegments[static_cast<size_t>(dev)]) {
                if (seg.count > 0) {
                    appendCellCopies(chunks, seg.direction, layout, card, mData.rawDev(dev),
                                     mData.count(dev), seg.srcFirst, mData.rawDev(seg.nbr),
                                     mData.count(seg.nbr), seg.dstFirst, seg.count);
                }
            }
            mChunks.emplace_back(std::move(chunks));
        }
    }

    void enqueueHaloSend(int dev, sys::Stream& stream,
                         const sys::OpAttribution& attr) const override
    {
        const std::vector<sys::TransferChunk>& chunks = mChunks[static_cast<size_t>(dev)];
        if (!chunks.empty()) {
            stream.transfer({mOpName, chunks, attr});
        }
    }

    [[nodiscard]] uint64_t    uid() const override { return mData.uid(); }
    [[nodiscard]] std::string name() const override { return mName; }
    [[nodiscard]] int         devCount() const override { return mData.setCount(); }

    /// Receivers actually present in the segment list (sparse grids may
    /// have no active cells on a partition boundary).
    [[nodiscard]] std::vector<int> peers(int dev) const override
    {
        std::vector<int> out;
        for (const HaloSegment& seg : mSegments[static_cast<size_t>(dev)]) {
            if (seg.count > 0 && std::find(out.begin(), out.end(), seg.nbr) == out.end()) {
                out.push_back(seg.nbr);
            }
        }
        return out;
    }

   private:
    set::MemSet<T>                               mData;
    std::string                                  mName;
    std::string                                  mOpName;    ///< "halo(<name>)"
    std::vector<std::vector<HaloSegment>>        mSegments;  ///< per sending device
    std::vector<std::vector<sys::TransferChunk>> mChunks;    ///< per sending device
};

}  // namespace neon::domain
