#pragma once
// Shared halo-exchange machinery (paper §IV-C2 "haloUpdate asynchronous
// mechanism"). Every 1-D-partitioned grid reduces its halo traffic to the
// same normal form: per device, a short list of *cell-unit* segments
// [srcFirst, srcFirst+count) of its local cell space that must land at
// [dstFirst, dstFirst+count) of a neighbour's. The grid computes the
// segments once at construction (dGrid: boundary z-planes, eGrid: the
// boundary cell classes, bGrid: active boundary block rows); SegmentHalo
// turns them into transfers for any field over that grid, resolving the
// memory layout at enqueue time:
//   - structOfArrays: one chunk per (segment, component), component pitch
//     = count(dev) / cardinality;
//   - arrayOfStructs: one chunk per segment, offsets scaled by cardinality.
// This reproduces the paper's transfer accounting (2 transfers per interior
// device for AoS/scalar fields, 2*cardinality for SoA) for every grid.

#include <algorithm>
#include <cstdint>
#include <string>
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

/// The one HaloOps implementation shared by every field type. Holds value
/// copies of the shared handles (not the field Impl) so the access records
/// it travels in keep the buffers alive without a reference cycle.
template <typename T>
class SegmentHalo final : public set::HaloOps
{
   public:
    SegmentHalo(set::MemSet<T> data, std::string name, int card, MemLayout layout,
                std::vector<std::vector<HaloSegment>> segments)
        : mData(std::move(data)),
          mName(std::move(name)),
          mCard(card),
          mLayout(layout),
          mSegments(std::move(segments))
    {
    }

    void enqueueHaloSend(int dev, sys::Stream& stream,
                         const sys::OpAttribution& attr) const override
    {
        sys::TransferOp op;
        op.name = "halo(" + mName + ")";
        op.attr = attr;

        for (const HaloSegment& seg : mSegments[static_cast<size_t>(dev)]) {
            if (seg.count == 0) {
                continue;
            }
            T* src = mData.rawDev(dev);
            T* dst = mData.rawDev(seg.nbr);
            if (mLayout == MemLayout::structOfArrays) {
                // Component pitch: each component's cells are contiguous.
                const size_t srcPitch = mData.count(dev) / static_cast<size_t>(mCard);
                const size_t dstPitch = mData.count(seg.nbr) / static_cast<size_t>(mCard);
                for (int32_t c = 0; c < mCard; ++c) {
                    const size_t so = static_cast<size_t>(c) * srcPitch +
                                      static_cast<size_t>(seg.srcFirst);
                    const size_t do_ = static_cast<size_t>(c) * dstPitch +
                                       static_cast<size_t>(seg.dstFirst);
                    const size_t len = static_cast<size_t>(seg.count);
                    op.chunks.push_back(
                        {len * sizeof(T), seg.direction, [src, dst, so, do_, len] {
                             std::copy_n(src + so, len, dst + do_);
                         }});
                }
            } else {
                const size_t so = static_cast<size_t>(seg.srcFirst) * static_cast<size_t>(mCard);
                const size_t do_ = static_cast<size_t>(seg.dstFirst) * static_cast<size_t>(mCard);
                const size_t len = static_cast<size_t>(seg.count) * static_cast<size_t>(mCard);
                op.chunks.push_back({len * sizeof(T), seg.direction, [src, dst, so, do_, len] {
                                         std::copy_n(src + so, len, dst + do_);
                                     }});
            }
        }
        if (!op.chunks.empty()) {
            stream.transfer(std::move(op));
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
    set::MemSet<T>                        mData;
    std::string                           mName;
    int                                   mCard = 1;
    MemLayout                             mLayout = MemLayout::structOfArrays;
    std::vector<std::vector<HaloSegment>> mSegments;  ///< per sending device
};

}  // namespace neon::domain
