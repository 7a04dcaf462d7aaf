#pragma once
// The unified span-iteration layer (docs/domain.md, docs/performance.md):
// every grid's iteration space is "up to two contiguous ranges of an outer
// *slot* index, plus a decoder that expands one slot into cells". DGrid
// slots are z-planes, EGrid slots are single cells, BGrid slots are blocks.
// DSpan/ESpan/BSpan are instantiations of domain::Span over their decoder,
// so forEach order, chunked iteration and the deterministic chunk-partition
// rule live here once instead of three near-duplicates.
//
// Chunking contract: chunkCount() is a pure function of the span (cell and
// slot count), never of the executing thread count, and forEachChunk(c, n)
// visits a fixed slot interval [c*S/n, (c+1)*S/n). Running the chunks on
// any number of threads therefore touches exactly the same cells in the
// same per-chunk order — the NEON_THREADS bitwise-determinism guarantee
// builds on this (docs/performance.md, "Host parallelism").
//
// A decoder may also offer shaped walks of a slot (Walk): loops the
// compiler may vectorize, for kernels whose cells are independent, and the
// lane walk of reductions. Every walk hands out the same cells, in the same
// order, as the ordered one.

#include <cstddef>
#include <cstdint>
#include <utility>

namespace neon::domain {

/// One contiguous range of outer slot indices.
struct SpanRange
{
    int32_t first = 0;
    int32_t count = 0;
};

/// Deterministic chunk partition rule: enough chunks to feed a pool
/// (cells / kSpanChunkCells, capped at kSpanMaxChunks) but never more than
/// there are slots. Pure function of the span — NOT of the thread count.
inline constexpr size_t  kSpanChunkCells = 2048;
inline constexpr int32_t kSpanMaxChunks = 64;

[[nodiscard]] constexpr int32_t spanChunkCount(size_t cells, int32_t slots)
{
    const size_t byCells = cells / kSpanChunkCells;
    int32_t      n = byCells >= static_cast<size_t>(kSpanMaxChunks)
                         ? kSpanMaxChunks
                         : static_cast<int32_t>(byCells);
    if (n < 1) {
        n = 1;
    }
    if (slots >= 1 && n > slots) {
        n = slots;
    }
    return n;
}

/// How a decoder walks one slot. Every decoder has the Ordered walk; a
/// decoder with `kShapedWalks` (the dense grid's) also has the others, as
/// `walk<W>(slot, fn)`. Each walk hands out the Ordered walk's cells, in
/// its order (docs/performance.md, "Flat planes and lane reductions").
enum class Walk : uint8_t
{
    Ordered,  ///< fn(cell), one cell at a time: any kernel
    Rows,     ///< independent cells: each row's interior run is one loop
    Flat,     ///< independent cells, no stencil read: each slot is one loop
    Lanes,    ///< fn(cell, lane), lane = the cell's in-slot index mod kReduceLanes
};

/// Accumulator lanes of a Lanes walk. A constant, not a knob: it fixes the
/// summation order of every dense reduction.
inline constexpr int kReduceLanes = 4;

/// Iteration space of one (device, DataView) pair, generic over a slot
/// Decoder providing `forEachInSlot(int32_t slot, Fn&&)`. Cells are visited
/// slot-ascending (range 0 then range 1), with the decoder's in-slot order
/// — deterministic, as SpanConcept requires.
template <typename Decoder>
class Span
{
   public:
    using Range = SpanRange;

    /// True when the decoder has the shaped walks (Walk) besides Ordered.
    static constexpr bool kShapedWalks = requires { Decoder::kShapedWalks; };

    Span() = default;
    Span(Decoder decoder, size_t cells, Range r0, Range r1 = {0, 0})
        : mDecoder(std::move(decoder)), mCells(cells), mR0(r0), mR1(r1)
    {
    }

    /// Number of cells forEach visits.
    [[nodiscard]] size_t count() const { return mCells; }
    /// Number of outer slots (chunking granularity).
    [[nodiscard]] int32_t slotCount() const { return mR0.count + mR1.count; }
    /// Fixed chunk partition size for this span (>= 1, see spanChunkCount).
    [[nodiscard]] int32_t chunkCount() const { return spanChunkCount(mCells, slotCount()); }

    [[nodiscard]] const Decoder& decoder() const { return mDecoder; }

    /// The two slot ranges (range 1 may be empty). Exposed for the access
    /// sanitizer, which checks written cells against the launched span.
    [[nodiscard]] const Range& range0() const { return mR0; }
    [[nodiscard]] const Range& range1() const { return mR1; }

    /// True when slot index `slot` (a decoder slot, e.g. a z-plane or block
    /// ordinal — see Partition::spanSlotOf) is part of this span.
    [[nodiscard]] bool containsSlot(int32_t slot) const
    {
        return (slot >= mR0.first && slot < mR0.first + mR0.count) ||
               (slot >= mR1.first && slot < mR1.first + mR1.count);
    }

    template <typename Fn>
    void forEach(Fn&& fn) const
    {
        forEachChunk(0, 1, fn);
    }

    /// Visit chunk `chunk` of a fixed `nChunks`-way partition: slot
    /// ordinals [chunk*S/n, (chunk+1)*S/n), each slot with walk `W` (any
    /// but Ordered only when kShapedWalks). The partition depends only on
    /// (S, nChunks); executing chunks in any order or on any threads
    /// visits the same cells.
    template <Walk W = Walk::Ordered, typename Fn>
    void forEachChunk(int32_t chunk, int32_t nChunks, Fn&& fn) const
    {
        const int32_t lo = chunkFirst(chunk, nChunks);
        const int32_t hi = chunkFirst(chunk + 1, nChunks);
        // Ordinal o maps into range 0 while o < r0.count, then into range 1.
        const int32_t in0 = hi < mR0.count ? hi : mR0.count;
        for (int32_t o = lo; o < in0; ++o) {
            visitSlot<W>(mR0.first + o, fn);
        }
        const int32_t from1 = lo > mR0.count ? lo : mR0.count;
        for (int32_t o = from1; o < hi; ++o) {
            visitSlot<W>(mR1.first + (o - mR0.count), fn);
        }
    }

   private:
    /// First slot ordinal of chunk `chunk` of an `nChunks`-way partition.
    [[nodiscard]] int32_t chunkFirst(int32_t chunk, int32_t nChunks) const
    {
        return static_cast<int32_t>(static_cast<int64_t>(chunk) * slotCount() / nChunks);
    }

    template <Walk W, typename Fn>
    void visitSlot(int32_t slot, Fn& fn) const
    {
        if constexpr (W == Walk::Ordered) {
            mDecoder.forEachInSlot(slot, fn);
        } else {
            mDecoder.template walk<W>(slot, fn);
        }
    }

    Decoder mDecoder{};
    size_t  mCells = 0;
    Range   mR0;
    Range   mR1;
};

/// Free-function spelling used by generic code (FieldBase host visits):
/// iterate a whole span.
template <typename SpanT, typename Fn>
void forEachSpan(const SpanT& span, Fn&& fn)
{
    span.forEach(std::forward<Fn>(fn));
}

}  // namespace neon::domain
