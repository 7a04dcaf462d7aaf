#pragma once
// Access-contract sanitizer instrumentation (docs/analysis.md, "Access
// sanitizer"). When a container is launched in sanitized mode the loading
// lambda receives a sanitize::Loader instead of a set::Loader; every load
// returns a sanitize::View wrapping the raw partition, and each access the
// kernel makes — reads, writes, neighbour lookups — is recorded into the
// per-chunk shadow Sink the sanitized trampoline installs around the chunk
// body (container.hpp). Chunk sinks are merged in chunk order into a
// process-wide Session, so the observation set — like every kernel result —
// is bitwise identical for any NEON_THREADS. neon::analysis::AccessSanitizer
// diffs the merged observations against the declared access lists.
//
// The normal (unsanitized) path never instantiates these types at runtime:
// Container::launch picks the plain trampoline records and kernels iterate
// raw partitions, so sanitize-off stays zero-cost (the bench_overhead
// dispatch and cached_ns CI gates hold with this header compiled in).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/index3d.hpp"
#include "domain/span.hpp"
#include "set/access.hpp"

namespace neon::set::sanitize {

/// NEON_SANITIZE=1 (checked once; the first enabled check prints the
/// "[neon-sanitize] enabled" marker tools/neon-lint --sanitize greps for).
[[nodiscard]] bool envEnabled();

/// What one kernel did with one loaded uid on one device, merged over all
/// chunks and views. Every field merges monotonically (OR / max), so the
/// merged value is independent of chunk execution and commit order.
struct AccessObs
{
    bool    read = false;         ///< own-cell read (or proxy conversion)
    bool    written = false;      ///< own-cell write through the proxy
    bool    stencil = false;      ///< any ngh* call
    bool    outOfSpan = false;    ///< wrote a cell outside the launched span
    int32_t maxExtent = 0;        ///< largest stencilExtent over ngh* offsets
    int32_t maxComponent = 0;     ///< largest SoA component touched
    int32_t outOfSpanSlot = 0;    ///< example slot for the report (min slot)

    [[nodiscard]] bool touched() const { return read || written || stencil; }

    void noteRead(int32_t comp)
    {
        read = true;
        if (comp > maxComponent) {
            maxComponent = comp;
        }
    }

    void noteWrite(bool inSpan, int32_t slot, int32_t comp)
    {
        written = true;
        if (comp > maxComponent) {
            maxComponent = comp;
        }
        if (!inSpan) {
            if (!outOfSpan || slot < outOfSpanSlot) {
                outOfSpanSlot = slot;
            }
            outOfSpan = true;
        }
    }

    void noteNgh(int32_t extent, int32_t comp)
    {
        stencil = true;
        noteRead(comp);
        if (extent > maxExtent) {
            maxExtent = extent;
        }
    }

    void merge(const AccessObs& o)
    {
        read = read || o.read;
        written = written || o.written;
        stencil = stencil || o.stencil;
        if (o.outOfSpan) {
            if (!outOfSpan || o.outOfSpanSlot < outOfSpanSlot) {
                outOfSpanSlot = o.outOfSpanSlot;
            }
            outOfSpan = true;
        }
        maxExtent = maxExtent > o.maxExtent ? maxExtent : o.maxExtent;
        maxComponent = maxComponent > o.maxComponent ? maxComponent : o.maxComponent;
    }
};

/// One load the sanitized kernel was built with (slot index == position).
struct LoadMeta
{
    uint64_t    uid = 0;
    std::string name;
    bool        scalar = false;
    bool        unchecked = false;  ///< via loadUnchecked: no declaration
};

/// The load table of one sanitized kernel instantiation plus the grid's
/// halo radius (the bound StencilRadiusExceeded checks against).
struct KernelMeta
{
    std::vector<LoadMeta> loads;
    int32_t               haloRadius = 0;
};

/// Per-chunk shadow sink: one AccessObs per load slot plus the launched
/// span's slot ranges (for the OutOfSpanWrite check). Owned by the
/// sanitized trampoline — one per chunk, so pool workers never share.
class Sink
{
   public:
    void configure(size_t nLoads, domain::SpanRange r0, domain::SpanRange r1)
    {
        mObs.assign(nLoads, AccessObs{});
        mR0 = r0;
        mR1 = r1;
    }

    void clear() { mObs.assign(mObs.size(), AccessObs{}); }

    [[nodiscard]] bool inSpan(int32_t slot) const
    {
        return (slot >= mR0.first && slot < mR0.first + mR0.count) ||
               (slot >= mR1.first && slot < mR1.first + mR1.count);
    }

    [[nodiscard]] AccessObs& at(size_t slot) { return mObs[slot]; }
    [[nodiscard]] const std::vector<AccessObs>& obs() const { return mObs; }

   private:
    std::vector<AccessObs> mObs;
    domain::SpanRange      mR0{};
    domain::SpanRange      mR1{};
};

/// The sink the executing thread is currently recording into. Installed by
/// the sanitized trampoline around each chunk body — also on host-pool
/// worker threads, which is why it is thread-local rather than global.
[[nodiscard]] inline Sink*& currentSink()
{
    static thread_local Sink* tl = nullptr;
    return tl;
}

/// RAII install/restore of the per-chunk sink.
class ChunkScope
{
   public:
    explicit ChunkScope(Sink* sink) : mPrev(currentSink()) { currentSink() = sink; }
    ~ChunkScope() { currentSink() = mPrev; }
    ChunkScope(const ChunkScope&) = delete;
    ChunkScope& operator=(const ChunkScope&) = delete;

   private:
    Sink* mPrev;
};

/// Recording lvalue proxy returned by View::operator(): conversion to T is
/// a read, assignment is a write, compound assignment is both. Mirrors the
/// raw `T&` closely enough for the kernels in this codebase; kernels that
/// need a real reference can go through View::raw().
template <typename T>
class Ref
{
   public:
    Ref(T* ptr, AccessObs* obs, bool inSpan, int32_t slot, int32_t comp)
        : mPtr(ptr), mObs(obs), mInSpan(inSpan), mSlot(slot), mComp(comp)
    {
    }

    operator T() const  // NOLINT(google-explicit-constructor)
    {
        if (mObs != nullptr) {
            mObs->noteRead(mComp);
        }
        return *mPtr;
    }

    /// `static_cast<Enum>(view(cell))` and friends: a plain T conversion
    /// plus the cast would be two user conversions, so allow any direct
    /// static_cast target explicitly (still records the read).
    template <typename U, typename = decltype(static_cast<U>(std::declval<const T&>()))>
    explicit operator U() const
    {
        return static_cast<U>(static_cast<T>(*this));
    }

    Ref& operator=(const T& v)
    {
        noteWrite();
        *mPtr = v;
        return *this;
    }

    // `a(cell) = b(cell)`: without this the implicit copy assignment would
    // silently rebind the proxy instead of storing (and recording) a value.
    // Self-assignment is safe: the value is read out before the store.
    // NOLINTNEXTLINE(bugprone-unhandled-self-assignment)
    Ref& operator=(const Ref& o) { return *this = static_cast<T>(o); }

    Ref& operator+=(const T& v)
    {
        noteReadWrite();
        *mPtr += v;
        return *this;
    }

    Ref& operator-=(const T& v)
    {
        noteReadWrite();
        *mPtr -= v;
        return *this;
    }

    Ref& operator*=(const T& v)
    {
        noteReadWrite();
        *mPtr *= v;
        return *this;
    }

    Ref& operator/=(const T& v)
    {
        noteReadWrite();
        *mPtr /= v;
        return *this;
    }

   private:
    void noteWrite()
    {
        if (mObs != nullptr) {
            mObs->noteWrite(mInSpan, mSlot, mComp);
        }
    }

    void noteReadWrite()
    {
        if (mObs != nullptr) {
            mObs->noteRead(mComp);
            mObs->noteWrite(mInSpan, mSlot, mComp);
        }
    }

    T*         mPtr;
    AccessObs* mObs;
    bool       mInSpan;
    int32_t    mSlot;
    int32_t    mComp;
};

/// Instrumented partition view: wraps a raw partition (DPartition /
/// EPartition / BPartition / GlobalScalar::View) and forwards the kernel
/// surface — operator(), ngh*, globalIdx, cardinality — recording each call
/// into the current chunk Sink. Members are templates, so only the methods
/// a kernel actually uses need to exist on P.
template <typename P>
class View
{
   public:
    View() = default;
    View(P part, uint32_t slot) : mPart(std::move(part)), mSlot(slot) {}

    template <typename CellT>
    auto operator()(const CellT& cell, int32_t c = 0)
    {
        using T = std::remove_reference_t<decltype(mPart(cell, c))>;
        Sink*      sink = currentSink();
        AccessObs* obs = sink != nullptr ? &sink->at(mSlot) : nullptr;
        const int32_t slot = P::spanSlotOf(cell);
        const bool in = sink == nullptr || sink->inSpan(slot);
        return Ref<T>(&mPart(cell, c), obs, in, slot, c);
    }

    template <typename CellT>
    auto operator()(const CellT& cell, int32_t c = 0) const
    {
        note([&](AccessObs& o) { o.noteRead(c); });
        return mPart(cell, c);
    }

    /// GlobalScalar view surface (zero-arg read).
    auto operator()() const
    {
        note([](AccessObs& o) { o.noteRead(0); });
        return mPart();
    }

    template <typename CellT>
    auto nghData(const CellT& cell, const index_3d& offset, int32_t c = 0) const
    {
        note([&](AccessObs& o) { o.noteNgh(P::stencilExtent(offset), c); });
        return mPart.nghData(cell, offset, c);
    }

    template <typename CellT>
    auto nghVal(const CellT& cell, const index_3d& offset, int32_t c = 0) const
    {
        note([&](AccessObs& o) { o.noteNgh(P::stencilExtent(offset), c); });
        return mPart.nghVal(cell, offset, c);
    }

    template <typename CellT>
    auto nghValUnchecked(const CellT& cell, const index_3d& offset, int32_t c = 0) const
    {
        note([&](AccessObs& o) { o.noteNgh(P::stencilExtent(offset), c); });
        return mPart.nghValUnchecked(cell, offset, c);
    }

    /// Slot-indexed neighbour read (EGrid): the offset is opaque, so the
    /// stencil use is recorded but the radius cannot be checked.
    template <typename CellT>
    auto nghDataSlot(const CellT& cell, int32_t nghSlot, int32_t c = 0) const
    {
        note([&](AccessObs& o) { o.noteNgh(0, c); });
        return mPart.nghDataSlot(cell, nghSlot, c);
    }

    template <typename CellT>
    auto globalIdx(const CellT& cell) const
    {
        return mPart.globalIdx(cell);
    }

    [[nodiscard]] int32_t cardinality() const { return mPart.cardinality(); }

    /// Escape hatch to the raw partition (unrecorded).
    [[nodiscard]] P&       raw() { return mPart; }
    [[nodiscard]] const P& raw() const { return mPart; }

   private:
    template <typename Fn>
    void note(Fn&& fn) const
    {
        if (Sink* sink = currentSink(); sink != nullptr) {
            fn(sink->at(mSlot));
        }
    }

    P        mPart{};
    uint32_t mSlot = 0;
};

/// Drop-in replacement for set::Loader handed to generic loading lambdas
/// when the sanitized trampoline is built: load() registers the uid in the
/// kernel's load table and returns an instrumented View over the raw
/// partition. Declarations were already parsed by the real Loader — this
/// one only mirrors the execution side.
class Loader
{
   public:
    Loader(int devIdx, DataView view, KernelMeta* meta)
        : mDevIdx(devIdx), mView(view), mMeta(meta)
    {
    }

    template <typename DataT>
    auto load(DataT& data, Access access, Compute compute = Compute::MAP)
    {
        (void)access;
        (void)compute;
        return record(data, false);
    }

    /// Mirror of set::Loader::loadUnchecked: access without a declaration.
    /// The sanitizer reports any touch through it as UndeclaredRead/Write.
    template <typename DataT>
    auto loadUnchecked(DataT& data)
    {
        return record(data, true);
    }

    [[nodiscard]] bool     isParsing() const { return false; }
    [[nodiscard]] int      devIdx() const { return mDevIdx; }
    [[nodiscard]] DataView view() const { return mView; }

   private:
    template <typename DataT>
    auto record(DataT& data, bool unchecked)
    {
        const auto slot = static_cast<uint32_t>(mMeta->loads.size());
        LoadMeta   lm;
        lm.uid = data.uid();
        lm.name = data.name();
        lm.unchecked = unchecked;
        if constexpr (requires { std::remove_cvref_t<DataT>::kIsGlobalScalar; }) {
            lm.scalar = true;
        }
        mMeta->loads.push_back(std::move(lm));
        using PartT = decltype(data.getPartition(mDevIdx, mView));
        return View<PartT>(data.getPartition(mDevIdx, mView), slot);
    }

    int         mDevIdx = 0;
    DataView    mView = DataView::STANDARD;
    KernelMeta* mMeta = nullptr;
};

/// Merged observations of one (container, device) pair across all views
/// and runs, plus everything the diff needs: the declared access list and
/// the kernel's load table.
struct Entry
{
    uint64_t                seq = 0;  ///< container creation ordinal
    std::string             container;
    int                     dev = -1;
    int32_t                 haloRadius = 0;
    AccessList              declared;
    std::vector<LoadMeta>   loads;
    std::vector<AccessObs>  obs;  ///< parallel to loads
    int                     runs = 0;
};

/// Process-wide collection point. Trampoline finalize() commits the merged
/// chunk observations here, on the thread driving the launching Backend.
/// The Session is shared by every Backend in the process, so it keeps a
/// mutex; every merge is monotone and entries are keyed by (container seq,
/// device), so the final state is order-independent.
class Session
{
   public:
    static Session& instance();

    void commit(uint64_t seq, const std::string& name, int dev, int32_t haloRadius,
                const AccessList& declared, const KernelMeta& meta,
                const std::vector<AccessObs>& merged);

    /// Stable order: (container name, device, seq).
    [[nodiscard]] std::vector<Entry> snapshot() const;

    void clear();

   private:
    mutable std::mutex                        mMutex;
    std::map<std::pair<uint64_t, int>, Entry> mEntries;
};

}  // namespace neon::set::sanitize
