#include "set/container.hpp"

#include <atomic>

namespace neon::set {

uint64_t Container::nextSeq()
{
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Container Container::make(std::string name, Kind kind, int devCount)
{
    Container c;
    c.mImpl = std::make_shared<Impl>();
    c.mImpl->name = std::move(name);
    c.mImpl->kind = kind;
    c.mImpl->devCount = devCount;
    c.mImpl->seq = nextSeq();
    return c;
}

void Container::Impl::ensureParsed()
{
    if (parsed) {
        return;
    }
    if (parser) {
        parser(accessList);
    }
    // Deduce the compute pattern (paper §V-A: nodes are flagged MapOp /
    // StencilOp / ReduceOp from the loading process).
    if (hasForcedPattern) {
        patternValue = forcedPattern;
    } else {
        patternValue = Compute::MAP;
        for (const auto& a : accessList) {
            if (a.compute == Compute::STENCIL && a.access == Access::READ) {
                patternValue = Compute::STENCIL;
                break;
            }
        }
    }
    // Cost hint: bytes moved per cell = sum over accessed fields. Stencil
    // neighbour re-reads are assumed cached (memory-bound roofline).
    hint = sys::KernelCostHint{};
    for (const auto& a : accessList) {
        hint.bytesPerItem += a.bytesPerItem;
    }
    // Grid kernels do O(1) flops per byte; the roofline max() in the cost
    // model keeps them memory-bound.
    hint.flopsPerItem = hint.bytesPerItem / 2.0;
    parsed = true;
}

Container Container::haloUpdate(std::shared_ptr<const HaloOps> halo)
{
    NEON_CHECK(halo != nullptr, "haloUpdate requires a halo-capable field");
    Container c = make("halo(" + halo->name() + ")", Kind::Halo, halo->devCount());
    c.mImpl->parser = [halo](AccessList& rec) {
        // A halo update is modeled as a write of the field: the stencil
        // reading it afterwards gets a RaW edge, previous readers a WaR.
        rec.push_back({halo->uid(), Access::WRITE, Compute::MAP, 0.0, halo->name(), halo});
    };
    c.mImpl->itemsFn = [](int, DataView) -> size_t { return 0; };
    c.mImpl->launcher = [halo](int dev, sys::Stream& stream, const sys::OpAttribution& attr) {
        halo->enqueueHaloSend(dev, stream, attr);
    };
    return c;
}

const std::string& Container::name() const
{
    return mImpl->name;
}

Container::Kind Container::kind() const
{
    return mImpl->kind;
}

int Container::devCount() const
{
    return mImpl->devCount;
}

const AccessList& Container::accesses() const
{
    mImpl->ensureParsed();
    return mImpl->accessList;
}

Compute Container::pattern() const
{
    mImpl->ensureParsed();
    return mImpl->patternValue;
}

const sys::KernelCostHint& Container::costHint() const
{
    mImpl->ensureParsed();
    return mImpl->hint;
}

size_t Container::items(int dev, DataView view) const
{
    if (!mImpl->records.empty()) {
        return mImpl->recordAt(dev, view).items;
    }
    return mImpl->itemsFn ? mImpl->itemsFn(dev, view) : 0;
}

const Container& Container::combineStep() const
{
    NEON_CHECK(mImpl->combine != nullptr, "not a reduce container");
    return *mImpl->combine;
}

bool Container::isReduce() const
{
    return mImpl->combine != nullptr;
}

void Container::Impl::ensureSanitized()
{
    if (sanBuilt) {
        return;
    }
    ensureParsed();
    builder(*this, true);
    sanBuilt = true;
}

void Container::rebuild()
{
    Impl& impl = *mImpl;
    if (impl.builder) {
        impl.builder(impl, false);
    }
    impl.sanRecords.clear();
    impl.sanBuilt = false;
    // Parse-time state snapshots the field's halo plan and per-item byte
    // counts; both may have changed with the geometry, so re-parse lazily.
    impl.parsed = false;
    impl.accessList.clear();
    if (impl.combine) {
        impl.combine->mImpl->devCount = impl.devCount;
        impl.combine->mImpl->geomEpoch = impl.geomEpoch;
    }
}

uint64_t Container::geometryEpoch() const
{
    return mImpl->geomEpoch;
}

bool Container::sanitizable() const
{
    return mImpl->sanitizable;
}

uint64_t Container::sanitizeSeq() const
{
    return mImpl->seq;
}

void Container::launch(int dev, sys::Stream& stream, DataView view, bool sanitized,
                       const sys::OpAttribution& attr) const
{
    mImpl->ensureParsed();
    if (!mImpl->records.empty()) {
        // Kernels that cannot be instrumented (concrete-Loader lambdas)
        // fall back to the plain trampoline: the sanitizer then simply has
        // no observations for them.
        const bool useSan = sanitized && mImpl->sanitizable;
        if (useSan) {
            mImpl->ensureSanitized();
        }
        const LaunchRecord& rec = useSan ? mImpl->sanRecordAt(dev, view)
                                         : mImpl->recordAt(dev, view);
        // Empty map views (e.g. BOUNDARY on one device) skip entirely;
        // reductions always launch so their partial slots are reset every
        // iteration (stale partials would leak across runs).
        if (rec.items == 0 && mImpl->combine == nullptr) {
            return;
        }
        stream.enqueue(sys::KernelOp{mImpl->name, rec.items, mImpl->hint, rec.work, attr});
        return;
    }
    mImpl->launcher(dev, stream, attr);
}

void Container::run(const StreamSet& streams, DataView view, bool sanitized) const
{
    for (int d = 0; d < devCount(); ++d) {
        launch(d, streams[d], view, sanitized);
    }
    if (isReduce()) {
        // Manual execution path: synchronize and combine on stream 0.
        streams.sync();
        combineStep().launch(0, streams[0], DataView::STANDARD);
    }
}

}  // namespace neon::set
