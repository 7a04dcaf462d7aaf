#include "dgrid/dgrid.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace neon::dgrid {

DGrid::DGrid(set::Backend backend, index_3d dim, Stencil stencil)
{
    NEON_CHECK(backend.valid(), set::Backend::emptyError("DGrid"));
    NEON_CHECK(dim.x > 0 && dim.y > 0 && dim.z > 0, "grid dimensions must be positive");
    auto impl = std::make_shared<Impl>();
    impl->name = "dGrid";
    impl->backend = std::move(backend);
    impl->dim = dim;
    impl->stencil = std::move(stencil);
    impl->haloRadius = std::max(1, impl->stencil.zRadius());
    mBase = std::move(impl);
    slice(initialCuts());
}

domain::PartitionPlan DGrid::initialCuts() const
{
    return domain::PartitionPlan::even(dim().z, devCount());
}

void DGrid::applyUnits(const std::vector<int64_t>& units)
{
    auto&          impl = this->impl<Impl>();
    const int      nDev = static_cast<int>(units.size());
    const index_3d dim = impl.dim;
    const int      r = impl.haloRadius;
    impl.parts.clear();
    impl.zToDev.clear();
    impl.zToDev.reserve(static_cast<size_t>(dim.z));
    int32_t origin = 0;
    for (int d = 0; d < nDev; ++d) {
        PartInfo p;
        p.zOrigin = origin;
        p.zCount = static_cast<int32_t>(units[static_cast<size_t>(d)]);
        p.hasLow = d > 0;
        p.hasHigh = d < nDev - 1;
        // Boundary slabs: cells whose stencil reaches a neighbour partition.
        p.bLow = p.hasLow ? std::min(r, p.zCount) : 0;
        p.bHigh = p.hasHigh ? std::min(r, p.zCount - p.bLow) : 0;
        impl.parts.push_back(p);
        impl.zToDev.insert(impl.zToDev.end(), static_cast<size_t>(p.zCount), d);
        origin += p.zCount;
    }

    // Halo segments in cell units of a field buffer: per device the local z
    // extent is [0, zCount + 2r) with the owned planes at [r, r + zCount).
    const auto plane = static_cast<int64_t>(dim.x) * static_cast<int64_t>(dim.y);
    impl.haloSegments.assign(static_cast<size_t>(nDev), {});
    for (int d = 0; d < nDev; ++d) {
        const PartInfo& p = impl.parts[static_cast<size_t>(d)];
        auto&           segs = impl.haloSegments[static_cast<size_t>(d)];
        if (p.hasHigh) {
            // Owned top r planes -> (dev+1)'s low halo [0, r).
            segs.push_back({d + 1, 1, static_cast<int64_t>(p.zCount) * plane, 0,
                            static_cast<int64_t>(r) * plane});
        }
        if (p.hasLow) {
            // Owned bottom r planes -> (dev-1)'s high halo.
            const PartInfo& pn = impl.parts[static_cast<size_t>(d - 1)];
            segs.push_back({d - 1, 0, static_cast<int64_t>(r) * plane,
                            static_cast<int64_t>(r + pn.zCount) * plane,
                            static_cast<int64_t>(r) * plane});
        }
    }
}

int64_t DGrid::minUnitsPerDev() const
{
    return std::max(1, haloRadius());
}

domain::CellWindow DGrid::cellWindow(int dev) const
{
    const auto plane = static_cast<int64_t>(dim().x) * static_cast<int64_t>(dim().y);
    const auto r = static_cast<int64_t>(haloRadius());
    const auto zCount = static_cast<int64_t>(part(dev).zCount);
    return {zCount * plane, (zCount + 2 * r) * plane, r * plane};
}

DSpan DGrid::span(int dev, DataView view) const
{
    const PartInfo& p = part(dev);
    const index_3d  d = dim();
    switch (view) {
        case DataView::STANDARD:
            return DSpan(d.x, d.y, p.zOrigin, d.z, {0, p.zCount});
        case DataView::INTERNAL:
            return DSpan(d.x, d.y, p.zOrigin, d.z, {p.bLow, p.zCount - p.bLow - p.bHigh});
        case DataView::BOUNDARY:
            return DSpan(d.x, d.y, p.zOrigin, d.z, {0, p.bLow}, {p.zCount - p.bHigh, p.bHigh});
    }
    return {};
}

const DGrid::PartInfo& DGrid::part(int dev) const
{
    NEON_CHECK(dev >= 0 && dev < devCount(), "device index out of range");
    return impl<Impl>().parts[static_cast<size_t>(dev)];
}

size_t DGrid::cellCount() const
{
    return dim().size();
}

int DGrid::devOfZ(int32_t z) const
{
    NEON_CHECK(z >= 0 && z < dim().z, "z coordinate outside the grid");
    return impl<Impl>().zToDev[static_cast<size_t>(z)];
}

}  // namespace neon::dgrid
