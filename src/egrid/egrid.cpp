#include "egrid/egrid.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/error.hpp"

namespace neon::egrid {

struct EGrid::Impl : domain::GridBase::BaseImpl
{
    int    lutR = 1;
    size_t totalActive = 0;

    std::vector<PartInfo> parts;

    set::MemSet<int32_t>  conn;    ///< [point][ownedCell] per device
    set::MemSet<index_3d> coords;  ///< global coordinate per local cell (owned+ghost)
    set::MemSet<int16_t>  lut;     ///< offset -> stencil point slot

    /// Host-side global -> (dev, owned local index); empty in dry-run.
    /// Encoded as dev * 2^40 + idx + 1; 0 means inactive.
    std::vector<uint64_t> hostLocal;

    /// Kept for repartition/rebind: the activity predicate and the per-plane
    /// active-cell histogram let applyUnits re-derive every table for
    /// any plane cuts without re-scanning the predicate over planes twice.
    std::function<bool(const index_3d&)> active;
    std::vector<int64_t>                 perPlane;

    [[nodiscard]] size_t lutSize() const
    {
        const size_t w = 2 * static_cast<size_t>(lutR) + 1;
        return w * w * w;
    }

    [[nodiscard]] size_t lutIdx(const index_3d& off) const
    {
        const size_t w = 2 * static_cast<size_t>(lutR) + 1;
        return (static_cast<size_t>(off.z + lutR) * w + static_cast<size_t>(off.y + lutR)) * w +
               static_cast<size_t>(off.x + lutR);
    }
};

EGrid::EGrid(set::Backend backend, index_3d dim,
             const std::function<bool(const index_3d&)>& active, Stencil stencil)
{
    NEON_CHECK(backend.valid(), set::Backend::emptyError("EGrid"));
    NEON_CHECK(dim.x > 0 && dim.y > 0 && dim.z > 0, "grid dimensions must be positive");
    auto  impl = std::make_shared<Impl>();
    Impl& g = *impl;
    g.name = "eGrid";
    g.backend = std::move(backend);
    g.dim = dim;
    g.stencil = std::move(stencil);
    g.haloRadius = std::max(1, g.stencil.zRadius());
    g.lutR = std::max(1, g.stencil.radius());

    g.active = active;

    // Pass 1: active cells per z-plane (cheap even at paper-scale sizes).
    g.perPlane.assign(static_cast<size_t>(dim.z), 0);
    for (int32_t z = 0; z < dim.z; ++z) {
        for (int32_t y = 0; y < dim.y; ++y) {
            for (int32_t x = 0; x < dim.x; ++x) {
                if (active({x, y, z})) {
                    ++g.perPlane[static_cast<size_t>(z)];
                }
            }
        }
        g.totalActive += static_cast<size_t>(g.perPlane[static_cast<size_t>(z)]);
    }

    mBase = std::move(impl);
    slice(initialCuts());
}

domain::PartitionPlan EGrid::initialCuts() const
{
    // Partition planes so active-cell counts are balanced (paper §IV:
    // "optimized for load balance").
    return domain::balancedCuts(impl<Impl>().perPlane, devCount(), minUnitsPerDev());
}

void EGrid::applyUnits(const std::vector<int64_t>& units)
{
    Impl&          g = impl<Impl>();
    const index_3d dim = g.dim;
    const int      nDev = static_cast<int>(units.size());
    const int      r = g.haloRadius;
    const bool     dry = g.backend.isDryRun();
    const auto&    active = g.active;

    // Per-partition counts derived from plane counts (works in dry-run too).
    g.parts.assign(static_cast<size_t>(nDev), {});
    auto planesSum = [&](int32_t first, int32_t count) {
        int64_t s = 0;
        for (int32_t z = first; z < first + count; ++z) {
            s += g.perPlane[static_cast<size_t>(z)];
        }
        return static_cast<int32_t>(s);
    };
    int32_t firstPlane = 0;
    for (int d = 0; d < nDev; ++d) {
        PartInfo& p = g.parts[static_cast<size_t>(d)];
        p.zFirst = firstPlane;
        p.zCount = static_cast<int32_t>(units[static_cast<size_t>(d)]);
        firstPlane += p.zCount;
        p.nOwned = planesSum(p.zFirst, p.zCount);
        p.nBdrLow = d > 0 ? planesSum(p.zFirst, std::min(r, p.zCount)) : 0;
        p.nBdrHigh =
            d < nDev - 1 ? planesSum(p.zFirst + p.zCount - std::min(r, p.zCount), std::min(r, p.zCount)) : 0;
        p.nGhostLow = d > 0 ? g.parts[static_cast<size_t>(d - 1)].nBdrHigh : 0;
        // nGhostHigh needs the *next* partition's nBdrLow; fill in a second
        // sweep below.
    }
    for (int d = 0; d < nDev; ++d) {
        PartInfo& p = g.parts[static_cast<size_t>(d)];
        if (d < nDev - 1) {
            const PartInfo& pn = g.parts[static_cast<size_t>(d + 1)];
            p.nGhostHigh = planesSum(pn.zFirst, std::min(r, pn.zCount));
        }
    }

    // Halo segments in cell units: the boundary classes are contiguous by
    // construction, so one segment per neighbour suffices.
    g.haloSegments.assign(static_cast<size_t>(nDev), {});
    for (int d = 0; d < nDev; ++d) {
        const PartInfo& p = g.parts[static_cast<size_t>(d)];
        auto&           segs = g.haloSegments[static_cast<size_t>(d)];
        if (d < nDev - 1) {
            // Own boundary-high segment -> (dev+1)'s ghost-low range.
            const PartInfo& pn = g.parts[static_cast<size_t>(d + 1)];
            segs.push_back({d + 1, 1, p.nOwned - p.nBdrHigh, pn.nOwned, p.nBdrHigh});
        }
        if (d > 0) {
            // Own boundary-low segment -> (dev-1)'s ghost-high range.
            const PartInfo& pn = g.parts[static_cast<size_t>(d - 1)];
            segs.push_back({d - 1, 0, 0, pn.nOwned + pn.nGhostLow, p.nBdrLow});
        }
    }

    // Allocate structure tables (fake allocations in dry-run: the bytes
    // still count against device capacity, reproducing Fig. 9's OOM row).
    const int nPts = g.stencil.pointCount();
    {
        std::vector<size_t> connCounts, coordCounts, lutCounts;
        for (int d = 0; d < nDev; ++d) {
            connCounts.push_back(static_cast<size_t>(g.parts[static_cast<size_t>(d)].nOwned) *
                                 static_cast<size_t>(nPts));
            coordCounts.push_back(static_cast<size_t>(g.parts[static_cast<size_t>(d)].nLocal()));
            lutCounts.push_back(g.lutSize());
        }
        g.conn = set::MemSet<int32_t>(g.backend, "egrid.conn", connCounts);
        g.coords = set::MemSet<index_3d>(g.backend, "egrid.coords", coordCounts);
        g.lut = set::MemSet<int16_t>(g.backend, "egrid.lut", lutCounts);
    }
    if (dry) {
        return;
    }

    // LUT: stencil offset -> point slot (-1 elsewhere).
    for (int d = 0; d < nDev; ++d) {
        int16_t* lutH = g.lut.rawHost(d);
        std::fill(lutH, lutH + g.lutSize(), int16_t{-1});
        for (int s = 0; s < nPts; ++s) {
            lutH[g.lutIdx(g.stencil.points()[static_cast<size_t>(s)])] = static_cast<int16_t>(s);
        }
    }

    // Pass 2: enumerate cells per partition in class order and build the
    // host global->local map.
    g.hostLocal.assign(dim.size(), 0);
    auto hostKey = [&](const index_3d& c) { return dim.pitch(c); };

    for (int d = 0; d < nDev; ++d) {
        PartInfo& p = g.parts[static_cast<size_t>(d)];
        index_3d* coordH = g.coords.rawHost(d);
        int32_t   cursor = 0;
        auto      emitRange = [&](int32_t zFrom, int32_t zTo) {
            for (int32_t z = zFrom; z < zTo; ++z) {
                for (int32_t y = 0; y < dim.y; ++y) {
                    for (int32_t x = 0; x < dim.x; ++x) {
                        const index_3d c{x, y, z};
                        if (active(c)) {
                            coordH[cursor] = c;
                            g.hostLocal[hostKey(c)] =
                                (static_cast<uint64_t>(d) << 40) + static_cast<uint64_t>(cursor) + 1;
                            ++cursor;
                        }
                    }
                }
            }
        };
        auto emitGhostRange = [&](int32_t zFrom, int32_t zTo) {
            // Ghost copies of neighbour cells: same (z,y,x) order as the
            // sender's boundary segment, but not registered in hostLocal
            // (the owner partition holds the authoritative copy).
            for (int32_t z = zFrom; z < zTo; ++z) {
                for (int32_t y = 0; y < dim.y; ++y) {
                    for (int32_t x = 0; x < dim.x; ++x) {
                        const index_3d c{x, y, z};
                        if (active(c)) {
                            coordH[cursor++] = c;
                        }
                    }
                }
            }
        };
        const int32_t lowEnd = p.zFirst + (d > 0 ? std::min(r, p.zCount) : 0);
        const int32_t highBegin =
            p.zFirst + p.zCount - (d < nDev - 1 ? std::min(r, p.zCount) : 0);
        emitRange(p.zFirst, lowEnd);                   // boundary-low
        emitRange(lowEnd, std::max(lowEnd, highBegin));  // internal
        emitRange(highBegin, p.zFirst + p.zCount);     // boundary-high
        NEON_CHECK(cursor == p.nOwned, "egrid enumeration mismatch");
        // Ghosts: neighbours' boundary cells in the same (z,y,x) order.
        if (d > 0) {
            const PartInfo& pn = g.parts[static_cast<size_t>(d - 1)];
            emitGhostRange(pn.zFirst + pn.zCount - std::min(r, pn.zCount), pn.zFirst + pn.zCount);
        }
        if (d < nDev - 1) {
            const PartInfo& pn = g.parts[static_cast<size_t>(d + 1)];
            emitGhostRange(pn.zFirst, pn.zFirst + std::min(r, pn.zCount));
        }
        NEON_CHECK(cursor == p.nLocal(), "egrid ghost enumeration mismatch");
    }

    // Pass 3: connectivity. A neighbour resolves to an owned or ghost local
    // index of *this* partition, or -1 (inactive / outside / unreachable).
    for (int d = 0; d < nDev; ++d) {
        const PartInfo& p = g.parts[static_cast<size_t>(d)];
        const index_3d* coordH = g.coords.rawHost(d);
        int32_t*        connH = g.conn.rawHost(d);

        // Local lookup: global pitch -> local idx for owned + ghosts.
        std::unordered_map<size_t, int32_t> localIdx;
        localIdx.reserve(static_cast<size_t>(p.nLocal()) * 2);
        for (int32_t i = 0; i < p.nLocal(); ++i) {
            localIdx.emplace(hostKey(coordH[i]), i);
        }

        for (int32_t i = 0; i < p.nOwned; ++i) {
            const index_3d c = coordH[i];
            for (int s = 0; s < nPts; ++s) {
                const index_3d n = c + g.stencil.points()[static_cast<size_t>(s)];
                int32_t        v = -1;
                if (dim.contains(n)) {
                    auto it = localIdx.find(hostKey(n));
                    if (it != localIdx.end()) {
                        v = it->second;
                    }
                }
                connH[static_cast<size_t>(s) * static_cast<size_t>(p.nOwned) +
                      static_cast<size_t>(i)] = v;
            }
        }
    }

    g.conn.updateDev();
    g.coords.updateDev();
    g.lut.updateDev();
}

int64_t EGrid::minUnitsPerDev() const
{
    return std::max(1, 2 * haloRadius());
}

domain::CellWindow EGrid::cellWindow(int dev) const
{
    // Owned cells ascend (z, y, x) globally: the class ranges are
    // consecutive z-intervals. Ghost copies follow them in the buffer.
    const PartInfo& p = part(dev);
    return {p.nOwned, p.nLocal(), 0};
}

ESpan EGrid::span(int dev, DataView view) const
{
    const PartInfo& p = part(dev);
    switch (view) {
        case DataView::STANDARD:
            return ESpan({0, p.nOwned});
        case DataView::INTERNAL:
            return ESpan({p.nBdrLow, p.nOwned - p.nBdrLow - p.nBdrHigh});
        case DataView::BOUNDARY:
            return ESpan({0, p.nBdrLow}, {p.nOwned - p.nBdrHigh, p.nBdrHigh});
    }
    return {};
}

const EGrid::PartInfo& EGrid::part(int dev) const
{
    NEON_CHECK(dev >= 0 && dev < devCount(), "device index out of range");
    return impl<Impl>().parts[static_cast<size_t>(dev)];
}

size_t EGrid::activeCount() const
{
    return impl<Impl>().totalActive;
}

bool EGrid::isActive(const index_3d& g) const
{
    const Impl& i = impl<Impl>();
    if (!i.dim.contains(g) || i.hostLocal.empty()) {
        return false;
    }
    return i.hostLocal[i.dim.pitch(g)] != 0;
}

std::pair<int, int32_t> EGrid::localOf(const index_3d& g) const
{
    if (!isActive(g)) {
        return {-1, -1};
    }
    const Impl&    i = impl<Impl>();
    const uint64_t v = i.hostLocal[i.dim.pitch(g)] - 1;
    return {static_cast<int>(v >> 40), static_cast<int32_t>(v & ((1ull << 40) - 1))};
}

const set::MemSet<int32_t>& EGrid::connectivity() const
{
    return impl<Impl>().conn;
}

const set::MemSet<index_3d>& EGrid::coords() const
{
    return impl<Impl>().coords;
}

const set::MemSet<int16_t>& EGrid::offsetLut() const
{
    return impl<Impl>().lut;
}

int EGrid::lutRadius() const
{
    return impl<Impl>().lutR;
}

int EGrid::stencilPointCount() const
{
    return impl<Impl>().stencil.pointCount();
}

}  // namespace neon::egrid
