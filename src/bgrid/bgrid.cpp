#include "bgrid/bgrid.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/error.hpp"

namespace neon::bgrid {

namespace {
int32_t ceilDiv(int32_t a, int32_t b)
{
    return (a + b - 1) / b;
}
}  // namespace

struct BGrid::Impl : domain::GridBase::BaseImpl
{
    int      blockDim = 4;
    int      blockVol = 64;
    index_3d blockGrid;  ///< bounding box in blocks
    size_t   totalActive = 0;

    std::vector<PartInfo> parts;

    /// Global per-block activity masks (bounding box, host-side; bit
    /// ((z%bd)*bd + y%bd)*bd + x%bd).
    std::vector<uint64_t> blockMasks;
    /// Global block pitch -> (dev, owned local block); dev*2^40 + idx + 1,
    /// 0 means inactive block.
    std::vector<uint64_t> hostBlockLocal;
    /// Per device: prefix sums of active-cell counts over local blocks
    /// (size nLocal + 1) — constant-time span cell counts, dry-run safe.
    std::vector<std::vector<int64_t>> activePrefix;

    /// Kept for repartition/rebind: active blocks per block row in (by, bx)
    /// order and the per-row active-cell totals, so applyUnits can
    /// re-derive every table for any row cuts.
    std::vector<std::vector<size_t>> rowBlocks;
    std::vector<int64_t>             rowActive;

    set::MemSet<uint64_t> masks;    ///< activity mask per local block (owned+ghost)
    set::MemSet<int32_t>  ngh;      ///< [ownedBlock][27] -> local block or -1
    set::MemSet<index_3d> origins;  ///< global origin cell per local block

    [[nodiscard]] uint64_t maskOf(const index_3d& g) const
    {
        const index_3d bc{g.x / blockDim, g.y / blockDim, g.z / blockDim};
        return blockMasks[blockGrid.pitch(bc)];
    }

    [[nodiscard]] int voxelOf(const index_3d& g) const
    {
        return ((g.z % blockDim) * blockDim + (g.y % blockDim)) * blockDim + (g.x % blockDim);
    }
};

BGrid::BGrid(set::Backend backend, index_3d dim,
             const std::function<bool(const index_3d&)>& active, Stencil stencil, int blockDim)
{
    NEON_CHECK(backend.valid(), set::Backend::emptyError("BGrid"));
    NEON_CHECK(dim.x > 0 && dim.y > 0 && dim.z > 0, "grid dimensions must be positive");
    NEON_CHECK(blockDim >= 2 && blockDim <= 4,
               "bgrid block size must be in [2, 4] (one 64-bit mask per block)");
    auto  impl = std::make_shared<Impl>();
    Impl& g = *impl;
    g.name = "bGrid";
    g.backend = std::move(backend);
    g.dim = dim;
    g.stencil = std::move(stencil);
    g.haloRadius = std::max(1, g.stencil.zRadius());
    NEON_CHECK(g.stencil.radius() <= blockDim,
               "bgrid requires stencil radius <= block size (reads cross at most one block)");
    g.blockDim = blockDim;
    g.blockVol = blockDim * blockDim * blockDim;
    g.blockGrid = {ceilDiv(dim.x, blockDim), ceilDiv(dim.y, blockDim), ceilDiv(dim.z, blockDim)};

    // Pass 1: per-block activity masks over the bounding box.
    g.blockMasks.assign(g.blockGrid.size(), 0);
    for (int32_t z = 0; z < dim.z; ++z) {
        for (int32_t y = 0; y < dim.y; ++y) {
            for (int32_t x = 0; x < dim.x; ++x) {
                const index_3d c{x, y, z};
                if (active(c)) {
                    const index_3d bc{x / blockDim, y / blockDim, z / blockDim};
                    g.blockMasks[g.blockGrid.pitch(bc)] |= uint64_t{1} << g.voxelOf(c);
                    ++g.totalActive;
                }
            }
        }
    }

    // Row structures: active blocks per block row in (by, bx) order.
    g.rowBlocks.assign(static_cast<size_t>(g.blockGrid.z), {});
    g.rowActive.assign(static_cast<size_t>(g.blockGrid.z), 0);
    for (int32_t bz = 0; bz < g.blockGrid.z; ++bz) {
        for (int32_t by = 0; by < g.blockGrid.y; ++by) {
            for (int32_t bx = 0; bx < g.blockGrid.x; ++bx) {
                const size_t bp = g.blockGrid.pitch({bx, by, bz});
                if (g.blockMasks[bp] != 0) {
                    g.rowBlocks[static_cast<size_t>(bz)].push_back(bp);
                    g.rowActive[static_cast<size_t>(bz)] +=
                        std::popcount(g.blockMasks[bp]);
                }
            }
        }
    }

    mBase = std::move(impl);
    slice(initialCuts());
}

domain::PartitionPlan BGrid::initialCuts() const
{
    // Partition block rows, balancing active cells like eGrid's plane cuts.
    return domain::balancedCuts(impl<Impl>().rowActive, devCount(), minUnitsPerDev());
}

void BGrid::applyUnits(const std::vector<int64_t>& units)
{
    Impl&      g = impl<Impl>();
    const int  nDev = static_cast<int>(units.size());
    const int  blockDim = g.blockDim;
    const bool dry = g.backend.isDryRun();

    // Per-partition block counts.
    g.parts.assign(static_cast<size_t>(nDev), {});
    auto rowSize = [&](int32_t bz) {
        return static_cast<int32_t>(g.rowBlocks[static_cast<size_t>(bz)].size());
    };
    int32_t firstRow = 0;
    for (int d = 0; d < nDev; ++d) {
        PartInfo& p = g.parts[static_cast<size_t>(d)];
        p.bzFirst = firstRow;
        p.bzCount = static_cast<int32_t>(units[static_cast<size_t>(d)]);
        firstRow += p.bzCount;
        p.nOwned = 0;
        for (int32_t bz = p.bzFirst; bz < p.bzFirst + p.bzCount; ++bz) {
            p.nOwned += rowSize(bz);
        }
        const int32_t bzLast = p.bzFirst + p.bzCount - 1;
        p.nBdrLow = d > 0 ? rowSize(p.bzFirst) : 0;
        p.nBdrHigh = d < nDev - 1 ? rowSize(bzLast) : 0;
        p.nGhostLow = d > 0 ? rowSize(p.bzFirst - 1) : 0;
        p.nGhostHigh = d < nDev - 1 ? rowSize(bzLast + 1) : 0;
    }

    // Halo segments: the boundary-block classes are contiguous, so one
    // whole-block segment per neighbour (active blocks only — an inactive
    // block is never stored, hence never sent).
    const auto vol = static_cast<int64_t>(g.blockVol);
    g.haloSegments.assign(static_cast<size_t>(nDev), {});
    for (int d = 0; d < nDev; ++d) {
        const PartInfo& p = g.parts[static_cast<size_t>(d)];
        auto&           segs = g.haloSegments[static_cast<size_t>(d)];
        if (d < nDev - 1) {
            const PartInfo& pn = g.parts[static_cast<size_t>(d + 1)];
            segs.push_back({d + 1, 1, static_cast<int64_t>(p.nOwned - p.nBdrHigh) * vol,
                            static_cast<int64_t>(pn.nOwned) * vol,
                            static_cast<int64_t>(p.nBdrHigh) * vol});
        }
        if (d > 0) {
            const PartInfo& pn = g.parts[static_cast<size_t>(d - 1)];
            segs.push_back({d - 1, 0, 0,
                            static_cast<int64_t>(pn.nOwned + pn.nGhostLow) * vol,
                            static_cast<int64_t>(p.nBdrLow) * vol});
        }
    }

    // Local block lists in class order, the owned-block map and the
    // active-cell prefix sums (all host-side; valid in dry-run too).
    std::vector<std::vector<size_t>> localBlocks(static_cast<size_t>(nDev));
    g.hostBlockLocal.assign(g.blockGrid.size(), 0);
    g.activePrefix.assign(static_cast<size_t>(nDev), {});
    for (int d = 0; d < nDev; ++d) {
        const PartInfo& p = g.parts[static_cast<size_t>(d)];
        auto&           blocks = localBlocks[static_cast<size_t>(d)];
        blocks.reserve(static_cast<size_t>(p.nLocal()));
        const int32_t bzLast = p.bzFirst + p.bzCount - 1;
        auto          appendRow = [&](int32_t bz) {
            const auto& row = g.rowBlocks[static_cast<size_t>(bz)];
            blocks.insert(blocks.end(), row.begin(), row.end());
        };
        // Owned classes: [boundary-low][internal][boundary-high].
        if (d > 0) {
            appendRow(p.bzFirst);
        }
        for (int32_t bz = p.bzFirst + (d > 0 ? 1 : 0); bz <= bzLast - (d < nDev - 1 ? 1 : 0);
             ++bz) {
            appendRow(bz);
        }
        if (d < nDev - 1) {
            appendRow(bzLast);
        }
        NEON_CHECK(static_cast<int32_t>(blocks.size()) == p.nOwned,
                   "bgrid block enumeration mismatch");
        for (int32_t i = 0; i < p.nOwned; ++i) {
            g.hostBlockLocal[blocks[static_cast<size_t>(i)]] =
                (static_cast<uint64_t>(d) << 40) + static_cast<uint64_t>(i) + 1;
        }
        // Ghosts: neighbours' boundary rows in the same (by, bx) order.
        if (d > 0) {
            appendRow(p.bzFirst - 1);
        }
        if (d < nDev - 1) {
            appendRow(bzLast + 1);
        }
        NEON_CHECK(static_cast<int32_t>(blocks.size()) == p.nLocal(),
                   "bgrid ghost enumeration mismatch");

        auto& prefix = g.activePrefix[static_cast<size_t>(d)];
        prefix.assign(static_cast<size_t>(p.nLocal()) + 1, 0);
        for (int32_t i = 0; i < p.nLocal(); ++i) {
            prefix[static_cast<size_t>(i) + 1] =
                prefix[static_cast<size_t>(i)] +
                std::popcount(g.blockMasks[blocks[static_cast<size_t>(i)]]);
        }
    }

    // Allocate structure tables (fake allocations in dry-run — the bytes
    // still count against device capacity).
    {
        std::vector<size_t> maskCounts, nghCounts, originCounts;
        for (int d = 0; d < nDev; ++d) {
            const PartInfo& p = g.parts[static_cast<size_t>(d)];
            maskCounts.push_back(static_cast<size_t>(p.nLocal()));
            originCounts.push_back(static_cast<size_t>(p.nLocal()));
            nghCounts.push_back(static_cast<size_t>(p.nOwned) * 27);
        }
        g.masks = set::MemSet<uint64_t>(g.backend, "bgrid.masks", maskCounts);
        g.origins = set::MemSet<index_3d>(g.backend, "bgrid.origins", originCounts);
        g.ngh = set::MemSet<int32_t>(g.backend, "bgrid.ngh", nghCounts);
    }
    if (dry) {
        return;
    }

    // Fill the device tables: masks, origins, 27-direction connectivity.
    for (int d = 0; d < nDev; ++d) {
        const PartInfo& p = g.parts[static_cast<size_t>(d)];
        const auto&     blocks = localBlocks[static_cast<size_t>(d)];
        uint64_t*       maskH = g.masks.rawHost(d);
        index_3d*       originH = g.origins.rawHost(d);
        int32_t*        nghH = g.ngh.rawHost(d);

        std::unordered_map<size_t, int32_t> localIdx;
        localIdx.reserve(blocks.size() * 2);
        for (int32_t i = 0; i < p.nLocal(); ++i) {
            const size_t bp = blocks[static_cast<size_t>(i)];
            localIdx.emplace(bp, i);
            maskH[i] = g.blockMasks[bp];
            const index_3d bc = g.blockGrid.fromPitch(bp);
            originH[i] = {bc.x * blockDim, bc.y * blockDim, bc.z * blockDim};
        }
        for (int32_t i = 0; i < p.nOwned; ++i) {
            const index_3d bc = g.blockGrid.fromPitch(blocks[static_cast<size_t>(i)]);
            for (int32_t sz = -1; sz <= 1; ++sz) {
                for (int32_t sy = -1; sy <= 1; ++sy) {
                    for (int32_t sx = -1; sx <= 1; ++sx) {
                        const int32_t  dir = ((sz + 1) * 3 + (sy + 1)) * 3 + (sx + 1);
                        const index_3d nb{bc.x + sx, bc.y + sy, bc.z + sz};
                        int32_t        v = -1;
                        if (g.blockGrid.contains(nb)) {
                            auto it = localIdx.find(g.blockGrid.pitch(nb));
                            if (it != localIdx.end()) {
                                v = it->second;
                            }
                        }
                        nghH[static_cast<size_t>(i) * 27 + static_cast<size_t>(dir)] = v;
                    }
                }
            }
        }
    }

    g.masks.updateDev();
    g.origins.updateDev();
    g.ngh.updateDev();
}

int64_t BGrid::minUnitsPerDev() const
{
    // Interior devices need >= 2 rows so the boundary-low and boundary-high
    // classes are disjoint.
    return devCount() > 1 ? 2 : 1;
}

domain::CellWindow BGrid::cellWindow(int dev) const
{
    // Every stored block contributes blockVol buffer cells, active or not,
    // so the migration unit is blocks * vol (owned blocks ascend (bz, by,
    // bx) globally).
    const PartInfo& p = part(dev);
    const auto      vol = static_cast<int64_t>(impl<Impl>().blockVol);
    return {p.nOwned * vol, p.nLocal() * vol, 0};
}

BSpan BGrid::span(int dev, DataView view) const
{
    const Impl&     g = impl<Impl>();
    const PartInfo& p = part(dev);
    const auto&     prefix = g.activePrefix[static_cast<size_t>(dev)];
    const uint64_t* masks = g.masks.rawDev(dev);
    auto            cellsIn = [&](int32_t a, int32_t b) {
        return static_cast<size_t>(prefix[static_cast<size_t>(b)] -
                                   prefix[static_cast<size_t>(a)]);
    };
    switch (view) {
        case DataView::STANDARD:
            return BSpan(masks, g.blockDim, cellsIn(0, p.nOwned), {0, p.nOwned});
        case DataView::INTERNAL:
            return BSpan(masks, g.blockDim, cellsIn(p.nBdrLow, p.nOwned - p.nBdrHigh),
                         {p.nBdrLow, p.nOwned - p.nBdrLow - p.nBdrHigh});
        case DataView::BOUNDARY:
            return BSpan(masks, g.blockDim,
                         cellsIn(0, p.nBdrLow) + cellsIn(p.nOwned - p.nBdrHigh, p.nOwned),
                         {0, p.nBdrLow}, {p.nOwned - p.nBdrHigh, p.nBdrHigh});
    }
    return {};
}

BSpan BGrid::hostSpan(int dev) const
{
    const Impl&     g = impl<Impl>();
    const PartInfo& p = part(dev);
    const auto&     prefix = g.activePrefix[static_cast<size_t>(dev)];
    const size_t    cells = static_cast<size_t>(prefix[static_cast<size_t>(p.nOwned)] - prefix[0]);
    return BSpan(g.masks.rawHost(dev), g.blockDim, cells, {0, p.nOwned});
}

const BGrid::PartInfo& BGrid::part(int dev) const
{
    NEON_CHECK(dev >= 0 && dev < devCount(), "device index out of range");
    return impl<Impl>().parts[static_cast<size_t>(dev)];
}

size_t BGrid::activeCount() const
{
    return impl<Impl>().totalActive;
}

int BGrid::blockSize() const
{
    return impl<Impl>().blockDim;
}

int BGrid::blockVolume() const
{
    return impl<Impl>().blockVol;
}

const index_3d& BGrid::blockGridDim() const
{
    return impl<Impl>().blockGrid;
}

bool BGrid::isActive(const index_3d& g) const
{
    const Impl& i = impl<Impl>();
    if (!i.dim.contains(g)) {
        return false;
    }
    return (i.maskOf(g) >> i.voxelOf(g)) & 1;
}

std::pair<int, int64_t> BGrid::localOf(const index_3d& g) const
{
    if (!isActive(g)) {
        return {-1, -1};
    }
    const Impl&    i = impl<Impl>();
    const index_3d bc{g.x / i.blockDim, g.y / i.blockDim, g.z / i.blockDim};
    const uint64_t enc = i.hostBlockLocal[i.blockGrid.pitch(bc)];
    NEON_CHECK(enc != 0, "active cell in unregistered block");
    const int     dev = static_cast<int>((enc - 1) >> 40);
    const int64_t block = static_cast<int64_t>((enc - 1) & ((1ull << 40) - 1));
    return {dev, block * i.blockVol + i.voxelOf(g)};
}

const set::MemSet<uint64_t>& BGrid::masks() const
{
    return impl<Impl>().masks;
}

const set::MemSet<int32_t>& BGrid::blockNgh() const
{
    return impl<Impl>().ngh;
}

const set::MemSet<index_3d>& BGrid::origins() const
{
    return impl<Impl>().origins;
}

}  // namespace neon::bgrid
