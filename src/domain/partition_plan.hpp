#pragma once
// PartitionPlan: an explicit 1-D decomposition of a grid's partition units
// (z-planes for dGrid/eGrid, block rows for bGrid) over the devices of a
// Backend. Grid constructors start from a static plan — dGrid from
// PartitionPlan::even(), eGrid/bGrid from balancedCuts() over their active
// cells; Repartitioner (src/repartition) produces measured-rate uneven
// plans, and Grid::repartition(plan) re-slices a live grid — migrating
// every registered field's cell data through the normal transfer path so
// the move itself is traced, faultable and costed (domain::GridOps).
//
// The migration geometry rides on one invariant all three grids share:
// every partition enumerates its *owned* units in ascending global order,
// so each device's owned data is one contiguous window of a global unit
// ordering and moving between two plans reduces to window-overlap segments.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace neon::domain {

struct PartitionPlan
{
    /// Partition units owned per device, in device order. The unit is
    /// grid-specific (dGrid/eGrid: z-planes, bGrid: block rows).
    std::vector<int64_t> unitsPerDev;

    [[nodiscard]] bool valid() const { return !unitsPerDev.empty(); }
    [[nodiscard]] int  devCount() const { return static_cast<int>(unitsPerDev.size()); }
    [[nodiscard]] int64_t total() const
    {
        int64_t t = 0;
        for (const int64_t u : unitsPerDev) {
            t += u;
        }
        return t;
    }

    /// Equal split of `total` units (remainder to the lowest-ranked
    /// devices): the dGrid constructor's plan.
    static PartitionPlan even(int64_t total, int nDev)
    {
        NEON_CHECK(nDev >= 1, "PartitionPlan: device count must be >= 1");
        NEON_CHECK(total >= nDev, "PartitionPlan: fewer units than devices");
        PartitionPlan plan;
        plan.unitsPerDev.assign(static_cast<size_t>(nDev), total / nDev);
        for (int64_t i = 0; i < total % nDev; ++i) {
            ++plan.unitsPerDev[static_cast<size_t>(i)];
        }
        return plan;
    }

    /// Deterministic proportional split: device d gets ~ total * w_d / sum(w),
    /// never below `minPerDev`, using largest-remainder rounding with
    /// device-order tie breaking (bitwise reproducible for equal inputs).
    static PartitionPlan fromWeights(int64_t total, const std::vector<double>& weights,
                                     int64_t minPerDev = 1)
    {
        const int nDev = static_cast<int>(weights.size());
        NEON_CHECK(nDev >= 1, "PartitionPlan: device count must be >= 1");
        NEON_CHECK(minPerDev >= 1, "PartitionPlan: minPerDev must be >= 1");
        NEON_CHECK(total >= static_cast<int64_t>(nDev) * minPerDev,
                   "PartitionPlan: not enough units to give every device its minimum");
        double sum = 0.0;
        for (const double w : weights) {
            NEON_CHECK(w >= 0.0, "PartitionPlan: weights must be non-negative");
            sum += w;
        }
        PartitionPlan plan;
        plan.unitsPerDev.assign(static_cast<size_t>(nDev), minPerDev);
        if (sum <= 0.0) {
            // Degenerate weights: fall back to even on top of the minima.
            int64_t left = total - static_cast<int64_t>(nDev) * minPerDev;
            for (int d = 0; left > 0; d = (d + 1) % nDev, --left) {
                ++plan.unitsPerDev[static_cast<size_t>(d)];
            }
            return plan;
        }
        // Largest-remainder apportionment of the units above the minima.
        const int64_t       spare = total - static_cast<int64_t>(nDev) * minPerDev;
        std::vector<double> exact(static_cast<size_t>(nDev), 0.0);
        std::vector<int64_t> floorU(static_cast<size_t>(nDev), 0);
        int64_t              assigned = 0;
        for (int d = 0; d < nDev; ++d) {
            exact[static_cast<size_t>(d)] =
                static_cast<double>(spare) * weights[static_cast<size_t>(d)] / sum;
            floorU[static_cast<size_t>(d)] = static_cast<int64_t>(exact[static_cast<size_t>(d)]);
            assigned += floorU[static_cast<size_t>(d)];
        }
        for (int64_t left = spare - assigned; left > 0; --left) {
            int    best = 0;
            double bestRem = -1.0;
            for (int d = 0; d < nDev; ++d) {
                const double rem = exact[static_cast<size_t>(d)] -
                                   static_cast<double>(floorU[static_cast<size_t>(d)]);
                if (rem > bestRem) {
                    bestRem = rem;
                    best = d;
                }
            }
            ++floorU[static_cast<size_t>(best)];
            exact[static_cast<size_t>(best)] = static_cast<double>(floorU[static_cast<size_t>(best)]);
        }
        for (int d = 0; d < nDev; ++d) {
            plan.unitsPerDev[static_cast<size_t>(d)] += floorU[static_cast<size_t>(d)];
        }
        return plan;
    }

    [[nodiscard]] std::string toString() const
    {
        std::ostringstream os;
        os << "plan[";
        for (size_t d = 0; d < unitsPerDev.size(); ++d) {
            os << (d == 0 ? "" : " ") << unitsPerDev[d];
        }
        os << "]";
        return os.str();
    }
};

/// Greedy weight-balanced cuts (the eGrid/bGrid constructor plans, with
/// active cells per unit as `weights`): every device but the last takes
/// units until its weight reaches sum(weights) / nDev, but never fewer than
/// `minUnits` and never so many that a later device would get fewer; the
/// last device takes the rest.
inline PartitionPlan balancedCuts(const std::vector<int64_t>& weights, int nDev, int64_t minUnits)
{
    const auto total = static_cast<int64_t>(weights.size());
    NEON_CHECK(nDev >= 1, "balancedCuts: device count must be >= 1");
    NEON_CHECK(total >= nDev * minUnits, "balancedCuts: fewer than minUnits units per device");
    int64_t sum = 0;
    for (const int64_t w : weights) {
        sum += w;
    }
    const double  target = static_cast<double>(sum) / nDev;
    PartitionPlan plan;
    int64_t       unit = 0;
    for (int d = 0; d < nDev - 1; ++d) {
        const int64_t maxUnits = total - unit - (nDev - d - 1) * minUnits;
        int64_t       acc = 0;
        int64_t       used = 0;
        while (used < maxUnits && (used < minUnits || static_cast<double>(acc) < target)) {
            acc += weights[static_cast<size_t>(unit++)];
            ++used;
        }
        plan.unitsPerDev.push_back(used);
    }
    plan.unitsPerDev.push_back(total - unit);
    return plan;
}

/// One contiguous cell move between the old and the new decomposition.
/// Offsets are relative to the *owned* window of each device's local cell
/// space; the field scales/offsets them per its layout (SegmentHalo-style).
struct MigrationSegment
{
    int     srcDev = 0;
    int     dstDev = 0;
    int64_t srcFirst = 0;  ///< cells into the source's owned window
    int64_t dstFirst = 0;  ///< cells into the destination's owned window
    int64_t count = 0;     ///< cells to move
};

/// Window-overlap segments between two ownership vectors expressed in a
/// common global *cell* ordering (`oldOwned[d]` / `newOwned[d]` = owned
/// cells per device; both must sum to the same total). Same-device segments
/// are included: the data still has to land in the freshly sized buffer.
inline std::vector<MigrationSegment> migrationSegments(const std::vector<int64_t>& oldOwned,
                                                       const std::vector<int64_t>& newOwned)
{
    int64_t oldTotal = 0;
    int64_t newTotal = 0;
    for (const int64_t c : oldOwned) {
        oldTotal += c;
    }
    for (const int64_t c : newOwned) {
        newTotal += c;
    }
    NEON_CHECK(oldTotal == newTotal, "migrationSegments: cell totals differ");
    std::vector<MigrationSegment> segs;
    int64_t                       srcStart = 0;
    for (size_t s = 0; s < oldOwned.size(); ++s) {
        const int64_t srcEnd = srcStart + oldOwned[s];
        int64_t       dstStart = 0;
        for (size_t t = 0; t < newOwned.size(); ++t) {
            const int64_t dstEnd = dstStart + newOwned[t];
            const int64_t lo = srcStart > dstStart ? srcStart : dstStart;
            const int64_t hi = srcEnd < dstEnd ? srcEnd : dstEnd;
            if (hi > lo) {
                segs.push_back({static_cast<int>(s), static_cast<int>(t), lo - srcStart,
                                lo - dstStart, hi - lo});
            }
            dstStart = dstEnd;
        }
        srcStart = srcEnd;
    }
    return segs;
}

/// Everything a field needs to re-home its data onto a re-sliced grid. The
/// grid fills this once per repartition and hands it to every registered
/// field (RegridClient::applyRegrid).
struct RegridInfo
{
    /// New per-device allocation size in cells (owned + halo/ghost).
    std::vector<size_t> newCellCounts;
    /// Cell offset of the owned window inside the OLD local buffer, in
    /// per-component units (dGrid: haloRadius * plane; eGrid/bGrid: 0).
    std::vector<int64_t> oldOwnedStart;
    /// Same for the NEW local buffer.
    std::vector<int64_t> newOwnedStart;
    /// Owned-window moves in cell units (see MigrationSegment).
    std::vector<MigrationSegment> migrate;
    /// False on fault recovery: the old buffers are gone (a device died);
    /// fields re-allocate and reset to the outside value, the recovery
    /// driver restores checkpointed state afterwards.
    bool migrateData = true;
};

/// What a grid keeps per registered field: the type-erased migration hook.
class RegridClient
{
   public:
    virtual ~RegridClient() = default;
    virtual void applyRegrid(const RegridInfo& info) = 0;
};

}  // namespace neon::domain
