#pragma once
// GridBase / GridOps: the shared core every grid builds on (paper §IV-C:
// "the Domain level hides data partitioning behind interchangeable grids").
//
//   - GridBase owns the state all grids share — name, backend, bounding
//     dim, stencil union, halo radius, the current PartitionPlan and the
//     precomputed HaloSegment lists — behind one shared_ptr. A concrete
//     grid derives its Impl from GridBase::BaseImpl (single allocation,
//     accessed via impl<Derived>()) and adds only its partition-specific
//     tables.
//   - GridOps<Derived> is the CRTP base every grid derives from. It
//     provides the factory surface (newField / newContainer), so every
//     freshly built field type is checked against FieldConcept at compile
//     time, and the one regrid path (currentPlan / repartition /
//     rebindBackend) over three per-grid partition hooks.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/index3d.hpp"
#include "core/stencil.hpp"
#include "core/types.hpp"
#include "domain/concepts.hpp"
#include "domain/halo.hpp"
#include "domain/partition_plan.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"

namespace neon::domain {

class GridBase
{
   public:
    [[nodiscard]] bool valid() const { return mBase != nullptr; }

    [[nodiscard]] int                devCount() const { return mBase->backend.devCount(); }
    [[nodiscard]] const index_3d&    dim() const { return mBase->dim; }
    [[nodiscard]] const Stencil&     stencil() const { return mBase->stencil; }
    [[nodiscard]] int                haloRadius() const { return mBase->haloRadius; }
    [[nodiscard]] set::Backend&      backend() const { return mBase->backend; }
    [[nodiscard]] const std::string& gridName() const { return mBase->name; }

    /// Per-device halo segments (cell units); fields hand these to
    /// SegmentHalo verbatim.
    [[nodiscard]] const std::vector<std::vector<HaloSegment>>& haloSegments() const
    {
        return mBase->haloSegments;
    }

    /// Register a field's migration hook (called by FieldBase::initCore).
    /// Weak: fields own the grid, never the reverse. Expired registrations
    /// are dropped first: a dead field's weak reference would keep its
    /// control block allocated, so a grid that outlives many short-lived
    /// fields (one cgSolve per call) would grow without bound.
    void registerRegridClient(const std::weak_ptr<RegridClient>& client) const
    {
        std::erase_if(mBase->fields, [](const auto& f) { return f.expired(); });
        mBase->fields.push_back(client);
    }

    /// Hand a repartition's RegridInfo to every live registered field
    /// (expired registrations are pruned). Called by Grid::repartition
    /// after its tables are re-sliced, so fields see the new geometry.
    void applyRegridToFields(const RegridInfo& info) const
    {
        std::erase_if(mBase->fields, [](const auto& f) { return f.expired(); });
        // Pin the live fields first: a migration may build or drop fields.
        std::vector<std::shared_ptr<RegridClient>> live;
        for (const auto& f : mBase->fields) {
            live.push_back(f.lock());
        }
        for (const auto& client : live) {
            client->applyRegrid(info);
        }
    }

   protected:
    /// Shared slice of a grid's Impl; concrete grids derive from it.
    struct BaseImpl
    {
        std::string  name;
        set::Backend backend;
        index_3d     dim;
        Stencil      stencil;
        int          haloRadius = 1;
        /// Current decomposition (GridOps::slice keeps it in step with the
        /// concrete grid's partition tables).
        PartitionPlan plan;
        /// haloSegments[dev]: segments device `dev` sends (built by the
        /// concrete grid's constructor).
        std::vector<std::vector<HaloSegment>> haloSegments;

        /// Migration hooks of the fields built on this grid (weak — see
        /// registerRegridClient).
        std::vector<std::weak_ptr<RegridClient>> fields;

        virtual ~BaseImpl() = default;
    };

    GridBase() = default;
    explicit GridBase(std::shared_ptr<BaseImpl> base) : mBase(std::move(base)) {}

    /// Typed access to the derived Impl (the grid knows its concrete type).
    template <typename ImplT>
    [[nodiscard]] ImplT& impl() const
    {
        return static_cast<ImplT&>(*mBase);
    }

    std::shared_ptr<BaseImpl> mBase;
};

/// One device's field-buffer geometry under the current decomposition, in
/// the grid's cell units: what RegridInfo needs to size the new buffers and
/// move the owned windows.
struct CellWindow
{
    int64_t owned = 0;       ///< owned cells (the migrated window)
    int64_t allocated = 0;   ///< buffer cells: owned + halo/ghost
    int64_t ownedStart = 0;  ///< offset of the owned window in the buffer
};

/// CRTP base of every grid: the factory surface and the regrid path.
/// `Derived` must expose `template FieldType<T>` constructible as
/// FieldType<T>(derived, name, card, outside, layout), plus
/// `partitionUnits()` and `minUnitsPerDev()`, and give GridOps (a friend)
/// three partition hooks:
///   - `initialCuts()`: the plan its constructor applies for the current
///     device count (also the rebindBackend plan);
///   - `applyUnits(unitsPerDev)`: rebuild the partition tables for a plan;
///   - `cellWindow(dev)`: device `dev`'s CellWindow under those tables.
template <typename Derived>
class GridOps : public GridBase
{
   public:
    // Deduced return type (Derived::FieldType<T>): Derived is incomplete
    // while this base is being instantiated inside its own definition.
    template <typename T>
    [[nodiscard]] auto newField(std::string name, int cardinality, T outsideValue,
                                MemLayout layout = MemLayout::structOfArrays) const
    {
        using Field = typename Derived::template FieldType<T>;
        static_assert(FieldConcept<Field>,
                      "Grid::FieldType<T> must satisfy neon::domain::FieldConcept "
                      "(see docs/domain.md)");
        return Field(self(), std::move(name), cardinality, outsideValue, layout);
    }

    /// Wrap a loading lambda into a Container bound to this grid.
    template <typename LoadingLambda>
    [[nodiscard]] set::Container newContainer(std::string name, LoadingLambda&& fn) const
    {
        return set::Container::factory(std::move(name), self(),
                                       std::forward<LoadingLambda>(fn));
    }

    // --- adaptive repartitioning (docs/robustness.md) -----------------------
    /// Current decomposition in partition units (Derived::partitionUnits()).
    [[nodiscard]] PartitionPlan currentPlan() const { return mBase->plan; }

    /// Re-slice the decomposition in place and migrate every registered
    /// field through the transfer path. Containers built on this grid must
    /// be rebuild()-ed (and skeletons re-sequenced) afterwards — enforced
    /// via Backend::geometryEpoch.
    void repartition(const PartitionPlan& plan)
    {
        NEON_CHECK(plan.devCount() == devCount(),
                   gridName() + "::repartition: plan device count != grid device count");
        NEON_CHECK(plan.total() == self().partitionUnits(),
                   gridName() + "::repartition: plan must cover every partition unit");
        for (const int64_t u : plan.unitsPerDev) {
            NEON_CHECK(u >= self().minUnitsPerDev(),
                       gridName() + "::repartition: a device gets fewer than minUnitsPerDev()");
        }
        const std::vector<CellWindow> before = windows();
        slice(plan);
        regridFields(before, true);
    }

    /// Online-recovery rebind: move this grid onto `survivor` (fewer
    /// devices), re-slice with the constructor's cuts and re-allocate the
    /// fields WITHOUT migrating data (the lost device's buffers are gone);
    /// the recovery driver restores checkpointed state afterwards.
    void rebindBackend(set::Backend survivor)
    {
        mBase->backend = std::move(survivor);
        slice(self().initialCuts());
        regridFields({}, false);
    }

   protected:
    /// Adopt `plan` and rebuild the partition tables for it: the grid
    /// constructors' last step, and the re-slice step of the regrid path.
    void slice(PartitionPlan plan)
    {
        mBase->plan = std::move(plan);
        self().applyUnits(mBase->plan.unitsPerDev);
    }

   private:
    [[nodiscard]] const Derived& self() const { return static_cast<const Derived&>(*this); }
    [[nodiscard]] Derived&       self() { return static_cast<Derived&>(*this); }

    [[nodiscard]] std::vector<CellWindow> windows() const
    {
        std::vector<CellWindow> w;
        for (int d = 0; d < devCount(); ++d) {
            w.push_back(self().cellWindow(d));
        }
        return w;
    }

    /// Hand every registered field the new geometry (and, when `migrate`,
    /// the owned-window moves from `before`), then bump the geometry epoch.
    void regridFields(const std::vector<CellWindow>& before, bool migrate)
    {
        RegridInfo           info;
        std::vector<int64_t> newOwned;
        for (const CellWindow& w : windows()) {
            info.newCellCounts.push_back(static_cast<size_t>(w.allocated));
            info.newOwnedStart.push_back(w.ownedStart);
            newOwned.push_back(w.owned);
        }
        info.migrateData = migrate;
        if (migrate) {
            std::vector<int64_t> oldOwned;
            for (const CellWindow& w : before) {
                oldOwned.push_back(w.owned);
                info.oldOwnedStart.push_back(w.ownedStart);
            }
            info.migrate = migrationSegments(oldOwned, newOwned);
        } else {
            info.oldOwnedStart = info.newOwnedStart;
        }
        applyRegridToFields(info);
        backend().noteGeometryChange();
    }
};

}  // namespace neon::domain
