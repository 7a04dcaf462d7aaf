#pragma once
// Online fault recovery (docs/robustness.md, "Self-healing recovery").
// SelfHealingRunner drives a skeleton pipeline step by step and survives
// permanent device loss through the state machine
//
//   fault -> checkpoint -> shrink -> repartition -> recompile -> resume
//
// The checkpoint leg is proactive: after every completed step the guarded
// fields snapshot their global state host-side (the engine's fail-stop
// abort stops a step at the faulting op, so a faulted step may have written
// some devices but not others — only the pre-step snapshot is consistent).
// On RuntimeError{DeviceLost} the runner clears the dying backend's abort
// latch, builds a survivor backend from the old spec minus the lost
// device, rebinds the grid (fields re-allocate on the survivors),
// invalidates every schedule-cache entry keyed on the old device count,
// rebuilds the containers, re-sequences, restores the snapshot and resumes
// at the faulted step. The differential battery in tests/repartition proves
// the resumed trajectory bitwise-equal to an unfaulted run.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/index3d.hpp"
#include "core/log.hpp"
#include "domain/partition_plan.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"
#include "skeleton/schedule_cache.hpp"
#include "skeleton/skeleton.hpp"
#include "sys/fault.hpp"

namespace neon::repartition {

/// Type-erased per-field checkpoint/restore hook. Captures the field by
/// value (fields are shared_ptr handles, so the snapshot always follows the
/// live storage, including across a rebind that re-allocated it). The
/// snapshot is a dense global array indexed by (cell coordinate, component)
/// — decomposition-independent, so it restores onto any device count.
class FieldGuard
{
   public:
    template <typename FieldT>
    explicit FieldGuard(FieldT field)
    {
        using T = typename FieldT::Type;
        const index_3d dim = field.grid().dim();
        const auto     card = static_cast<int64_t>(field.cardinality());
        const auto     pitchY = static_cast<int64_t>(dim.x);
        const int64_t  pitchZ = static_cast<int64_t>(dim.x) * dim.y;
        auto flat = [card, pitchY, pitchZ](const index_3d& gc, int c) {
            return static_cast<size_t>(
                (static_cast<int64_t>(gc.z) * pitchZ + static_cast<int64_t>(gc.y) * pitchY +
                 gc.x) *
                    card +
                c);
        };
        auto snapshot = std::make_shared<std::vector<T>>();
        const size_t slots = static_cast<size_t>(dim.size()) * static_cast<size_t>(card);

        mCheckpoint = [field, snapshot, flat, slots] {
            if (field.grid().backend().isDryRun()) {
                return;
            }
            field.updateHost();
            snapshot->assign(slots, T{});
            field.forEachActiveHost(
                [&](const index_3d& gc, int c, T& v) { (*snapshot)[flat(gc, c)] = v; });
        };
        mRestore = [field, snapshot, flat] {
            if (field.grid().backend().isDryRun() || snapshot->empty()) {
                return;
            }
            field.forEachActiveHost(
                [&](const index_3d& gc, int c, T& v) { v = (*snapshot)[flat(gc, c)]; });
            field.updateDev();
        };
    }

    void checkpoint() const { mCheckpoint(); }
    void restore() const { mRestore(); }

   private:
    std::function<void()> mCheckpoint;
    std::function<void()> mRestore;
};

/// One completed recovery, as returned by SelfHealingRunner::run.
struct RecoveryEvent
{
    int lostDevice = -1;         ///< old-numbering index of the dead device
    int atStep = -1;             ///< step whose run/sync raised the fault
    int lastCompletedStep = -1;  ///< the snapshot the runner restored
    int devicesBefore = 0;
    int devicesAfter = 0;
    /// Old-geometry recipes dropped from the schedule cache.
    size_t cacheEntriesInvalidated = 0;

    [[nodiscard]] std::string toString() const
    {
        return "recovered dev" + std::to_string(lostDevice) + " at step " +
               std::to_string(atStep) + " (" + std::to_string(devicesBefore) + " -> " +
               std::to_string(devicesAfter) + " devices, restored step " +
               std::to_string(lastCompletedStep) + ", " +
               std::to_string(cacheEntriesInvalidated) + " cache entries invalidated)";
    }
};

/// Default survivor-spec builder: drop the lost device (device indices
/// above it shift down by one, speed factors follow), consume every
/// PermanentDeviceLoss rule aimed at it, and rebase the remaining fault
/// rules' run targets onto the survivor backend's fresh run-id space (the
/// resumed execution re-runs the faulted step as run `0`, assuming the
/// runner's one-run-per-step cadence).
inline set::BackendSpec survivorSpec(set::BackendSpec spec, int lostDevice, int faultedStep)
{
    NEON_CHECK(spec.nDevices >= 2, "survivorSpec: cannot shrink below one device");
    spec.nDevices -= 1;
    if (!spec.speedFactors.empty() && lostDevice < static_cast<int>(spec.speedFactors.size())) {
        spec.speedFactors.erase(spec.speedFactors.begin() + lostDevice);
    }
    sys::FaultPlan remapped(spec.faults.seed);
    for (sys::FaultSpec fs : spec.faults.specs) {
        if (fs.device == lostDevice) {
            continue;  // rules on the dead device can never fire again
        }
        if (fs.device > lostDevice) {
            fs.device -= 1;
        }
        if (fs.kind == sys::FaultKind::PermanentDeviceLoss) {
            if (fs.device < 0) {
                continue;  // "any device" loss: consumed by this recovery
            }
            if (fs.run >= 0) {
                fs.run -= faultedStep;
                if (fs.run < 0) {
                    continue;  // would have fired in the completed prefix
                }
            }
        }
        remapped.add(std::move(fs));
    }
    spec.faults = std::move(remapped);
    return spec;
}

/// Step-at-a-time pipeline driver with checkpointing and device-loss
/// recovery. `Grid` is any grid exposing the repartition surface
/// (currentPlan / repartition / rebindBackend): DGrid, EGrid, BGrid.
template <typename Grid>
class SelfHealingRunner
{
   public:
    SelfHealingRunner(Grid grid, std::vector<set::Container> ops,
                      skeleton::SequenceOptions options = {})
        : mGrid(std::move(grid)), mOps(std::move(ops)), mOptions(std::move(options))
    {
        resequence();
    }

    /// Register a field for checkpoint/restore. Every field the pipeline
    /// writes must be guarded, or recovery resumes from stale data.
    template <typename FieldT>
    void guardField(FieldT field)
    {
        mGuards.emplace_back(std::move(field));
    }

    /// Override survivor-spec construction (multi-loss fuzz plans with
    /// custom run remapping). Signature: (oldSpec, lostDevice, faultedStep).
    void setSurvivorHook(std::function<set::BackendSpec(set::BackendSpec, int, int)> hook)
    {
        mSurvivorHook = std::move(hook);
    }

    /// Run the pipeline until `steps` total steps completed (cumulative
    /// across calls), recovering from permanent device losses along the
    /// way. Returns the recoveries performed. Non-DeviceLost RuntimeErrors
    /// propagate — shrinking the device set cannot fix a transfer retry
    /// budget or a timeout.
    std::vector<RecoveryEvent> run(int steps)
    {
        std::vector<RecoveryEvent> events;
        if (mCompleted == 0 && !mCheckpointed) {
            checkpointAll();  // pre-step-0 state, restorable like any other
            mCheckpointed = true;
        }
        while (mCompleted < steps) {
            try {
                mCompiled.run();
                mSkeleton->sync();
                ++mCompleted;
                checkpointAll();
            } catch (const RuntimeError& e) {
                if (e.info.kind != RuntimeError::Kind::DeviceLost) {
                    throw;
                }
                events.push_back(recover(e));
            }
        }
        return events;
    }

    /// Rebalance at a step boundary: migrate to `plan`, rebuild the
    /// containers against the new geometry and re-sequence (same backend,
    /// so the skeleton object is reused; the schedule cache misses onto the
    /// new span sizes by key construction).
    void repartition(const domain::PartitionPlan& plan)
    {
        mGrid.backend().sync();
        mGrid.repartition(plan);
        for (auto& c : mOps) {
            c.rebuild();
        }
        mCompiled = mSkeleton->sequence(mOps, mOptions);
    }

    [[nodiscard]] Grid&               grid() { return mGrid; }
    [[nodiscard]] skeleton::Skeleton& skeleton() { return *mSkeleton; }
    [[nodiscard]] int                 completedSteps() const { return mCompleted; }

   private:
    void resequence()
    {
        mSkeleton.emplace(mGrid.backend());
        mCompiled = mSkeleton->sequence(mOps, mOptions);
    }

    void checkpointAll()
    {
        for (const FieldGuard& g : mGuards) {
            g.checkpoint();
        }
    }

    RecoveryEvent recover(const RuntimeError& e)
    {
        RecoveryEvent ev;
        ev.lostDevice = e.info.device;
        ev.atStep = mCompleted;
        ev.lastCompletedStep = mCompleted - 1;

        set::Backend dying = mGrid.backend();  // keep a handle past the rebind
        ev.devicesBefore = dying.devCount();
        NEON_CHECK(ev.devicesBefore >= 2,
                   "SelfHealingRunner: device lost with no survivor to recover onto");
        NEON_CHECK(ev.lostDevice >= 0 && ev.lostDevice < ev.devicesBefore,
                   "SelfHealingRunner: fault carries no usable device attribution");
        dying.engine().clearAbort();

        const set::BackendSpec spec =
            mSurvivorHook ? mSurvivorHook(dying.spec(), ev.lostDevice, ev.atStep)
                          : survivorSpec(dying.spec(), ev.lostDevice, ev.atStep);
        set::Backend survivor = set::Backend::make(spec);
        ev.devicesAfter = survivor.devCount();

        mGrid.rebindBackend(std::move(survivor));
        ev.cacheEntriesInvalidated =
            skeleton::ScheduleCache::instance().invalidateDevCount(ev.devicesBefore);
        for (auto& c : mOps) {
            c.rebuild();
        }
        for (const FieldGuard& g : mGuards) {
            g.restore();
        }
        resequence();
        log::info("self-healing: ", ev.toString());
        return ev;
    }

    Grid                                                          mGrid;
    std::vector<set::Container>                                   mOps;
    skeleton::SequenceOptions                                     mOptions;
    std::optional<skeleton::Skeleton>                             mSkeleton;
    skeleton::CompiledSchedule                                    mCompiled;
    std::vector<FieldGuard>                                       mGuards;
    std::function<set::BackendSpec(set::BackendSpec, int, int)>   mSurvivorHook;
    int                                                           mCompleted = 0;
    bool                                                          mCheckpointed = false;
};

}  // namespace neon::repartition
