#pragma once
// Container: the multi-GPU kernel concept (paper §IV-B2). A Container wraps
// a *loading lambda* which, given a Loader, returns the *compute lambda*
// operating on partition local views. Run once in parsing mode it yields the
// access list used for dependency analysis; run in execution mode per device
// it yields the device-specific kernel.

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"
#include "domain/concepts.hpp"
#include "domain/span.hpp"
#include "set/access.hpp"
#include "set/backend.hpp"
#include "set/loader.hpp"
#include "set/sanitize.hpp"
#include "set/scalar.hpp"

namespace neon::set {

class Container
{
   public:
    /// What a graph node made from this container does.
    enum class Kind : uint8_t
    {
        Compute,   ///< map/stencil/reduce kernel over a grid span
        Halo,      ///< haloUpdate transfers for one field
        ScalarOp,  ///< host-side scalar work (reduce combine, alpha/beta)
    };

    Container() = default;

    [[nodiscard]] bool valid() const { return mImpl != nullptr; }

    /// Build a compute container from a grid and a loading lambda
    /// `fn(Loader&) -> computeLambda(const Grid::Cell&)`.
    template <typename Grid, typename LoadingLambda>
    static Container factory(std::string name, const Grid& grid, LoadingLambda fn)
    {
        static_assert(neon::domain::GridConcept<Grid>,
                      "Container::factory requires a type satisfying "
                      "neon::domain::GridConcept (see docs/domain.md)");
        Container c = make(std::move(name), Kind::Compute, grid.devCount());
        c.mImpl->parser = [grid, fn](AccessList& rec) mutable {
            Loader loader = Loader::parsing(&rec);
            (void)fn(loader);
        };
        // Devirtualized dispatch: one trampoline per (device, view) is
        // instantiated NOW, so launch() enqueues a precomputed KernelWork
        // with zero per-run span/kernel construction and exactly one
        // indirect call per chunk (docs/performance.md). The builder is
        // stored so a live container can re-derive its records after the
        // grid repartitions (the captured grid handle shares the re-sliced
        // Impl) and build its sanitized records on first use.
        c.mImpl->builder = [grid, fn](Impl& impl, bool sanitized) mutable {
            buildRecords(impl, grid, fn, NoReduce{}, sanitized);
        };
        c.mImpl->sanitizable = kSanitizable<LoadingLambda>;
        c.mImpl->builder(*c.mImpl, false);
        return c;
    }

    /// Build a reduction container: `fn(Loader&) -> lambda(const Cell&, T& acc)`
    /// accumulating (by +) into per-device partials of `result`. Pair with
    /// `result.combineContainer()`-style node: the Skeleton inserts the
    /// combine automatically; manual users call runCombine().
    template <typename Grid, typename T, typename LoadingLambda>
    static Container reduceFactory(std::string name, const Grid& grid, GlobalScalar<T> result,
                                   LoadingLambda fn)
    {
        static_assert(neon::domain::GridConcept<Grid>,
                      "Container::reduceFactory requires a type satisfying "
                      "neon::domain::GridConcept (see docs/domain.md)");
        Container c = make(std::move(name), Kind::Compute, grid.devCount());
        c.mImpl->forcedPattern = Compute::REDUCE;
        c.mImpl->hasForcedPattern = true;
        c.mImpl->parser = [grid, fn, result](AccessList& rec) mutable {
            Loader loader = Loader::parsing(&rec);
            (void)fn(loader);
            DataAccess out;
            out.uid = result.uid();
            out.access = Access::WRITE;
            out.compute = Compute::REDUCE;
            out.bytesPerItem = 0.0;
            out.name = result.name();
            out.scalar = true;
            rec.push_back(std::move(out));
        };
        // Same trampolines as factory(), with chunk partials folded into
        // `result` (ReduceInto).
        c.mImpl->builder = [grid, fn, result](Impl& impl, bool sanitized) mutable {
            buildRecords(impl, grid, fn, ReduceInto<T>{.out = result}, sanitized);
        };
        c.mImpl->sanitizable = kSanitizable<LoadingLambda>;
        c.mImpl->builder(*c.mImpl, false);
        // The combine step the Skeleton appends after the reduce kernels.
        Backend backend = grid.backend();
        c.mImpl->combine = std::make_shared<Container>(makeCombine(backend, result));
        return c;
    }

    /// Fuse two *map* loading lambdas into one kernel: per cell, `fnA`'s
    /// compute lambda runs before `fnB`'s. This implements (in user-directed
    /// form) the container fusion the paper defers to future work (§V-D:
    /// "the inability to optimize the single-GPU performance (e.g., via
    /// kernel/container fusion)"). Valid only for cell-local (map) bodies:
    /// if fnB stencil-reads data fnA writes, the fused kernel would read
    /// partially updated neighbours. The parse step runs both lambdas, so
    /// dependency analysis sees the union of their accesses; one kernel
    /// launch replaces two and the intermediate field never re-travels
    /// through memory in the cost model.
    template <typename Grid, typename LoadingLambdaA, typename LoadingLambdaB>
    static Container fusedFactory(std::string name, const Grid& grid, LoadingLambdaA fnA,
                                  LoadingLambdaB fnB)
    {
        // Generic over the loader so the fused kernel can be instrumented by
        // the access sanitizer; the constraint keeps the fused lambda only
        // as sanitizable as its least-generic input.
        auto fused = [fnA, fnB]<typename L>(L& loader) mutable
            requires std::is_invocable_v<LoadingLambdaA&, L&> &&
                     std::is_invocable_v<LoadingLambdaB&, L&>
        {
            auto kernelA = fnA(loader);
            auto kernelB = fnB(loader);
            return [kernelA, kernelB](const auto& cell) mutable {
                kernelA(cell);
                kernelB(cell);
            };
        };
        return factory(std::move(name), grid, std::move(fused));
    }

    /// Host-side scalar computation (e.g. alpha = rsold / pAp). Runs on
    /// device 0's stream; downstream kernels see the broadcast device
    /// mirrors of the written scalars.
    template <typename T>
    static Container scalarOp(std::string name, Backend backend,
                              std::vector<GlobalScalar<T>> reads,
                              std::vector<GlobalScalar<T>> writes, std::function<void()> fn)
    {
        Container c = make(std::move(name), Kind::ScalarOp, backend.devCount());
        c.mImpl->geomEpoch = backend.geometryEpoch();
        const double dur = 2.0 * backend.config().link.latency + 1e-6;
        c.mImpl->parser = [reads, writes](AccessList& rec) {
            for (const auto& s : reads) {
                rec.push_back({s.uid(), Access::READ, Compute::MAP, 0.0, s.name(), nullptr, true});
            }
            for (const auto& s : writes) {
                rec.push_back({s.uid(), Access::WRITE, Compute::MAP, 0.0, s.name(), nullptr, true});
            }
        };
        c.mImpl->itemsFn = [](int, DataView) -> size_t { return 1; };
        c.mImpl->launcher = [fn, dur, name = c.mImpl->name](int dev, sys::Stream& stream,
                                                            const sys::OpAttribution& attr) {
            if (dev != 0) {
                return;
            }
            // The op borrows the closure's name and fn: a launch copies neither.
            stream.hostFn(name, dur, fn, attr);
        };
        return c;
    }

    /// Halo-update container for one field (created by the Skeleton from a
    /// stencil-read access record; also usable manually at the Set level).
    static Container haloUpdate(std::shared_ptr<const HaloOps> halo);

    // --- queries ----------------------------------------------------------
    [[nodiscard]] const std::string& name() const;
    [[nodiscard]] Kind               kind() const;
    [[nodiscard]] int                devCount() const;
    /// Parsed access list (parses lazily on first call).
    [[nodiscard]] const AccessList& accesses() const;
    /// MAP / STENCIL / REDUCE, deduced from the access list (paper §V-A).
    [[nodiscard]] Compute pattern() const;
    /// Cost hint derived from the access list (DESIGN.md §4).
    [[nodiscard]] const sys::KernelCostHint& costHint() const;
    /// Number of work items for (device, view).
    [[nodiscard]] size_t items(int dev, DataView view) const;
    /// The companion combine container (valid for reduce containers only).
    [[nodiscard]] const Container& combineStep() const;
    [[nodiscard]] bool             isReduce() const;

    /// Enqueue this container's work for one device on `stream`, attributed
    /// to `attr`. With `sanitized` set (and a sanitizable kernel, see
    /// sanitizable()) the instrumented trampoline is enqueued instead of the
    /// plain one.
    void launch(int dev, sys::Stream& stream, DataView view = DataView::STANDARD,
                bool sanitized = false, const sys::OpAttribution& attr = {}) const;

    /// Convenience: launch on stream set 0 of `backend` for every device
    /// (Set-level manual execution; the Skeleton does this per task).
    void run(const StreamSet& streams, DataView view = DataView::STANDARD,
             bool sanitized = false) const;

    /// True when sanitized launches instrument this kernel: compute
    /// containers built from a generic (`auto&`) loading lambda. Halo /
    /// scalar containers and concrete `set::Loader&` lambdas run plain.
    [[nodiscard]] bool sanitizable() const;

    /// Creation ordinal identifying this container in sanitizer reports
    /// (set::sanitize::Entry::seq) — stable across runs of one process.
    [[nodiscard]] uint64_t sanitizeSeq() const;

    /// Re-derive the launch records from the (possibly re-sliced) grid the
    /// container was built from: refreshes devCount, spans and trampolines,
    /// drops sanitized records and the parsed access list so both rebuild
    /// lazily against the grid's current geometry. Required after
    /// Grid::repartition() before the container is sequenced again; a no-op
    /// for halo/scalar containers (they have no span-derived state).
    void rebuild();

    /// Backend geometry epoch this container's records were built against
    /// (see Backend::geometryEpoch); Skeleton::sequence rejects containers
    /// whose epoch lags the backend's — stale spans must never be launched.
    [[nodiscard]] uint64_t geometryEpoch() const;

   private:
    struct Impl;

    /// Process-wide container creation counter (sanitizer report keys).
    static uint64_t nextSeq();

    /// A container with a fresh Impl and creation ordinal.
    static Container make(std::string name, Kind kind, int devCount);

    template <typename T>
    static Container makeCombine(Backend& backend, GlobalScalar<T> scalar)
    {
        Container c = scalarOp<T>("combine(" + scalar.name() + ")", backend, {scalar}, {scalar},
                                  [scalar]() mutable { scalar.combinePartials(); });
        return c;
    }

    /// Precomputed launch state for one (device, view): item count plus
    /// the devirtualized kernel work and the trampoline it points into.
    /// Built once at factory time, so the run hot path is a table lookup +
    /// one enqueue.
    struct LaunchRecord
    {
        size_t                items = 0;
        sys::KernelWork       work;
        std::shared_ptr<void> owner;  ///< keeps work.ctx alive
    };

    /// Records are indexed dev * 3 + viewIndex(view).
    static constexpr int viewIndex(DataView view)
    {
        return view == DataView::STANDARD ? 0 : (view == DataView::INTERNAL ? 1 : 2);
    }
    static constexpr DataView kAllViews[3] = {DataView::STANDARD, DataView::INTERNAL,
                                              DataView::BOUNDARY};

    /// Only generic (`auto&`) loading lambdas can be re-run against a
    /// sanitize::Loader; concrete `set::Loader&` lambdas always run plain.
    template <typename LoadingLambda>
    static constexpr bool kSanitizable = std::is_invocable_v<LoadingLambda&, sanitize::Loader&>;

    // --- kernel trampolines -------------------------------------------------
    // Every compute kernel runs through one Trampoline<Span, Kernel, Reduce,
    // Observe>, instantiated per (device, view) when its records are built.
    // Reduce is NoReduce (map) or ReduceInto<T> (per-chunk partials folded
    // by pairwiseFold); Observe is NoObserve or SanitizeObserve (per-chunk
    // access sinks). The two "no" policies are empty, so the plain map
    // trampoline is the bare chunk loop: no sink lookup, no per-chunk
    // branch and no finalize call. A plain map launch of a kernel whose
    // cells are independent (Loader::cellsIndependent) on a span with
    // shaped walks (the dense grid's) runs runWalk instead: the same cells
    // in the same order, each plane as one vectorizable loop when the
    // kernel reads no neighbour (Walk::Flat), else each row's interior run
    // (Walk::Rows).

    /// Fixed-shape pairwise binary tree over `s[0, n)`, folded in place
    /// with `op`'s operator; a trailing odd element passes through. The
    /// shape depends only on the chunk count (itself span-derived), so the
    /// floating-point result is identical for any thread count.
    template <typename T>
    static T pairwiseFold(const GlobalScalar<T>& op, std::vector<T>& s, int32_t n)
    {
        while (n > 1) {
            const int32_t pairs = n / 2;
            for (int32_t i = 0; i < pairs; ++i) {
                T folded = s[static_cast<size_t>(2 * i)];
                op.fold(folded, s[static_cast<size_t>(2 * i + 1)]);
                s[static_cast<size_t>(i)] = folded;
            }
            if (n % 2 == 1) {
                s[static_cast<size_t>(pairs)] = s[static_cast<size_t>(n - 1)];
            }
            n = pairs + n % 2;
        }
        return s[0];
    }

    struct NoReduce
    {
        static constexpr bool kFolds = false;

        [[nodiscard]] NoReduce at(int, DataView, int32_t) const { return {}; }

        template <typename SpanT, typename KernelT>
        static void runChunk(const SpanT& sp, KernelT& kernel, int32_t chunk, int32_t nChunks)
        {
            sp.forEachChunk(chunk, nChunks, kernel);
        }

        static void fold(int32_t) {}
    };

    /// Each chunk accumulates into its own partial slot; finalize folds
    /// the slots into this (device, view)'s partial of `out`.
    template <typename T>
    struct ReduceInto
    {
        static constexpr bool kFolds = true;

        GlobalScalar<T> out;
        int             dev = 0;
        DataView        view = DataView::STANDARD;
        std::vector<T>  partials{};  ///< one slot per chunk
        std::vector<T>  scratch{};   ///< pairwiseFold workspace

        /// The policy for one (device, view) launch of `chunks` chunks.
        [[nodiscard]] ReduceInto at(int d, DataView v, int32_t chunks) const
        {
            const auto n = static_cast<size_t>(chunks);
            return {out, d, v, std::vector<T>(n, out.identity()),
                    std::vector<T>(n, out.identity())};
        }

        /// On a span with shaped walks (the dense grid's) the chunk
        /// accumulates into kReduceLanes lanes, the cell with in-plane
        /// index i into lane i % 4, and folds them as (l0 + l1) + (l2 + l3);
        /// other spans keep one accumulator. Four independent chains, not
        /// one, bound the loop (docs/performance.md, "Flat planes and lane
        /// reductions"). flatten inlines the walk and the kernel into the
        /// chunk loop, so the lanes stay in registers.
        template <typename SpanT, typename KernelT>
        [[gnu::flatten]] void runChunk(const SpanT& sp, KernelT& kernel, int32_t chunk,
                                       int32_t nChunks)
        {
            T acc = out.identity();
            if constexpr (SpanT::kShapedWalks) {
                std::array<T, domain::kReduceLanes> lanes;
                lanes.fill(acc);
                sp.template forEachChunk<domain::Walk::Lanes>(
                    chunk, nChunks,
                    [&](const auto& cell, auto lane) { kernel(cell, lanes[lane]); });
                out.fold(lanes[0], lanes[1]);
                out.fold(lanes[2], lanes[3]);
                out.fold(lanes[0], lanes[2]);
                acc = lanes[0];
            } else {
                sp.forEachChunk(chunk, nChunks, [&](const auto& cell) { kernel(cell, acc); });
            }
            partials[static_cast<size_t>(chunk)] = acc;
        }

        void fold(int32_t nChunks)
        {
            scratch.assign(partials.begin(), partials.end());
            out.setPartial(dev, GlobalScalar<T>::slotOf(view), pairwiseFold(out, scratch, nChunks));
            if (view == DataView::STANDARD) {
                out.setPartial(dev, 1, out.identity());
            }
        }
    };

    struct NoObserve
    {
        static constexpr bool kObserves = false;
        struct Scope
        {
        };

        static Scope enter(int32_t) { return {}; }
        static void  commit(int32_t) {}
    };

    /// Sanitized launches: each chunk records into its own sink; finalize
    /// merges the sinks in chunk order (every merge is monotone, so the
    /// result is bitwise identical for any NEON_THREADS) and commits them.
    struct SanitizeObserve
    {
        static constexpr bool   kObserves = true;
        static constexpr size_t kNoResult = static_cast<size_t>(-1);

        sanitize::KernelMeta        meta;
        std::vector<sanitize::Sink> sinks;  ///< one per chunk
        const Impl*                 impl = nullptr;
        int                         dev = 0;
        /// Load slot of a reduce's result scalar, which finalize writes
        /// directly rather than through a View.
        size_t resultSlot = kNoResult;

        sanitize::ChunkScope enter(int32_t chunk)
        {
            auto& sink = sinks[static_cast<size_t>(chunk)];
            sink.clear();
            return sanitize::ChunkScope(&sink);
        }

        void commit(int32_t nChunks) const
        {
            std::vector<sanitize::AccessObs> merged(meta.loads.size());
            for (int32_t i = 0; i < nChunks; ++i) {
                const auto& obs = sinks[static_cast<size_t>(i)].obs();
                for (size_t s = 0; s < merged.size(); ++s) {
                    merged[s].merge(obs[s]);
                }
            }
            if (resultSlot != kNoResult) {
                merged[resultSlot].noteWrite(true, 0, 0);
            }
            sanitize::Session::instance().commit(impl->seq, impl->name, dev, meta.haloRadius,
                                                 impl->accessList, meta, merged);
        }
    };

    template <typename SpanT, typename KernelT, typename Reduce, typename Observe>
    struct Trampoline
    {
        SpanT                         sp;
        KernelT                       kernel;
        [[no_unique_address]] Reduce  reduce;
        [[no_unique_address]] Observe observe;

        static void run(void* ctx, int32_t chunk, int32_t nChunks)
        {
            auto*                 t = static_cast<Trampoline*>(ctx);
            [[maybe_unused]] auto scope = t->observe.enter(chunk);
            t->reduce.runChunk(t->sp, t->kernel, chunk, nChunks);
        }

        template <domain::Walk W>
        static void runWalk(void* ctx, int32_t chunk, int32_t nChunks)
        {
            auto* t = static_cast<Trampoline*>(ctx);
            t->sp.template forEachChunk<W>(chunk, nChunks, t->kernel);
        }

        static void finalize(void* ctx, int32_t, int32_t nChunks)
        {
            auto* t = static_cast<Trampoline*>(ctx);
            t->reduce.fold(nChunks);
            t->observe.commit(nChunks);
        }
    };

    /// `walk` is the loop a plain map launch may take (mapWalk); reductions,
    /// sanitized launches and spans without shaped walks ignore it.
    template <typename SpanT, typename KernelT, typename Reduce, typename Observe>
    static LaunchRecord makeRecord(const SpanT& span, KernelT kernel, Reduce reduce,
                                   Observe observe, domain::Walk walk = domain::Walk::Ordered)
    {
        using Tramp = Trampoline<SpanT, KernelT, Reduce, Observe>;
        auto tramp = std::make_shared<Tramp>(span, std::move(kernel), std::move(reduce),
                                             std::move(observe));
        LaunchRecord rec;
        rec.items = span.count();
        rec.work.run = &Tramp::run;
        if constexpr (!Reduce::kFolds && !Observe::kObserves && SpanT::kShapedWalks) {
            if (walk == domain::Walk::Flat) {
                rec.work.run = &Tramp::template runWalk<domain::Walk::Flat>;
            } else if (walk == domain::Walk::Rows) {
                rec.work.run = &Tramp::template runWalk<domain::Walk::Rows>;
            }
        }
        if constexpr (Reduce::kFolds || Observe::kObserves) {
            rec.work.finalize = &Tramp::finalize;
        }
        rec.work.ctx = tramp.get();
        rec.work.chunks = span.chunkCount();
        rec.owner = std::move(tramp);
        return rec;
    }

    /// The loop a plain map launch takes, from what its loads declared.
    static domain::Walk mapWalk(const Loader& loader)
    {
        if (!loader.cellsIndependent()) {
            return domain::Walk::Ordered;
        }
        return loader.readsNoStencil() ? domain::Walk::Flat : domain::Walk::Rows;
    }

    /// Fill `impl.records` (or, when `sanitized`, `impl.sanRecords`) with
    /// one trampoline per (device, view) over the grid's current spans.
    /// Plain builds also adopt the grid's device count and geometry epoch.
    template <typename Grid, typename LoadingLambda, typename Reduce>
    static void buildRecords(Impl& impl, const Grid& grid, LoadingLambda& fn,
                             const Reduce& reduce, bool sanitized)
    {
        if (!sanitized) {
            impl.devCount = grid.devCount();
            impl.geomEpoch = grid.backend().geometryEpoch();
        }
        auto& records = sanitized ? impl.sanRecords : impl.records;
        records.clear();
        records.reserve(static_cast<size_t>(impl.devCount) * 3);
        for (int dev = 0; dev < impl.devCount; ++dev) {
            for (const DataView view : kAllViews) {
                auto          span = grid.span(dev, view);
                const int32_t chunks = span.chunkCount();
                if (!sanitized) {
                    Loader loader = Loader::execution(dev, view);
                    auto   kernel = fn(loader);
                    records.push_back(makeRecord(span, std::move(kernel),
                                                 reduce.at(dev, view, chunks), NoObserve{},
                                                 mapWalk(loader)));
                } else if constexpr (kSanitizable<LoadingLambda>) {
                    SanitizeObserve observe;
                    observe.impl = &impl;
                    observe.dev = dev;
                    observe.meta.haloRadius = grid.haloRadius();
                    auto red = reduce.at(dev, view, chunks);
                    if constexpr (Reduce::kFolds) {
                        observe.resultSlot = observe.meta.loads.size();
                        observe.meta.loads.push_back({red.out.uid(), red.out.name(), true, false});
                    }
                    sanitize::Loader loader(dev, view, &observe.meta);
                    auto             kernel = fn(loader);
                    observe.sinks.resize(static_cast<size_t>(chunks));
                    for (auto& sink : observe.sinks) {
                        sink.configure(observe.meta.loads.size(), span.range0(), span.range1());
                    }
                    records.push_back(
                        makeRecord(span, std::move(kernel), std::move(red), std::move(observe)));
                }
            }
        }
    }

    struct Impl
    {
        std::string name;
        Kind        kind = Kind::Compute;
        int         devCount = 1;
        std::function<void(AccessList&)>                                  parser;
        std::function<size_t(int, DataView)>                              itemsFn;
        std::function<void(int, sys::Stream&, const sys::OpAttribution&)> launcher;
        /// Compute containers: one record per (device, view); empty for
        /// halo/scalar containers, which keep the launcher closure.
        std::vector<LaunchRecord>  records;
        std::shared_ptr<Container> combine;  ///< combine step for reductions

        /// Compute containers: builds `records` from the captured grid at
        /// factory time and on rebuild(), or `sanRecords` on the first
        /// sanitized launch (buildRecords). Empty for halo/scalar
        /// containers. `geomEpoch` is the backend geometry epoch the
        /// current records match (0 = never re-sliced).
        std::function<void(Impl&, bool sanitized)> builder;
        uint64_t                                   geomEpoch = 0;

        /// Access sanitizer (set/sanitize.hpp): creation ordinal for stable
        /// report keys, whether the kernel can be instrumented, and the
        /// instrumented records (same dev * 3 + view indexing), built on the
        /// first sanitized launch (rebuild() resets them).
        uint64_t                  seq = 0;
        bool                      sanitizable = false;
        std::vector<LaunchRecord> sanRecords;
        bool                      sanBuilt = false;

        [[nodiscard]] const LaunchRecord& recordAt(int dev, DataView view) const
        {
            return records[static_cast<size_t>(dev * 3 + viewIndex(view))];
        }

        [[nodiscard]] const LaunchRecord& sanRecordAt(int dev, DataView view) const
        {
            return sanRecords[static_cast<size_t>(dev * 3 + viewIndex(view))];
        }

        /// Build the sanitized trampolines once.
        void ensureSanitized();

        // lazily parsed
        bool                parsed = false;
        AccessList          accessList;
        Compute             patternValue = Compute::MAP;
        Compute             forcedPattern = Compute::MAP;
        bool                hasForcedPattern = false;
        sys::KernelCostHint hint;

        void ensureParsed();
    };
    std::shared_ptr<Impl> mImpl;
};

}  // namespace neon::set
