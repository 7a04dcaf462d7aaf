// Heap-block counts of the runtime's steady state. A cached Skeleton::run()
// of a CG iteration allocates a fixed, small number of heap blocks, whatever
// the device count: the run's event block and the tail barrier (ops borrow
// their events, callables and names, and the data-chain wait list is
// reused). A grid that outlives many short-lived fields holds no block for
// a dead one. A default Backend is an empty handle that allocates nothing,
// and a Skeleton on a built backend allocates only its own state. This is
// its own executable because it replaces the global operator new and delete
// to count allocations and frees.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cg_iteration.hpp"

namespace {
std::atomic<size_t> gAllocations{0};
std::atomic<size_t> gFrees{0};

/// Blocks allocated through the counting operator new and not yet freed.
size_t liveBlocks()
{
    return gAllocations.load(std::memory_order_relaxed) - gFrees.load(std::memory_order_relaxed);
}

void countedFree(void* p) noexcept
{
    if (p != nullptr) {
        gFrees.fetch_add(1, std::memory_order_relaxed);
    }
    std::free(p);
}
}  // namespace

void* operator new(std::size_t bytes)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
        return p;
    }
    throw std::bad_alloc();
}

// Out of line: inlined next to a call of the global operator new, the
// free() reads to GCC as a mismatched deallocation (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept
{
    countedFree(p);
}

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept
{
    countedFree(p);
}

namespace neon::skeleton {

TEST(RunAllocations, CachedCgIterationAllocatesTheSameAtEveryDeviceCount)
{
    constexpr int    kRuns = 20;
    constexpr size_t kMaxPerRun = 2;
    size_t           atOneDevice = 0;
    for (const int nDev : {1, 2, 4, 8}) {
        SCOPED_TRACE(std::to_string(nDev) + " device(s)");
        set::Backend         backend = testing::dryA100s(nDev);
        testing::CgIteration cg(backend);
        Skeleton             skl(backend);
        skl.sequence(cg.containers(), testing::CgIteration::options());
        skl.run();  // warm: first-run paths and the data chains
        skl.sync();

        const size_t before = gAllocations.load(std::memory_order_relaxed);
        for (int i = 0; i < kRuns; ++i) {
            skl.run();
        }
        const size_t total = gAllocations.load(std::memory_order_relaxed) - before;
        skl.sync();

        EXPECT_EQ(total % kRuns, 0u) << total << " allocations over " << kRuns << " runs";
        const size_t perRun = total / kRuns;
        EXPECT_LE(perRun, kMaxPerRun);
        if (nDev == 1) {
            atOneDevice = perRun;
        }
        EXPECT_EQ(perRun, atOneDevice);
    }
}

TEST(HandleAllocations, DefaultBackendAllocatesNothing)
{
    const size_t before = gAllocations.load(std::memory_order_relaxed);
    bool         valid = true;
    {
        const set::Backend empty;
        valid = empty.valid();
    }
    const size_t total = gAllocations.load(std::memory_order_relaxed) - before;
    EXPECT_FALSE(valid);
    EXPECT_EQ(total, 0u);
}

TEST(HandleAllocations, SkeletonOnABuiltBackendAllocatesOneBlock)
{
    set::Backend backend = testing::dryA100s(8);
    const size_t before = gAllocations.load(std::memory_order_relaxed);
    {
        const Skeleton skl(backend);
    }
    const size_t total = gAllocations.load(std::memory_order_relaxed) - before;
    EXPECT_LE(total, 1u);
}

TEST(GridAllocations, DroppedFieldsLeaveNoLiveBlocksOnTheirGrid)
{
    set::Backend backend = testing::dryA100s(8);
    dgrid::DGrid grid(backend, testing::CgIteration::kDim, Stencil::laplace7());
    auto         buildAndDrop = [&grid](int fields) {
        for (int i = 0; i < fields; ++i) {
            (void)grid.newField<double>("f", 1, 0.0);
        }
    };
    buildAndDrop(1);  // warm: first-allocation paths of the devices
    const size_t base = liveBlocks();
    buildAndDrop(1);
    const size_t afterOne = liveBlocks();
    buildAndDrop(1000);
    const size_t afterMany = liveBlocks();

    EXPECT_LE(afterMany, afterOne) << "1000 dropped fields hold " << afterMany - base
                                   << " live blocks, one holds " << afterOne - base;
}

}  // namespace neon::skeleton
