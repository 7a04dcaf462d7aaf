// A cached Skeleton::run() of a CG iteration allocates a fixed, small number
// of heap blocks, whatever the device count: one event block, the tail
// barrier and the data-chain wait list (host-function ops borrow their
// callable and name). This is its own executable because it replaces the
// global operator new to count allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cg_iteration.hpp"

namespace {
std::atomic<size_t> gAllocations{0};
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
    std::free(p);
}

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace neon::skeleton {

TEST(RunAllocations, CachedCgIterationAllocatesTheSameAtEveryDeviceCount)
{
    constexpr int    kRuns = 20;
    constexpr size_t kMaxPerRun = 3;
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

}  // namespace neon::skeleton
