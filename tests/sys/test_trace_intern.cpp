// Recording a trace row under a name the trace already interned allocates
// nothing: names are looked up by string_view. This is its own executable
// because it replaces the global operator new to count allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "sys/trace.hpp"

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

void operator delete(void* p) noexcept
{
    std::free(p);
}

void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace neon::sys {

TEST(TraceIntern, KnownNameRecordsWithoutAllocating)
{
    // Longer than the small-string buffer, so building a key would allocate.
    const std::string name = "halo(a_field_with_a_long_name)";
    Trace             trace;
    trace.enable(true);
    trace.record(0, 0, OpKind::Transfer, name, 0.0, 1.0);

    const size_t before = gAllocations.load(std::memory_order_relaxed);
    for (int i = 1; i <= 100; ++i) {
        trace.record(0, 0, OpKind::Transfer, name, i, i + 1.0);
    }
    EXPECT_EQ(gAllocations.load(std::memory_order_relaxed) - before, 0u);
    ASSERT_EQ(trace.size(), 101u);
    EXPECT_EQ(trace.entries().back().name, name);
}

}  // namespace neon::sys
