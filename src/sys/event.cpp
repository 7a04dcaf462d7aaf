#include "sys/event.hpp"

#include <atomic>

namespace neon::sys {

namespace {
std::atomic<uint64_t> gNextEventId{1};
}

Event::Event() : mId(gNextEventId.fetch_add(1, std::memory_order_relaxed)) {}

}  // namespace neon::sys
