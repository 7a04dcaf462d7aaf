#include "sys/data_barriers.hpp"

#include <algorithm>

namespace neon::sys {

namespace {

void pushUnique(std::vector<const Event*>& out, const EventPtr& ev)
{
    if (ev && std::find(out.begin(), out.end(), ev.get()) == out.end()) {
        out.push_back(ev.get());
    }
}

}  // namespace

void DataBarriers::acquire(const std::vector<uint64_t>& reads, const std::vector<uint64_t>& writes,
                           std::vector<const Event*>& out)
{
    out.clear();
    for (const uint64_t uid : writes) {
        auto it = mChains.find(uid);
        if (it == mChains.end()) {
            continue;
        }
        pushUnique(out, it->second.writeTail);
        for (const EventPtr& r : it->second.readTails) {
            pushUnique(out, r);
        }
    }
    for (const uint64_t uid : reads) {
        // A uid both read and written was already fully handled above.
        if (std::find(writes.begin(), writes.end(), uid) != writes.end()) {
            continue;
        }
        auto it = mChains.find(uid);
        if (it == mChains.end()) {
            continue;
        }
        pushUnique(out, it->second.writeTail);
    }
}

void DataBarriers::publish(const std::vector<uint64_t>& reads, const std::vector<uint64_t>& writes,
                           const EventPtr& tail)
{
    if (!tail) {
        return;
    }
    for (const uint64_t uid : writes) {
        Chain& c = mChains[uid];
        c.writeTail = tail;
        c.readTails.clear();
    }
    for (const uint64_t uid : reads) {
        if (std::find(writes.begin(), writes.end(), uid) != writes.end()) {
            continue;
        }
        Chain& c = mChains[uid];
        if (c.readTails.empty() || c.readTails.back() != tail) {
            c.readTails.push_back(tail);
        }
    }
}

void DataBarriers::clear()
{
    mChains.clear();
}

size_t DataBarriers::trackedCount() const
{
    return mChains.size();
}

}  // namespace neon::sys
