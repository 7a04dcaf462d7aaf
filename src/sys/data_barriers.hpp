#pragma once
// DataBarriers: per-data-object event chains replacing the old global
// per-Backend inter-run barrier. Each tracked uid (one field / scalar /
// halo-carrying object, keyed by its DataAccess uid) carries the tail
// event of its last writer plus the tails of all readers since that
// write. A run that is about to touch a set of uids acquires the events
// it must wait on (readers wait the last write; writers additionally
// wait all intervening reads), and publishes its own tail event when its
// work is enqueued. Runs over disjoint uid sets share no events and
// therefore overlap freely on the device pool — the property the
// multi-tenant service (neon::service) is built on — while ping-pong
// chains over shared fields keep exactly the ordering the old global
// barrier provided.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sys/event.hpp"

namespace neon::sys {

class DataBarriers
{
   public:
    /// Events a run reading `reads` and writing `writes` must wait on
    /// before touching any of those objects, written to `out` (cleared
    /// first, so a caller reusing it allocates nothing once it has grown):
    /// the last write tail for every uid, plus every reader tail since that
    /// write for uids in `writes` (write-after-read). Deduplicated;
    /// unrecorded entries never appear because tails are published at
    /// enqueue time in program order. The pointers borrow the chains'
    /// events: valid until the next publish() or clear().
    void acquire(const std::vector<uint64_t>& reads, const std::vector<uint64_t>& writes,
                 std::vector<const Event*>& out);

    /// Publish `tail` as the completion event of a run that read `reads`
    /// and wrote `writes`. Written uids start a fresh chain epoch (their
    /// reader list is cleared); read-only uids append `tail` to the
    /// reader list so a later writer orders after this run.
    void publish(const std::vector<uint64_t>& reads, const std::vector<uint64_t>& writes,
                 const EventPtr& tail);

    /// Drop every chain (Backend::resetClocks — stale vtime-stamped events
    /// must not leak into a re-zeroed timeline).
    void clear();

    /// Number of uids currently tracked (tests / introspection).
    [[nodiscard]] size_t trackedCount() const;

   private:
    struct Chain
    {
        EventPtr              writeTail;  ///< tail of the last run that wrote the uid
        std::vector<EventPtr> readTails;  ///< tails of reads since that write
    };

    std::unordered_map<uint64_t, Chain> mChains;
};

}  // namespace neon::sys
