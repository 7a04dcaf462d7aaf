#pragma once
// DMA-engine scheduling for TransferOps: how an op's chunks occupy a
// device's two copy engines (chunks serialize within a direction, directions
// run in parallel — paper §IV-C2). Its one caller is the engine core's
// accounting step (Engine::charge), for every failed attempt and for the
// final one.

#include <cstdint>
#include <vector>

#include "sys/device.hpp"
#include "sys/op.hpp"

namespace neon::sys {

struct TransferWindow
{
    double   start = 0.0;
    double   end = 0.0;
    uint64_t bytes = 0;
};

struct TransferSchedule
{
    /// Stream virtual time after the op (max over used DMA directions, at
    /// least the stream time the op started at).
    double                      end = 0.0;
    std::vector<TransferWindow> windows;  ///< one per chunk, in chunk order (if asked for)
    uint64_t                    totalBytes = 0;
};

/// Schedule `op`'s chunks onto `dev`'s DMA engines starting at stream time
/// `vtime` and commit dev.copyAvailable. `slowdown` scales each chunk's
/// duration (link degradation). The per-chunk windows are materialised only
/// with `withWindows` (a trace row will be written for each).
TransferSchedule planTransfer(Device& dev, double vtime, const TransferOp& op, double slowdown,
                              bool withWindows);

}  // namespace neon::sys
