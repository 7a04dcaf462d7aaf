#include "sys/transfer_plan.hpp"

#include <algorithm>

namespace neon::sys {

TransferSchedule planTransfer(Device& dev, double vtime, const TransferOp& op, double slowdown,
                              bool withWindows)
{
    const SimConfig& cfg = dev.config();
    TransferSchedule plan;
    plan.end = vtime;
    if (withWindows) {
        plan.windows.reserve(op.chunks.size());
    }

    double dirEnd[2] = {0.0, 0.0};
    bool   dirUsed[2] = {false, false};
    for (const auto& chunk : op.chunks) {
        const int dir = chunk.direction != 0 ? 1 : 0;
        if (!dirUsed[dir]) {
            dirEnd[dir] = std::max(vtime, dev.copyAvailable[dir]);
            dirUsed[dir] = true;
        }
        const double start = dirEnd[dir];
        dirEnd[dir] = start + transferDuration(cfg, chunk.bytes) * slowdown;
        if (withWindows) {
            plan.windows.push_back({start, dirEnd[dir], chunk.bytes});
        }
        plan.totalBytes += chunk.bytes;
    }
    for (int dir = 0; dir < 2; ++dir) {
        if (dirUsed[dir]) {
            dev.copyAvailable[dir] = dirEnd[dir];
            plan.end = std::max(plan.end, dirEnd[dir]);
        }
    }
    return plan;
}

}  // namespace neon::sys
