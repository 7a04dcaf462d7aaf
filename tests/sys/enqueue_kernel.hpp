#pragma once
// Test helper: enqueue a host callback as a one-chunk KernelWork, the
// engine's single kernel execution path.

#include <functional>
#include <string>
#include <utility>

#include "sys/stream.hpp"

namespace neon::sys {

/// Enqueue kernel `name` running `body` once on `stream`; its simulated
/// duration comes from `items` and `hint`.
inline void enqueueKernel(Stream& stream, std::string name, size_t items, KernelCostHint hint,
                          std::function<void()> body)
{
    using Body = std::function<void()>;
    KernelOp op;
    op.name = name;  // the op borrows `name` for the enqueue call
    op.items = items;
    op.hint = hint;
    op.work.run = [](void* ctx, int32_t, int32_t) { (*static_cast<Body*>(ctx))(); };
    op.work.ctx = &body;  // the op runs at enqueue, while `body` lives
    op.work.chunks = 1;
    stream.enqueue(std::move(op));
}

}  // namespace neon::sys
