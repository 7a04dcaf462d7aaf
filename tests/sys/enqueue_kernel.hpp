#pragma once
// Test helper: enqueue a host callback as a one-chunk KernelWork, the
// engines' single kernel execution path.

#include <functional>
#include <memory>
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
    auto     fn = std::make_shared<Body>(std::move(body));
    KernelOp op;
    op.name = std::move(name);
    op.items = items;
    op.hint = hint;
    op.work.run = [](void* ctx, int32_t, int32_t) { (*static_cast<Body*>(ctx))(); };
    op.work.ctx = fn.get();
    op.work.chunks = 1;
    op.work.owner = std::move(fn);
    stream.enqueue(std::move(op));
}

}  // namespace neon::sys
