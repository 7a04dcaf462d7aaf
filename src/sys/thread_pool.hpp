#pragma once
// Persistent host worker pool shared per Backend (docs/performance.md,
// "Host parallelism"). Kernels are pre-split into a fixed, span-derived
// chunk partition (domain::spanChunkCount); the pool only decides WHICH
// thread runs each chunk, never WHAT a chunk contains, so results are
// bitwise identical for any thread count. Reductions keep determinism by
// writing per-chunk partials that a fixed-shape combine tree folds after
// the parallel region (set/container.hpp).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace neon::sys {

/// Chunk entry point: fn(ctx, chunk, nChunks). Plain function pointer so
/// the hot path is one indirect call (no std::function).
using ChunkFn = void (*)(void*, int32_t, int32_t);

/// Per-worker utilization sample for one parallelFor, fed into
/// sys::Trace as OpKind::HostPool rows.
struct WorkerSample
{
    int32_t worker = 0;       ///< pool slot (0 = the submitting thread)
    int32_t chunks = 0;       ///< chunks this worker executed
    double  busySeconds = 0;  ///< wall time spent inside chunk bodies
};

/// A fixed-size pool of host worker threads. Threads are spawned lazily on
/// the first parallelFor that can use them and live until destruction.
/// parallelFor is serialized internally, so concurrent submitters queue
/// rather than interleave.
class ThreadPool
{
   public:
    explicit ThreadPool(int32_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Configured width (>= 1). 1 means "inline, never spawn workers".
    [[nodiscard]] int32_t threadCount() const { return mThreads; }

    /// Run fn(ctx, c, nChunks) for every c in [0, nChunks). Chunks are
    /// claimed dynamically (work stealing over a shared counter) — safe
    /// because chunks are disjoint by construction. Blocks until every
    /// chunk finished; the submitting thread participates as worker 0.
    /// The first exception thrown by a chunk is rethrown here after all
    /// workers drained. When `samples` is non-null it is filled with one
    /// entry per worker that ran at least one chunk.
    void parallelFor(int32_t                    nChunks,
                     ChunkFn                    fn,
                     void*                      ctx,
                     std::vector<WorkerSample>* samples = nullptr);

   private:
    struct Slot
    {
        int32_t chunks = 0;
        double  busySeconds = 0;
    };

    void workerLoop(int32_t slot);
    void runChunks(int32_t slot);
    void spawnWorkers();

    const int32_t mThreads;

    std::mutex mSubmitMutex;  ///< one parallelFor at a time

    std::mutex              mMutex;
    std::condition_variable mCvWork;
    std::condition_variable mCvDone;
    uint64_t                mGeneration = 0;  ///< bumped per job, wakes workers
    int32_t                 mActive = 0;      ///< workers still inside the job
    bool                    mStop = false;

    // Current job (valid while mActive > 0; published under mMutex).
    ChunkFn              mFn = nullptr;
    void*                mCtx = nullptr;
    int32_t              mNChunkTotal = 0;
    std::atomic<int32_t> mNextChunk{0};
    std::exception_ptr   mFirstError;
    std::vector<Slot>    mSlots;

    bool                     mSpawned = false;
    std::vector<std::thread> mWorkers;
};

}  // namespace neon::sys
