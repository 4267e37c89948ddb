// Deterministic fixed-size thread pool (kt::parallel).
//
// Design goals, in priority order:
//   1. Determinism: every parallel primitive here produces bit-identical
//      results regardless of the thread count (including KT_NUM_THREADS=1)
//      and across repeated runs. Chunk boundaries depend on (begin, end,
//      grain) alone, never on the thread count, and callers write disjoint
//      outputs per index or chunk.
//   2. Zero cost when serial: with one thread (the default on a 1-core
//      machine), everything runs inline with no pool, no locks, and no
//      allocation.
//   3. Nested-call safety: a ParallelFor issued from inside a pool task runs
//      inline on that worker, so parallel callers (e.g. cross-validation
//      folds) can freely call parallel leaves (e.g. the attention core)
//      without deadlock or thread explosion.
//
// What splits: whole ops over independent batch rows (the attention core,
// the forward-stream fan-out, Evaluate's batches). GEMM never forks
// (tensor/gemm.h).
//
// The pool is lazily created on the first parallel region that needs more
// than one thread. The thread count comes from, in priority order:
// SetNumThreads(), the KT_NUM_THREADS environment variable, and
// std::thread::hardware_concurrency().
//
// Exceptions thrown by loop bodies are captured (first one wins), the
// region runs to completion, and the exception is rethrown on the calling
// thread.
#ifndef KT_CORE_PARALLEL_H_
#define KT_CORE_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace kt {

// Current thread budget for parallel regions (>= 1). Lazily initialized
// from KT_NUM_THREADS, falling back to hardware_concurrency().
int GetNumThreads();

// Overrides the thread budget for subsequent parallel regions. Values < 1
// are clamped to 1. Growing the budget spawns workers lazily; shrinking it
// simply leaves the extra workers idle. Not intended to be called
// concurrently with in-flight parallel regions.
void SetNumThreads(int n);

// True while the calling thread is executing inside a parallel region
// (pool worker or participating caller). Nested regions run inline.
bool InParallelRegion();

// Runs fn(i) for every i in [begin, end). The range is split into chunks of
// `grain` indices (the last may be short); chunk boundaries depend only on
// (begin, end, grain). fn must write disjoint state per index.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t)>& fn);

// Range form: fn(chunk_begin, chunk_end) per chunk. Preferred for kernels
// that want a tight inner loop over their rows (e.g. the attention core's
// batch split).
void ParallelForRange(int64_t begin, int64_t end, int64_t grain,
                      const std::function<void(int64_t, int64_t)>& fn);

}  // namespace kt

#endif  // KT_CORE_PARALLEL_H_
