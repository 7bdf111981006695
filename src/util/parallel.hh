/**
 * @file
 * Parallel experiment-sweep runner.
 *
 * The bench/ grids (protocols x workloads x processor counts) are
 * embarrassingly parallel across cells, and every cell is seeded
 * explicitly, so a sweep is deterministic no matter how its cells are
 * scheduled.  This module supplies the machinery:
 *
 *  - ThreadPool: a fixed set of workers draining a *bounded* task
 *    queue (submit() blocks while the queue is full, so a producer
 *    can never race ahead unboundedly); wait() drains the pool and
 *    rethrows the first task exception.
 *  - parallelFor(): an indexed loop over [begin, end) whose bodies
 *    self-schedule off a shared atomic counter (dynamic load
 *    balancing); the caller supplies a body that writes results into
 *    its own index's slot, which is what makes a sweep's output
 *    independent of the thread count.  Nested parallelFor() calls are
 *    rejected (std::logic_error) — sweeps parallelise at cell
 *    granularity only.
 *  - taskRng(): an independent per-task Rng derived through the
 *    xoshiro256** stream split, a pure function of (seed, task), so
 *    stochastic cells stay bit-identical at any thread count.
 *
 * The pool width defaults to $DIR2B_THREADS, or else the hardware
 * concurrency; setDefaultThreadCount() (the CLI's --threads) overrides
 * both.
 */

#ifndef DIR2B_UTIL_PARALLEL_HH
#define DIR2B_UTIL_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/random.hh"

namespace dir2b
{

/** Threads the machine offers (never 0). */
unsigned hardwareThreads();

/**
 * The pool width used when a caller passes threads = 0: the
 * setDefaultThreadCount() override if set, else $DIR2B_THREADS if set
 * and positive, else hardwareThreads().
 */
unsigned defaultThreadCount();

/** Override defaultThreadCount(); 0 restores the env/hardware rule. */
void setDefaultThreadCount(unsigned n);

/** Fixed-width worker pool over a bounded task queue. */
class ThreadPool
{
  public:
    /** @param numThreads worker count (0 = defaultThreadCount())
     *  @param maxQueue   queue bound; submit() blocks when full */
    explicit ThreadPool(unsigned numThreads = 0,
                        std::size_t maxQueue = 1024);

    /** Drains outstanding work, then joins every worker.  Task
     *  exceptions still pending at destruction are swallowed (call
     *  wait() to observe them). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task; blocks while the queue is at its bound. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished, then rethrow the
     * first exception any task raised (if any).  The pool stays
     * usable afterwards.
     */
    void wait();

    unsigned numThreads() const { return numThreads_; }

  private:
    void workerLoop();

    unsigned numThreads_;
    std::size_t maxQueue_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::size_t outstanding_ = 0; ///< queued + running tasks
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run fn(i) for every i in [begin, end) across a worker pool.
 *
 * Iterations self-schedule from a shared counter, so the assignment
 * of iterations to threads is nondeterministic — the body must write
 * only to state owned by its own index.  Blocks until every iteration
 * finished; rethrows the first exception a body raised (remaining
 * iterations are abandoned).  threads = 0 uses defaultThreadCount();
 * threads = 1 runs inline on the caller.  Calling parallelFor from
 * inside a parallelFor body throws std::logic_error.
 */
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)> &fn,
                 unsigned threads = 0);

/**
 * An independent Rng for task number `task` of a sweep seeded with
 * `seed`: the task index is folded into the seed and the stream is
 * then split, exactly as per-processor streams are derived elsewhere.
 * Pure function of (seed, task) — identical at any thread count.
 */
Rng taskRng(std::uint64_t seed, std::uint64_t task);

} // namespace dir2b

#endif // DIR2B_UTIL_PARALLEL_HH
