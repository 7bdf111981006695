#include "util/parallel.hh"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "util/logging.hh"

namespace dir2b
{

namespace
{

std::atomic<unsigned> gThreadOverride{0};

/** Set while the current thread is executing a parallelFor body (or
 *  the serial fallback), to reject nested parallelism. */
thread_local bool tlInParallelBody = false;

} // namespace

unsigned
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
defaultThreadCount()
{
    const unsigned o = gThreadOverride.load(std::memory_order_relaxed);
    if (o)
        return o;
    if (const char *env = std::getenv("DIR2B_THREADS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
        DIR2B_WARN("ignoring DIR2B_THREADS='", env,
                   "' (want a positive integer)");
    }
    return hardwareThreads();
}

void
setDefaultThreadCount(unsigned n)
{
    gThreadOverride.store(n, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned numThreads, std::size_t maxQueue)
    : numThreads_(numThreads ? numThreads : defaultThreadCount()),
      maxQueue_(maxQueue ? maxQueue : 1)
{
    workers_.reserve(numThreads_);
    for (unsigned i = 0; i < numThreads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        // Let already-queued work finish so results are never lost,
        // then tell the workers to exit.
        idle_.wait(lock, [this] { return outstanding_ == 0; });
        stopping_ = true;
    }
    notEmpty_.notify_all();
    for (auto &w : workers_)
        w.join();
    if (firstError_)
        DIR2B_WARN("ThreadPool destroyed with an unobserved task "
                   "exception (call wait() to receive it)");
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        notFull_.wait(lock, [this] {
            return queue_.size() < maxQueue_ || stopping_;
        });
        if (stopping_)
            throw std::logic_error("ThreadPool::submit after shutdown");
        queue_.push_back(std::move(task));
        ++outstanding_;
    }
    notEmpty_.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mu_);
        idle_.wait(lock, [this] { return outstanding_ == 0; });
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            notEmpty_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        notFull_.notify_one();
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            --outstanding_;
        }
        idle_.notify_all();
    }
}

void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &fn, unsigned threads)
{
    if (tlInParallelBody)
        throw std::logic_error(
            "nested parallelFor: sweeps parallelise at cell "
            "granularity only");
    if (begin >= end)
        return;

    const std::size_t n = end - begin;
    unsigned width = threads ? threads : defaultThreadCount();
    if (static_cast<std::size_t>(width) > n)
        width = static_cast<unsigned>(n);

    if (width <= 1) {
        tlInParallelBody = true;
        try {
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        } catch (...) {
            tlInParallelBody = false;
            throw;
        }
        tlInParallelBody = false;
        return;
    }

    // Iterations self-schedule off `next` (work stealing at index
    // granularity); an exception parks the counter at `end` so the
    // other workers drain quickly.
    std::atomic<std::size_t> next{begin};
    std::mutex errMu;
    std::exception_ptr err;

    auto body = [&] {
        tlInParallelBody = true;
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                break;
            try {
                fn(i);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(errMu);
                    if (!err)
                        err = std::current_exception();
                }
                next.store(end, std::memory_order_relaxed);
                break;
            }
        }
        tlInParallelBody = false;
    };

    ThreadPool pool(width, /*maxQueue=*/width);
    for (unsigned t = 0; t < width; ++t)
        pool.submit(body);
    pool.wait();

    if (err)
        std::rethrow_exception(err);
}

Rng
taskRng(std::uint64_t seed, std::uint64_t task)
{
    // Fold the task index into the seed with a distinct odd constant,
    // then split, so neighbouring tasks land in decorrelated streams
    // (same recipe as per-processor streams: mix, then split).
    Rng parent(seed ^ (0x9e3779b97f4a7c15ULL * (task + 1)));
    return parent.split();
}

} // namespace dir2b
