#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace rasengan::parallel {

namespace {

thread_local bool tls_in_parallel = false;

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return std::min(requested, 256);
    if (const char *env = std::getenv("RASENGAN_THREADS")) {
        int n = std::atoi(env);
        if (n > 0)
            return std::min(n, 256);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(std::min(hw, 256u));
}

/**
 * The global pool.  Workers park on a condition variable between jobs;
 * each job assigns worker w the chunk ranges_[w + 1] (the caller runs
 * ranges_[0]), so the work assignment is static and lock-free during
 * execution.
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    /** Lock-free: parallelFor callers size their chunk lists with it
     *  while another thread may be inside configure(). */
    int size() const { return size_.load(std::memory_order_relaxed); }

    void
    configure(int requested)
    {
        std::lock_guard<std::mutex> serial(runMutex_);
        const int n = resolveThreadCount(requested);
        if (n == size())
            return; // keep the running workers
        stopWorkers();
        size_.store(n, std::memory_order_relaxed);
        startWorkers();
    }

    /**
     * Run @p fn over the chunk list @p ranges (ranges.size() >= 1).
     * The caller executes ranges[0]; workers 0..size()-2 execute
     * ranges 1..size()-1.  Chunks beyond that (the list was sized
     * before a concurrent configure() shrank the pool) also run on the
     * caller.  Returns after every chunk completed.
     */
    void
    run(const std::function<void(uint64_t, uint64_t)> &fn,
        std::vector<std::pair<uint64_t, uint64_t>> ranges)
    {
        std::lock_guard<std::mutex> serial(runMutex_);
        const size_t pooled =
            std::min(ranges.size(), static_cast<size_t>(size()));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            fn_ = &fn;
            ranges_ = std::move(ranges);
            pending_ = static_cast<int>(pooled) - 1;
            ++generation_;
        }
        wake_.notify_all();

        tls_in_parallel = true;
        (*fn_)(ranges_[0].first, ranges_[0].second);
        for (size_t c = pooled; c < ranges_.size(); ++c)
            (*fn_)(ranges_[c].first, ranges_[c].second);
        tls_in_parallel = false;

        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return pending_ == 0; });
        fn_ = nullptr;
    }

  private:
    Pool() : size_(resolveThreadCount(0)) { startWorkers(); }

    ~Pool() { stopWorkers(); }

    void
    startWorkers()
    {
        shutdown_ = false;
        // Fresh workers must not observe a generation bump from before
        // they were spawned: hand each its starting generation so the
        // first wake only fires on the next run().
        const uint64_t gen = generation_;
        for (int w = 0; w < size() - 1; ++w)
            workers_.emplace_back([this, w, gen] { workerLoop(w, gen); });
    }

    void
    stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shutdown_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : workers_)
            t.join();
        workers_.clear();
        // All workers are joined: drop the stale job so nothing dangles.
        fn_ = nullptr;
        ranges_.clear();
    }

    void
    workerLoop(int index, uint64_t seen)
    {
        for (;;) {
            std::pair<uint64_t, uint64_t> range{0, 0};
            const std::function<void(uint64_t, uint64_t)> *fn = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] {
                    return shutdown_ || generation_ != seen;
                });
                if (shutdown_)
                    return;
                seen = generation_;
                size_t slot = static_cast<size_t>(index) + 1;
                if (slot >= ranges_.size())
                    continue; // more workers than chunks this round
                range = ranges_[slot];
                fn = fn_;
            }
            tls_in_parallel = true;
            (*fn)(range.first, range.second);
            tls_in_parallel = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                --pending_;
            }
            done_.notify_one();
        }
    }

    std::mutex runMutex_; ///< serializes run()/configure() callers

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    const std::function<void(uint64_t, uint64_t)> *fn_ = nullptr;
    std::vector<std::pair<uint64_t, uint64_t>> ranges_;
    uint64_t generation_ = 0;
    int pending_ = 0;
    std::atomic<int> size_{1};
    bool shutdown_ = false;
};

} // namespace

int
threadCount()
{
    return Pool::instance().size();
}

void
setThreadCount(int n)
{
    panic_if(tls_in_parallel,
             "setThreadCount from inside a parallel region");
    Pool::instance().configure(n);
}

bool
inParallelRegion()
{
    return tls_in_parallel;
}

void
parallelFor(uint64_t begin, uint64_t end, uint64_t grain,
            const std::function<void(uint64_t, uint64_t)> &fn)
{
    if (begin >= end)
        return;
    const uint64_t n = end - begin;
    if (grain == 0)
        grain = 1;
    Pool &pool = Pool::instance();
    uint64_t chunks = std::min<uint64_t>(pool.size(), n / grain);
    if (chunks <= 1 || tls_in_parallel) {
        fn(begin, end);
        return;
    }
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    ranges.reserve(chunks);
    for (uint64_t c = 0; c < chunks; ++c) {
        uint64_t lo = begin + n * c / chunks;
        uint64_t hi = begin + n * (c + 1) / chunks;
        ranges.emplace_back(lo, hi);
    }
    pool.run(fn, std::move(ranges));
}

void
parallelForDynamic(uint64_t begin, uint64_t end,
                   const std::function<void(uint64_t)> &fn)
{
    if (begin >= end)
        return;
    const uint64_t n = end - begin;
    Pool &pool = Pool::instance();
    uint64_t lanes = std::min<uint64_t>(pool.size(), n);
    if (lanes <= 1 || tls_in_parallel) {
        for (uint64_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    std::atomic<uint64_t> next{begin};
    // Every lane runs the same claim loop; the range arguments carry no
    // information (the shared counter is the work list).
    auto claimLoop = [&](uint64_t, uint64_t) {
        for (;;) {
            uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                return;
            fn(i);
        }
    };
    std::vector<std::pair<uint64_t, uint64_t>> ranges(
        lanes, std::pair<uint64_t, uint64_t>{0, 0});
    pool.run(claimLoop, std::move(ranges));
}

double
reduceBlocks(uint64_t begin, uint64_t end, uint64_t block,
             const std::function<double(uint64_t, uint64_t)> &fn)
{
    if (begin >= end)
        return 0.0;
    if (block == 0)
        block = 1;
    const uint64_t nblocks = (end - begin + block - 1) / block;
    if (nblocks == 1)
        return fn(begin, end);
    std::vector<double> partial(nblocks);
    parallelFor(0, nblocks, 1, [&](uint64_t b0, uint64_t b1) {
        for (uint64_t b = b0; b < b1; ++b) {
            uint64_t lo = begin + b * block;
            uint64_t hi = std::min(lo + block, end);
            partial[b] = fn(lo, hi);
        }
    });
    double acc = 0.0;
    for (double p : partial)
        acc += p;
    return acc;
}

std::complex<double>
reduceBlocksComplex(uint64_t begin, uint64_t end, uint64_t block,
                    const std::function<std::complex<double>(
                        uint64_t, uint64_t)> &fn)
{
    if (begin >= end)
        return {0.0, 0.0};
    if (block == 0)
        block = 1;
    const uint64_t nblocks = (end - begin + block - 1) / block;
    if (nblocks == 1)
        return fn(begin, end);
    std::vector<std::complex<double>> partial(nblocks);
    parallelFor(0, nblocks, 1, [&](uint64_t b0, uint64_t b1) {
        for (uint64_t b = b0; b < b1; ++b) {
            uint64_t lo = begin + b * block;
            uint64_t hi = std::min(lo + block, end);
            partial[b] = fn(lo, hi);
        }
    });
    std::complex<double> acc{0.0, 0.0};
    for (const std::complex<double> &p : partial)
        acc += p;
    return acc;
}

} // namespace rasengan::parallel
