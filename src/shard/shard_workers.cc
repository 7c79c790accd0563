#include "shard/shard_workers.h"

#include <algorithm>
#include <utility>

#include "obs/registry.h"
#include "util/log.h"

namespace talus {

namespace {

// One spin iteration's "do nothing, politely": on x86 PAUSE backs off
// the core's speculation and frees the sibling hyperthread; elsewhere
// the closest equivalent (or nothing — the loop itself is the wait).
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
}

// Empty polls before a worker stops spinning and starts yielding
// (~a microsecond of PAUSE loops: long enough to bridge the gap
// between back-to-back batches, short enough not to burn a core), and
// yields before it parks on its condition variable.
constexpr int kSpinPolls = 4096;
constexpr int kYieldPolls = 64;

// Polls before the caller's completion wait parks. Short: the caller
// has nothing to run meanwhile, and with as many workers as cores a
// spinning caller holds the core a worker with queued tasks needs
// (8-shard reconfigureAll on 4 workers and 4 CPUs: ~130 us spinning
// for the full worker budget vs ~25 us parking after 64 polls).
constexpr int kWaitSpinPolls = 64;

} // namespace

PinnedWorkers::PinnedWorkers(uint32_t threads, uint32_t num_shards,
                             Executor exec, MetricRegistry* metrics,
                             const std::string& metricsScope)
    : exec_(std::move(exec))
{
    talus_assert(exec_ != nullptr, "PinnedWorkers needs an executor");
    const uint32_t n = std::min(threads, num_shards);
    if (n == 0)
        return;
    workers_.reserve(n);
    for (uint32_t t = 0; t < n; ++t)
        workers_.push_back(std::make_unique<Worker>());
    fed_.assign(n, 0);
    // Resolve metric handles before any worker thread exists, so the
    // threads only ever see fully initialized (or all-null) pointers.
    if (metrics != nullptr) {
        for (uint32_t t = 0; t < n; ++t) {
            const std::string labels =
                joinLabels(metricsScope, labelPair("worker", t));
            workers_[t]->parks =
                &metrics->counter("talus_worker_parks_total", labels);
            workers_[t]->wakes =
                &metrics->counter("talus_worker_wakes_total", labels);
        }
    }
    threads_.reserve(n);
    for (uint32_t t = 0; t < n; ++t)
        threads_.emplace_back([this, t] { workerLoop(t); });
}

PinnedWorkers::~PinnedWorkers()
{
    stop_.store(true, std::memory_order_release);
    for (auto& w : workers_) {
        std::lock_guard<std::mutex> lock(w->mu);
        w->cv.notify_one();
    }
    for (std::thread& t : threads_)
        t.join();
}

void
PinnedWorkers::dispatchAsync(const ShardTask* tasks, uint32_t count)
{
    if (count == 0)
        return;
    if (threads_.empty()) {
        // Inline mode: submission order on the caller's thread — the
        // bit-exactness reference.
        for (uint32_t i = 0; i < count; ++i)
            exec_(tasks[i]);
        return;
    }

    const bool was_dispatching =
        dispatching_.exchange(true, std::memory_order_acquire);
    talus_assert(!was_dispatching,
                 "PinnedWorkers dispatch is not reentrant: wait() "
                 "before the next dispatchAsync(), and dispatch from "
                 "one thread only");

    slot_ = tasks;
    pending_.store(count, std::memory_order_relaxed);
    std::fill(fed_.begin(), fed_.end(), 0u);
    for (uint32_t i = 0; i < count; ++i)
        ++fed_[ownerOf(tasks[i].shard)];
    // Publish: the store of a worker's share (seq_cst, so also a
    // release) makes the slot, pending_, and the sub-batches the tasks
    // point at visible to it.
    for (uint32_t w = 0; w < workers_.size(); ++w)
        if (fed_[w] != 0)
            workers_[w]->assigned.store(fed_[w], std::memory_order_seq_cst);

    // Wake only workers that both got work and actually parked. Our
    // share store and parked load, and the worker's parked store and
    // share recheck in workerLoop(), are all seq_cst, so they fall in
    // one total order: either we see parked == true here (and notify
    // under the mutex), or the worker sees its share in its recheck —
    // a dispatch can never slip between its last look and its sleep.
    for (uint32_t w = 0; w < workers_.size(); ++w) {
        if (fed_[w] != 0 &&
            workers_[w]->parked.load(std::memory_order_seq_cst)) {
            {
                std::lock_guard<std::mutex> lock(workers_[w]->mu);
                workers_[w]->cv.notify_one();
            }
            if (workers_[w]->wakes != nullptr)
                workers_[w]->wakes->inc();
        }
    }
}

void
PinnedWorkers::wait()
{
    if (threads_.empty())
        return;
    // Completion wait: spin briefly, then park until the worker that
    // finishes the last task wakes us. The acquire pairs with each
    // worker's release fetch_sub, so every task's writes — per-shard
    // hit slots, cache state — are visible on return.
    for (int idle = 0; idle < kWaitSpinPolls &&
                       pending_.load(std::memory_order_acquire) != 0;
         ++idle)
        cpuRelax();
    if (pending_.load(std::memory_order_acquire) != 0) {
        // Park: flag, then recheck — the mirror of the worker's
        // parking protocol. The flag store and the recheck are seq_cst,
        // as are the last fetch_sub in workerLoop() and its flag load,
        // so the final decrement can never slip past both our recheck
        // and its notify.
        callerParked_.store(true, std::memory_order_seq_cst);
        {
            std::unique_lock<std::mutex> lock(doneMu_);
            doneCv_.wait(lock, [this] {
                return pending_.load(std::memory_order_seq_cst) == 0;
            });
        }
        callerParked_.store(false, std::memory_order_relaxed);
    }
    dispatching_.store(false, std::memory_order_release);
}

void
PinnedWorkers::workerLoop(uint32_t self)
{
    Worker& w = *workers_[self];
    int idle = 0;
    while (true) {
        uint32_t mine = w.assigned.load(std::memory_order_acquire);
        if (mine != 0) {
            // Cleared before any decrement: the caller stores the next
            // share only after pending_ reaches zero.
            w.assigned.store(0, std::memory_order_relaxed);
            idle = 0;
            // Run our tasks in array order, and read the slot no
            // further than our last one: once its decrement lands the
            // caller may reuse the array.
            for (const ShardTask* t = slot_; mine != 0; ++t) {
                if (ownerOf(t->shard) != self)
                    continue;
                exec_(*t);
                --mine;
                if (pending_.fetch_sub(1, std::memory_order_seq_cst) ==
                    1) {
                    // Last task of the dispatch: wake the caller if it
                    // parked (seq_cst pairs with the flag store and
                    // recheck in wait()).
                    if (callerParked_.load(std::memory_order_seq_cst)) {
                        std::lock_guard<std::mutex> lock(doneMu_);
                        doneCv_.notify_one();
                    }
                }
            }
            continue;
        }
        if (stop_.load(std::memory_order_acquire))
            return;
        ++idle;
        if (idle < kSpinPolls) {
            cpuRelax();
        } else if (idle < kSpinPolls + kYieldPolls) {
            std::this_thread::yield();
        } else {
            // Park. Flag first, then one last look at our share, both
            // seq_cst like the caller's share store and flag read
            // (dispatchAsync()): if it skipped the notify, our recheck
            // sees its store.
            w.parked.store(true, std::memory_order_seq_cst);
            if (w.assigned.load(std::memory_order_seq_cst) == 0 &&
                !stop_.load(std::memory_order_acquire)) {
                if (w.parks != nullptr)
                    w.parks->inc();
                std::unique_lock<std::mutex> lock(w.mu);
                w.cv.wait(lock, [this, &w] {
                    return stop_.load(std::memory_order_acquire) ||
                           w.assigned.load(std::memory_order_relaxed) !=
                               0;
                });
            }
            w.parked.store(false, std::memory_order_relaxed);
            idle = 0;
        }
    }
}

} // namespace talus
