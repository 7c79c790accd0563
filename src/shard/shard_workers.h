/**
 * @file
 * PinnedWorkers: persistent shard-pinned worker threads fed through
 * bounded SPSC rings — the serving engine's one dispatcher, for data
 * and control steps alike.
 *
 * A pool that re-forms a thread team per batch (lock a mutex, bump a
 * generation, wake every worker, wait for stragglers) pays a
 * handshake on the order of the work itself, which is why threaded
 * sharding once scaled *negatively*. This dispatcher inverts the
 * model, the way production cache servers do (Apache Traffic Server
 * pins continuations to persistent per-core event threads rather
 * than re-forming a thread team per request):
 *
 *  - Each worker thread permanently owns a fixed subset of shards
 *    (shard s belongs to worker s % threads). Only that thread ever
 *    touches those shards' caches — sub-batches and control steps
 *    alike — so per-shard state needs no locking, and outputs can go
 *    to per-shard slots with no cross-worker write contention.
 *  - Work arrives as plain ShardTask descriptors through a per-worker
 *    SPSC ring (shard/spsc_ring.h): dispatching a batch is one ring
 *    push per non-empty shard plus one atomic pending-counter, no
 *    mutex on the submit path.
 *  - Idle workers poll: spin briefly, then yield, then park on a
 *    condition variable. The producer touches a worker's parking
 *    mutex only when that worker has actually parked — in the steady
 *    state (batches arriving back-to-back) workers are still polling
 *    when the next descriptor lands and dispatch is wakeup-free.
 *  - The caller's completion wait spins only a few dozen polls, then
 *    parks until the worker that finishes the last task wakes it, so
 *    a waiting caller never holds a core a worker needs.
 *
 * Determinism: pinning fixes which thread runs each shard, and each
 * ring preserves FIFO order, so per-shard execution order is exactly
 * submission order. Shards share no state, so results are bit-exact
 * with inline execution (threads == 0) for any thread count.
 */

#ifndef TALUS_SHARD_SHARD_WORKERS_H
#define TALUS_SHARD_SHARD_WORKERS_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "shard/spsc_ring.h"
#include "util/types.h"

namespace talus {

class Counter;
class Gauge;
class MetricRegistry;

/** What a ShardTask asks its shard to do. */
enum class ShardOp : uint8_t
{
    Access,             //!< Drive the sub-batch through the shard.
    Reconfigure,        //!< One synchronous control step.
    ReconfigureAtEpoch, //!< Prepare now, apply at the next multiple
                        //!< of count accesses.
};

/** One unit of work for one shard: a sub-batch or a control step. */
struct ShardTask
{
    uint32_t shard = 0;         //!< Target shard index.
    ShardOp op = ShardOp::Access;
    const Addr* data = nullptr; //!< Sub-batch base. Borrowed: must stay
                                //!< valid until dispatch() returns.
    uint64_t count = 0;         //!< Addresses in the sub-batch; the
                                //!< epoch length for
                                //!< ReconfigureAtEpoch.
    PartId part = 0;            //!< Logical partition of the batch.
};

/** Persistent shard-pinned workers fed by per-worker SPSC rings. */
class PinnedWorkers
{
  public:
    /** Executes one ShardTask; runs on the shard's owning worker
     *  thread (or the caller's thread when threads == 0). */
    using Executor = std::function<void(const ShardTask&)>;

    /**
     * Starts @p threads persistent workers, each owning the shards
     * s in [0, num_shards) with s % threads == its index. threads == 0
     * starts none: dispatch() runs every task inline, in submission
     * order, on the calling thread — the deterministic-debugging mode
     * the threaded modes must match bit-for-bit.
     *
     * @p exec is fixed for the lifetime of the pool (one indirect
     * call per task; never rebuilt per batch).
     *
     * @p metrics (optional) publishes per-worker dispatch health —
     * ring depth high-water marks, park and wake counts, labeled
     * `worker="t"` under @p metricsScope — into the registry. Null
     * (the default) compiles the hooks down to never-taken null
     * checks off the ring hot path.
     */
    PinnedWorkers(uint32_t threads, uint32_t num_shards, Executor exec,
                  MetricRegistry* metrics = nullptr,
                  const std::string& metricsScope = "");

    /** Unparks and joins the workers. */
    ~PinnedWorkers();

    PinnedWorkers(const PinnedWorkers&) = delete;
    PinnedWorkers& operator=(const PinnedWorkers&) = delete;

    /**
     * Runs tasks[0..count) — each on its shard's owning worker, FIFO
     * per shard — and returns once every task finished (with release/
     * acquire publication, so the caller sees all worker writes).
     * Tasks for distinct shards owned by the same worker run in
     * submission order. Not reentrant: one dispatch() at a time, from
     * one thread (enforced by a talus_assert).
     */
    void dispatch(const ShardTask* tasks, uint32_t count)
    {
        dispatchAsync(tasks, count);
        wait();
    }

    /**
     * Submission half of dispatch(): pushes every task to its owning
     * worker's ring, wakes parked workers, and returns WITHOUT
     * waiting for completion — the producer can overlap its own work
     * (scattering the next block) with the drain. With threads == 0
     * the tasks run inline here, so async and sync modes stay
     * bit-exact.
     *
     * Exactly one async dispatch may be outstanding: call wait()
     * before the next dispatchAsync() (enforced by the same
     * reentrancy trap dispatch() uses). The task descriptors and the
     * sub-batches they point at must stay valid until wait() returns.
     */
    void dispatchAsync(const ShardTask* tasks, uint32_t count);

    /**
     * Completion half of dispatch(): returns once every task of the
     * outstanding dispatchAsync() finished, with the same release/
     * acquire publication dispatch() provides. No-op when nothing is
     * outstanding (or threads == 0).
     */
    void wait();

    /** Worker threads (0 = inline execution). */
    uint32_t threadCount() const
    {
        return static_cast<uint32_t>(threads_.size());
    }

    /** The worker thread owning @p shard (threads > 0 only). */
    uint32_t ownerOf(uint32_t shard) const
    {
        return shard % static_cast<uint32_t>(workers_.size());
    }

  private:
    /** Per-worker state: its task ring and its parking gear. */
    struct Worker
    {
        explicit Worker(uint32_t ring_capacity) : ring(ring_capacity) {}

        SpscRing<ShardTask> ring;
        // Metric handles (null when metrics are off). parks is bumped
        // by the worker thread, wakes by the producer, and the ring
        // depth high-water mark by the producer alone (hwm is plain:
        // producer-only state).
        Counter* parks = nullptr;
        Counter* wakes = nullptr;
        Gauge* ringDepthHwm = nullptr;
        uint64_t hwm = 0;
        /** True while the worker sleeps on cv (set by the worker
         *  before its final empty-ring recheck; the seq_cst fences in
         *  workerLoop()/dispatch() make flag and ring visible in a
         *  consistent order, so a push is never silently missed). */
        std::atomic<bool> parked{false};
        std::mutex mu;
        std::condition_variable cv;
    };

    void workerLoop(Worker& w);

    Executor exec_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;
    std::vector<uint8_t> touched_; //!< Dispatch scratch: workers fed
                                   //!< this batch (caller-owned).
    std::atomic<uint64_t> pending_{0}; //!< Tasks in flight.
    std::atomic<bool> stop_{false};
    std::atomic<bool> dispatching_{false}; //!< Reentrancy trap.
    // The caller's parking gear for wait(): set while it sleeps on
    // doneCv_, which the worker finishing the last task notifies.
    std::atomic<bool> callerParked_{false};
    std::mutex doneMu_;
    std::condition_variable doneCv_;
};

} // namespace talus

#endif // TALUS_SHARD_SHARD_WORKERS_H
