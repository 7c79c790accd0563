/**
 * @file
 * PinnedWorkers: persistent shard-pinned worker threads fed from one
 * published dispatch slot — the serving engine's one dispatcher, for
 * data and control steps alike.
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
 *    (shard s belongs to worker s % workers). Only that thread ever
 *    touches those shards' caches — sub-batches and control steps
 *    alike — so per-shard state needs no locking, and outputs can go
 *    to per-shard slots with no cross-worker write contention.
 *  - A dispatch is published once: the caller stores the task array
 *    in one slot, sets an atomic pending-task counter, and tells each
 *    worker that owns a task how many of the slot's tasks are its own
 *    (one seq_cst store per fed worker). The worker runs exactly
 *    those, in array order, and stops reading the slot after its
 *    last one. No mutex on the submit path, and no queue: wait()
 *    drains a dispatch before the next may be published.
 *  - Idle workers poll: spin briefly, then yield, then park on a
 *    condition variable. The caller touches a worker's parking mutex
 *    only when that worker has actually parked — in the steady state
 *    (batches arriving back-to-back) workers are still polling when
 *    the next dispatch lands and dispatch is wakeup-free.
 *  - The caller's completion wait spins only a few dozen polls, then
 *    parks until the worker that finishes the last task wakes it, so
 *    a waiting caller never holds a core a worker needs.
 *
 * Determinism: pinning fixes which thread runs each shard, and each
 * worker runs its tasks in array order, so per-shard execution order
 * is exactly submission order. Shards share no state, so results are
 * bit-exact with inline execution (threads == 0) for any thread count.
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

#include "util/types.h"

namespace talus {

class Counter;
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

/** Persistent shard-pinned workers fed from one dispatch slot. */
class PinnedWorkers
{
  public:
    /** Executes one ShardTask; runs on the shard's owning worker
     *  thread (or the caller's thread when threads == 0). */
    using Executor = std::function<void(const ShardTask&)>;

    /**
     * Starts min(@p threads, @p num_shards) persistent workers — a
     * worker that owned no shard could never run a task — each owning
     * the shards s in [0, num_shards) with s % workers == its index.
     * threads == 0 starts none: dispatch() runs every task inline, in
     * submission order, on the calling thread — the deterministic-
     * debugging mode the threaded modes must match bit-for-bit.
     *
     * @p exec is fixed for the lifetime of the pool (one indirect
     * call per task; never rebuilt per batch).
     *
     * @p metrics (optional) publishes per-worker park and wake counts,
     * labeled `worker="t"` under @p metricsScope, into the registry.
     * Null (the default) leaves never-taken null checks on the park
     * and wake paths only.
     */
    PinnedWorkers(uint32_t threads, uint32_t num_shards, Executor exec,
                  MetricRegistry* metrics = nullptr,
                  const std::string& metricsScope = "");

    /** Unparks and joins the workers. */
    ~PinnedWorkers();

    PinnedWorkers(const PinnedWorkers&) = delete;
    PinnedWorkers& operator=(const PinnedWorkers&) = delete;

    /**
     * Runs tasks[0..count) — each on its shard's owning worker, which
     * runs its tasks in submission order — and returns once every task
     * finished (with release/acquire publication, so the caller sees
     * all worker writes). Not reentrant: one dispatch() at a time,
     * from one thread (enforced by a talus_assert).
     */
    void dispatch(const ShardTask* tasks, uint32_t count)
    {
        dispatchAsync(tasks, count);
        wait();
    }

    /**
     * Submission half of dispatch(): publishes the tasks to their
     * owning workers, wakes parked owners, and returns WITHOUT
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

    /** Worker threads started: min(threads, num_shards) (0 = inline
     *  execution). */
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
    /** Per-worker state: its share of a dispatch, its parking gear.
     *  Line-aligned so one worker's polling never shares a line with
     *  a neighbour's. */
    struct alignas(64) Worker
    {
        /** Tasks of the published dispatch this worker owns; set by
         *  the caller, cleared by the worker when it takes them. */
        std::atomic<uint32_t> assigned{0};
        /** True while the worker sleeps on cv (set before its final
         *  recheck of assigned; see the seq_cst handshake in
         *  workerLoop() and dispatchAsync()). */
        std::atomic<bool> parked{false};
        // Metric handles (null when metrics are off): parks is bumped
        // by the worker thread, wakes by the caller.
        Counter* parks = nullptr;
        Counter* wakes = nullptr;
        std::mutex mu;
        std::condition_variable cv;
    };

    void workerLoop(uint32_t self);

    Executor exec_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;
    const ShardTask* slot_ = nullptr; //!< The published dispatch.
    std::vector<uint32_t> fed_; //!< Dispatch scratch: tasks per worker
                                //!< this dispatch (caller-owned).
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
