/**
 * @file
 * Microbenchmarks (google-benchmark): throughput of the hot paths —
 * cache accesses under each policy, Talus routing overhead, monitor
 * updates, and the reconfiguration-time math (hull + configuration).
 *
 * These verify the library is fast enough for the trace volumes the
 * figure benches need, and quantify the paper's claim that Talus's
 * software overheads are "a few thousand cycles per reconfiguration".
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/allocator_factory.h"
#include "api/talus_cache.h"
#include "cache/fully_assoc_lru.h"
#include "control/control_plane.h"
#include "control/control_step.h"
#include "core/convex_hull.h"
#include "core/shadow_router.h"
#include "core/talus_config.h"
#include "core/talus_controller.h"
#include "monitor/combined_umon.h"
#include "obs/registry.h"
#include "monitor/mattson_curve.h"
#include "monitor/stack_distance.h"
#include "policy/policy_factory.h"
#include "shard/sharded_cache.h"
#include "sim/serving_harness.h"
#include "util/h3_hash.h"
#include "util/rng.h"
#include "workload/access_stream.h"
#include "workload/mix_stream.h"
#include "workload/zipf_stream.h"

using namespace talus;

namespace {

void
BM_H3Hash(benchmark::State& state)
{
    H3Hash hash(8, 1);
    Addr addr = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(hash.hash(addr++));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_H3Hash);

void
BM_ShadowRouterRoute(benchmark::State& state)
{
    ShadowRouter router(8, 0x70C4);
    router.setRho(0.37);
    Addr addr = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(router.toAlpha(addr++));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowRouterRoute);

void
BM_FullyAssocLru(benchmark::State& state)
{
    FullyAssocLru lru(8192);
    Rng rng(17);
    for (auto _ : state)
        benchmark::DoNotOptimize(lru.access(rng.below(16384)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullyAssocLru);

void
BM_StackDistanceCounter(benchmark::State& state)
{
    StackDistanceCounter counter;
    Rng rng(19);
    for (auto _ : state)
        benchmark::DoNotOptimize(counter.access(rng.below(1 << 14)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StackDistanceCounter);

void
BM_CacheAccess(benchmark::State& state, const std::string& policy)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 1024;
    cfg.numWays = 16;
    SetAssocCache cache(cfg, makePolicy(policy, 7));
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.below(32768)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_CacheAccess, lru, std::string("LRU"));
BENCHMARK_CAPTURE(BM_CacheAccess, srrip, std::string("SRRIP"));
BENCHMARK_CAPTURE(BM_CacheAccess, drrip, std::string("DRRIP"));
BENCHMARK_CAPTURE(BM_CacheAccess, dip, std::string("DIP"));
BENCHMARK_CAPTURE(BM_CacheAccess, pdp, std::string("PDP"));

void
BM_TalusRoutedAccess(benchmark::State& state)
{
    auto phys =
        makePartitionedCache(SchemeKind::Vantage, 16384, 16, "LRU", 2, 9);
    TalusController::Config tc;
    tc.numLogicalParts = 1;
    TalusController ctl(std::move(phys), tc);
    const MissCurve cliff({{0, 1.0}, {8192, 0.9}, {12288, 0.1},
                           {16384, 0.1}});
    ctl.configure({cliff}, {10000});
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(ctl.access(rng.below(32768), 0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TalusRoutedAccess);

/**
 * The batched shadow route at rho = range(0) / 100, as
 * TalusController::accessBlock in 4096-address blocks. The 2048-line
 * footprint stays resident in both shadow partitions at either rho
 * (the hit_ratio counter reads 1), so both rows run the same all-hit
 * kernel and differ only in how predictable the alpha/beta split is:
 * a branch on the limit compare mispredicts on about half the
 * accesses at rho:50 and almost none at rho:99, the branch-free route
 * on neither. compare_bench.py holds rho:50 to rho:99.
 */
void
BM_TalusRoutedBlock(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    auto phys =
        makePartitionedCache(SchemeKind::Vantage, 16384, 16, "LRU", 2, 9);
    TalusController::Config tc;
    tc.numLogicalParts = 1;
    tc.margin = 0.0;
    TalusController ctl(std::move(phys), tc);
    // Hull segment from 4096 to 12288 lines: s routes
    // rho = (12288 - s) / 8192 and sizes alpha at rho * 4096 lines.
    const MissCurve knee({{0, 1.0}, {4096, 0.5}, {12288, 0.1},
                          {16384, 0.09}});
    const double rho = static_cast<double>(state.range(0)) / 100.0;
    ctl.configure({knee}, {static_cast<uint64_t>(12288 - rho * 8192)});
    Rng rng(31);
    std::vector<Addr> addrs(uint64_t{1} << 16);
    for (Addr& a : addrs)
        a = rng.below(2048);
    // Warm the footprint in, so the timed blocks all hit.
    for (size_t off = 0; off < addrs.size(); off += kBlock)
        ctl.accessBlock(addrs.data() + off, kBlock, 0);
    uint64_t hits = 0;
    size_t off = 0;
    for (auto _ : state) {
        hits += ctl.accessBlock(addrs.data() + off, kBlock, 0);
        off = (off + kBlock) & (addrs.size() - 1);
    }
    const auto items = state.iterations() * static_cast<int64_t>(kBlock);
    state.SetItemsProcessed(items);
    state.counters["hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(items);
}
BENCHMARK(BM_TalusRoutedBlock)->Arg(50)->Arg(99)->ArgName("rho");

void
BM_UmonAccess(benchmark::State& state)
{
    CombinedUMon::Config cfg;
    cfg.llcLines = 1 << 17;
    CombinedUMon mon(cfg);
    Rng rng(7);
    for (auto _ : state)
        mon.access(rng.below(1 << 20));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UmonAccess);

/** Block-hashed monitor feed: both UMons through accessBlock. */
void
BM_CombinedUMonAccess(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    CombinedUMon::Config cfg;
    cfg.llcLines = 1 << 17;
    CombinedUMon mon(cfg);
    Rng rng(7);
    std::vector<Addr> addrs(kBlock);
    for (Addr& a : addrs)
        a = rng.below(1 << 20);
    for (auto _ : state)
        mon.accessBlock(Span<const Addr>(addrs.data(), addrs.size()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_CombinedUMonAccess);

/**
 * The monitor feed at a served sampling rate. At llcLines 2^17 the
 * primary samples 0.8% of addresses, so BM_CombinedUMonAccess times
 * hashing and almost never the tag-array walk; at llcLines 8192 it
 * samples 12.5%, as in an 8192-line engine. Addresses are shaped like
 * tenant partitions: Zipf(0.6) keys over 8192 lines at address-space
 * ids 1-3 (bit 40 and up), one id per 1024-address run, so a block
 * switches high words mid-block.
 */
void
BM_CombinedUMonTenantAccess(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    constexpr size_t kRun = 1024;
    CombinedUMon::Config cfg;
    cfg.llcLines = static_cast<uint64_t>(state.range(0));
    CombinedUMon mon(cfg);
    std::vector<Addr> addrs(kBlock);
    for (size_t off = 0; off < kBlock; off += kRun) {
        const uint32_t tenant = static_cast<uint32_t>(1 + off / kRun % 3);
        ZipfStream zipf(8192, 0.6, tenant, 31 + off);
        zipf.nextBlock(addrs.data() + off, kRun);
    }
    for (auto _ : state)
        mon.accessBlock(Span<const Addr>(addrs.data(), addrs.size()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_CombinedUMonTenantAccess)->ArgName("llc")->Arg(8192);

TalusCache::Config
facadeBenchConfig()
{
    TalusCache::Config cc;
    cc.llcLines = 16384;
    cc.ways = 16;
    cc.numParts = 1;
    cc.allocatorName = "";
    cc.seed = 21;
    return cc;
}

std::vector<Addr>
facadeBenchAddrs()
{
    Rng rng(23);
    std::vector<Addr> addrs(1 << 16);
    for (Addr& a : addrs)
        a = rng.below(32768);
    return addrs;
}

/** Serial facade access: monitors + routed cache, one call per addr. */
void
BM_TalusFacadeAccess(benchmark::State& state)
{
    TalusCache cache(facadeBenchConfig());
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i], 0));
        i = (i + 1) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TalusFacadeAccess);

/** Same facade and address stream, driven through accessBatch. */
void
BM_TalusBatchedAccess(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    TalusCache cache(facadeBenchConfig());
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBlock), 0));
        off = (off + kBlock) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_TalusBatchedAccess);

/**
 * The metricsEnabled toll on the batched facade path: the same load
 * as BM_TalusBatchedAccess with metrics off (arg 0) and on (arg 1,
 * publishing into a fresh local registry). compare_bench.py checks
 * metrics:1 stays within 2% of metrics:0 — the observability layer's
 * advertised overhead budget.
 */
void
BM_MetricsOverhead(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    MetricRegistry registry;
    TalusCache::Config cc = facadeBenchConfig();
    if (state.range(0) != 0) {
        cc.metricsEnabled = true;
        cc.metrics = &registry;
    }
    TalusCache cache(cc);
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBlock), 0));
        off = (off + kBlock) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1)->ArgName("metrics");

/** The facade with monitoring off: isolates router + cache cost. */
void
BM_TalusMonitorOffAccess(benchmark::State& state)
{
    TalusCache::Config cc = facadeBenchConfig();
    cc.monitoring = false;
    TalusCache cache(cc);
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i], 0));
        i = (i + 1) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TalusMonitorOffAccess);

/**
 * The fused Vantage+LRU kernel across cache geometries: batched
 * 4096-access blocks, one partition, monitoring off, uniform
 * addresses over twice the capacity (so about half the accesses miss
 * and the miss path's victim scans run). Arg 0 is the associativity
 * (16, and Table I's 32), arg 1 the capacity in lines (16K lines is
 * L2-resident, 128K is Table I's full-scale 8 MB LLC, 1M outgrows
 * the host's caches).
 * compare_bench.py holds the 32-way row within 1.25x of the 16-way
 * row per access at 16K lines.
 */
void
BM_KernelGeometry(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    const uint64_t lines = static_cast<uint64_t>(state.range(1));
    TalusCache::Config cc = facadeBenchConfig();
    cc.ways = static_cast<uint32_t>(state.range(0));
    cc.llcLines = lines;
    cc.monitoring = false;
    TalusCache cache(cc);
    Rng rng(29);
    std::vector<Addr> addrs(std::max<uint64_t>(uint64_t{1} << 16,
                                               2 * lines));
    for (Addr& a : addrs)
        a = rng.below(2 * lines);
    // Warm the cache with one pass, so the timed blocks are steady.
    for (size_t off = 0; off + kBlock <= addrs.size(); off += kBlock)
        cache.accessBatch(Span<const Addr>(addrs.data() + off, kBlock), 0);
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBlock), 0));
        off += kBlock;
        if (off + kBlock > addrs.size())
            off = 0;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_KernelGeometry)
    ->ArgsProduct({{16, 32}, {16384, 131072, 1048576}})
    ->ArgNames({"ways", "lines"});

/**
 * The fused Vantage+LRU kernel across partition counts: a 16-way,
 * 16K-line Vantage cache driven through accessBatchRouted() in routed
 * 4096-access blocks, each address to a uniformly random partition,
 * equal targets summing to 90% of capacity, uniform addresses over
 * twice the capacity. The miss path's victim scans cover every
 * partition, so the per-set state they read grows with arg 0, the
 * partition count, wherever the kernel keeps it per partition.
 */
void
BM_KernelPartitions(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    constexpr uint64_t kLines = 16384;
    const uint32_t parts = static_cast<uint32_t>(state.range(0));
    auto cache =
        makePartitionedCache(SchemeKind::Vantage, kLines, 16, "LRU", parts);
    cache->setTargets(std::vector<uint64_t>(parts, kLines * 9 / 10 / parts));
    Rng rng(37);
    std::vector<Addr> addrs(uint64_t{1} << 16);
    std::vector<PartId> route(addrs.size());
    for (size_t i = 0; i < addrs.size(); ++i) {
        addrs[i] = rng.below(2 * kLines);
        route[i] = static_cast<PartId>(rng.below(parts));
    }
    // Warm the cache with one pass, so the timed blocks are steady.
    for (size_t off = 0; off < addrs.size(); off += kBlock)
        cache->accessBatchRouted(addrs.data() + off, route.data() + off,
                                 kBlock);
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache->accessBatchRouted(
            addrs.data() + off, route.data() + off, kBlock));
        off = (off + kBlock) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_KernelPartitions)->Arg(2)->Arg(32)->ArgName("parts");

/**
 * Scatter-dispatch-gather through the sharded serving engine, with a
 * shard-count scaling sweep. Total capacity is held constant (the
 * facade bench cache split across shards) so the sweep isolates the
 * shard layer's routing + dispatch cost. The threads:0 rows are the
 * deterministic, host-independent ones the regression gate tracks;
 * the threads:2/threads:4 rows of the same sweep measure worker-pool
 * dispatch and depend on core count (hence UseRealTime: with work on
 * pool threads, the main thread's cpu_time would be meaningless).
 */
void
BM_ShardedBatchedAccess(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    const uint32_t shards = static_cast<uint32_t>(state.range(0));
    const uint32_t threads = static_cast<uint32_t>(state.range(1));
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / shards;
    cfg.numShards = shards;
    cfg.threads = threads;
    ShardedTalusCache cache(cfg);
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBlock), 0));
        off = (off + kBlock) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_ShardedBatchedAccess)
    ->ArgNames({"shards", "threads"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->UseRealTime();

/**
 * Pipelined dispatch on batches spanning several kPipelineBlock
 * blocks (the only shape where the double-buffered scatter engages):
 * one worker thread, so the overlap measured is precisely "caller
 * scatters block k+1 while the worker drains block k". The reference
 * is BM_ShardedBatchedAccess/shards:4/threads:1, the same engine and
 * geometry dispatched one kPipelineBlock-sized batch at a time. On
 * single-core hosts the two converge (the caller and worker
 * time-slice); compare_bench.py only enforces pipelined >= that row
 * on hosts with >= 2 CPUs.
 */
void
BM_ShardedPipelinedAccess(benchmark::State& state)
{
    const size_t kBatch = 4 * ShardedTalusCache::kPipelineBlock;
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / 4;
    cfg.numShards = 4;
    cfg.threads = 1;
    ShardedTalusCache cache(cfg);
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBatch), 0));
        off = (off + kBatch) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ShardedPipelinedAccess)->UseRealTime();

/**
 * Replays a prebuilt power-of-two address buffer, cycling forever —
 * generation is an indexed copy, so the serving benches measure the
 * serving path, not workload math.
 */
class ReplayStream final : public AccessStream
{
  public:
    explicit ReplayStream(std::vector<Addr> addrs)
        : addrs_(std::move(addrs)), mask_(addrs_.size() - 1)
    {
    }

    Addr next() override
    {
        const Addr a = addrs_[i_];
        i_ = (i_ + 1) & mask_;
        return a;
    }

    void nextBlock(Addr* out, uint64_t n) override
    {
        for (uint64_t k = 0; k < n; ++k) {
            out[k] = addrs_[i_];
            i_ = (i_ + 1) & mask_;
        }
    }

    void reset() override { i_ = 0; }

    std::unique_ptr<AccessStream> clone() const override
    {
        return std::make_unique<ReplayStream>(addrs_);
    }

    const char* kind() const override { return "replay"; }

  private:
    std::vector<Addr> addrs_;
    size_t mask_;
    size_t i_ = 0;
};

/**
 * The serving harness's closed-loop driver over the sharded engine:
 * back-to-back batches with per-batch latency sampling — the
 * end-to-end serving hot path (scatter, worker dispatch, gather,
 * percentile bookkeeping). The threads:0 row is the deterministic
 * tracked one; the threads:4 row of the same sweep is what the
 * no-negative-scaling invariant in compare_bench.py checks against
 * BM_ShardedBatchedAccess. UseRealTime as in the other sharded
 * sweeps: work runs on pinned worker threads.
 */
void
BM_ServingClosedLoop(benchmark::State& state)
{
    constexpr uint64_t kAccessesPerRun = 1 << 15;
    const uint32_t shards = static_cast<uint32_t>(state.range(0));
    const uint32_t threads = static_cast<uint32_t>(state.range(1));
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / shards;
    cfg.numShards = shards;
    cfg.threads = threads;
    ShardedTalusCache cache(cfg);
    ReplayStream stream(facadeBenchAddrs());
    ServingOptions serve;
    serve.accesses = kAccessesPerRun;
    serve.batchSize = 4096;
    double p99_us = 0.0;
    for (auto _ : state) {
        const ServingResult r = runClosedLoop(cache, stream, serve);
        benchmark::DoNotOptimize(r.hits);
        p99_us = r.latency.p99 * 1e6;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kAccessesPerRun));
    state.counters["p99_us"] = p99_us;
}
BENCHMARK(BM_ServingClosedLoop)
    ->ArgNames({"shards", "threads"})
    ->Args({4, 0})
    ->Args({4, 4})
    ->UseRealTime();

/**
 * The open-loop driver at a fixed offered rate well below any host's
 * capacity: wall time is schedule-dominated (items/s ~= offered
 * rate by construction), so the bench is NOT throughput-tracked —
 * it exists to exercise the arrival scheduler and report the sojourn
 * p99 as a counter.
 */
void
BM_ServingOpenLoop(benchmark::State& state)
{
    constexpr uint64_t kAccessesPerRun = 1 << 15;
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / 4;
    cfg.numShards = 4;
    cfg.threads = static_cast<uint32_t>(state.range(0));
    ShardedTalusCache cache(cfg);
    ReplayStream stream(facadeBenchAddrs());
    ServingOptions serve;
    serve.accesses = kAccessesPerRun;
    serve.batchSize = 4096;
    serve.offeredRate = 2e6; // Accesses/s, far under capacity.
    double p99_us = 0.0;
    uint64_t late = 0;
    for (auto _ : state) {
        const ServingResult r = runOpenLoop(cache, stream, serve);
        benchmark::DoNotOptimize(r.hits);
        p99_us = r.latency.p99 * 1e6;
        late += r.lateBatches;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kAccessesPerRun));
    state.counters["p99_us"] = p99_us;
    state.counters["late_batches"] =
        static_cast<double>(late) /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_ServingOpenLoop)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->UseRealTime();

void
BM_MattsonAccess(benchmark::State& state)
{
    MattsonCurve mattson(1 << 16);
    Rng rng(9);
    for (auto _ : state)
        mattson.access(rng.below(1 << 15));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MattsonAccess);

void
BM_ZipfNext(benchmark::State& state)
{
    ZipfStream zipf(1 << 16, 0.8, 0, 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfNext);

/** Zipf(0.9) draws through nextBlock, 4096 addresses per call. */
void
BM_ZipfNextBlock(benchmark::State& state)
{
    ZipfStream zipf(static_cast<uint64_t>(state.range(0)), 0.9, 0, 11);
    std::vector<Addr> block(4096);
    for (auto _ : state) {
        zipf.nextBlock(block.data(), block.size());
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_ZipfNextBlock)->Arg(1 << 16)->ArgName("lines");

/**
 * A tenant roster as perfbench's tenant_churn_parts draws it: four
 * tenants, Zipf(0.6) over 8192 private lines each, mixed evenly and
 * drawn 4096 addresses per nextBlock call.
 */
void
BM_MixNextBlock(benchmark::State& state)
{
    std::vector<MixStream::Component> tenants;
    for (uint32_t t = 0; t < 4; ++t)
        tenants.push_back(
            {std::make_unique<ZipfStream>(1 << 13, 0.6, t, 101 + t), 1.0});
    MixStream roster(std::move(tenants), 13);
    std::vector<Addr> block(4096);
    for (auto _ : state) {
        roster.nextBlock(block.data(), block.size());
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_MixNextBlock);

/**
 * One full control-plane compute stage: one convex hull per monitored
 * curve, the hulls weighted by interval volume, and the allocator,
 * double-buffered through a ControlPlane — the entire off-hot-path
 * cost of one reconfiguration decision for a two-partition cache with
 * 64-point monitored curves.
 */
void
BM_ControlPlaneStep(benchmark::State& state)
{
    ControlInput in;
    in.numParts = 2;
    in.llcLines = 1 << 17;
    in.capacityLines = 1 << 17;
    in.granule = (1 << 17) / 64;
    Rng rng(29);
    for (uint32_t part = 0; part < in.numParts; ++part) {
        std::vector<CurvePoint> pts;
        double value = 1.0;
        for (int i = 0; i <= 64; ++i) {
            pts.push_back({static_cast<double>(i * 2048), value});
            value = std::max(0.0, value - rng.unit() * 0.05);
        }
        in.curves.push_back(MissCurve(std::move(pts)));
        in.intervalAccesses.push_back(50'000 * (part + 1));
    }
    ControlPlane plane(makeAllocator("HillClimb"));
    for (auto _ : state) {
        plane.compute(in);
        benchmark::DoNotOptimize(plane.commit().alloc.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlPlaneStep);

/**
 * A full reconfiguration sweep across all shards of a sharded engine
 * (snapshot + pure control step + apply per shard), dispatched via
 * reconfigureAll(). The threads:0 row is the deterministic tracked
 * one; threads:2/4 of the same sweep show that per-shard control
 * steps no longer serialize — on multi-core hosts they overlap on
 * the worker pool (UseRealTime: the work runs on pool threads).
 */
void
BM_ShardedReconfigure(benchmark::State& state)
{
    const uint32_t shards = static_cast<uint32_t>(state.range(0));
    const uint32_t threads = static_cast<uint32_t>(state.range(1));
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / shards;
    cfg.shard.allocatorName = "HillClimb";
    cfg.numShards = shards;
    cfg.threads = threads;
    ShardedTalusCache cache(cfg);
    // Warm the monitors so every control step sees real curves.
    const std::vector<Addr> addrs = facadeBenchAddrs();
    cache.accessBatch(Span<const Addr>(addrs), 0);
    for (auto _ : state) {
        cache.reconfigureAll();
        benchmark::DoNotOptimize(cache.reconfigurations());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(shards));
}
BENCHMARK(BM_ShardedReconfigure)
    ->ArgNames({"shards", "threads"})
    ->Args({8, 0})
    ->Args({8, 2})
    ->Args({8, 4})
    ->UseRealTime();

/**
 * What one reconfiguration costs the served path, end to end:
 * prepareReconfigure() + applyReconfigure() + the next one-access
 * accessBatch, on a warmed 8192-line, 16-way, 4-partition facade
 * (the perfbench tenant_churn_parts geometry). BM_ControlPlaneStep
 * and BM_ShardedReconfigure stop at apply, so they cannot see work
 * that apply defers to the next access (a kernel mask rebuild would
 * land there). Every snapshot halves the monitors' counters and an
 * iteration feeds them one access, so after the first iterations the
 * curves are nearly flat: hulls have few vertices, and prepare costs
 * a few microseconds less than on live curves.
 */
void
BM_ReconfigureResume(benchmark::State& state)
{
    constexpr uint32_t kParts = 4;
    TalusCache::Config cc;
    cc.llcLines = 8192;
    cc.ways = 16;
    cc.numParts = kParts;
    cc.reconfigInterval = 0; // Driven explicitly below.
    cc.seed = 21;
    TalusCache cache(cc);
    // Private 16384-line key space per partition (top address bits).
    Rng rng(31);
    std::vector<Addr> addrs[kParts];
    for (PartId p = 0; p < kParts; ++p) {
        addrs[p].resize(1 << 15);
        for (Addr& a : addrs[p])
            a = (static_cast<Addr>(p) << 40) | rng.below(16384);
        cache.accessBatch(Span<const Addr>(addrs[p]), p);
    }
    size_t i = 0;
    for (auto _ : state) {
        cache.prepareReconfigure();
        cache.applyReconfigure();
        const PartId p = static_cast<PartId>(i % kParts);
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(&addrs[p][i & ((1 << 15) - 1)], 1), p));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReconfigureResume);

/** The per-reconfiguration software work: hull + configuration. */
void
BM_ReconfigurationMath(benchmark::State& state)
{
    // A 64-point monitored curve, as UMONs produce.
    std::vector<CurvePoint> pts;
    Rng rng(13);
    double value = 1.0;
    for (int i = 0; i <= 64; ++i) {
        pts.push_back({static_cast<double>(i * 2048), value});
        value = std::max(0.0, value - rng.unit() * 0.05);
    }
    const MissCurve curve(pts);
    for (auto _ : state) {
        const ConvexHull hull(curve);
        benchmark::DoNotOptimize(
            computeTalusConfig(hull, 77777.0, 0.05));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReconfigurationMath);

} // namespace

BENCHMARK_MAIN();
