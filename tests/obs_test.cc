/**
 * @file
 * Observability layer: metric primitives, registry snapshot/delta
 * semantics, exporters, and the engine instrumentation contracts —
 * including the two guarantees the layer is sold on: quantile
 * estimates within the documented 1/32 bound of the exact-sort
 * oracle, and metricsEnabled=false leaving the engine's hit/miss
 * stream bit-identical. The `shard` label puts the concurrency tests
 * (multi-threaded recording, snapshots under a live sharded engine)
 * under the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/talus.h"
#include "sim/serving_harness.h"
#include "util/rng.h"
#include "workload/zipf_stream.h"

namespace talus {
namespace {

// ---------------------------------------------------------------------
// Primitives.

TEST(CounterTest, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, LastValueWins)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
}

TEST(HistogramTest, BucketGeometryRoundTrips)
{
    // Every value must land in a bucket whose inclusive upper bound
    // covers it, and (above the exact region) whose width is at most
    // 1/32 of its lower bound — the basis of the quantile bound.
    const std::vector<uint64_t> probes = {
        0,  1,  31, 32, 33, 63, 64, 65, 100, 1000, 4096, 4097,
        (1ull << 20) - 1, 1ull << 20, 123456789ull,
        1ull << 40, (1ull << 63), ~0ull};
    for (uint64_t v : probes) {
        const uint32_t i = Histogram::bucketIndex(v);
        ASSERT_LT(i, Histogram::kBuckets) << "value " << v;
        EXPECT_GE(Histogram::bucketUpperBound(i), v) << "value " << v;
        if (i > 0) {
            // The previous bucket must NOT cover v (buckets ascend).
            EXPECT_LT(Histogram::bucketUpperBound(i - 1), v)
                << "value " << v;
        }
        if (v < Histogram::kSubBuckets) {
            EXPECT_EQ(Histogram::bucketUpperBound(i), v);
        } else {
            const uint64_t lb = Histogram::bucketUpperBound(i - 1) + 1;
            const uint64_t width = Histogram::bucketUpperBound(i) - lb;
            EXPECT_LE(width * Histogram::kSubBuckets, lb)
                << "value " << v;
        }
    }
}

TEST(HistogramTest, ExactBelowSubBucketRegion)
{
    Histogram h;
    for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), Histogram::kSubBuckets);
    // With 32 samples 0..31, the nearest-rank q quantile is sample
    // ceil(32q)-1, and the exact region reports it exactly.
    EXPECT_EQ(h.quantile(0.5), 15.0);
    EXPECT_EQ(h.quantile(1.0), 31.0);
    EXPECT_EQ(h.max(), 31u);
}

TEST(HistogramTest, QuantilesWithinBoundOfExactSortOracle)
{
    // Lognormal-ish latencies in nanoseconds; compare the histogram's
    // p50/p95/p99 against summarizeLatencies (the exact sort) — the
    // estimate must be >= the true sample and within the 1/32 bound.
    Rng rng(123);
    Histogram h;
    std::vector<double> seconds;
    for (int i = 0; i < 20'000; ++i) {
        const double x = static_cast<double>(rng.below(1'000'000)) /
                         1'000'000.0;
        const uint64_t ns =
            static_cast<uint64_t>(std::exp(8.0 + 6.0 * x));
        h.record(ns);
        seconds.push_back(static_cast<double>(ns) * 1e-9);
    }
    const LatencyStats exact = summarizeLatencies(seconds);
    const HistogramData d = h.snapshot(1e-9);
    const double bound =
        1.0 + 1.0 / Histogram::kSubBuckets + 1e-9;
    for (const auto& [q, truth] :
         {std::pair{0.50, exact.p50}, {0.95, exact.p95},
          {0.99, exact.p99}}) {
        const double est = d.quantile(q);
        EXPECT_GE(est, truth * (1.0 - 1e-12)) << "q=" << q;
        EXPECT_LE(est, truth * bound) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(d.maxValue(), exact.max);
    EXPECT_NEAR(d.mean(), exact.mean, exact.mean * 1e-9);
}

TEST(HistogramTest, ConcurrentRecordTotalsExact)
{
    // 4 writers x 50k records; after joining, count/sum/bucket totals
    // must be exact — relaxed atomics lose no updates. TSan covers
    // the snapshot-under-recording path below.
    Histogram h;
    constexpr int kThreads = 4;
    constexpr uint64_t kPer = 50'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h, t] {
            for (uint64_t i = 0; i < kPer; ++i)
                h.record((i % 1000) + static_cast<uint64_t>(t));
        });
    // Snapshot while writers run: values are per-bucket valid and
    // count never exceeds what was recorded.
    const HistogramData mid = h.snapshot();
    EXPECT_LE(mid.count, kThreads * kPer);
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(h.count(), kThreads * kPer);
    const HistogramData d = h.snapshot();
    uint64_t bucket_total = 0;
    for (const auto& [idx, n] : d.buckets)
        bucket_total += n;
    EXPECT_EQ(bucket_total, kThreads * kPer);
}

TEST(CounterTest, ConcurrentIncTotalsExact)
{
    Counter c;
    constexpr int kThreads = 8;
    constexpr uint64_t kPer = 100'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (uint64_t i = 0; i < kPer; ++i)
                c.inc();
        });
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(c.value(), kThreads * kPer);
}

// ---------------------------------------------------------------------
// Registry.

TEST(RegistryTest, GetOrCreateReturnsStableIdentity)
{
    MetricRegistry reg;
    Counter& a = reg.counter("talus_test_total", "part=\"0\"");
    Counter& b = reg.counter("talus_test_total", "part=\"0\"");
    Counter& c = reg.counter("talus_test_total", "part=\"1\"");
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(RegistryDeathTest, KindMismatchIsFatal)
{
    MetricRegistry reg;
    reg.counter("talus_test_total");
    EXPECT_EXIT(reg.gauge("talus_test_total"),
                ::testing::ExitedWithCode(1),
                "already registered as counter");
}

TEST(RegistryTest, LabelHelpers)
{
    EXPECT_EQ(labelPair("shard", 3), "shard=\"3\"");
    EXPECT_EQ(labelPair("engine", "talus"), "engine=\"talus\"");
    EXPECT_EQ(joinLabels("", "a=\"1\""), "a=\"1\"");
    EXPECT_EQ(joinLabels("a=\"1\"", ""), "a=\"1\"");
    EXPECT_EQ(joinLabels("a=\"1\"", "b=\"2\""), "a=\"1\",b=\"2\"");
}

TEST(RegistryTest, SnapshotFindAndCounterTotal)
{
    MetricRegistry reg;
    reg.counter("talus_hits_total", "engine=\"a\",shard=\"0\"").inc(3);
    reg.counter("talus_hits_total", "engine=\"a\",shard=\"1\"").inc(4);
    reg.counter("talus_hits_total", "engine=\"b\",shard=\"0\"").inc(9);
    reg.gauge("talus_rho", "engine=\"a\"").set(0.5);
    const MetricsSnapshot s = reg.snapshot();
    const MetricValue* m =
        s.find("talus_hits_total", "engine=\"a\",shard=\"1\"");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->counter, 4u);
    EXPECT_EQ(s.counterTotal("talus_hits_total"), 16u);
    EXPECT_EQ(s.counterTotal("talus_hits_total", "engine=\"a\""), 7u);
    EXPECT_EQ(s.counterTotal("talus_hits_total", "engine=\"b\""), 9u);
    EXPECT_EQ(s.counterTotal("talus_absent_total"), 0u);
}

TEST(RegistryTest, DeltaSubtractsCountersKeepsGauges)
{
    MetricRegistry reg;
    Counter& c = reg.counter("talus_x_total");
    Gauge& g = reg.gauge("talus_g");
    Histogram& h = reg.histogram("talus_h", "", 1.0);
    c.inc(10);
    g.set(1.0);
    h.record(5);
    const MetricsSnapshot s1 = reg.snapshot();
    c.inc(7);
    g.set(2.5);
    h.record(100);
    h.record(5);
    // A series registered between snapshots counts from zero.
    reg.counter("talus_late_total").inc(3);
    const MetricsSnapshot s2 = reg.snapshot();
    const MetricsSnapshot d = metricsDelta(s1, s2);
    EXPECT_GT(s2.epoch, s1.epoch);
    EXPECT_EQ(d.find("talus_x_total")->counter, 7u);
    EXPECT_EQ(d.find("talus_late_total")->counter, 3u);
    EXPECT_EQ(d.find("talus_g")->gauge, 2.5);
    const HistogramData& hd = d.find("talus_h")->histogram;
    EXPECT_EQ(hd.count, 2u);
    EXPECT_EQ(hd.sum, 105u);
    uint64_t five = 0, hundred = 0;
    for (const auto& [idx, n] : hd.buckets) {
        if (idx == Histogram::bucketIndex(5))
            five = n;
        if (idx == Histogram::bucketIndex(100))
            hundred = n;
    }
    EXPECT_EQ(five, 1u);
    EXPECT_EQ(hundred, 1u);
}

// ---------------------------------------------------------------------
// Exporters.

TEST(ExporterTest, PrometheusTextShape)
{
    MetricRegistry reg;
    reg.counter("talus_hits_total", "shard=\"1\"").inc(5);
    reg.counter("talus_hits_total", "shard=\"0\"").inc(2);
    reg.gauge("talus_rho").set(0.75);
    Histogram& h = reg.histogram("talus_lat_seconds", "", 1e-9);
    h.record(10);
    h.record(1000);
    const std::string text = toPrometheusText(reg.snapshot());

    // One TYPE line per family; series sorted so families group.
    EXPECT_EQ(text.find("# TYPE talus_hits_total counter"),
              text.rfind("# TYPE talus_hits_total counter"));
    EXPECT_NE(text.find("talus_hits_total{shard=\"0\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("talus_hits_total{shard=\"1\"} 5\n"),
              std::string::npos);
    EXPECT_LT(text.find("shard=\"0\""), text.find("shard=\"1\""));
    EXPECT_NE(text.find("# TYPE talus_rho gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE talus_lat_seconds histogram"),
              std::string::npos);
    // Cumulative buckets end at +Inf == _count.
    EXPECT_NE(text.find("talus_lat_seconds_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("talus_lat_seconds_count 2\n"),
              std::string::npos);
}

TEST(ExporterTest, JsonLinesOneObjectPerMetric)
{
    MetricRegistry reg;
    reg.counter("talus_a_total").inc(1);
    reg.gauge("talus_b").set(2.0);
    const std::string text = toJsonLines(reg.snapshot());
    size_t lines = 0;
    for (char ch : text)
        lines += ch == '\n';
    EXPECT_EQ(lines, 2u);
    EXPECT_NE(text.find("\"name\":\"talus_a_total\""),
              std::string::npos);
    EXPECT_NE(text.find("\"kind\":\"gauge\""), std::string::npos);
}

TEST(ExporterTest, WriteMetricsFilePicksFormatByExtension)
{
    MetricRegistry reg;
    reg.counter("talus_a_total").inc(1);
    const MetricsSnapshot s = reg.snapshot();

    const std::string prom =
        ::testing::TempDir() + "/obs_test_metrics.prom";
    ASSERT_EQ(writeMetricsFile(s, prom), "");
    std::FILE* f = std::fopen(prom.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[16] = {};
    ASSERT_GT(std::fread(buf, 1, sizeof buf - 1, f), 0u);
    std::fclose(f);
    EXPECT_EQ(std::string(buf, 6), "# TYPE");

    const std::string jsonl =
        ::testing::TempDir() + "/obs_test_metrics.jsonl";
    ASSERT_EQ(writeMetricsFile(s, jsonl), "");
    f = std::fopen(jsonl.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char jbuf[2] = {};
    ASSERT_EQ(std::fread(jbuf, 1, 1, f), 1u);
    std::fclose(f);
    EXPECT_EQ(jbuf[0], '{');

    EXPECT_NE(writeMetricsFile(s, "/nonexistent-dir/x.prom"), "");
}

// ---------------------------------------------------------------------
// Engine instrumentation.

TalusCache::Config
cacheConfig(MetricRegistry* reg)
{
    TalusCache::Config cfg;
    cfg.llcLines = 2048;
    cfg.ways = 16;
    cfg.numParts = 2;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 5'000;
    cfg.seed = 99;
    if (reg != nullptr) {
        cfg.metricsEnabled = true;
        cfg.metrics = reg;
    }
    return cfg;
}

std::vector<Addr>
zipfTrace(uint64_t n, uint64_t seed)
{
    ZipfStream stream(1 << 13, 0.9, 0, seed);
    std::vector<Addr> addrs(n);
    stream.nextBlock(addrs.data(), n);
    return addrs;
}

TEST(CacheObsTest, CountersMatchEngineStats)
{
    MetricRegistry reg;
    TalusCache cache(cacheConfig(&reg));
    const std::vector<Addr> addrs = zipfTrace(30'000, 7);
    uint64_t hits = 0;
    for (size_t off = 0; off < addrs.size(); off += 1000)
        hits += cache.accessBatch(
            Span<const Addr>(addrs.data() + off, 1000), off % 2);
    const MetricsSnapshot s = reg.snapshot();
    EXPECT_EQ(s.counterTotal("talus_cache_accesses_total"),
              addrs.size());
    EXPECT_EQ(s.counterTotal("talus_cache_hits_total"), hits);
    EXPECT_EQ(s.counterTotal("talus_cache_misses_total"),
              addrs.size() - hits);
    for (PartId p = 0; p < 2; ++p) {
        const TalusCache::PartStats st = cache.stats(p);
        const MetricValue* m = s.find("talus_cache_accesses_total",
                                      labelPair("part", p));
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->counter, st.accesses);
        const MetricValue* miss = s.find("talus_cache_misses_total",
                                         labelPair("part", p));
        ASSERT_NE(miss, nullptr);
        EXPECT_EQ(miss->counter, st.misses);
    }
    // The automatic control plane ran: reconfigurations counted, the
    // compute-duration histogram recorded one entry per step.
    const MetricValue* rc =
        s.find("talus_control_reconfigurations_total");
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(rc->counter, cache.reconfigurations());
    EXPECT_GT(rc->counter, 0u);
    const MetricValue* cs = s.find("talus_control_compute_seconds");
    ASSERT_NE(cs, nullptr);
    EXPECT_EQ(cs->histogram.count, cache.reconfigurations());
    // Serial path bumps the same series.
    const uint64_t before =
        s.counterTotal("talus_cache_accesses_total");
    cache.access(addrs[0], 0);
    EXPECT_EQ(reg.snapshot().counterTotal("talus_cache_accesses_total"),
              before + 1);
}

TEST(CacheObsTest, MetricsOffIsBitIdentical)
{
    // Same seed, same trace: the metrics=off engine must produce the
    // identical hit sequence (and off must register nothing).
    MetricRegistry reg;
    TalusCache on(cacheConfig(&reg));
    TalusCache off(cacheConfig(nullptr));
    const std::vector<Addr> addrs = zipfTrace(20'000, 11);
    for (size_t offi = 0; offi < addrs.size(); offi += 777) {
        const size_t n = std::min<size_t>(777, addrs.size() - offi);
        const Span<const Addr> span(addrs.data() + offi, n);
        ASSERT_EQ(on.accessBatch(span, 0), off.accessBatch(span, 0));
    }
    EXPECT_GT(reg.size(), 0u);

    // Serial access() runs the same chunk step with metrics on or
    // off, at every-access and 1-in-4 monitor sampling: per-access
    // hits must agree through every automatic reconfiguration.
    for (const uint32_t period : {1u, 4u}) {
        SCOPED_TRACE(period);
        MetricRegistry serial_reg;
        TalusCache::Config on_cfg = cacheConfig(&serial_reg);
        TalusCache::Config off_cfg = cacheConfig(nullptr);
        on_cfg.monitorSamplePeriod = period;
        off_cfg.monitorSamplePeriod = period;
        TalusCache serial_on(on_cfg);
        TalusCache serial_off(off_cfg);
        for (size_t i = 0; i < addrs.size(); ++i) {
            const PartId part = static_cast<PartId>(i % 2);
            ASSERT_EQ(serial_on.access(addrs[i], part),
                      serial_off.access(addrs[i], part))
                << "access " << i;
        }
        EXPECT_EQ(serial_on.reconfigurations(),
                  serial_off.reconfigurations());
        EXPECT_GT(serial_on.reconfigurations(), 0u);
    }
}

TEST(CacheObsTest, StalenessAndApplyAgeTrackEpochDeferral)
{
    // Manual control: prepare at access A, apply deferred to the next
    // epoch boundary B. The gauges must pin applyAge = B - A and
    // staleness = now - A exactly (chunks split at the boundary, so
    // the accounting is access-precise).
    MetricRegistry reg;
    TalusCache::Config cfg = cacheConfig(&reg);
    cfg.reconfigInterval = 0; // Control is explicit here.
    TalusCache cache(cfg);
    const std::vector<Addr> addrs = zipfTrace(4'096, 13);
    const Span<const Addr> kilo(addrs.data(), 1000);

    const auto gauge = [&reg](const char* name) {
        // find() points into the snapshot: keep it alive while reading.
        const MetricsSnapshot snap = reg.snapshot();
        const MetricValue* m = snap.find(name);
        return m != nullptr ? m->gauge : -1.0;
    };

    // Before any prepare, the active config is the constructor's fair
    // split: as old as the cache itself.
    cache.accessBatch(kilo, 0);
    EXPECT_EQ(gauge("talus_control_config_staleness_accesses"),
              1000.0);

    cache.prepareReconfigure();       // A = 1000.
    cache.applyReconfigureAtEpoch(512); // B = next multiple = 1024.
    cache.accessBatch(kilo, 0);       // Crosses the boundary.
    EXPECT_EQ(cache.reconfigurations(), 1u);
    EXPECT_EQ(gauge("talus_control_apply_age_accesses"), 24.0);
    // accessCount = 2000, active snapshot taken at 1000.
    EXPECT_EQ(gauge("talus_control_config_staleness_accesses"),
              1000.0);
    cache.accessBatch(kilo, 0);
    EXPECT_EQ(gauge("talus_control_config_staleness_accesses"),
              2000.0);

    // A synchronous reconfigure() applies immediately: age 0, and the
    // staleness clock restarts from the prepare point.
    cache.reconfigure(); // Prepare and apply both at 3000.
    EXPECT_EQ(gauge("talus_control_apply_age_accesses"), 0.0);
    cache.accessBatch(kilo, 0);
    EXPECT_EQ(gauge("talus_control_config_staleness_accesses"),
              1000.0);
}

TEST(CacheObsTest, HullVerticesGaugeCountsTheActiveHulls)
{
    // talus_control_hull_vertices is the total vertex count of the
    // hulls one reconfiguration computed, whether or not the
    // allocator ran on them: the same hulls configure() sizes the
    // shadow partitions from.
    for (const bool on_hulls : {true, false}) {
        SCOPED_TRACE(on_hulls);
        MetricRegistry reg;
        TalusCache::Config cfg = cacheConfig(&reg);
        cfg.reconfigInterval = 0; // Control is explicit here.
        cfg.allocateOnHulls = on_hulls;
        TalusCache cache(cfg);
        const std::vector<Addr> addrs = zipfTrace(8'192, 17);
        cache.accessBatch(Span<const Addr>(addrs.data(), 4'096), 0);
        cache.accessBatch(Span<const Addr>(addrs.data() + 4'096, 4'096),
                          1);

        // The monitors' curves as the reconfiguration snapshots them.
        const std::vector<MissCurve> raw = cache.curves();
        cache.reconfigure();

        uint64_t raw_points = 0, hull_vertices = 0, active_points = 0;
        for (uint32_t p = 0; p < cfg.numParts; ++p) {
            raw_points += raw[p].numPoints();
            hull_vertices += ConvexHull(raw[p]).hull().numPoints();
            active_points +=
                cache.controlPlane().active().curves[p].numPoints();
        }
        // The check bites only if the hulls dropped points.
        ASSERT_LT(hull_vertices, raw_points);
        const MetricsSnapshot snap = reg.snapshot();
        const MetricValue* m = snap.find("talus_control_hull_vertices");
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->gauge, static_cast<double>(active_points));
        EXPECT_EQ(m->gauge, static_cast<double>(hull_vertices));
    }
}

TEST(CacheObsTest, BaselineModePublishesPlainPartitionState)
{
    // talus=false runs the controller over one physical partition per
    // logical partition: the published target and occupancy are that
    // partition's own, and the routed rate is exactly 1.
    for (const SchemeKind scheme : {SchemeKind::Way, SchemeKind::Vantage}) {
        SCOPED_TRACE(static_cast<int>(scheme));
        MetricRegistry reg;
        TalusCache::Config cfg = cacheConfig(&reg);
        cfg.talus = false;
        cfg.scheme = scheme;
        TalusCache cache(cfg);
        EXPECT_EQ(cache.controller(), nullptr);
        const std::vector<Addr> addrs = zipfTrace(30'000, 17);
        for (size_t off = 0; off < addrs.size(); off += 1000) {
            const PartId part = static_cast<PartId>(off / 1000 % 2);
            cache.accessBatch(Span<const Addr>(addrs.data() + off, 1000),
                              part);
            // Occupancy is published per batch, for its partition.
            const MetricsSnapshot s = reg.snapshot();
            const MetricValue* occ = s.find("talus_cache_occupancy_lines",
                                            labelPair("part", part));
            ASSERT_NE(occ, nullptr);
            EXPECT_EQ(occ->gauge,
                      static_cast<double>(cache.cache().occupancy(part)));
        }
        ASSERT_GT(cache.reconfigurations(), 1u);
        const MetricsSnapshot s = reg.snapshot();
        for (PartId p = 0; p < 2; ++p) {
            const MetricValue* target =
                s.find("talus_cache_target_lines", labelPair("part", p));
            ASSERT_NE(target, nullptr);
            EXPECT_GT(target->gauge, 0.0);
            EXPECT_EQ(target->gauge,
                      static_cast<double>(cache.stats(p).targetLines));
            EXPECT_EQ(target->gauge,
                      static_cast<double>(cache.cache().targetOf(p)));
            const MetricValue* rho =
                s.find("talus_cache_rho", labelPair("part", p));
            ASSERT_NE(rho, nullptr);
            EXPECT_EQ(rho->gauge, 1.0);
        }
    }
}

TEST(ShardObsTest, SnapshotsUnderConcurrentBatchesStayMonotone)
{
    // A live sharded engine with pinned workers publishing into the
    // registry while a reader thread snapshots continuously: every
    // counter must be monotone snapshot-over-snapshot, and the final
    // totals (at quiescence) must match the engine's own stats. This
    // is the TSan-checked reader/writer path.
    MetricRegistry reg;
    ShardedTalusCache::Config cfg;
    cfg.numShards = 4;
    cfg.threads = 2;
    cfg.shard.llcLines = 1024;
    cfg.shard.ways = 16;
    cfg.shard.numParts = 1;
    cfg.shard.allocatorName = "HillClimb";
    cfg.shard.reconfigInterval = 0;
    cfg.shard.seed = 5;
    cfg.shard.metricsEnabled = true;
    cfg.shard.metrics = &reg;
    ShardedTalusCache cache(cfg);

    std::atomic<bool> stop{false};
    std::atomic<bool> monotone{true};
    std::thread reader([&] {
        MetricsSnapshot prev = reg.snapshot();
        while (!stop.load(std::memory_order_relaxed)) {
            const MetricsSnapshot cur = reg.snapshot();
            for (const MetricValue& m : cur.metrics) {
                if (m.kind != MetricKind::Counter)
                    continue;
                const MetricValue* p = prev.find(m.name, m.labels);
                if (p != nullptr && m.counter < p->counter)
                    monotone.store(false, std::memory_order_relaxed);
            }
            prev = cur;
        }
    });

    const std::vector<Addr> addrs = zipfTrace(40'000, 3);
    uint64_t hits = 0;
    for (size_t off = 0; off < addrs.size(); off += 4096) {
        const size_t n = std::min<size_t>(4096, addrs.size() - off);
        hits += cache.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
        if (off % 8192 == 0)
            cache.reconfigureAllAtEpoch(1024);
    }
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_TRUE(monotone.load());

    const MetricsSnapshot s = reg.snapshot();
    EXPECT_EQ(s.counterTotal("talus_cache_accesses_total"),
              addrs.size());
    EXPECT_EQ(s.counterTotal("talus_cache_hits_total"), hits);
    // Per-shard series exist and roll up.
    uint64_t per_shard = 0;
    for (uint32_t sh = 0; sh < cfg.numShards; ++sh)
        per_shard += s.counterTotal("talus_cache_accesses_total",
                                    labelPair("shard", sh));
    EXPECT_EQ(per_shard, addrs.size());
    // The worker series are registered (their counts can legitimately
    // stay 0 on a fast run where the spin phase absorbs everything).
    EXPECT_NE(s.find("talus_worker_parks_total", labelPair("worker", 0)),
              nullptr);
    EXPECT_NE(s.find("talus_worker_wakes_total", labelPair("worker", 0)),
              nullptr);
}

} // namespace
} // namespace talus
