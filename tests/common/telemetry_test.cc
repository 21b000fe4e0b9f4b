// Telemetry tests: log-bucket math invariants, quantile upper bounds
// against a sorted-vector oracle, concurrent counter/histogram recording
// (this target runs under TSan in CI), export formats, and the
// end-to-end guarantee that enabling telemetry cannot move a simulated
// charge or a result row.

#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dual_store.h"
#include "core/session.h"
#include "test_util.h"

namespace dskg::telemetry {
namespace {

constexpr const char* kFlagship =
    "SELECT ?p WHERE { ?p bornIn ?city . "
    "?p advisor ?a . ?a bornIn ?city . }";

// ---- bucket math ------------------------------------------------------------

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (uint64_t u = 0; u < (1ull << Histogram::kSubBits); ++u) {
    EXPECT_EQ(Histogram::BucketOf(u), static_cast<int>(u));
    EXPECT_EQ(Histogram::BucketLower(static_cast<int>(u)), u);
    EXPECT_EQ(Histogram::BucketUpper(static_cast<int>(u)), u);
  }
}

TEST(HistogramBuckets, LowerAndUpperBracketEveryValue) {
  std::vector<uint64_t> probes;
  for (uint64_t u = 0; u < 4096; ++u) probes.push_back(u);
  for (int shift = 12; shift < 64; ++shift) {
    const uint64_t base = 1ull << shift;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + 1);
    probes.push_back(base + (base >> 1));
  }
  probes.push_back(~static_cast<uint64_t>(0));
  for (uint64_t u : probes) {
    const int idx = Histogram::BucketOf(u);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kNumBuckets);
    EXPECT_LE(Histogram::BucketLower(idx), u) << "u=" << u;
    EXPECT_GE(Histogram::BucketUpper(idx), u) << "u=" << u;
  }
}

TEST(HistogramBuckets, BoundariesAreMonotoneAndContiguous) {
  for (int i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketUpper(i) + 1, Histogram::BucketLower(i + 1));
    EXPECT_LT(Histogram::BucketLower(i), Histogram::BucketLower(i + 1));
  }
  EXPECT_EQ(Histogram::BucketUpper(Histogram::kNumBuckets - 1),
            ~static_cast<uint64_t>(0));
}

TEST(HistogramBuckets, RelativeWidthStaysUnderQuarter) {
  // For buckets past the exact range, width / lower <= 2^-kSubBits = 25%.
  for (int i = (1 << Histogram::kSubBits); i + 1 < Histogram::kNumBuckets;
       ++i) {
    const double lower = static_cast<double>(Histogram::BucketLower(i));
    const double width =
        static_cast<double>(Histogram::BucketUpper(i) - Histogram::BucketLower(i) + 1);
    EXPECT_LE(width / lower, 0.25 + 1e-12) << "bucket " << i;
  }
}

// ---- quantiles vs a sorted-vector oracle ------------------------------------

// The histogram quantile is an upper bound of the true rank-th value and
// must land in the same bucket (<= 25% relative error past the exact
// range).
void CheckQuantiles(const Histogram& h, std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const uint64_t oracle = values[rank - 1];
    const double ret = h.Quantile(q);
    EXPECT_GE(ret, static_cast<double>(oracle)) << "q=" << q;
    EXPECT_EQ(Histogram::BucketOf(static_cast<uint64_t>(ret)),
              Histogram::BucketOf(oracle))
        << "q=" << q << " oracle=" << oracle << " got=" << ret;
  }
}

TEST(HistogramQuantile, MatchesOracleOnUniformValues) {
  Histogram h("t");
  std::vector<uint64_t> values;
  dskg::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t u = rng.NextU64() % 100000;
    values.push_back(u);
    h.Record(static_cast<double>(u));
  }
  CheckQuantiles(h, std::move(values));
}

TEST(HistogramQuantile, MatchesOracleOnLogNormalValues) {
  // Latency-shaped distribution: heavy tail across many octaves.
  Histogram h("t");
  std::vector<uint64_t> values;
  dskg::Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    double v = 1.0;
    for (int k = 0; k < 12; ++k) {
      if (rng.NextBool(0.5)) v *= 2.0;
    }
    v *= 1.0 + 0.9 * rng.NextDouble();
    const uint64_t u = static_cast<uint64_t>(v + 0.5);
    values.push_back(u);
    h.Record(v);
  }
  CheckQuantiles(h, std::move(values));
}

TEST(HistogramQuantile, EmptyAndSingleton) {
  Histogram h("t");
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  h.Record(42.0);
  EXPECT_EQ(h.Quantile(0.0), 42.0);
  EXPECT_EQ(h.Quantile(0.5), 42.0);
  EXPECT_EQ(h.Quantile(1.0), 42.0);
  EXPECT_EQ(h.min_value(), 42u);
  EXPECT_EQ(h.max_value(), 42u);
}

TEST(HistogramQuantile, ClampsToObservedMax) {
  Histogram h("t");
  for (int i = 0; i < 100; ++i) h.Record(1000.0);
  // 1000 sits strictly inside its bucket; the quantile must clamp to the
  // observed max instead of reporting the bucket's upper edge.
  EXPECT_EQ(h.Quantile(0.99), 1000.0);
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h("t");
  h.Record(-5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min_value(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(Histogram, SummarizeAggregates) {
  Histogram h("t");
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_GE(s.p50, 50.0);
  EXPECT_GE(s.p95, 95.0);
  EXPECT_GE(s.p99, 99.0);
  EXPECT_LE(s.p99, 100.0);
}

// ---- concurrency (exercised under TSan in CI) -------------------------------

TEST(Counter, ConcurrentAddsAreLossless) {
  Counter c("t");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(LocalCount, OwnCountsAreExactAndFoldIntoTotal) {
  Counter total("t");
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<LocalCount>> counts;
  for (int t = 0; t < kThreads; ++t) {
    counts.push_back(std::make_unique<LocalCount>(&total));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&total, count = counts[t].get(), t] {
      for (int i = 0; i < (t + 1) * 10; ++i) count->Add();
      total.Add(1);  // a plain stripe write racing the local counts
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[t]->value(), static_cast<uint64_t>(t + 1) * 10);
  }
  // Total = 10+20+30+40 local increments + 4 stripe increments, and it
  // keeps them once the local counts are gone.
  counts.clear();
  EXPECT_EQ(total.value(), 104u);
}

TEST(Histogram, ConcurrentRecordsAreLossless) {
  Histogram h("t");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      dskg::Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>(rng.NextU64() % 1000000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t expect = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), expect);
  uint64_t buckets[Histogram::kNumBuckets];
  h.MergedBuckets(buckets);
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  EXPECT_EQ(total, expect);
  EXPECT_LE(h.min_value(), h.max_value());
}

TEST(MetricsRegistry, ConcurrentGetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter* c = reg.counter("shared.counter");
      c->Add();
      seen[t] = c;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->value(), static_cast<uint64_t>(kThreads));
}

TEST(TraceSink, ConcurrentRecordsKeepRingBounded) {
  TraceSink sink;
  sink.set_capacity(16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.Record("span", 1.0, 2.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink.total(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.Snapshot().size(), 16u);
  sink.set_capacity(0);
  EXPECT_FALSE(sink.enabled());
}

// ---- gauges, trace sink, slow-query log -------------------------------------

TEST(Gauge, SetAddValue) {
  Gauge g("t");
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.Add(1.5);
  EXPECT_EQ(g.value(), 5.0);
  g.Reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(TraceSink, DisabledByDefaultAndEvictsOldest) {
  TraceSink sink;
  EXPECT_FALSE(sink.enabled());
  sink.Record("ignored", 0.0, 1.0);
  EXPECT_EQ(sink.total(), 0u);
  sink.set_capacity(2);
  sink.Record("a", 0.0, 1.0);
  sink.Record("b", 1.0, 2.0);
  sink.Record("c", 2.0, 3.0);
  const std::vector<TraceSink::Span> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "b");
  EXPECT_EQ(spans[1].name, "c");
  EXPECT_LT(spans[0].seq, spans[1].seq);
  EXPECT_EQ(sink.total(), 3u);
}

TEST(SlowQueryLog, RecordsOnlyAboveThresholdAndTruncates) {
  SlowQueryLog log;
  EXPECT_FALSE(log.enabled());
  log.MaybeRecord("fast", "relational_only", 100.0);
  EXPECT_EQ(log.total(), 0u);  // disabled: nothing recorded
  log.set_threshold_ms(10.0);
  log.MaybeRecord("fast", "relational_only", 9.9);
  EXPECT_EQ(log.total(), 0u);
  const std::string long_text(2 * SlowQueryLog::kMaxText, 'q');
  log.MaybeRecord(long_text, "dual_store", 12.5);
  ASSERT_EQ(log.total(), 1u);
  const std::vector<SlowQueryLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].wall_ms, 12.5);
  EXPECT_EQ(entries[0].route, "dual_store");
  EXPECT_EQ(entries[0].text.size(), SlowQueryLog::kMaxText);
}

TEST(SlowQueryLog, RequestLabelTagsOnlyThisThreadsEntries) {
  SlowQueryLog log;
  log.set_threshold_ms(1.0);
  log.MaybeRecord("q0", "graph_only", 2.0);
  {
    RequestLabelScope outer("conn=7");
    log.MaybeRecord("q1", "graph_only", 2.0);
    {
      RequestLabelScope inner("conn=8");
      log.MaybeRecord("q2", "graph_only", 2.0);
    }
    std::thread other([&log] { log.MaybeRecord("q3", "graph_only", 2.0); });
    other.join();
    log.MaybeRecord("q4", "graph_only", 2.0);
    log.MaybeRecord(std::string(2 * SlowQueryLog::kMaxText, 'q'),
                    "graph_only", 2.0);
  }
  log.MaybeRecord("q5", "graph_only", 2.0);
  std::vector<std::string> texts;
  for (const SlowQueryLog::Entry& e : log.Snapshot()) texts.push_back(e.text);
  ASSERT_EQ(texts.size(), 7u);
  EXPECT_EQ(texts[0], "q0");
  EXPECT_EQ(texts[1], "conn=7 q1");
  EXPECT_EQ(texts[2], "conn=8 q2");
  EXPECT_EQ(texts[3], "q3");
  EXPECT_EQ(texts[4], "conn=7 q4");
  // The label counts against the truncation bound.
  EXPECT_EQ(texts[5].size(), SlowQueryLog::kMaxText);
  EXPECT_EQ(texts[5].rfind("conn=7 qq", 0), 0u);
  EXPECT_EQ(texts[6], "q5");
}

// ---- registry + export ------------------------------------------------------

TEST(MetricsRegistry, DumpJsonIsWellFormedAndDeterministic) {
  MetricsRegistry reg;
  reg.counter("b.two")->Add(2);
  reg.counter("a.one")->Add(1);
  reg.gauge("g.depth")->Set(4.5);
  Histogram* h = reg.histogram("h.lat_us");
  for (int i = 0; i < 10; ++i) h->Record(100.0 * (i + 1));
  reg.traces().set_capacity(4);
  reg.traces().Record("span.x", 1.0, 2.0);
  reg.slow_queries().set_threshold_ms(1.0);
  reg.slow_queries().MaybeRecord("SELECT \"quoted\"", "graph_only", 5.0);

  const std::string json = reg.DumpJson();
  EXPECT_EQ(json, reg.DumpJson());  // deterministic for fixed state
  // Sorted counter order and structural markers.
  EXPECT_LT(json.find("\"a.one\""), json.find("\"b.two\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"h.lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_queries\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"span.x\""), std::string::npos);
}

TEST(MetricsRegistry, DumpTextIsPrometheusShaped) {
  MetricsRegistry reg;
  reg.counter("session.prepares")->Add(3);
  Histogram* h = reg.histogram("query.wall_us.dual_store");
  h->Record(10.0);
  h->Record(1000.0);
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("session_prepares 3"), std::string::npos);
  EXPECT_NE(text.find("query_wall_us_dual_store_bucket{le="),
            std::string::npos);
  EXPECT_NE(text.find("query_wall_us_dual_store_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
}

TEST(MetricsRegistry, SnapshotValuesFlattensMetrics) {
  MetricsRegistry reg;
  reg.counter("c")->Add(7);
  reg.gauge("g")->Set(2.5);
  Histogram* h = reg.histogram("h");
  h->Record(5.0);
  h->Record(15.0);
  const std::map<std::string, double> v = reg.SnapshotValues();
  EXPECT_EQ(v.at("c"), 7.0);
  EXPECT_EQ(v.at("g"), 2.5);
  EXPECT_EQ(v.at("h.count"), 2.0);
  EXPECT_EQ(v.at("h.sum"), 20.0);
  EXPECT_EQ(v.at("h.max"), 15.0);
  EXPECT_GT(v.at("h.p99"), 0.0);
}

TEST(MetricsRegistry, ResetZeroesEverything) {
  MetricsRegistry reg;
  reg.counter("c")->Add(5);
  reg.gauge("g")->Set(1.0);
  reg.histogram("h")->Record(9.0);
  reg.traces().set_capacity(4);
  reg.traces().Record("s", 0.0, 1.0);
  reg.Reset();
  EXPECT_EQ(reg.counter("c")->value(), 0u);
  EXPECT_EQ(reg.gauge("g")->value(), 0.0);
  EXPECT_EQ(reg.histogram("h")->count(), 0u);
  EXPECT_TRUE(reg.traces().Snapshot().empty());
}

TEST(TraceScope, RecordsWhenEnabledInertWhenDisabled) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("h");
  reg.traces().set_capacity(4);
  { TraceScope span(reg, h, "scope.a"); }
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(reg.traces().total(), 1u);
  reg.set_enabled(false);
  { TraceScope span(reg, h, "scope.b"); }
  EXPECT_EQ(h->count(), 1u);  // inert: nothing recorded
  EXPECT_EQ(reg.traces().total(), 1u);
}

// ---- end-to-end: telemetry cannot move results or simulated charges ---------

TEST(Equivalence, FlagshipIsBitIdenticalEnabledVsDisabled) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();

  auto run_once = [] {
    rdf::Dataset ds = testing::SmallPeopleGraph();
    core::DualStore store(&ds, {});
    core::Session session(&store);
    auto exec = session.Execute(kFlagship);
    EXPECT_TRUE(exec.ok()) << exec.status();
    return std::move(*exec);
  };

  reg.set_enabled(true);
  const core::QueryExecution on = run_once();
  reg.set_enabled(false);
  const core::QueryExecution off = run_once();
  reg.set_enabled(was_enabled);

  EXPECT_EQ(on.route, off.route);
  EXPECT_TRUE(sparql::BindingTable::SameRows(on.result, off.result));
  // Simulated charges are bit-identical, not merely close.
  EXPECT_EQ(on.rel_micros, off.rel_micros);
  EXPECT_EQ(on.graph_micros, off.graph_micros);
  EXPECT_EQ(on.migrate_micros, off.migrate_micros);
  EXPECT_EQ(on.graph_io_micros, off.graph_io_micros);
  EXPECT_EQ(on.graph_cpu_micros, off.graph_cpu_micros);
  EXPECT_EQ(on.total_micros(), off.total_micros());
}

TEST(Equivalence, SessionStatsKeepCountingWhileDisabled) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(false);

  rdf::Dataset ds = testing::SmallPeopleGraph();
  core::DualStore store(&ds, {});
  core::Session session(&store);
  auto exec = session.Execute(kFlagship);
  ASSERT_TRUE(exec.ok()) << exec.status();
  const core::Session::Stats stats = session.stats();
  EXPECT_EQ(stats.prepares, 1u);
  EXPECT_EQ(stats.executions, 1u);

  reg.set_enabled(was_enabled);
}

}  // namespace
}  // namespace dskg::telemetry
