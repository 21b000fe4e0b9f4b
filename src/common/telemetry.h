#ifndef DSKG_COMMON_TELEMETRY_H_
#define DSKG_COMMON_TELEMETRY_H_

/// \file telemetry.h
/// Runtime telemetry: a process-wide registry of named counters, gauges
/// and log-bucketed latency histograms, plus lightweight wall-clock trace
/// spans and a threshold-driven slow-query log.
///
/// Everything here observes; nothing decides. Simulated cost accounting
/// (common/cost.h) stays the experiments' single source of truth — the
/// registry never touches a `CostMeter`, so enabling or disabling
/// telemetry cannot move a single simulated charge (the equivalence test
/// asserts this bit-for-bit).
///
/// Write path design — *atomic, thread-sharded on write, merged on read*:
///
///   * `Counter` increments land in one of a fixed set of cache-line-
///     padded stripes picked by a per-thread index, so concurrent writers
///     never contend on one cache line; `value()` folds the stripes.
///     A component that needs its *own* view of a process-wide counter
///     (e.g. per-`Session` stats) holds a `LocalCount` by value: its
///     private exact count, which also adds to the global total.
///   * `Histogram` buckets are log-spaced (4 sub-buckets per octave,
///     <= 25% relative bucket width) with striped atomic bucket arrays;
///     `Quantile()` merges on read and returns an upper bound of the
///     bucket holding the requested rank (clamped to the observed max),
///     so p50/p95/p99 are never under-reported beyond bucket resolution.
///   * `Gauge` is a plain atomic double (`Set`/`Add`).
///
/// `TraceScope` is an RAII span over `Stopwatch`: on destruction it
/// records its wall-clock duration into a histogram and, when the ring-
/// buffer `TraceSink` is enabled, appends a `{name, start, duration,
/// thread}` span. `SlowQueryLog` keeps the last N queries whose wall
/// clock exceeded a configurable threshold; a `RequestLabelScope` tags
/// the entries one thread records (the server labels each wire request
/// with its connection).
///
/// Export is two-format: `DumpJson()` (nested, machine-readable — the
/// bench harness embeds it in every `--json` record and
/// `ci/check_telemetry_schema.py` validates it) and `DumpText()`
/// (Prometheus exposition style). Both iterate sorted names, so output
/// is deterministic for a given metric state.
///
/// Overhead: a disabled registry (`set_enabled(false)`, or env
/// `DSKG_TELEMETRY=0`) reduces every `TraceScope`/`Record` to a relaxed
/// load and a branch. Counters and `LocalCount`s stay live even when
/// disabled — they back views like `Session::stats()`, which must keep
/// counting either way. CI guards the enabled-mode cost: the median
/// per-pair ratio of instrumented to uninstrumented flagship wall-clock
/// must stay within 1.05.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"

namespace dskg::telemetry {

/// Per-thread stripe index (assigned once per thread, monotone).
size_t ThreadStripeIndex();

/// A named monotone counter, striped on write, merged on read.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }

  /// Adds `n` to this thread's stripe. Wait-free, no contention across
  /// threads with distinct stripe indexes.
  void Add(uint64_t n = 1) {
    stripes_[ThreadStripeIndex() % kStripes].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// The merged total across all stripes. Wait-free.
  uint64_t value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every stripe. Not synchronized with writers.
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kStripes = 16;
  struct Stripe {
    alignas(64) std::atomic<uint64_t> v{0};
  };

  std::string name_;
  std::array<Stripe, kStripes> stripes_;
};

/// One component's exact count of an event that also feeds a process-
/// wide `Counter`: `Add` bumps both, `value()` reads only this count.
/// Owned by value, so a component leaves nothing behind in the registry
/// when it is destroyed.
class LocalCount {
 public:
  explicit LocalCount(Counter* total) : total_(total) {}
  LocalCount(const LocalCount&) = delete;
  LocalCount& operator=(const LocalCount&) = delete;

  void Add() {
    own_.fetch_add(1, std::memory_order_relaxed);
    total_->Add();
  }
  uint64_t value() const { return own_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> own_{0};
  Counter* total_;
};

/// A named instantaneous value (queue depth, drift fraction, ...).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  const std::string& name() const { return name_; }
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::string name_;
  std::atomic<double> v_{0.0};
};

/// A named log-bucketed histogram of non-negative values (wall-clock
/// microseconds by convention; any count works).
class Histogram {
 public:
  /// 4 sub-buckets per power of two: relative bucket width <= 25%.
  static constexpr int kSubBits = 2;
  /// Buckets 0..3 are exact; 4..251 cover [4, 2^63) log-spaced.
  static constexpr int kNumBuckets = 252;

  /// Bucket index of value `u` (monotone in `u`).
  static int BucketOf(uint64_t u) {
    if (u < (1ull << kSubBits)) return static_cast<int>(u);
    const int msb = 63 - __builtin_clzll(u);
    const int sub = static_cast<int>((u >> (msb - kSubBits)) &
                                     ((1ull << kSubBits) - 1));
    const int idx = ((msb - kSubBits + 1) << kSubBits) + sub;
    return idx < kNumBuckets ? idx : kNumBuckets - 1;
  }

  /// Smallest value mapping to bucket `idx`.
  static uint64_t BucketLower(int idx) {
    if (idx < (1 << kSubBits)) return static_cast<uint64_t>(idx);
    const int msb = (idx >> kSubBits) + kSubBits - 1;
    const uint64_t sub = static_cast<uint64_t>(idx & ((1 << kSubBits) - 1));
    return (1ull << msb) + (sub << (msb - kSubBits));
  }

  /// Largest value mapping to bucket `idx` (inclusive).
  static uint64_t BucketUpper(int idx) {
    return idx + 1 < kNumBuckets ? BucketLower(idx + 1) - 1
                                 : ~static_cast<uint64_t>(0);
  }

  explicit Histogram(std::string name) : name_(std::move(name)) {
    for (Stripe& s : stripes_) {
      for (std::atomic<uint64_t>& b : s.buckets) {
        b.store(0, std::memory_order_relaxed);
      }
    }
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const std::string& name() const { return name_; }

  /// Records one observation (negative values clamp to 0).
  void Record(double value) {
    const uint64_t u =
        value > 0 ? static_cast<uint64_t>(value + 0.5) : 0;
    Stripe& s = stripes_[ThreadStripeIndex() % kStripes];
    s.buckets[BucketOf(u)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value > 0 ? value : 0.0, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (u > prev &&
           !max_.compare_exchange_weak(prev, u, std::memory_order_relaxed)) {
    }
    prev = min_.load(std::memory_order_relaxed);
    while (u < prev &&
           !min_.compare_exchange_weak(prev, u, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Largest value recorded (0 when empty).
  uint64_t max_value() const {
    return count() > 0 ? max_.load(std::memory_order_relaxed) : 0;
  }
  /// Smallest value recorded (0 when empty).
  uint64_t min_value() const {
    return count() > 0 ? min_.load(std::memory_order_relaxed) : 0;
  }

  /// Merges the stripes' bucket counts into `out[kNumBuckets]`.
  void MergedBuckets(uint64_t* out) const {
    for (int i = 0; i < kNumBuckets; ++i) out[i] = 0;
    for (const Stripe& s : stripes_) {
      for (int i = 0; i < kNumBuckets; ++i) {
        out[i] += s.buckets[i].load(std::memory_order_relaxed);
      }
    }
  }

  /// Upper bound on the q-quantile (0 <= q <= 1): the upper edge of the
  /// bucket holding rank ceil(q * count), clamped to the observed max.
  /// The true rank-th value always lies in the returned value's bucket.
  double Quantile(double q) const;

  struct Summary {
    uint64_t count = 0;
    double sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
  };
  Summary Summarize() const;

  void Reset() {
    for (Stripe& s : stripes_) {
      for (std::atomic<uint64_t>& b : s.buckets) {
        b.store(0, std::memory_order_relaxed);
      }
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    min_.store(~static_cast<uint64_t>(0), std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kStripes = 4;
  struct Stripe {
    alignas(64) std::array<std::atomic<uint64_t>, kNumBuckets> buckets;
  };

  std::string name_;
  std::array<Stripe, kStripes> stripes_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> min_{~static_cast<uint64_t>(0)};
};

/// Bounded ring buffer of completed trace spans. Disabled (capacity 0)
/// by default — recording then costs one relaxed load.
class TraceSink {
 public:
  struct Span {
    uint64_t seq = 0;       ///< monotone completion index
    std::string name;       ///< span name (e.g. "session.execute")
    double start_us = 0;    ///< registry-relative wall-clock start
    double dur_us = 0;      ///< wall-clock duration
    size_t thread = 0;      ///< recording thread's stripe index
  };

  bool enabled() const {
    return capacity_.load(std::memory_order_relaxed) > 0;
  }
  /// Keeps the most recent `n` spans (0 disables). Shrinking drops the
  /// oldest immediately.
  void set_capacity(size_t n);

  void Record(const char* name, double start_us, double dur_us);

  /// Spans recorded since the sink was enabled (survives ring eviction).
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  /// Copy of the ring, oldest first.
  std::vector<Span> Snapshot() const;

  void Clear();

 private:
  std::atomic<size_t> capacity_{0};
  std::atomic<uint64_t> total_{0};
  mutable std::mutex mu_;
  std::deque<Span> ring_;
};

/// Keeps the most recent queries whose wall clock crossed a threshold.
/// Disabled by default (threshold 0); enable with `set_threshold_ms` or
/// env `DSKG_SLOW_QUERY_MS`.
class SlowQueryLog {
 public:
  struct Entry {
    uint64_t seq = 0;     ///< monotone slow-query index
    double wall_ms = 0;   ///< the offending wall-clock latency
    std::string route;    ///< route the execution took
    std::string text;     ///< query text (truncated to kMaxText)
  };
  static constexpr size_t kMaxText = 300;
  static constexpr size_t kCapacity = 64;

  double threshold_ms() const {
    return threshold_ms_.load(std::memory_order_relaxed);
  }
  void set_threshold_ms(double ms) {
    threshold_ms_.store(ms, std::memory_order_relaxed);
  }
  bool enabled() const { return threshold_ms() > 0; }

  /// Records `text` when `wall_ms` is at or above the threshold,
  /// prefixed with this thread's request label when one is set.
  void MaybeRecord(std::string_view text, const char* route, double wall_ms);

  /// Slow queries seen since construction (survives ring eviction).
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  /// Copy of the ring, oldest first.
  std::vector<Entry> Snapshot() const;

  void Clear();

 private:
  std::atomic<double> threshold_ms_{0.0};
  std::atomic<uint64_t> total_{0};
  mutable std::mutex mu_;
  std::deque<Entry> ring_;
};

/// Labels the slow-query entries this thread records while the scope
/// lives: an entry's text becomes `<label> <query text>`. Scopes nest
/// (the innermost wins) and `label` must outlive the scope; a thread
/// with no scope records unlabelled entries.
class RequestLabelScope {
 public:
  explicit RequestLabelScope(std::string_view label);
  ~RequestLabelScope();
  RequestLabelScope(const RequestLabelScope&) = delete;
  RequestLabelScope& operator=(const RequestLabelScope&) = delete;

 private:
  std::string_view prev_;
};

/// The registry: named metric instances with stable addresses, a trace
/// sink, a slow-query log, and the two exporters. `Global()` is the
/// process-wide instance every subsystem records into; tests build local
/// registries to isolate state.
class MetricsRegistry {
 public:
  /// `from_env`: initialise `enabled()` from DSKG_TELEMETRY (default on;
  /// "0"/"off"/"false" disable) and the slow-query threshold from
  /// DSKG_SLOW_QUERY_MS.
  explicit MetricsRegistry(bool from_env = false);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry& Global();

  /// Get-or-create; the returned pointer is stable for the registry's
  /// lifetime — call once and cache, the lookup takes a lock.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Gates histogram/span/slow-log recording at the instrumentation
  /// sites (they check before touching a clock). Counters are NOT gated:
  /// the `LocalCount`s behind per-component stats add to them.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  TraceSink& traces() { return traces_; }
  const TraceSink& traces() const { return traces_; }
  SlowQueryLog& slow_queries() { return slow_queries_; }
  const SlowQueryLog& slow_queries() const { return slow_queries_; }

  /// Microseconds of wall clock since registry construction (span
  /// timestamps are relative to this origin).
  double NowMicros() const { return origin_.ElapsedMicros(); }

  /// Structured JSON snapshot:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count, sum, min, max, p50, p95, p99,
  ///                          buckets: [{le, count(cumulative)}...]}},
  ///    "slow_queries": [...], "spans": [...]}
  /// Deterministic order (sorted names, insertion-ordered rings).
  std::string DumpJson() const;

  /// Prometheus-exposition-style text ('.' becomes '_'; histograms emit
  /// cumulative _bucket{le=...} lines plus _sum and _count).
  std::string DumpText() const;

  /// Flat name -> value view for programmatic deltas (counters and
  /// gauges by name; histograms as name+".count"/".sum"/".p50"/
  /// ".p95"/".p99"/".max").
  std::map<std::string, double> SnapshotValues() const;

  /// Zeroes every metric and clears the rings. Not synchronized with
  /// concurrent writers; quiesce first.
  void Reset();

 private:
  std::atomic<bool> enabled_{true};
  Stopwatch origin_;
  mutable std::mutex mu_;  // guards the maps (not the metrics)
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  TraceSink traces_;
  SlowQueryLog slow_queries_;
};

/// RAII wall-clock span: on destruction records the elapsed time into
/// `hist` (when non-null) and appends a span to the registry's trace
/// sink (when that is enabled). When the registry is disabled at
/// construction the scope is inert — no clock is read.
class TraceScope {
 public:
  TraceScope(MetricsRegistry& reg, Histogram* hist, const char* name)
      : reg_(reg.enabled() ? &reg : nullptr), hist_(hist), name_(name) {
    if (reg_ != nullptr) start_us_ = reg_->NowMicros();
  }

  /// Spans against the global registry.
  TraceScope(Histogram* hist, const char* name)
      : TraceScope(MetricsRegistry::Global(), hist, name) {}

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (reg_ == nullptr) return;
    const double dur = reg_->NowMicros() - start_us_;
    if (hist_ != nullptr) hist_->Record(dur);
    if (reg_->traces().enabled()) {
      reg_->traces().Record(name_, start_us_, dur);
    }
  }

 private:
  MetricsRegistry* reg_;
  Histogram* hist_;
  const char* name_;
  double start_us_ = 0;
};

}  // namespace dskg::telemetry

#endif  // DSKG_COMMON_TELEMETRY_H_
