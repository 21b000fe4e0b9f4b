#include "common/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace dskg::telemetry {
namespace {

// JSON string escaping for query texts / span names.
void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// Shortest-ish deterministic double rendering that round-trips the
// values we emit (counts, micros, quantile bucket edges).
std::string NumToJson(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string NumToJson(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
// become underscored.
std::string PromName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

bool EnvDisablesTelemetry() {
  const char* v = std::getenv("DSKG_TELEMETRY");
  if (v == nullptr) return false;
  return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "false") == 0 || std::strcmp(v, "OFF") == 0;
}

}  // namespace

size_t ThreadStripeIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

// ---------------------------------------------------------------------------
// Histogram

double Histogram::Quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  uint64_t buckets[kNumBuckets];
  MergedBuckets(buckets);
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) total += buckets[i];
  if (total == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      const uint64_t upper = BucketUpper(i);
      const uint64_t mx = max_.load(std::memory_order_relaxed);
      return static_cast<double>(std::min(upper, mx));
    }
  }
  return static_cast<double>(max_.load(std::memory_order_relaxed));
}

Histogram::Summary Histogram::Summarize() const {
  Summary s;
  s.count = count();
  s.sum = sum();
  s.min = min_value();
  s.max = max_value();
  if (s.count > 0) {
    s.p50 = Quantile(0.50);
    s.p95 = Quantile(0.95);
    s.p99 = Quantile(0.99);
  }
  return s;
}

// ---------------------------------------------------------------------------
// TraceSink

void TraceSink::set_capacity(size_t n) {
  capacity_.store(n, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  while (ring_.size() > n) ring_.pop_front();
}

void TraceSink::Record(const char* name, double start_us, double dur_us) {
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return;
  const uint64_t seq = total_.fetch_add(1, std::memory_order_relaxed);
  Span span;
  span.seq = seq;
  span.name = name;
  span.start_us = start_us;
  span.dur_us = dur_us;
  span.thread = ThreadStripeIndex();
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(span));
  while (ring_.size() > cap) ring_.pop_front();
}

std::vector<TraceSink::Span> TraceSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Span>(ring_.begin(), ring_.end());
}

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  total_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// SlowQueryLog

namespace {
thread_local std::string_view tls_request_label;
}  // namespace

RequestLabelScope::RequestLabelScope(std::string_view label)
    : prev_(tls_request_label) {
  tls_request_label = label;
}

RequestLabelScope::~RequestLabelScope() { tls_request_label = prev_; }

void SlowQueryLog::MaybeRecord(std::string_view text, const char* route,
                               double wall_ms) {
  const double threshold = threshold_ms();
  if (threshold <= 0 || wall_ms < threshold) return;
  const uint64_t seq = total_.fetch_add(1, std::memory_order_relaxed);
  Entry e;
  e.seq = seq;
  e.wall_ms = wall_ms;
  e.route = route;
  if (!tls_request_label.empty()) {
    e.text.append(tls_request_label).append(1, ' ');
  }
  e.text.append(text);
  e.text.resize(std::min(e.text.size(), kMaxText));
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(e));
  while (ring_.size() > kCapacity) ring_.pop_front();
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Entry>(ring_.begin(), ring_.end());
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  total_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry(bool from_env) {
  if (from_env) {
    if (EnvDisablesTelemetry()) enabled_.store(false);
    if (const char* ms = std::getenv("DSKG_SLOW_QUERY_MS")) {
      slow_queries_.set_threshold_ms(std::atof(ms));
    }
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: metric pointers handed out to subsystems must
  // outlive every static destructor.
  static MetricsRegistry* g = new MetricsRegistry(/*from_env=*/true);
  return *g;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return it->second.get();
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(&out, name);
    out += "\":";
    out += NumToJson(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(&out, name);
    out += "\":";
    out += NumToJson(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(&out, name);
    out += "\":{";
    const Histogram::Summary s = h->Summarize();
    out += "\"count\":" + NumToJson(s.count);
    out += ",\"sum\":" + NumToJson(s.sum);
    out += ",\"min\":" + NumToJson(s.min);
    out += ",\"max\":" + NumToJson(s.max);
    out += ",\"p50\":" + NumToJson(s.p50);
    out += ",\"p95\":" + NumToJson(s.p95);
    out += ",\"p99\":" + NumToJson(s.p99);
    out += ",\"buckets\":[";
    uint64_t buckets[Histogram::kNumBuckets];
    h->MergedBuckets(buckets);
    int last = -1;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (buckets[i] != 0) last = i;
    }
    uint64_t cum = 0;
    for (int i = 0; i <= last; ++i) {
      cum += buckets[i];
      if (i > 0) out += ',';
      out += "{\"le\":" + NumToJson(Histogram::BucketUpper(i)) +
             ",\"count\":" + NumToJson(cum) + '}';
    }
    // Terminal +Inf bucket carries the total, even for empty histograms.
    if (last >= 0) out += ',';
    out += "{\"le\":\"+Inf\",\"count\":" + NumToJson(cum) + "}]}";
  }
  out += "},\"slow_queries\":[";
  const auto slow = slow_queries_.Snapshot();
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"seq\":" + NumToJson(slow[i].seq);
    out += ",\"wall_ms\":" + NumToJson(slow[i].wall_ms);
    out += ",\"route\":\"";
    AppendJsonEscaped(&out, slow[i].route);
    out += "\",\"text\":\"";
    AppendJsonEscaped(&out, slow[i].text);
    out += "\"}";
  }
  out += "],\"spans\":[";
  const auto spans = traces_.Snapshot();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"seq\":" + NumToJson(spans[i].seq);
    out += ",\"name\":\"";
    AppendJsonEscaped(&out, spans[i].name);
    out += "\",\"start_us\":" + NumToJson(spans[i].start_us);
    out += ",\"dur_us\":" + NumToJson(spans[i].dur_us);
    out += ",\"thread\":" + NumToJson(static_cast<uint64_t>(spans[i].thread));
    out += '}';
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::DumpText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);
  for (const auto& [name, c] : counters_) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " counter\n";
    out += p + ' ' + NumToJson(c->value()) + '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + ' ' + NumToJson(g->value()) + '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " histogram\n";
    uint64_t buckets[Histogram::kNumBuckets];
    h->MergedBuckets(buckets);
    int last = -1;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (buckets[i] != 0) last = i;
    }
    uint64_t cum = 0;
    for (int i = 0; i <= last; ++i) {
      cum += buckets[i];
      out += p + "_bucket{le=\"" + NumToJson(Histogram::BucketUpper(i)) +
             "\"} " + NumToJson(cum) + '\n';
    }
    out += p + "_bucket{le=\"+Inf\"} " + NumToJson(cum) + '\n';
    out += p + "_sum " + NumToJson(h->sum()) + '\n';
    out += p + "_count " + NumToJson(h->count()) + '\n';
  }
  return out;
}

std::map<std::string, double> MetricsRegistry::SnapshotValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c->value());
  }
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Summary s = h->Summarize();
    out[name + ".count"] = static_cast<double>(s.count);
    out[name + ".sum"] = s.sum;
    out[name + ".p50"] = s.p50;
    out[name + ".p95"] = s.p95;
    out[name + ".p99"] = s.p99;
    out[name + ".max"] = static_cast<double>(s.max);
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  traces_.Clear();
  slow_queries_.Clear();
}

}  // namespace dskg::telemetry
