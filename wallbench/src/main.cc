// wallbench: wall-clock benchmark of the dual store through its public API.
//
//   wallbench --workload yago_dual --seed 1 --seconds 10 --trace 0
//             --workdir .bench_build/run
//
// One process runs one workload: inputs generated from the seed (untimed),
// a timed set-up (durable OnlineStore construction plus DOTIL warm-up), a
// steady phase of windows (update batches, then passes over the query and
// lookup sets), and a timed restart through OnlineStore::Recover. Every
// timing wraps one public call on the calling thread; end-to-end figures
// are medians of repeated calls, or sums of such medians. Results are
// checked against an independent oracle (oracle.h). The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// `--trace 1` records spans around every call, reads the telemetry
// registry, and prints the per-layer metrics instead. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "core/dotil.h"
#include "core/online_store.h"
#include "core/session.h"
#include "oracle.h"
#include "persist/wal.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/generators.h"
#include "workload/templates.h"
#include "workload/update_stream.h"
#include "workload/workload.h"

namespace wallbench {
namespace {

namespace fs = std::filesystem;
using dskg::Status;
using dskg::core::OnlineStore;
using dskg::core::PreparedQuery;
using dskg::core::Route;
using dskg::core::Session;
using dskg::core::UpdateBatch;
using dskg::core::UpdateOp;
using Clock = std::chrono::steady_clock;
using Bindings = std::vector<std::pair<std::string, std::string>>;

// ---- workloads ---------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  bool use_graph;          // RDB-GDB, DOTIL-tuned (true) or RDB-only
  int ops_per_batch;       // update ops per ApplyUpdates call
  int batches_per_window;  // log batches at the start of a window
  int passes_per_window;   // passes over the query and lookup sets
  int windows_per_second;  // cap on windows, as a rate (sizes the log)
};

// yago_dual and yago_rel share inputs and protocol and differ only in the
// store variant, so their tti_ms ratio is the wall-clock form of the
// paper's RDB-GDB vs RDB-only comparison; they are read-mostly, with one
// small batch and many passes per window. yago_ingest turns the same
// inputs write-heavy: every batch moves the plan epoch, so each window's
// first execution of each prepared text re-plans. Every window ends with
// one compensating batch per log batch, which undoes the window's net
// effect, so each window's queries see the initial graph plus that
// window's ops; compensating batches are applied but not timed.
// Uncompensated, the drift decides tti_ms: the co-actor query's cost is a
// sum of squared casts, and a run's accumulated inserts and deletes on
// popular movies moved it between 0.5x and 1x from one seed to another
// (yago_ingest over a quarter of the graph; yago_dual's 18,000 ops once
// too, seed 22: 11.3 ms against 16.5-18.6 ms).
constexpr WorkloadSpec kSpecs[] = {
    {"yago_dual", true, 100, 1, 8, 40},
    {"yago_rel", false, 100, 1, 8, 40},
    {"yago_ingest", true, 1000, 3, 1, 12},
};

constexpr uint64_t kTriples = 500000;
constexpr uint64_t kDatasetSeed = 1;
constexpr uint64_t kQuerySetSeed = 42;
constexpr int kShards = 2;
constexpr int kLookupPersons = 16;
constexpr int kDotilRounds = 6;  // warm-up rounds in set-up (RDB-GDB only)
constexpr int kSetupReps = 3;
constexpr int kRecoverReps = 5;
constexpr int kTailBatches = 20;  // WAL tail past the last snapshot
constexpr int kMinWindows = 3;
constexpr int kWireReps = 5;

// A one-pattern lookup and a three-pattern star on one subject.
constexpr const char* kLookupTexts[] = {
    "SELECT ?c WHERE { $p y:wasBornIn ?c . }",
    "SELECT ?g ?f ?c WHERE { $p y:hasGivenName ?g . "
    "$p y:hasFamilyName ?f . $p y:wasBornIn ?c . }",
};

// ---- small helpers -----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2;
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time counters of the host, from the first line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (in >> cpu && cpu == "cpu") {
    for (uint64_t& x : v) in >> x;
  }
  for (uint64_t x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double StealPct(const CpuTimes& a, const CpuTimes& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0 : 100.0 * static_cast<double>(b.steal - a.steal) /
                              static_cast<double>(total);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- spans -------------------------------------------------------------------

/// Times public calls on the calling thread. When enabled it also keeps a
/// span per call (name, start, end, parent span, request id) in memory and
/// writes them out at the end of the run; the bookkeeping sits outside the
/// timed interval.
class Tracer {
 public:
  struct Span {
    uint64_t parent = 0;  // 0 = no parent
    uint64_t request = 0;
    const char* name = "";
    double start_us = 0;
    double end_us = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  uint64_t NewRequest() { return ++requests_; }

  /// Runs `fn` and returns its wall time in microseconds.
  template <class F>
  double Time(const char* name, uint64_t request, F&& fn) {
    size_t idx = 0;
    if (enabled_) {
      idx = spans_.size();
      spans_.push_back({stack_.empty() ? 0 : stack_.back(), request, name});
      stack_.push_back(idx + 1);
    }
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (enabled_) {
      spans_[idx].start_us = MicrosBetween(origin_, t0);
      spans_[idx].end_us = MicrosBetween(origin_, t1);
      stack_.pop_back();
    }
    return MicrosBetween(t0, t1);
  }

  /// Writes one JSON object per span, one per line.
  bool Write(const fs::path& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"parent\":%llu,\"req\":%llu,\"name\":\"%s\","
                    "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                    i + 1, static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request), s.name,
                    s.start_us, s.end_us);
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  uint64_t requests_ = 0;
  std::vector<Span> spans_;
  std::vector<uint64_t> stack_;  // open span ids
};

// ---- registry deltas -----------------------------------------------------------

/// Count and sum of one registry histogram at one moment.
struct HistMark {
  uint64_t count = 0;
  double sum = 0;
};

HistMark MarkOf(const char* name) {
  auto* h = dskg::telemetry::MetricsRegistry::Global().histogram(name);
  return {h->count(), h->sum()};
}

uint64_t CounterOf(const char* name) {
  return dskg::telemetry::MetricsRegistry::Global().counter(name)->value();
}

/// Mean of the samples recorded since `since` (log-bucketed histograms:
/// sum / count is exact, bucket quantiles are not).
double MeanSince(const char* name, const HistMark& since) {
  const HistMark now = MarkOf(name);
  const uint64_t n = now.count - since.count;
  return n == 0 ? 0 : (now.sum - since.sum) / static_cast<double>(n);
}

// Registry figures of the update path, summed over the timed log batches
// only, so that they describe the same calls as apply_ms.
constexpr const char* kApplyHists[] = {
    "store.inject_route_us", "store.shard0.apply_us",
    "store.shard1.apply_us", "store.merge_barrier_us",
    "store.epoch_drain_us",  "persist.wal.append_us",
    "persist.fsync_us"};
constexpr const char* kApplyCounters[] = {"store.cow.nodes_cloned",
                                          "persist.wal.bytes"};
constexpr size_t kNumApplyHists = std::size(kApplyHists);
constexpr size_t kNumApplyCounters = std::size(kApplyCounters);

/// Registry histograms and counters of the update path at one moment.
struct ApplyMarks {
  std::array<HistMark, kNumApplyHists> hists;
  std::array<uint64_t, kNumApplyCounters> counters;
};

ApplyMarks ReadApplyMarks() {
  ApplyMarks m;
  for (size_t i = 0; i < kNumApplyHists; ++i) {
    m.hists[i] = MarkOf(kApplyHists[i]);
  }
  for (size_t i = 0; i < kNumApplyCounters; ++i) {
    m.counters[i] = CounterOf(kApplyCounters[i]);
  }
  return m;
}

// ---- the benchmark -------------------------------------------------------------

/// One query of the benchmark: a prepared text, its bindings, and the
/// oracle's parse of the bound query.
struct BenchQuery {
  std::string label;
  std::string text;
  Bindings bindings;
  Bgp bgp;
};

/// Per-query samples of the steady phase.
struct QuerySamples {
  std::vector<double> wall_us;
  std::vector<double> sim_us;
  std::array<int, 4> routes{};  // indexed by Route
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, int seconds, bool trace,
        fs::path workdir)
      : spec_(spec), seed_(seed), seconds_(seconds), tracer_(trace),
        workdir_(std::move(workdir)) {}

  int Run();

 private:
  // Phases.
  bool MakeInputs();
  bool Setup();
  bool SetupOnce(int rep);
  bool Steady();
  bool Restart();
  void WireReference(OnlineStore* store);

  // Operations and checks.
  dskg::core::DualStoreConfig StoreConfig() const;
  dskg::persist::DurabilityOptions Durability(const fs::path& dir) const;
  /// Prepares and binds every query of `queries`. A bound term the oracle
  /// no longer holds may get NotFound from Bind; RunQuery checks it.
  bool PrepareHandles(Session* session, const std::vector<BenchQuery>& queries,
                      std::vector<PreparedQuery>* out);
  /// Applies `batch` to the store and the oracle; returns the batch that
  /// undoes its effect on the oracle's set (ops before `keep` excluded).
  /// A `timed` batch is a sample of apply_ms and of the update-path layers.
  UpdateBatch ApplyBatch(const UpdateBatch& batch, bool timed,
                         size_t keep = 0);
  /// Runs one query (and, for a lookup, its Bind). `check` compares the
  /// rows with the oracle's; returns false on a failed operation.
  bool RunQuery(PreparedQuery* handle, const BenchQuery& q, bool lookup,
                bool check, const dskg::rdf::Dictionary& dict,
                double* wall_us, QuerySamples* samples);
  /// Executes every query and lookup once, untimed, against the oracle.
  void CheckAll(Session* session, std::vector<PreparedQuery>* handles,
                std::vector<PreparedQuery>* lookup_handles,
                const dskg::rdf::Dictionary& dict, const char* where);
  void CheckRetired(Session* session, const char* where);
  void Fail(const std::string& what);
  bool BoundTermsLive(const BenchQuery& q) const;

  void PrintResult();

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const int seconds_;
  Tracer tracer_;
  const fs::path workdir_;  // traces are written here
  fs::path run_dir_;        // this process's stores, removed at exit
  fs::path store_dir_;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;

  // Inputs.
  std::optional<dskg::rdf::Dataset> dataset_;
  std::vector<BenchQuery> queries_;
  std::vector<BenchQuery> lookups_;
  std::string retired_;  // person the log deletes entirely
  int retired_not_found_ = 0;  // checks at which its Bind was NotFound
  std::vector<UpdateBatch> batches_;
  size_t retire_ops_ = 0;  // leading ops of batches_[0]
  size_t next_batch_ = 0;
  Oracle oracle_;
  double inputs_rss_mb_ = 0;

  // The store under test.
  std::unique_ptr<OnlineStore> store_;
  std::unique_ptr<Session> session_;
  std::vector<PreparedQuery> handles_;
  std::vector<PreparedQuery> lookup_handles_;

  // Measurements.
  std::vector<double> setup_s_;
  std::vector<double> build_s_;
  std::vector<double> tune_s_;
  uint64_t migrations_ = 0;
  uint64_t resident_triples_ = 0;
  std::vector<QuerySamples> query_samples_;
  std::vector<double> lookup_us_;
  std::vector<double> bind_us_;
  std::vector<double> apply_us_;
  uint64_t steady_ops_ = 0;  // ops of the timed batches
  ApplyMarks apply_sums_{};  // registry deltas over the timed batches
  uint64_t replans_ = 0;
  std::vector<double> recover_s_;
  uint64_t replayed_batches_ = 0;
  double bytes_per_triple_ = 0;
  double snapshot_bytes_per_triple_ = 0;
  std::map<std::string, double> steady_layers_;
  double wire_roundtrip_us_ = 0;
  double wire_overhead_us_ = 0;
  CpuTimes cpu_start_;
};

dskg::core::DualStoreConfig Bench::StoreConfig() const {
  dskg::core::DualStoreConfig cfg;
  cfg.num_shards = kShards;
  cfg.use_graph = spec_.use_graph;
  cfg.graph_capacity_triples =
      spec_.use_graph ? dataset_->num_triples() / 4 : 0;
  return cfg;
}

dskg::persist::DurabilityOptions Bench::Durability(const fs::path& dir) const {
  dskg::persist::DurabilityOptions opts;
  opts.dir = dir.string();
  opts.sync_policy = dskg::persist::SyncPolicy::kEveryBatch;
  return opts;
}

void Bench::Fail(const std::string& what) {
  ++failed_;
  std::printf("mismatch: %s\n", what.c_str());
}

bool Bench::BoundTermsLive(const BenchQuery& q) const {
  for (const auto& [name, term] : q.bindings) {
    if (!oracle_.TermLive(term)) return false;
  }
  return true;
}

bool Bench::MakeInputs() {
  dskg::workload::YagoConfig ycfg;
  ycfg.seed = kDatasetSeed;
  ycfg.target_triples = kTriples;
  dataset_.emplace(dskg::workload::GenerateYago(ycfg));
  const dskg::rdf::Dataset& ds = *dataset_;
  const dskg::rdf::Dictionary& dict = ds.dict();
  for (const dskg::rdf::Triple& t : ds.triples()) {
    oracle_.Insert(dict.TermOf(t.subject), dict.TermOf(t.predicate),
                   dict.TermOf(t.object));
  }

  // The query set: 4 YAGO templates x (original + 4 mutations).
  dskg::workload::WorkloadBuilder builder(&ds);
  dskg::workload::WorkloadOptions wopts;
  wopts.seed = kQuerySetSeed;
  auto built = builder.Build("YAGO", dskg::workload::YagoTemplates(), wopts);
  if (!built.ok()) {
    std::fprintf(stderr, "workload build: %s\n",
                 built.status().ToString().c_str());
    return false;
  }
  const auto templates = dskg::workload::YagoTemplates();
  for (const dskg::workload::WorkloadQuery& wq : built->queries) {
    BenchQuery q;
    q.label = templates[static_cast<size_t>(wq.template_index)].name + "#" +
              std::to_string(wq.mutation);
    q.text = wq.prepared_text;
    q.bindings = wq.bindings;
    std::string err;
    if (q.text.empty() || !ParseBgp(q.text, q.bindings, &q.bgp, &err)) {
      std::fprintf(stderr, "query %s: not a prepared BGP (%s)\n",
                   q.label.c_str(), err.c_str());
      return false;
    }
    queries_.push_back(std::move(q));
  }

  // Persons for the lookups, and one more the update log retires.
  const dskg::rdf::TermId born = dict.Lookup("y:wasBornIn");
  std::vector<std::string> persons;
  for (const dskg::rdf::Triple& t : ds.triples()) {
    if (t.predicate == born) persons.emplace_back(dict.TermOf(t.subject));
  }
  dskg::Rng rng(seed_ * 7919 + 17);
  std::set<std::string> picked;
  while (picked.size() < static_cast<size_t>(kLookupPersons) + 8 &&
         picked.size() < persons.size()) {
    picked.insert(persons[rng.NextBounded(persons.size())]);
  }
  std::vector<std::string> candidates(picked.begin(), picked.end());
  for (size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.NextBounded(i)]);
  }

  // The update log: Zipf-skewed, 70/30 inserts/deletes, fresh entities.
  const int max_windows = std::max(kMinWindows,
                                   spec_.windows_per_second * seconds_);
  dskg::workload::UpdateStreamConfig ucfg;
  ucfg.seed = seed_ + 1000;
  ucfg.num_batches = max_windows * spec_.batches_per_window + kTailBatches;
  ucfg.ops_per_batch = spec_.ops_per_batch;
  const dskg::core::UpdateLog log =
      dskg::workload::GenerateUpdateStream(ds, ucfg);
  // Terms the log's inserts bring in: over the whole log, and in the
  // first window's batches.
  std::set<std::string> inserted_terms, first_window_terms;
  for (uint64_t b = 0; b < log.size(); ++b) {
    for (const UpdateOp& op : log.at(b).ops) {
      if (op.kind != UpdateOp::Kind::kInsert) continue;
      inserted_terms.insert(op.subject);
      inserted_terms.insert(op.object);
      if (b < static_cast<uint64_t>(spec_.batches_per_window)) {
        first_window_terms.insert(op.subject);
        first_window_terms.insert(op.object);
      }
    }
  }
  // The retired person: one no insert of the first window brings back, so
  // its lookup gets NotFound from Bind at least at the first check;
  // preferably one the whole log never brings back.
  for (const std::set<std::string>* avoid :
       {&inserted_terms, &first_window_terms}) {
    for (const std::string& c : candidates) {
      if (retired_.empty() && avoid->count(c) == 0) retired_ = c;
    }
  }
  if (retired_.empty()) {
    std::fprintf(stderr, "no person to retire\n");
    return false;
  }
  for (const std::string& c : candidates) {
    if (c == retired_) continue;
    if (lookups_.size() == 2 * static_cast<size_t>(kLookupPersons)) break;
    for (const char* text : kLookupTexts) {
      BenchQuery q;
      q.label = std::string("lookup") +
                (text == kLookupTexts[0] ? "1:" : "3:") + c;
      q.text = text;
      q.bindings = {{"p", c}};
      std::string err;
      if (!ParseBgp(q.text, q.bindings, &q.bgp, &err)) return false;
      lookups_.push_back(std::move(q));
    }
  }

  batches_.reserve(log.size());
  for (uint64_t b = 0; b < log.size(); ++b) {
    UpdateBatch batch = log.at(b);
    batch.batch_id = dskg::core::kUnassignedBatchId;
    batches_.push_back(std::move(batch));
  }
  // The first batch also deletes every triple that mentions the retired
  // person.
  std::vector<UpdateOp> retire;
  for (const auto& t : oracle_.TriplesMentioning(retired_)) {
    retire.push_back(UpdateOp::Delete(t[0], t[1], t[2]));
  }
  batches_[0].ops.insert(batches_[0].ops.begin(), retire.begin(),
                         retire.end());
  retire_ops_ = retire.size();
  inputs_rss_mb_ = PeakRssMb();
  std::printf("info: graph %llu triples, %zu queries, %zu lookups, "
              "log %zu batches of %d ops, retired %s (%zu triples)\n",
              static_cast<unsigned long long>(ds.num_triples()),
              queries_.size(), lookups_.size(), batches_.size(),
              spec_.ops_per_batch, retired_.c_str(), retire_ops_);
  return true;
}

bool Bench::PrepareHandles(Session* session,
                           const std::vector<BenchQuery>& queries,
                           std::vector<PreparedQuery>* out) {
  out->clear();
  for (const BenchQuery& q : queries) {
    auto prepared = session->Prepare(q.text);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare %s: %s\n", q.label.c_str(),
                   prepared.status().ToString().c_str());
      return false;
    }
    for (const auto& [name, term] : q.bindings) {
      Status s = prepared->Bind(name, term);
      if (!s.ok() && !(s.IsNotFound() && !oracle_.TermLive(term))) {
        std::fprintf(stderr, "bind %s: %s\n", q.label.c_str(),
                     s.ToString().c_str());
        return false;
      }
    }
    out->push_back(std::move(prepared).ValueOrDie());
  }
  return true;
}

bool Bench::SetupOnce(int rep) {
  // The previous set-up's store goes first: its destructor still writes.
  handles_.clear();
  session_.reset();
  store_.reset();
  if (!store_dir_.empty()) fs::remove_all(store_dir_);
  store_dir_ = run_dir_ / ("store-" + std::to_string(rep));
  fs::create_directories(store_dir_);

  const uint64_t migrations0 = CounterOf("dotil.migrations");
  Status status = Status::OK();
  double tune_us = 0;
  const double setup_us = tracer_.Time("setup", 0, [&] {
    const double build_us = tracer_.Time("OnlineStore", 0, [&] {
      store_ = std::make_unique<OnlineStore>(*dataset_, StoreConfig(),
                                             Durability(store_dir_));
    });
    build_s_.push_back(build_us / 1e6);
    status = store_->poison_status();
    if (!status.ok()) return;
    session_ = std::make_unique<Session>(store_.get());
    if (!PrepareHandles(session_.get(), queries_, &handles_)) {
      status = Status::Internal("preparing the query set failed");
      return;
    }
    dskg::core::DotilTuner tuner;
    const int rounds = spec_.use_graph ? kDotilRounds : 0;
    for (int round = 0; round < rounds && status.ok(); ++round) {
      std::vector<dskg::sparql::Query> finished;
      for (PreparedQuery& h : handles_) {
        auto exec = h.ExecuteAll();
        if (!exec.ok()) {
          status = exec.status();
          return;
        }
        if (exec->split.HasComplexSubquery()) {
          finished.push_back(*exec->split.complex);
        }
      }
      dskg::CostMeter meter;
      tune_us += tracer_.Time("TuneExclusive", 0, [&] {
        status = store_->TuneExclusive([&](dskg::core::DualStore* s) {
          return tuner.AfterBatch(s, finished, &meter);
        });
      });
    }
  });
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return false;
  }
  setup_s_.push_back(setup_us / 1e6);
  tune_s_.push_back(tune_us / 1e6);
  migrations_ = CounterOf("dotil.migrations") - migrations0;
  return true;
}

bool Bench::Setup() {
  // Every set-up is a sample of setup_s; the last store is the one run.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!SetupOnce(rep)) return false;
  }
  const dskg::core::DualStore& active = store_->active();
  resident_triples_ = 0;
  for (dskg::rdf::TermId p : active.table().Predicates()) {
    if (active.IsResident(p)) resident_triples_ += active.PartitionSize(p);
  }
  return PrepareHandles(session_.get(), lookups_, &lookup_handles_);
}

UpdateBatch Bench::ApplyBatch(const UpdateBatch& batch, bool timed,
                              size_t keep) {
  UpdateBatch undo;
  ++attempted_;
  const uint64_t req = tracer_.NewRequest();
  dskg::Result<dskg::core::UpdateResult> res =
      Status::Internal("not run");
  const ApplyMarks before = timed ? ReadApplyMarks() : ApplyMarks{};
  const double us = tracer_.Time("ApplyUpdates", req, [&] {
    res = store_->ApplyUpdates(batch);
  });
  if (!res.ok()) {
    Fail("ApplyUpdates: " + res.status().ToString());
    return undo;
  }
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const UpdateOp& op = batch.ops[i];
    if (op.kind == UpdateOp::Kind::kInsert) {
      if (oracle_.Insert(op.subject, op.predicate, op.object) && i >= keep) {
        undo.ops.push_back(UpdateOp::Delete(op.subject, op.predicate,
                                            op.object));
      }
    } else if (oracle_.Delete(op.subject, op.predicate, op.object) &&
               i >= keep) {
      undo.ops.push_back(UpdateOp::Insert(op.subject, op.predicate,
                                          op.object));
    }
  }
  std::reverse(undo.ops.begin(), undo.ops.end());
  if (timed) {
    apply_us_.push_back(us);
    steady_ops_ += batch.ops.size();
    const ApplyMarks after = ReadApplyMarks();
    for (size_t i = 0; i < kNumApplyHists; ++i) {
      HistMark& sum = apply_sums_.hists[i];
      sum.count += after.hists[i].count - before.hists[i].count;
      sum.sum += after.hists[i].sum - before.hists[i].sum;
    }
    for (size_t i = 0; i < kNumApplyCounters; ++i) {
      apply_sums_.counters[i] += after.counters[i] - before.counters[i];
    }
  }
  return undo;
}

bool Bench::RunQuery(PreparedQuery* handle, const BenchQuery& q, bool lookup,
                     bool check, const dskg::rdf::Dictionary& dict,
                     double* wall_us, QuerySamples* samples) {
  ++attempted_;
  const uint64_t req = tracer_.NewRequest();
  Status bind_status = Status::OK();
  dskg::Result<dskg::core::QueryExecution> exec =
      Status::Internal("not run");
  *wall_us = tracer_.Time(lookup ? "lookup" : "query", req, [&] {
    if (lookup) {
      const double bind_us = tracer_.Time("PreparedQuery::Bind", req, [&] {
        bind_status = handle->Bind("p", q.bindings[0].second);
      });
      if (tracer_.enabled()) bind_us_.push_back(bind_us);
      if (!bind_status.ok()) return;
    }
    tracer_.Time("PreparedQuery::ExecuteAll", req,
                 [&] { exec = handle->ExecuteAll(); });
  });

  // A bound term the log deleted: Bind (lookups) or the re-resolving
  // execution (queries) must report NotFound.
  const Status& status = lookup && !bind_status.ok() ? bind_status
                                                       : exec.status();
  if (!status.ok()) {
    if (status.IsNotFound() && !BoundTermsLive(q)) return true;
    Fail(q.label + ": " + status.ToString() + " for " + q.text);
    return false;
  }
  if (!BoundTermsLive(q)) {
    Fail(q.label + ": bound term deleted by the log but no NotFound, for " +
         q.text);
    return false;
  }
  if (samples != nullptr) {
    samples->sim_us.push_back(exec->total_micros());
    ++samples->routes[static_cast<size_t>(exec->route)];
  }
  if (!check) return true;
  const dskg::sparql::BindingTable& table = exec->result;
  std::vector<int> cols;
  for (const std::string& v : q.bgp.select) cols.push_back(table.ColumnIndex(v));
  Rows got;
  got.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    Row row;
    for (const int c : cols) {
      row.emplace_back(c >= 0 ? dict.TermOf(table.At(r, static_cast<size_t>(c)))
                              : std::string_view());
    }
    got.push_back(std::move(row));
  }
  std::sort(got.begin(), got.end());
  const Rows want = oracle_.Evaluate(q.bgp);
  if (got != want) {
    std::string b;
    for (const auto& [name, term] : q.bindings) b += " $" + name + "=" + term;
    Fail(q.label + ": " + std::to_string(got.size()) + " rows, oracle " +
         std::to_string(want.size()) + ", for " + q.text + b);
    return false;
  }
  return true;
}

void Bench::CheckAll(Session* session, std::vector<PreparedQuery>* handles,
                     std::vector<PreparedQuery>* lookup_handles,
                     const dskg::rdf::Dictionary& dict, const char* where) {
  const uint64_t failed0 = failed_;
  double us = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    RunQuery(&(*handles)[i], queries_[i], false, true, dict, &us, nullptr);
  }
  for (size_t i = 0; i < lookups_.size(); ++i) {
    RunQuery(&(*lookup_handles)[i], lookups_[i], true, true, dict, &us,
             nullptr);
  }
  CheckRetired(session, where);
  if (failed_ != failed0) {
    std::printf("mismatch: %llu failed checks %s\n",
                static_cast<unsigned long long>(failed_ - failed0), where);
  }
}

void Bench::CheckRetired(Session* session, const char* where) {
  ++attempted_;
  auto prepared = session->Prepare(kLookupTexts[0]);
  if (!prepared.ok()) {
    Fail(std::string("prepare retired lookup ") + where);
    return;
  }
  const Status s = prepared->Bind("p", retired_);
  const bool live = oracle_.TermLive(retired_);
  if (live ? !s.ok() : !s.IsNotFound()) {
    Fail(std::string("Bind of retired ") + retired_ + " " + where +
         " returned " + s.ToString() + (live ? ", oracle: live" : ""));
  }
  if (!live) ++retired_not_found_;
}

bool Bench::Steady() {
  const dskg::rdf::Dictionary& dict = store_->active().dict();
  query_samples_.assign(queries_.size(), QuerySamples{});
  const uint64_t replans0 = session_->stats().replans;
  const char* query_hists[] = {"rel.exec_wall_us", "graph.match_wall_us"};
  std::map<std::string, HistMark> marks;
  for (const char* h : query_hists) marks[h] = MarkOf(h);

  const int max_windows =
      std::max(kMinWindows, spec_.windows_per_second * seconds_);
  double measured_us = 0;  // steady time, excluding the oracle checks
  int window = 0;
  while (window < max_windows &&
         (window < kMinWindows || measured_us < seconds_ * 1e6)) {
    std::vector<UpdateBatch> undo;
    measured_us += tracer_.Time("window.updates", 0, [&] {
      for (int b = 0; b < spec_.batches_per_window; ++b) {
        // The retired person's deletes lead the first batch and stay.
        const size_t keep = next_batch_ == 0 ? retire_ops_ : 0;
        undo.push_back(ApplyBatch(batches_[next_batch_++], true, keep));
      }
    });
    for (int pass = 0; pass < spec_.passes_per_window; ++pass) {
      // The first execution of every query and lookup is checked; the
      // check itself is not part of the measured time.
      const bool check = window == 0 && pass == 0;
      for (size_t i = 0; i < queries_.size(); ++i) {
        double us = 0;
        const Clock::time_point t0 = Clock::now();
        RunQuery(&handles_[i], queries_[i], false, check, dict, &us,
                 &query_samples_[i]);
        query_samples_[i].wall_us.push_back(us);
        measured_us += check ? us : MicrosBetween(t0, Clock::now());
      }
      for (size_t i = 0; i < lookups_.size(); ++i) {
        double us = 0;
        const Clock::time_point t0 = Clock::now();
        if (RunQuery(&lookup_handles_[i], lookups_[i], true, check, dict,
                     &us, nullptr)) {
          lookup_us_.push_back(us);
        }
        measured_us += check ? us : MicrosBetween(t0, Clock::now());
      }
      if (check) CheckRetired(session_.get(), "after the first window");
    }
    measured_us += tracer_.Time("window.compensate", 0, [&] {
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        ApplyBatch(*it, false);
      }
    });
    ++window;
  }

  // Route checks after warm-up: RDB-only never leaves the relational
  // store; a DOTIL-tuned RDB-GDB store serves the set through both the
  // graph route and the dual route.
  std::array<int, 4> routes{};
  for (const QuerySamples& qs : query_samples_) {
    for (size_t r = 0; r < 4; ++r) routes[r] += qs.routes[r];
  }
  ++attempted_;
  if (!spec_.use_graph &&
      (routes[static_cast<size_t>(Route::kGraphOnly)] != 0 ||
       routes[static_cast<size_t>(Route::kDualStore)] != 0)) {
    Fail("RDB-only store routed a query through the graph store");
  }
  if (spec_.use_graph &&
      (routes[static_cast<size_t>(Route::kGraphOnly)] == 0 ||
       routes[static_cast<size_t>(Route::kDualStore)] == 0)) {
    Fail("tuned store used no graph route or no dual route (graph " +
         std::to_string(routes[static_cast<size_t>(Route::kGraphOnly)]) +
         ", dual " +
         std::to_string(routes[static_cast<size_t>(Route::kDualStore)]) +
         ")");
  }

  // Layer figures: queries over the steady phase, the update path over
  // the timed log batches.
  for (const char* h : query_hists) steady_layers_[h] = MeanSince(h, marks[h]);
  for (size_t i = 0; i < kNumApplyHists; ++i) {
    const HistMark& h = apply_sums_.hists[i];
    steady_layers_[kApplyHists[i]] =
        h.count == 0 ? 0 : h.sum / static_cast<double>(h.count);
  }
  const double ops = static_cast<double>(std::max<uint64_t>(1, steady_ops_));
  steady_layers_["store.cow.nodes_cloned_per_op"] =
      static_cast<double>(apply_sums_.counters[0]) / ops;
  steady_layers_["persist.wal.bytes_per_op"] =
      static_cast<double>(apply_sums_.counters[1]) / ops;
  replans_ = session_->stats().replans - replans0;
  std::printf("info: steady phase %d windows, %zu batches, %.2f s measured\n",
              window, apply_us_.size(), measured_us / 1e6);

  // After the last window.
  CheckAll(session_.get(), &handles_, &lookup_handles_, dict,
           "after the last window");
  const uint64_t live = store_->active().table().size();
  ++attempted_;
  if (live != oracle_.size()) {
    Fail("live triples " + std::to_string(live) + ", oracle " +
         std::to_string(oracle_.size()));
  }
  bytes_per_triple_ = static_cast<double>(store_->StorageBytes()) /
                      static_cast<double>(std::max<uint64_t>(1, live));
  return true;
}

bool Bench::Restart() {
  // A WAL tail of fixed length past a fresh snapshot, so every run's
  // recovery replays the same number of batches.
  if (Status s = store_->SaveSnapshot(); !s.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", s.ToString().c_str());
    return false;
  }
  for (int b = 0; b < kTailBatches; ++b) {
    ApplyBatch(batches_[next_batch_++], false);
  }
  const uint64_t live = store_->active().table().size();
  const uint64_t next_id = store_->next_batch_id();
  handles_.clear();
  lookup_handles_.clear();
  session_.reset();
  store_.reset();

  for (int rep = 0; rep < kRecoverReps; ++rep) {
    const fs::path dir = run_dir_ / ("recover-" + std::to_string(rep));
    fs::remove_all(dir);
    fs::copy(store_dir_, dir, fs::copy_options::recursive);
    OnlineStore::RecoveryReport report;
    dskg::Result<std::unique_ptr<OnlineStore>> recovered =
        Status::Internal("not run");
    const double us = tracer_.Time("OnlineStore::Recover", 0, [&] {
      recovered = OnlineStore::Recover(StoreConfig(), Durability(dir), &report);
    });
    ++attempted_;
    if (!recovered.ok()) {
      Fail("Recover: " + recovered.status().ToString());
      return false;
    }
    recover_s_.push_back(us / 1e6);
    std::unique_ptr<OnlineStore> store = std::move(recovered).ValueOrDie();
    ++attempted_;
    if (store->active().table().size() != live ||
        store->next_batch_id() != next_id ||
        report.replayed_batches != static_cast<uint64_t>(kTailBatches)) {
      Fail("recovery restored " +
           std::to_string(store->active().table().size()) + " triples, " +
           "next batch " + std::to_string(store->next_batch_id()) +
           ", replayed " + std::to_string(report.replayed_batches) +
           "; expected " + std::to_string(live) + ", " +
           std::to_string(next_id) + ", " +
           std::to_string(kTailBatches));
    }
    if (rep == 0) {
      replayed_batches_ = report.replayed_batches;
      uint64_t newest = 0;
      fs::path newest_path;
      for (const auto& entry : fs::directory_iterator(dir)) {
        uint64_t watermark = 0;
        if (dskg::persist::ParseSnapshotFileName(
                entry.path().filename().string(), &watermark) &&
            (newest_path.empty() || watermark >= newest)) {
          newest = watermark;
          newest_path = entry.path();
        }
      }
      if (!newest_path.empty()) {
        snapshot_bytes_per_triple_ =
            static_cast<double>(fs::file_size(newest_path)) /
            static_cast<double>(std::max<uint64_t>(1, live));
      }
      // Re-run the query set on the recovered store.
      Session session(store.get());
      std::vector<PreparedQuery> handles, lookup_handles;
      if (!PrepareHandles(&session, queries_, &handles) ||
          !PrepareHandles(&session, lookups_, &lookup_handles)) {
        return false;
      }
      CheckAll(&session, &handles, &lookup_handles, store->active().dict(),
               "after recovery");
      if (tracer_.enabled()) WireReference(store.get());
    }
    store.reset();
    fs::remove_all(dir);
  }
  return true;
}

void Bench::WireReference(OnlineStore* store) {
  // In-process medians on this store, for the same queries.
  std::vector<double> local(queries_.size());
  {
    Session session(store);
    std::vector<PreparedQuery> handles;
    if (!PrepareHandles(&session, queries_, &handles)) return;
    for (size_t i = 0; i < queries_.size(); ++i) {
      std::vector<double> us;
      for (int r = 0; r < kWireReps; ++r) {
        us.push_back(tracer_.Time("PreparedQuery::ExecuteAll", 0,
                                  [&] { (void)handles[i].ExecuteAll(); }));
      }
      local[i] = Median(us);
    }
  }
  dskg::server::ServerConfig cfg;
  cfg.workers = 2;
  cfg.enable_admin = false;
  dskg::server::Server server(store, cfg);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return;
  }
  {
    auto client = dskg::server::Client::Connect(server.port());
    if (client.ok()) {
      std::map<std::string, uint32_t> stmts;
      double roundtrip = 0, overhead = 0;
      for (size_t i = 0; i < queries_.size(); ++i) {
        const BenchQuery& q = queries_[i];
        auto [it, fresh] =
            stmts.emplace(q.text, static_cast<uint32_t>(stmts.size() + 1));
        if (fresh && !client->Prepare(it->second, q.text).ok()) break;
        std::vector<double> us;
        for (int r = 0; r < kWireReps; ++r) {
          const uint64_t req = tracer_.NewRequest();
          us.push_back(tracer_.Time("Client::Execute", req, [&] {
            (void)client->Execute(it->second, q.bindings);
          }));
        }
        roundtrip += Median(us);
        overhead += Median(us) - local[i];
      }
      wire_roundtrip_us_ = roundtrip / static_cast<double>(queries_.size());
      wire_overhead_us_ = overhead / static_cast<double>(queries_.size());
    }
  }
  server.Stop();
}

void Bench::PrintResult() {
  double tti_ms = 0;
  std::map<std::string, double> route_ms, route_n;
  double sim_ms = 0;
  for (const QuerySamples& qs : query_samples_) {
    const double m = Median(qs.wall_us) / 1000.0;
    tti_ms += m;
    sim_ms += Median(qs.sim_us) / 1000.0;
    // A query belongs to the route most of its executions took.
    const size_t r = static_cast<size_t>(
        std::max_element(qs.routes.begin(), qs.routes.end()) -
        qs.routes.begin());
    const char* name = r == static_cast<size_t>(Route::kGraphOnly) ? "graph"
                       : r == static_cast<size_t>(Route::kDualStore)
                           ? "dual"
                           : "relational";
    route_ms[name] += m;
    route_n[name] += 1;
  }
  const double steal = StealPct(cpu_start_, ReadCpuTimes());

  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s_), "s"},
      {"tti_ms", tti_ms, "ms"},
      {"lookup_us", Median(lookup_us_), "us"},
      {"apply_ms", Median(apply_us_) / 1000.0, "ms"},
      {"recover_s", Median(recover_s_), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"bytes_per_triple", bytes_per_triple_, "B"},
      {"snapshot_bytes_per_triple", snapshot_bytes_per_triple_, "B"},
  };
  std::printf("info: workload %s seed %llu attempted %llu failed %llu "
              "steal_pct %.3f inputs_rss_mb %.1f retired_not_found %d/3\n",
              spec_.name, static_cast<unsigned long long>(seed_),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), steal,
              inputs_rss_mb_, retired_not_found_);
  for (const Metric& m : e2e) {
    std::printf("info: %s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::vector<Metric> metrics;
  auto add = [&metrics](std::string name, double v, const char* unit) {
    metrics.push_back({std::move(name), v, unit});
  };
  if (!tracer_.enabled()) {
    metrics = e2e;
  } else {
    const auto& L = steady_layers_;
    const double apply_mean_us =
        apply_us_.empty()
            ? 0
            : std::accumulate(apply_us_.begin(), apply_us_.end(), 0.0) /
                  static_cast<double>(apply_us_.size());
    add("load.build_s", Median(build_s_), "s");
    add("dotil.tune_s", Median(tune_s_), "s");
    add("dotil.migrations", static_cast<double>(migrations_), "count");
    add("graph.resident_triples", static_cast<double>(resident_triples_),
        "count");
    add("session.prepare_us",
        MeanSince("session.prepare_us", HistMark{}), "us");
    add("session.replans", static_cast<double>(replans_), "count");
    add("session.bind_us", Median(bind_us_), "us");
    for (const char* r : {"graph", "dual", "relational"}) {
      add(std::string("route.") + r + ".queries", route_n[r], "count");
    }
    for (const char* r : {"graph", "dual", "relational"}) {
      add(std::string("route.") + r + ".ms", route_ms[r], "ms");
    }
    add("query.sim_ms", sim_ms, "ms");
    add("rel.exec_wall_us", L.at("rel.exec_wall_us"), "us");
    add("graph.match_wall_us", L.at("graph.match_wall_us"), "us");
    add("store.inject_route_us", L.at("store.inject_route_us"), "us");
    add("store.shard0.apply_us", L.at("store.shard0.apply_us"), "us");
    add("store.shard1.apply_us", L.at("store.shard1.apply_us"), "us");
    add("store.merge_barrier_us", L.at("store.merge_barrier_us"), "us");
    add("store.epoch_drain_us", L.at("store.epoch_drain_us"), "us");
    add("store.apply_rest_us",
        apply_mean_us - L.at("persist.wal.append_us") -
            L.at("store.inject_route_us") - L.at("store.merge_barrier_us") -
            L.at("store.epoch_drain_us"),
        "us");
    add("store.cow.nodes_cloned_per_op",
        L.at("store.cow.nodes_cloned_per_op"), "count");
    add("persist.wal.append_us", L.at("persist.wal.append_us"), "us");
    add("persist.fsync_us", L.at("persist.fsync_us"), "us");
    add("persist.wal.bytes_per_op", L.at("persist.wal.bytes_per_op"), "B");
    add("persist.snapshot.save_us",
        MeanSince("persist.snapshot.save_us", HistMark{}), "us");
    add("persist.snapshot.load_us",
        MeanSince("persist.snapshot.load_us", HistMark{}), "us");
    add("persist.recovery.replayed_batches",
        static_cast<double>(replayed_batches_), "count");
    add("server.roundtrip_us", wire_roundtrip_us_, "us");
    add("server.overhead_us", wire_overhead_us_, "us");
    add("host.steal_pct", steal, "%");
    const fs::path trace_path =
        workdir_ / (std::string("trace-") + spec_.name + "-seed" +
                    std::to_string(seed_) + ".jsonl");
    if (tracer_.Write(trace_path)) {
      std::printf("info: spans written to %s\n", trace_path.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Bench::Run() {
  cpu_start_ = ReadCpuTimes();
  run_dir_ = workdir_ / (std::string(spec_.name) + "-" +
                         std::to_string(getpid()));
  fs::remove_all(run_dir_);
  fs::create_directories(run_dir_);
  const bool ok = MakeInputs() && Setup() && Steady() && Restart();
  // Stores first: their destructors still write to the directory.
  handles_.clear();
  lookup_handles_.clear();
  session_.reset();
  store_.reset();
  std::error_code ec;
  fs::remove_all(run_dir_, ec);
  if (!ok) {
    std::fprintf(stderr, "wallbench: %s aborted\n", spec_.name);
    return 1;
  }
  PrintResult();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload yago_dual|yago_rel|yago_ingest "
               "--seed N --seconds N --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  std::string workload, workdir;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::atoll(v);
    } else if (flag == "--seconds") {
      seconds = std::atoll(v);
    } else if (flag == "--trace") {
      trace = std::atoll(v);
    } else if (flag == "--workdir") {
      workdir = v;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kSpecs) {
    if (workload == s.name) spec = &s;
  }
  if (spec == nullptr || seed < 0 || seconds < 1 || (trace != 0 && trace != 1) ||
      workdir.empty()) {
    return Usage();
  }
  Bench bench(*spec, static_cast<uint64_t>(seed), static_cast<int>(seconds),
              trace == 1, workdir);
  return bench.Run();
}
