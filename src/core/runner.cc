#include "core/runner.h"

#include <algorithm>
#include <future>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/telemetry.h"
#include "core/identifier.h"
#include "core/session.h"

namespace dskg::core {

using sparql::Query;
using workload::Workload;
using workload::WorkloadQuery;

namespace {

/// Complex subqueries of a span of workload queries (identification only;
/// nothing is executed).
Result<std::vector<Query>> ComplexSubqueriesOf(const WorkloadQuery* begin,
                                               const WorkloadQuery* end) {
  std::vector<Query> out;
  for (const WorkloadQuery* wq = begin; wq != end; ++wq) {
    DSKG_ASSIGN_OR_RETURN(Query bound, workload::BoundQuery(*wq));
    IdentifiedQuery split = ComplexSubqueryIdentifier::Identify(bound);
    if (split.HasComplexSubquery()) out.push_back(*split.complex);
  }
  return out;
}

Result<std::vector<Query>> ComplexSubqueriesOf(
    const std::vector<WorkloadQuery>& qs) {
  return ComplexSubqueriesOf(qs.data(), qs.data() + qs.size());
}

/// Outcome of one query, reduced to what the metrics need — the result
/// rows themselves are dropped as soon as the query finishes, so the
/// batch-parallel path holds traces, not binding tables.
struct ProcessedQuery {
  Status status;  // non-OK: the query failed
  QueryTrace trace;
  std::optional<Query> finished_complex;
};

/// Executes one workload query through the session's prepared-query
/// cache: the template text is prepared once (parse + identify + route +
/// slot-compile), every mutation is a `Bind` + execute.
///
/// A bound term that updates have deleted from the dictionary makes
/// `Bind` (or the execution's re-resolution) fail with NotFound, yet a
/// constant nothing carries must simply match nothing. That query runs as
/// its bound text instead: the same prepare + execute pair, so it charges
/// what the template would have charged with the constant in place.
Result<QueryExecution> ExecuteViaSession(Session* session,
                                         const WorkloadQuery& wq) {
  DSKG_ASSIGN_OR_RETURN(PreparedQuery prepared,
                        session->Prepare(wq.prepared_text));
  Status status;
  for (const auto& [param, term] : wq.bindings) {
    status = prepared.Bind(param, term);
    if (!status.ok()) break;
  }
  if (status.ok()) {
    Result<QueryExecution> r = prepared.ExecuteAll();
    if (r.ok() || !r.status().IsNotFound()) return r;
    status = r.status();
  }
  if (!status.IsNotFound()) return status;
  DSKG_ASSIGN_OR_RETURN(Query bound, workload::BoundQuery(wq));
  return session->Execute(bound.ToString());
}

/// Reduces one query's execution outcome to what the metrics need.
/// Shared by the serial and parallel loops so their aggregation can never
/// drift apart.
ProcessedQuery ReduceOne(Result<QueryExecution> exec) {
  ProcessedQuery out;
  if (!exec.ok()) {
    out.status = exec.status();
    return out;
  }
  const QueryExecution& e = exec.value();
  out.trace.route = e.route;
  out.trace.total_micros = e.total_micros();
  out.trace.graph_micros = e.graph_micros;
  out.trace.rel_micros = e.rel_micros;
  out.trace.migrate_micros = e.migrate_micros;
  out.trace.graph_io_micros = e.graph_io_micros;
  out.trace.graph_cpu_micros = e.graph_cpu_micros;
  out.trace.result_rows = e.result.NumRows();
  if (e.split.HasComplexSubquery()) out.finished_complex = *e.split.complex;
  return out;
}

/// Folds one processed query into the batch aggregates, in order.
void Accumulate(ProcessedQuery&& pq, BatchMetrics* bm,
                std::vector<Query>* finished_complex) {
  bm->tti_micros += pq.trace.total_micros;
  bm->graph_micros += pq.trace.graph_micros;
  bm->rel_micros += pq.trace.rel_micros;
  bm->migrate_micros += pq.trace.migrate_micros;
  bm->queries.push_back(pq.trace);
  if (pq.finished_complex.has_value()) {
    finished_complex->push_back(*std::move(pq.finished_complex));
  }
}

}  // namespace

Result<RunMetrics> WorkloadRunner::Run(const Workload& workload,
                                       int num_batches, ThreadPool* pool) {
  RunMetrics metrics;
  const auto batches = workload.BatchRanges(num_batches);
  const WorkloadQuery* queries = workload.queries.data();

  // The prepared-query cache for this run: one plan per template text,
  // shared by every worker, re-validated automatically when tuning
  // between batches moves the store's plan epoch.
  Session session(store_);

  // One-off tuning happens before batch 0; its cost is attributed there.
  // Tuning is offline and serial in both paths.
  double pre_workload_tuning = 0;
  if (tuner_ != nullptr) {
    CostMeter meter;
    DSKG_ASSIGN_OR_RETURN(std::vector<Query> complex,
                          ComplexSubqueriesOf(workload.queries));
    DSKG_RETURN_NOT_OK(tuner_->BeforeWorkload(store_, complex, &meter));
    pre_workload_tuning = meter.sim_micros();
  }

  for (const auto& [batch_begin, batch_end] : batches) {
    const size_t batch_size = batch_end - batch_begin;
    BatchMetrics bm;
    if (metrics.batches.empty()) {
      bm.tuning_micros += pre_workload_tuning;
      pre_workload_tuning = 0;
    }

    if (tuner_ != nullptr) {
      CostMeter meter;
      DSKG_ASSIGN_OR_RETURN(
          std::vector<Query> complex,
          ComplexSubqueriesOf(queries + batch_begin, queries + batch_end));
      DSKG_RETURN_NOT_OK(tuner_->BeforeBatch(store_, complex, &meter));
      bm.tuning_micros += meter.sim_micros();
    }

    // The store is read-only during a batch, so its queries are
    // independent. With a pool, fan them out (each worker reduces its
    // query to a trace immediately, dropping the binding table); either
    // way, aggregate by submission index so every number is identical
    // across the two paths.
    std::vector<ProcessedQuery> processed(batch_size);
    if (pool != nullptr) {
      pool->ParallelFor(batch_size, [&](size_t i) {
        processed[i] =
            ReduceOne(ExecuteViaSession(&session, queries[batch_begin + i]));
      });
    } else {
      for (size_t i = 0; i < batch_size; ++i) {
        processed[i] =
            ReduceOne(ExecuteViaSession(&session, queries[batch_begin + i]));
        if (!processed[i].status.ok()) break;  // serial: stop at failure
      }
    }

    std::vector<Query> finished_complex;
    for (size_t i = 0; i < batch_size; ++i) {
      DSKG_RETURN_NOT_OK(processed[i].status);
      Accumulate(std::move(processed[i]), &bm, &finished_complex);
    }

    if (tuner_ != nullptr) {
      CostMeter meter;
      DSKG_RETURN_NOT_OK(
          tuner_->AfterBatch(store_, finished_complex, &meter));
      bm.tuning_micros += meter.sim_micros();
    }
    metrics.batches.push_back(std::move(bm));
  }
  return metrics;
}

namespace {

/// Per-predicate partition sizes of the active snapshot (quiescent use).
std::unordered_map<rdf::TermId, uint64_t> PartitionSizes(
    const OnlineStore& store) {
  std::unordered_map<rdf::TermId, uint64_t> sizes;
  const relstore::TripleTable& table = store.active().table();
  for (rdf::TermId p : table.Predicates()) {
    sizes[p] = table.StatsOf(p).num_triples;
  }
  return sizes;
}

/// Largest relative partition-size change between two snapshots (a
/// predicate absent on one side counts with size 0).
double MaxDrift(const std::unordered_map<rdf::TermId, uint64_t>& then,
                const std::unordered_map<rdf::TermId, uint64_t>& now) {
  double drift = 0;
  auto fold = [&](rdf::TermId p, uint64_t now_size) {
    const auto it = then.find(p);
    const uint64_t then_size = it == then.end() ? 0 : it->second;
    const double delta = now_size > then_size
                             ? static_cast<double>(now_size - then_size)
                             : static_cast<double>(then_size - now_size);
    drift = std::max(drift, delta / std::max<uint64_t>(1, then_size));
  };
  for (const auto& [p, n] : now) fold(p, n);
  for (const auto& [p, n] : then) {
    if (now.find(p) == now.end()) fold(p, 0);
  }
  return drift;
}

}  // namespace

Result<OnlineRunMetrics> WorkloadRunner::RunOnline(
    OnlineStore* store, const Workload& workload, const UpdateLog& updates,
    const OnlineRunOptions& options, ThreadPool* pool) {
  if (store == nullptr) {
    return Status::InvalidArgument("RunOnline requires an OnlineStore");
  }
  OnlineRunMetrics metrics;
  const auto query_ranges = workload.BatchRanges(options.num_batches);
  const auto update_ranges =
      workload::EvenRanges(updates.size(), options.num_batches);
  const WorkloadQuery* queries = workload.queries.data();

  // Prepared-query cache over the online store: each execution pins the
  // snapshot active when it starts, and plans prepared before an update
  // batch or a re-tune re-validate transparently (the plan epoch moved).
  Session session(store);

  // One-off tuning before any window, as in the offline protocol.
  double pre_tuning = 0;
  if (tuner_ != nullptr) {
    CostMeter meter;
    DSKG_ASSIGN_OR_RETURN(std::vector<Query> complex,
                          ComplexSubqueriesOf(workload.queries));
    DSKG_RETURN_NOT_OK(store->TuneExclusive([&](DualStore* s) {
      return tuner_->BeforeWorkload(s, complex, &meter);
    }));
    pre_tuning = meter.sim_micros();
  }
  auto last_tuned_sizes = PartitionSizes(*store);

  for (size_t b = 0; b < query_ranges.size(); ++b) {
    const auto [q_begin, q_end] = query_ranges[b];
    const size_t batch_size = q_end - q_begin;
    OnlineBatchMetrics bm;
    if (b == 0) bm.tuning_micros += pre_tuning;

    // ---- the online window: queries fan out, this thread applies ------
    // Each worker pins an epoch per query, so it reads the snapshot as of
    // whatever batch boundary was published when it started; the applier
    // never waits for the window to finish.
    std::vector<ProcessedQuery> processed(batch_size);
    std::vector<std::future<void>> futures;
    if (pool != nullptr) {
      futures.reserve(batch_size);
      for (size_t i = 0; i < batch_size; ++i) {
        futures.push_back(pool->Submit([queries, q_begin, i, &processed,
                                        &session] {
          processed[i] =
              ReduceOne(ExecuteViaSession(&session, queries[q_begin + i]));
        }));
      }
    }
    // An update failure must NOT return while query futures are still
    // running (they write into `processed`, a stack local): record the
    // status, always join the window, then fail.
    CostMeter update_meter;
    Status update_status;
    if (b < update_ranges.size()) {
      for (size_t u = update_ranges[b].first; u < update_ranges[b].second;
           ++u) {
        Result<UpdateResult> r = store->ApplyUpdates(updates.at(u),
                                                     &update_meter);
        update_status = r.status();
        if (!update_status.ok()) break;
        bm.inserted += r->inserted;
        bm.deleted += r->deleted;
      }
    }
    if (pool != nullptr) {
      // Wait for *every* task before get() may rethrow: unwinding while
      // sibling tasks still write `processed` would be a use-after-free.
      for (std::future<void>& f : futures) f.wait();
      for (std::future<void>& f : futures) f.get();
    } else {
      for (size_t i = 0; i < batch_size; ++i) {
        processed[i] =
            ReduceOne(ExecuteViaSession(&session, queries[q_begin + i]));
      }
    }
    DSKG_RETURN_NOT_OK(update_status);
    bm.update_micros = update_meter.sim_micros();

    std::vector<Query> finished_complex;
    for (size_t i = 0; i < batch_size; ++i) {
      DSKG_RETURN_NOT_OK(processed[i].status);
      bm.tti_micros += processed[i].trace.total_micros;
      bm.queries.push_back(processed[i].trace);
      if (processed[i].finished_complex.has_value()) {
        finished_complex.push_back(*std::move(processed[i].finished_complex));
      }
    }

    // ---- offline window: drift check, tuner re-trigger ----------------
    if (tuner_ != nullptr && options.drift_threshold >= 0) {
      const auto now_sizes = PartitionSizes(*store);
      bm.max_drift = MaxDrift(last_tuned_sizes, now_sizes);
      if (bm.max_drift >= options.drift_threshold) {
        CostMeter meter;
        DSKG_RETURN_NOT_OK(store->TuneExclusive([&](DualStore* s) {
          return tuner_->AfterBatch(s, finished_complex, &meter);
        }));
        bm.tuning_micros += meter.sim_micros();
        bm.retuned = true;
        last_tuned_sizes = now_sizes;
      }
    }
    {
      // Per-window simulated aggregates into the registry (these feed
      // examples/streaming_freshness's registry-sourced table; `Record`s
      // of simulated values — never wall clock — so the numbers stay
      // deterministic).
      auto& reg = telemetry::MetricsRegistry::Global();
      if (reg.enabled()) {
        static telemetry::Histogram* const tti_hist =
            reg.histogram("online.window.tti_sim_us");
        static telemetry::Histogram* const update_hist =
            reg.histogram("online.window.update_sim_us");
        static telemetry::Counter* const retunes =
            reg.counter("online.retunes");
        static telemetry::Gauge* const drift = reg.gauge("online.max_drift");
        tti_hist->Record(bm.tti_micros);
        update_hist->Record(bm.update_micros);
        if (bm.retuned) retunes->Add();
        drift->Set(bm.max_drift);
      }
    }
    metrics.batches.push_back(std::move(bm));
    if (options.after_window) options.after_window(static_cast<int>(b));
  }
  return metrics;
}

Result<RunMetrics> WorkloadRunner::RunAveraged(const Workload& workload,
                                               int num_batches, int reps,
                                               int warmup) {
  if (reps <= warmup) {
    return Status::InvalidArgument("reps must exceed warmup");
  }
  std::vector<RunMetrics> runs;
  runs.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    DSKG_ASSIGN_OR_RETURN(RunMetrics m, Run(workload, num_batches));
    runs.push_back(std::move(m));
  }
  RunMetrics avg;
  const size_t first = static_cast<size_t>(warmup);
  const double n = static_cast<double>(reps - warmup);
  avg.batches.resize(runs[first].batches.size());
  for (size_t r = first; r < runs.size(); ++r) {
    for (size_t b = 0; b < avg.batches.size() && b < runs[r].batches.size();
         ++b) {
      avg.batches[b].tti_micros += runs[r].batches[b].tti_micros / n;
      avg.batches[b].graph_micros += runs[r].batches[b].graph_micros / n;
      avg.batches[b].rel_micros += runs[r].batches[b].rel_micros / n;
      avg.batches[b].migrate_micros +=
          runs[r].batches[b].migrate_micros / n;
      avg.batches[b].tuning_micros += runs[r].batches[b].tuning_micros / n;
      // Keep the last repetition's per-query traces (steady state).
      avg.batches[b].queries = runs.back().batches[b].queries;
    }
  }
  return avg;
}

}  // namespace dskg::core
