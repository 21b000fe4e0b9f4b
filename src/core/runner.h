#ifndef DSKG_CORE_RUNNER_H_
#define DSKG_CORE_RUNNER_H_

/// \file runner.h
/// Batch-oriented workload driver implementing the paper's experimental
/// protocol (§6.1):
///
///   * the workload is consumed in batches (the paper uses 5);
///   * between batches the store is taken offline and the tuner runs
///     (its cost is recorded separately from online TTI);
///   * the primary metric is TTI — total elapsed (simulated) time from
///     batch submission to completion;
///   * `RunAveraged` repeats the run and averages the trailing
///     repetitions (the paper runs 6 times and averages the last 5 to
///     warm the accelerator).

#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/dual_store.h"
#include "core/online_store.h"
#include "core/tuner.h"
#include "core/update.h"
#include "workload/workload.h"

namespace dskg::core {

/// Per-query record (feeds Figures 6 and 7).
struct QueryTrace {
  Route route = Route::kRelationalOnly;
  double total_micros = 0;
  double graph_micros = 0;
  double rel_micros = 0;
  double migrate_micros = 0;
  double graph_io_micros = 0;
  double graph_cpu_micros = 0;
  size_t result_rows = 0;
};

/// Aggregates for one batch.
struct BatchMetrics {
  /// Online time-to-insight of the batch (simulated microseconds).
  double tti_micros = 0;
  double graph_micros = 0;
  double rel_micros = 0;
  double migrate_micros = 0;
  /// Offline tuning cost after (or before) this batch.
  double tuning_micros = 0;
  std::vector<QueryTrace> queries;

  /// Fraction of online cost spent in the graph store (Figure 6).
  double GraphCostProportion() const {
    return tti_micros > 0 ? graph_micros / tti_micros : 0.0;
  }
};

/// Aggregates for one online window (a query batch plus the update
/// batches applied concurrently with it).
struct OnlineBatchMetrics {
  /// Online time-to-insight of the window's queries (simulated us).
  double tti_micros = 0;
  /// Simulated cost of applying this window's update batches.
  double update_micros = 0;
  /// Offline tuning cost charged to this window (drift-triggered).
  double tuning_micros = 0;
  uint64_t inserted = 0;  ///< triples absorbed by this window's updates
  uint64_t deleted = 0;   ///< triples removed by this window's updates
  /// Largest relative per-predicate partition-size drift observed since
  /// the last tuning window, and whether it re-triggered tuning.
  double max_drift = 0;
  bool retuned = false;
  std::vector<QueryTrace> queries;
};

/// Aggregates for a whole online run.
struct OnlineRunMetrics {
  std::vector<OnlineBatchMetrics> batches;

  double TotalTtiMicros() const {
    double t = 0;
    for (const OnlineBatchMetrics& b : batches) t += b.tti_micros;
    return t;
  }
  double TotalUpdateMicros() const {
    double t = 0;
    for (const OnlineBatchMetrics& b : batches) t += b.update_micros;
    return t;
  }
  double TotalTuningMicros() const {
    double t = 0;
    for (const OnlineBatchMetrics& b : batches) t += b.tuning_micros;
    return t;
  }
  uint64_t TotalInserted() const {
    uint64_t n = 0;
    for (const OnlineBatchMetrics& b : batches) n += b.inserted;
    return n;
  }
  uint64_t TotalDeleted() const {
    uint64_t n = 0;
    for (const OnlineBatchMetrics& b : batches) n += b.deleted;
    return n;
  }
  int Retunes() const {
    int n = 0;
    for (const OnlineBatchMetrics& b : batches) n += b.retuned ? 1 : 0;
    return n;
  }
};

/// Options of `WorkloadRunner::RunOnline`.
struct OnlineRunOptions {
  /// Query batches (the update log is spread evenly across them).
  int num_batches = 5;
  /// Re-trigger tuning when any predicate partition's triple count has
  /// drifted by more than this fraction since the last tuning window
  /// (0 = re-tune after every window; < 0 = never re-tune).
  double drift_threshold = 0.25;
  /// Called after each window completes (post drift check / re-tune),
  /// with the window index, while the store is quiesced — e.g. to
  /// snapshot the telemetry registry per window. Null = no callback.
  std::function<void(int window)> after_window;
};

/// Aggregates for a whole workload run.
struct RunMetrics {
  std::vector<BatchMetrics> batches;

  double TotalTtiMicros() const {
    double t = 0;
    for (const BatchMetrics& b : batches) t += b.tti_micros;
    return t;
  }
  double TotalTuningMicros() const {
    double t = 0;
    for (const BatchMetrics& b : batches) t += b.tuning_micros;
    return t;
  }
};

/// Drives a workload through a store + tuner pair.
class WorkloadRunner {
 public:
  /// `store` is borrowed; `tuner` may be null (no tuning — RDB-only and
  /// the static Table 1 comparisons).
  WorkloadRunner(DualStore* store, Tuner* tuner)
      : store_(store), tuner_(tuner) {}

  /// Runs `workload` in `num_batches` batches with tuning in between.
  /// Every query executes through one `Session` over the store (a plan
  /// per template text, re-bound per mutation).
  ///
  /// With a `pool`, the independent queries of each batch execute
  /// concurrently (each query serial on one worker, with its own meters),
  /// while tuning stays strictly *between* batches — offline, serial,
  /// deterministic. Per-query traces are collected by submission index,
  /// so the returned metrics — per-query traces, simulated costs, batch
  /// aggregates — are bit-identical with and without a pool, whatever
  /// the thread scheduling or pool size (the equivalence tests enforce
  /// this; the metrics keep result *counts*, not the binding tables).
  Result<RunMetrics> Run(const workload::Workload& workload,
                         int num_batches = 5, ThreadPool* pool = nullptr);

  /// Runs `reps` times on the same (warming) store and returns metrics
  /// averaged over the last `reps - warmup` repetitions.
  Result<RunMetrics> RunAveraged(const workload::Workload& workload,
                                 int num_batches, int reps, int warmup);

  /// Online protocol: each query batch fans out on `pool` while this
  /// thread — the injector — concurrently publishes the window's share
  /// of `updates` through `store` (the shard appliers build the next
  /// copy-on-write snapshot; queries never block on updates, each sees
  /// some batch-boundary snapshot). Between windows the store is
  /// quiesced and, when per-predicate statistics have drifted past
  /// `options.drift_threshold` since the last tuning window, the tuner's
  /// `AfterBatch` re-runs over the finished window's complex subqueries
  /// (DOTIL re-tunes against the drifted partition sizes). The
  /// constructor's `DualStore` is not used by this path; `tuner_` may be
  /// null.
  /// A null `pool` degrades to serial interleaving (updates first).
  Result<OnlineRunMetrics> RunOnline(OnlineStore* store,
                                     const workload::Workload& workload,
                                     const UpdateLog& updates,
                                     const OnlineRunOptions& options,
                                     ThreadPool* pool);

 private:
  DualStore* store_;
  Tuner* tuner_;
};

}  // namespace dskg::core

#endif  // DSKG_CORE_RUNNER_H_
