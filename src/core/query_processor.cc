#include "core/query_processor.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/telemetry.h"

namespace dskg::core {

using graphstore::TraversalMatcher;
using rdf::TermId;
using relstore::Executor;
using sparql::BindingTable;
using sparql::Query;

namespace {

// Route/engine metrics, resolved once against the global registry.
// Indexed by `static_cast<int>(Route)`.
struct QpMetrics {
  telemetry::Counter* route_count[4];
  telemetry::Histogram* wall_us[4];
  telemetry::Histogram* sim_us[4];
  telemetry::Histogram* rel_exec_wall_us;
  telemetry::Histogram* rel_exec_sim_us;
  telemetry::Histogram* graph_match_wall_us;
  telemetry::Histogram* graph_match_sim_us;
};

const QpMetrics& Qm() {
  static const QpMetrics m = [] {
    auto& reg = telemetry::MetricsRegistry::Global();
    QpMetrics q;
    const Route routes[4] = {Route::kRelationalOnly, Route::kGraphOnly,
                             Route::kDualStore, Route::kViewAssisted};
    for (Route r : routes) {
      const std::string n = RouteName(r);
      const int i = static_cast<int>(r);
      q.route_count[i] = reg.counter("query.route." + n);
      q.wall_us[i] = reg.histogram("query.wall_us." + n);
      q.sim_us[i] = reg.histogram("query.sim_us." + n);
    }
    q.rel_exec_wall_us = reg.histogram("rel.exec_wall_us");
    q.rel_exec_sim_us = reg.histogram("rel.exec_sim_us");
    q.graph_match_wall_us = reg.histogram("graph.match_wall_us");
    q.graph_match_sim_us = reg.histogram("graph.match_sim_us");
    return q;
  }();
  return m;
}

}  // namespace

const char* RouteName(Route route) {
  switch (route) {
    case Route::kRelationalOnly: return "relational";
    case Route::kGraphOnly: return "graph";
    case Route::kDualStore: return "dual";
    case Route::kViewAssisted: return "view";
  }
  return "unknown";
}

bool QueryProcessor::GraphCovers(const Query& q) const {
  for (const sparql::TriplePattern& p : q.patterns) {
    if (p.predicate.is_variable) return false;
    const rdf::TermId id = dict_->Lookup(p.predicate.text);
    if (id == rdf::kInvalidTermId) return false;
    if (!graph_->HasPredicate(id)) return false;
  }
  return true;
}

namespace {

/// Index of `name` in `params` (the plan-level parameter order). The
/// parser guarantees every artifact parameter is a query parameter.
size_t PlanParamIndex(const std::vector<std::string>& params,
                      const std::string& name) {
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i] == name) return i;
  }
  return params.size();  // unreachable for well-formed plans
}

/// Builds the artifact-local -> plan-level parameter index map.
std::vector<size_t> ParamMap(const std::vector<std::string>& plan_params,
                             const std::vector<std::string>& local_names) {
  std::vector<size_t> map;
  map.reserve(local_names.size());
  for (const std::string& n : local_names) {
    map.push_back(PlanParamIndex(plan_params, n));
  }
  return map;
}

/// Records the `$param` sites of `q`'s patterns into `sites`.
void RecordAstSites(const Query& q, uint8_t which,
                    const std::vector<std::string>& params,
                    std::vector<PreparedPlan::AstParamSite>* sites) {
  for (size_t i = 0; i < q.patterns.size(); ++i) {
    const sparql::PatternTerm* ends[2] = {&q.patterns[i].subject,
                                          &q.patterns[i].object};
    const uint8_t pos[2] = {0, 2};
    for (int e = 0; e < 2; ++e) {
      if (!ends[e]->is_param) continue;
      sites->push_back(
          {which, static_cast<uint32_t>(i), pos[e],
           static_cast<uint32_t>(PlanParamIndex(params, ends[e]->text))});
    }
  }
}

}  // namespace

std::vector<TermId> QueryProcessor::MapParams(const std::vector<size_t>& map,
                                              const TermId* param_values) {
  std::vector<TermId> out;
  out.reserve(map.size());
  for (size_t i : map) {
    out.push_back(param_values != nullptr ? param_values[i]
                                          : rdf::kInvalidTermId);
  }
  return out;
}

Result<BindingTable> QueryProcessor::MatchAll(
    const TraversalMatcher::Plan& plan, const std::vector<size_t>& map,
    const TermId* param_values, CostMeter* meter) const {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const double wall0 = telem ? reg.NowMicros() : 0;
  const double sim0 = telem && meter != nullptr ? meter->sim_micros() : 0;
  BindingTable out;
  out.columns = plan.out_vars;
  if (plan.impossible && plan.param_names.empty()) return out;
  const std::vector<TermId> local = MapParams(map, param_values);
  // MatchSharded splits the root candidate range across the pool (one
  // shard per worker) when one is configured and falls back to the serial
  // drain otherwise; rows and charges are bit-identical either way.
  DSKG_ASSIGN_OR_RETURN(
      out, matcher_->MatchSharded(plan,
                                  local.empty() ? nullptr : local.data(),
                                  meter, config_.exec_pool,
                                  /*max_shards=*/0));
  if (telem) {
    // Wall vs. simulated pair for the same traversal: how the real clock
    // tracks the cost model's TTI charge.
    Qm().graph_match_wall_us->Record(reg.NowMicros() - wall0);
    if (meter != nullptr) {
      Qm().graph_match_sim_us->Record(meter->sim_micros() - sim0);
    }
  }
  return out;
}

IdentifiedQuery QueryProcessor::BindSplit(const PreparedPlan& plan,
                                          const TermId* param_values) const {
  IdentifiedQuery split = plan.split;
  for (const PreparedPlan::AstParamSite& site : plan.ast_param_sites) {
    if (param_values == nullptr) break;
    const TermId v = param_values[site.param];
    if (v == rdf::kInvalidTermId) continue;  // caught by the engines
    Query* q = site.which == 0   ? &split.query
               : site.which == 1 ? &*split.complex
                                 : &split.remainder;
    sparql::PatternTerm& term = site.pos == 0
                                    ? q->patterns[site.pattern].subject
                                    : q->patterns[site.pattern].object;
    term = sparql::PatternTerm::Const(std::string(dict_->TermOf(v)));
  }
  return split;
}

Result<PreparedPlan> QueryProcessor::Prepare(const Query& query) const {
  PreparedPlan plan;
  plan.params = query.Parameters();
  plan.split = ComplexSubqueryIdentifier::Identify(query);
  plan.out_vars =
      query.select_vars.empty() ? query.AllVariables() : query.select_vars;
  if (!plan.params.empty()) {
    RecordAstSites(plan.split.query, 0, plan.params, &plan.ast_param_sites);
    if (plan.split.HasComplexSubquery()) {
      RecordAstSites(*plan.split.complex, 1, plan.params,
                     &plan.ast_param_sites);
    }
    RecordAstSites(plan.split.remainder, 2, plan.params,
                   &plan.ast_param_sites);
  }

  // The remainder's projection: the query's own (explicit) output.
  auto remainder_with_projection = [&]() {
    Query rem = plan.split.remainder;
    rem.select_vars = plan.out_vars;
    return rem;
  };

  // ---- route selection (Algorithm 3, decided once) ----------------------
  if (config_.use_graph && plan.split.HasComplexSubquery()) {
    const Query& qc = *plan.split.complex;
    if (GraphCovers(plan.split.query)) {
      // Case 1: the whole query runs in the graph store.
      plan.route = Route::kGraphOnly;
      DSKG_ASSIGN_OR_RETURN(plan.graph_whole,
                            matcher_->Compile(plan.split.query));
      plan.graph_whole_param_map =
          ParamMap(plan.params, plan.graph_whole.param_names);
      return plan;
    }
    if (GraphCovers(qc)) {
      // Case 2: q_c in the graph store, remainder in the relational store.
      plan.route = Route::kDualStore;
      DSKG_ASSIGN_OR_RETURN(plan.graph_complex, matcher_->Compile(qc));
      plan.graph_complex_param_map =
          ParamMap(plan.params, plan.graph_complex.param_names);
      if (!plan.split.remainder.patterns.empty()) {
        plan.has_remainder = true;
        plan.remainder = executor_->Compile(remainder_with_projection());
        plan.remainder_param_map =
            ParamMap(plan.params, plan.remainder.param_names);
      }
      return plan;
    }
    // Case 3 falls through.
  }

  if (config_.use_views && views_ != nullptr &&
      plan.split.HasComplexSubquery()) {
    // RDB-views: probe the catalog per execution (the view's filters are
    // the *bound* constants), fall back to Case 3 on a miss.
    plan.try_view = true;
    if (!plan.split.remainder.patterns.empty()) {
      plan.has_remainder = true;
      plan.remainder = executor_->Compile(remainder_with_projection());
      plan.remainder_param_map =
          ParamMap(plan.params, plan.remainder.param_names);
    }
  }

  // Case 3 (and the view-miss fallback): the whole query, relational.
  plan.rel = executor_->Compile(plan.split.query);
  plan.rel_param_map = ParamMap(plan.params, plan.rel.param_names);
  return plan;
}

// ---- execution: one open step, cursors drain it -----------------------------

/// Cursor internals. Meters live here so the engine cursors can hold
/// stable pointers to them while the public object moves around.
struct ExecutionCursor::Body {
  Route route = Route::kRelationalOnly;
  IdentifiedQuery split;  // bound
  CostMeter rel_meter;
  CostMeter graph_meter;
  CostMeter migrate_meter;

  /// Streamed graph-only route: the resumable traversal emits rows
  /// directly.
  std::optional<TraversalMatcher::Cursor> graph_cursor;

  /// Every other case: the final (unprojected) table plus the projection
  /// column map; chunks are projected on demand.
  BindingTable joined;
  std::vector<int> out_cols;
  /// `out_cols` selects every column of `joined`, in order: a pull that
  /// takes the whole result can take the table itself.
  bool identity = false;
  size_t next_row = 0;

  std::vector<std::string> columns;
  bool done = false;

  /// Telemetry state: the registry's switch at open, the open's start,
  /// and the wall time spent inside the open step and every pull so far.
  bool telem = false;
  double start_us = 0;
  double wall_us = 0;

  /// Adopts a fully joined (unprojected) table: resolves the projection
  /// columns once; chunks copy through them. A missing column is legal
  /// only when no rows exist (the header is then still the full
  /// projection), unless `drop_missing` asks for `Project()` semantics.
  Status Adopt(BindingTable table, const std::vector<std::string>& vars,
               bool drop_missing) {
    for (const std::string& v : vars) {
      const int c = table.ColumnIndex(v);
      if (c >= 0) {
        out_cols.push_back(c);
        columns.push_back(v);
      } else if (!drop_missing) {
        if (!table.empty()) {
          return Status::Internal("projection lost columns unexpectedly");
        }
        columns = vars;
        out_cols.clear();
        return Status::OK();
      }
    }
    identity = out_cols.size() == table.NumColumns();
    for (size_t i = 0; identity && i < out_cols.size(); ++i) {
      identity = out_cols[i] == static_cast<int>(i);
    }
    joined = std::move(table);
    return Status::OK();
  }

  /// Replaces `*chunk` with the next `max_rows` (or fewer) rows and
  /// updates `done`.
  Status Pull(BindingTable* chunk, size_t max_rows) {
    chunk->columns = columns;
    chunk->ClearRows();
    if (graph_cursor.has_value()) {
      return graph_cursor->Fill(chunk, max_rows, &done);
    }
    const size_t total = joined.NumRows();
    const size_t n = std::min(max_rows, total - next_row);
    if (identity && n == total) {
      *chunk = std::move(joined);  // the whole result: hand it over
    } else {
      const size_t stride = out_cols.size();
      chunk->ReserveRows(n);
      for (size_t r = next_row; r < next_row + n; ++r) {
        const TermId* row = joined.RowData(r);
        TermId* out_row = chunk->AppendRow();
        for (size_t c = 0; c < stride; ++c) out_row[c] = row[out_cols[c]];
      }
    }
    next_row += n;
    done = next_row == total;
    return Status::OK();
  }

  /// Route and cost breakdown accrued so far.
  void Charges(QueryExecution* exec) const {
    exec->route = route;
    exec->rel_micros = rel_meter.sim_micros();
    exec->graph_micros = graph_meter.sim_micros();
    exec->migrate_micros = migrate_meter.sim_micros();
    exec->graph_io_micros = graph_meter.io_micros();
    exec->graph_cpu_micros = graph_meter.cpu_micros();
  }

  /// `ExecutionCursor::Next` on a live body: pulls the next chunk, adds
  /// the pull's wall time, and records the query's telemetry when the
  /// last row goes out.
  Status Next(BindingTable* chunk, size_t max_rows, bool* out_done) {
    if (done) {
      chunk->columns = columns;
      chunk->ClearRows();
      *out_done = true;
      return Status::OK();
    }
    auto& reg = telemetry::MetricsRegistry::Global();
    const double pull_start_us = telem ? reg.NowMicros() : 0;
    DSKG_RETURN_NOT_OK(Pull(chunk, max_rows));
    if (telem) wall_us += reg.NowMicros() - pull_start_us;
    if (done) Finish();
    *out_done = done;
    return Status::OK();
  }

  /// Records the finished query's telemetry, once, from the last pull.
  void Finish() {
    const int ri = static_cast<int>(route);
    Qm().route_count[ri]->Add();
    if (!telem) return;
    QueryExecution totals;
    Charges(&totals);
    Qm().wall_us[ri]->Record(wall_us);
    Qm().sim_us[ri]->Record(totals.total_micros());
    if (graph_cursor.has_value()) {
      // A streamed traversal ran inside the pulls: its engine time is the
      // cursor's.
      Qm().graph_match_wall_us->Record(wall_us);
      Qm().graph_match_sim_us->Record(totals.graph_micros);
    }
    auto& reg = telemetry::MetricsRegistry::Global();
    if (reg.traces().enabled()) {
      reg.traces().Record("query.execute", start_us, wall_us);
    }
  }
};

ExecutionCursor::ExecutionCursor() = default;
ExecutionCursor::~ExecutionCursor() = default;
ExecutionCursor::ExecutionCursor(ExecutionCursor&&) noexcept = default;
ExecutionCursor& ExecutionCursor::operator=(ExecutionCursor&&) noexcept =
    default;

const std::vector<std::string>& ExecutionCursor::columns() const {
  // Default-constructed / moved-from cursors answer benignly instead of
  // dereferencing a null body.
  static const std::vector<std::string> kEmpty;
  return body_ != nullptr ? body_->columns : kEmpty;
}

Route ExecutionCursor::route() const {
  return body_ != nullptr ? body_->route : Route::kRelationalOnly;
}

QueryExecution ExecutionCursor::Execution() const {
  QueryExecution exec;
  if (body_ == nullptr) return exec;
  exec.split = body_->split;
  body_->Charges(&exec);
  return exec;
}

Status ExecutionCursor::Next(sparql::BindingTable* chunk, size_t max_rows,
                             bool* done) {
  if (body_ == nullptr) {
    return Status::FailedPrecondition(
        "cursor is empty (default-constructed or moved from)");
  }
  return body_->Next(chunk, max_rows, done);
}

Status QueryProcessor::Open(const PreparedPlan& plan,
                            const TermId* param_values, bool stream,
                            ExecutionCursor::Body* body) const {
  auto& reg = telemetry::MetricsRegistry::Global();
  ExecutionCursor::Body& b = *body;
  b.telem = reg.enabled();
  b.start_us = b.telem ? reg.NowMicros() : 0;
  b.split = BindSplit(plan, param_values);
  b.graph_meter = CostMeter(&CostModel::Default(), config_.graph_throttle);

  // Runs one relational artifact (from `seed` when given) and adopts its
  // last join intermediate, recording the engine's wall/simulated pair.
  auto run_rel = [&](const Executor::CompiledQuery& cq,
                     const std::vector<size_t>& map,
                     const BindingTable* seed) -> Status {
    const std::vector<TermId> local = MapParams(map, param_values);
    const double wall0 = b.telem ? reg.NowMicros() : 0;
    const double sim0 = b.telem ? b.rel_meter.sim_micros() : 0;
    DSKG_ASSIGN_OR_RETURN(
        BindingTable joined,
        executor_->ExecuteCompiledJoined(
            cq, local.empty() ? nullptr : local.data(), seed, &b.rel_meter));
    if (b.telem) {
      Qm().rel_exec_wall_us->Record(reg.NowMicros() - wall0);
      Qm().rel_exec_sim_us->Record(b.rel_meter.sim_micros() - sim0);
    }
    return b.Adopt(std::move(joined), cq.out_vars, /*drop_missing=*/false);
  };

  if (plan.route == Route::kGraphOnly) {
    // ---- Case 1: graph store ---------------------------------------------
    b.route = Route::kGraphOnly;
    if (stream) {
      b.columns = plan.graph_whole.out_vars;
      const std::vector<TermId> local =
          MapParams(plan.graph_whole_param_map, param_values);
      DSKG_ASSIGN_OR_RETURN(
          TraversalMatcher::Cursor gc,
          matcher_->OpenCursor(plan.graph_whole,
                               local.empty() ? nullptr : local.data(),
                               &b.graph_meter));
      b.graph_cursor = std::move(gc);
    } else {
      DSKG_ASSIGN_OR_RETURN(BindingTable rows,
                            MatchAll(plan.graph_whole,
                                     plan.graph_whole_param_map,
                                     param_values, &b.graph_meter));
      DSKG_RETURN_NOT_OK(b.Adopt(std::move(rows), plan.graph_whole.out_vars,
                                 /*drop_missing=*/false));
    }
  } else if (plan.route == Route::kDualStore) {
    // ---- Case 2: q_c in the graph store, the remainder relational ---------
    b.route = Route::kDualStore;
    DSKG_ASSIGN_OR_RETURN(BindingTable inter,
                          MatchAll(plan.graph_complex,
                                   plan.graph_complex_param_map,
                                   param_values, &b.graph_meter));
    // Migrate the intermediate results into the temporary table space.
    // The matcher's columnar table is handed to the executor as-is —
    // the seed adoption is one flat-buffer copy, no per-row re-keying.
    b.migrate_meter.Add(Op::kMigrateResultRow, inter.NumRows());
    b.migrate_meter.Add(Op::kTempTableTuple, inter.NumRows());
    if (plan.has_remainder) {
      DSKG_RETURN_NOT_OK(
          run_rel(plan.remainder, plan.remainder_param_map, &inter));
    } else {
      // Defensive (Case 1 should have fired): the intermediate is the
      // result, already projected.
      const std::vector<std::string> vars = inter.columns;
      DSKG_RETURN_NOT_OK(
          b.Adopt(std::move(inter), vars, /*drop_missing=*/false));
    }
  } else {
    // ---- RDB-views probe, then Case 3: relational store ------------------
    std::optional<relstore::MaterializedViewManager::Answer> ans;
    if (plan.try_view) {
      ans = views_->TryAnswer(b.split.complex->patterns, &b.rel_meter);
    }
    if (!ans.has_value()) {
      b.route = Route::kRelationalOnly;
      DSKG_RETURN_NOT_OK(run_rel(plan.rel, plan.rel_param_map, nullptr));
    } else if (plan.has_remainder) {
      b.route = Route::kViewAssisted;
      DSKG_RETURN_NOT_OK(
          run_rel(plan.remainder, plan.remainder_param_map, &ans->bindings));
    } else {
      b.route = Route::kViewAssisted;
      // Project() semantics: silently drop projected variables the view
      // cannot bind.
      DSKG_RETURN_NOT_OK(b.Adopt(std::move(ans->bindings), plan.out_vars,
                                 /*drop_missing=*/true));
    }
  }
  if (b.telem) b.wall_us = reg.NowMicros() - b.start_us;
  return Status::OK();
}

Result<ExecutionCursor> QueryProcessor::OpenCursor(
    const PreparedPlan& plan, const TermId* param_values) const {
  ExecutionCursor cursor;
  cursor.body_ = std::make_unique<ExecutionCursor::Body>();
  DSKG_RETURN_NOT_OK(
      Open(plan, param_values, /*stream=*/true, cursor.body_.get()));
  return cursor;
}

Result<QueryExecution> QueryProcessor::ExecutePlan(
    const PreparedPlan& plan, const TermId* param_values) const {
  // The same body a cursor owns, kept on the stack: one drain empties it.
  ExecutionCursor::Body b;
  DSKG_RETURN_NOT_OK(Open(plan, param_values, /*stream=*/false, &b));
  QueryExecution exec;
  bool done = false;
  DSKG_RETURN_NOT_OK(
      b.Next(&exec.result, std::numeric_limits<size_t>::max(), &done));
  exec.split = std::move(b.split);
  b.Charges(&exec);
  return exec;
}

}  // namespace dskg::core
