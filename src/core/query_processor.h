#ifndef DSKG_CORE_QUERY_PROCESSOR_H_
#define DSKG_CORE_QUERY_PROCESSOR_H_

/// \file query_processor.h
/// The dual-store query processor (paper §5, Algorithm 3), split into an
/// explicit prepare/execute pipeline.
///
/// Routing of a query q with complex subquery q_c against the resident
/// complex subgraphs G_c:
///
///   Case 1  predicates(q)   ⊆ predicates(G_c)  -> run q in the graph store
///   Case 2  predicates(q_c) ⊆ predicates(G_c)  -> run q_c in the graph
///           store, migrate its intermediate results into the relational
///           store's temporary table space, finish q's remainder there
///   Case 3  otherwise                          -> run q in the relational
///           store
///
/// The RDB-views variant replaces the graph store with the materialized
/// view catalog: if a view matches q_c, its (filtered) rows seed the
/// remainder. RDB-only always takes Case 3.
///
/// `Prepare` runs everything that does not depend on bound parameter
/// values — complex-subquery identification, route selection, dictionary
/// encoding and slot compilation for every store the route touches — and
/// returns a `PreparedPlan` that `ExecutePlan`/`OpenCursor` re-run any
/// number of times with different `$parameter` bindings. A query without
/// parameters is `Prepare` + `ExecutePlan(plan, nullptr)`; `core::Session`
/// is the public front door that composes the two.
///
/// Execution has one path: a single open step runs the route dispatch
/// once and leaves the result behind an `ExecutionCursor`; `ExecutePlan`
/// is that open step plus one drain to the end. The cursor records the
/// per-query telemetry (`query.route.*`, `query.wall_us.*`,
/// `query.sim_us.*`) when it delivers its last row, so materialized
/// executions, `Session` cursors and server cursors are all counted the
/// same way.
///
/// A plan is valid only against the physical state it was prepared for
/// (graph residency, view catalog, dictionary contents); `DualStore::
/// plan_epoch()` versions that state and `Session` re-prepares stale
/// plans transparently.

#include <memory>
#include <optional>
#include <vector>

#include "common/cost.h"
#include "common/status.h"
#include "core/identifier.h"
#include "graphstore/matcher.h"
#include "graphstore/property_graph.h"
#include "rdf/dictionary.h"
#include "relstore/executor.h"
#include "relstore/views.h"
#include "sparql/ast.h"
#include "sparql/bindings.h"

namespace dskg::core {

/// How a query was executed.
enum class Route {
  kRelationalOnly,  ///< Case 3 (or no complex subquery)
  kGraphOnly,       ///< Case 1
  kDualStore,       ///< Case 2
  kViewAssisted,    ///< RDB-views: view seeded the remainder
};

/// Short name of `route` ("relational", "graph", "dual", "view").
const char* RouteName(Route route);

/// Outcome of processing one query, with the cost breakdown the
/// experiments report.
struct QueryExecution {
  sparql::BindingTable result;
  Route route = Route::kRelationalOnly;
  /// The identifier's split (kept for the tuner's training data), with
  /// parameter values substituted in.
  IdentifiedQuery split;

  // Simulated time, microseconds.
  double graph_micros = 0;    ///< spent in the graph store
  double rel_micros = 0;      ///< spent in the relational store
  double migrate_micros = 0;  ///< spent shipping intermediate results
  /// IO/CPU split of the graph-store share (for the Figure 7 trace).
  double graph_io_micros = 0;
  double graph_cpu_micros = 0;

  double total_micros() const {
    return graph_micros + rel_micros + migrate_micros;
  }
};

/// Everything plan-time about one query: the identifier's split, the
/// chosen route, and the slot-compiled artifact for each engine the route
/// touches. Parameter values are *not* part of the plan — they are
/// supplied per execution, so one plan serves every mutation of a query
/// template.
struct PreparedPlan {
  /// The split of the (possibly parameterized) query.
  IdentifiedQuery split;
  /// Distinct `$parameter` names in first-appearance order; the
  /// `param_values` arrays passed to ExecutePlan/OpenCursor align with it.
  std::vector<std::string> params;

  /// The route selected at prepare time. `kViewAssisted` is never planned
  /// directly — `try_view` marks plans that probe the view catalog per
  /// execution and fall back to `kRelationalOnly` on a miss.
  Route route = Route::kRelationalOnly;
  bool try_view = false;

  /// The query's output header (select list, or all variables).
  std::vector<std::string> out_vars;

  /// Compiled artifacts; only the ones the route needs are populated.
  relstore::Executor::CompiledQuery rel;        // Case 3 / view fallback
  relstore::Executor::CompiledQuery remainder;  // Case 2 / view remainder
  bool has_remainder = false;
  graphstore::TraversalMatcher::Plan graph_whole;    // Case 1
  graphstore::TraversalMatcher::Plan graph_complex;  // Case 2 q_c

  /// Parameter index mapping from each artifact's local parameter order
  /// to `params` (artifacts see only the parameters in their patterns).
  std::vector<size_t> rel_param_map;
  std::vector<size_t> remainder_param_map;
  std::vector<size_t> graph_whole_param_map;
  std::vector<size_t> graph_complex_param_map;

  /// `$param` occurrences in the split's ASTs, so executions can
  /// materialize the bound split (tuners train on it) and the view path
  /// can filter on bound constants.
  struct AstParamSite {
    uint8_t which;     // 0 = split.query, 1 = split.complex, 2 = remainder
    uint32_t pattern;  // pattern index within that query
    uint8_t pos;       // 0 = subject, 2 = object
    uint32_t param;    // index into `params`
  };
  std::vector<AstParamSite> ast_param_sites;

  /// `DualStore::plan_epoch()` at prepare time (stamped by the store;
  /// 0 when the plan was prepared through a bare QueryProcessor).
  uint64_t plan_epoch = 0;
};

/// A pull-based streaming result: chunks of rows on demand instead of one
/// materialized `BindingTable`. Obtained from `QueryProcessor::OpenCursor`
/// (or `Session::PreparedQuery::OpenCursor` at the public API). The
/// relational pipeline still materializes its join intermediates — that
/// is the row-store semantics the cost model charges for — but the final
/// projected result is emitted chunk by chunk, and a pure graph-store
/// route streams straight out of the resumable traversal with no
/// materialization at all.
///
/// The pull that delivers the last row records the query's telemetry:
/// one `query.route.<route>` count, one `query.sim_us.<route>` sample
/// (the drained `total_micros()`), and one `query.wall_us.<route>` sample
/// summing the wall time spent inside the open step and every `Next`
/// (time between pulls is the caller's, not the query's). A cursor
/// dropped before its last row records none of them.
class ExecutionCursor {
 public:
  ExecutionCursor();
  ~ExecutionCursor();
  ExecutionCursor(ExecutionCursor&&) noexcept;
  ExecutionCursor& operator=(ExecutionCursor&&) noexcept;

  /// Replaces `*chunk` with the next `max_rows` (or fewer) result rows.
  /// `*done` turns true once the result set is exhausted (a call after
  /// that yields an empty chunk). Graph-route cursors charge traversal
  /// cost as they advance; a fully drained cursor has charged exactly
  /// what `ExecutePlan` charges.
  Status Next(sparql::BindingTable* chunk, size_t max_rows, bool* done);

  /// Output column names of every chunk.
  const std::vector<std::string>& columns() const;

  Route route() const;

  /// Execution record so far: route, bound split, and the cost breakdown
  /// accrued to date (`result` left empty). After a full drain the totals
  /// equal `ExecutePlan`'s for the same bindings.
  QueryExecution Execution() const;

 private:
  friend class QueryProcessor;
  struct Body;  // defined in query_processor.cc
  std::unique_ptr<Body> body_;
};

/// Routes and executes queries against the current dual-store state.
class QueryProcessor {
 public:
  struct Config {
    /// Use the graph store as accelerator (RDB-GDB).
    bool use_graph = true;
    /// Use materialized views as accelerator (RDB-views).
    bool use_views = false;
    /// Contention applied to graph-store execution (Table 6 / Figure 7).
    ResourceThrottle graph_throttle;
    /// Pool for sharded graph traversal, one shard per worker (borrowed,
    /// not owned; null = serial). Sharded and serial traversal produce
    /// bit-identical rows and charges, so this is purely a wall-clock knob.
    ThreadPool* exec_pool = nullptr;
  };

  /// All pointers are borrowed and must outlive the processor. `views`
  /// may be null when `config.use_views` is false.
  QueryProcessor(const relstore::Executor* executor,
                 const graphstore::PropertyGraph* graph,
                 const graphstore::TraversalMatcher* matcher,
                 const relstore::MaterializedViewManager* views,
                 const rdf::Dictionary* dict, Config config)
      : executor_(executor), graph_(graph), matcher_(matcher), views_(views),
        dict_(dict), config_(config) {}

  /// Plan-time half of Algorithm 3: identification, routing, slot
  /// compilation — everything reusable across executions.
  Result<PreparedPlan> Prepare(const sparql::Query& query) const;

  /// Executes a prepared plan with `param_values` bound (one id per entry
  /// of `plan.params`; null allowed when the plan has none): the open
  /// step plus one drain to the end. Results and simulated charges are
  /// identical to preparing and executing the equivalent bound query. An
  /// unbound or invalid parameter fails with FailedPrecondition.
  Result<QueryExecution> ExecutePlan(const PreparedPlan& plan,
                                     const rdf::TermId* param_values) const;

  /// Streaming variant of `ExecutePlan`; see `ExecutionCursor`.
  Result<ExecutionCursor> OpenCursor(const PreparedPlan& plan,
                                     const rdf::TermId* param_values) const;

  const Config& config() const { return config_; }
  void set_graph_throttle(ResourceThrottle t) { config_.graph_throttle = t; }
  /// Enables (or, with null, disables) sharded graph traversal. Not
  /// synchronized: set while no query is executing.
  void set_exec_pool(ThreadPool* pool) { config_.exec_pool = pool; }

 private:
  /// True if every pattern of `q` has a constant predicate whose partition
  /// is resident in the graph store.
  bool GraphCovers(const sparql::Query& q) const;

  /// The split with `param_values` substituted for its `$param` sites.
  IdentifiedQuery BindSplit(const PreparedPlan& plan,
                            const rdf::TermId* param_values) const;

  /// The open step, and the only route dispatch: runs everything the
  /// route needs before the first row into `body`, which then serves the
  /// result chunk by chunk. With `stream` the graph-only route opens a
  /// resumable traversal; without it (the caller drains everything) it
  /// drains through `MatchAll`, which shards the traversal over the pool.
  Status Open(const PreparedPlan& plan, const rdf::TermId* param_values,
              bool stream, ExecutionCursor::Body* body) const;

  /// Drains one compiled traversal into a table, sharded over
  /// `config_.exec_pool` when one is set.
  Result<sparql::BindingTable> MatchAll(
      const graphstore::TraversalMatcher::Plan& plan,
      const std::vector<size_t>& map, const rdf::TermId* param_values,
      CostMeter* meter) const;

  /// Gathers an artifact's local parameter values from the plan-level
  /// array via its index map.
  static std::vector<rdf::TermId> MapParams(
      const std::vector<size_t>& map, const rdf::TermId* param_values);

  const relstore::Executor* executor_;
  const graphstore::PropertyGraph* graph_;
  const graphstore::TraversalMatcher* matcher_;
  const relstore::MaterializedViewManager* views_;
  const rdf::Dictionary* dict_;
  Config config_;
};

}  // namespace dskg::core

#endif  // DSKG_CORE_QUERY_PROCESSOR_H_
