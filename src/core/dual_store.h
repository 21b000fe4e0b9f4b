#ifndef DSKG_CORE_DUAL_STORE_H_
#define DSKG_CORE_DUAL_STORE_H_

/// \file dual_store.h
/// The dual-store facade: the library's main entry point.
///
/// A `DualStore` owns a relational store holding the *entire* knowledge
/// graph and a capacity-bounded graph store holding the partitions chosen
/// by the tuner, wires them through the complex subquery identifier and
/// the query processor (Figure 1 of the paper), and exposes the admin
/// operations tuners use (partition migration/eviction and the two cost
/// probes of Algorithm 2).
///
/// Three store variants are expressible through the config:
///  * RDB-only  — `use_graph = use_views = false`
///  * RDB-views — `use_views = true`, `views_budget_rows > 0`
///  * RDB-GDB   — `use_graph = true`, `graph_capacity_triples > 0`
///
/// Typical use (queries go through a `core::Session`, session.h):
/// \code
///   rdf::Dataset ds = workload::GenerateYago({.target_triples = 100000});
///   core::DualStore store(&ds, {.graph_capacity_triples =
///                                   ds.num_triples() / 4});
///   core::Session session(&store);
///   auto exec = session.Execute(
///       "SELECT ?p WHERE { ?p y:wasBornIn ?c . "
///       "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c . }");
/// \endcode

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cost.h"
#include "common/status.h"
#include "core/query_processor.h"
#include "core/update.h"
#include "graphstore/matcher.h"
#include "graphstore/property_graph.h"
#include "rdf/dataset.h"
#include "relstore/executor.h"
#include "relstore/triple_table.h"
#include "relstore/views.h"
#include "sparql/ast.h"

namespace dskg::core {

/// Configuration of a dual store.
struct DualStoreConfig {
  /// Graph-store budget B_G in triples (0 = unlimited).
  uint64_t graph_capacity_triples = 0;
  /// Route complex subqueries through the graph store (RDB-GDB).
  bool use_graph = true;
  /// Route complex subqueries through materialized views (RDB-views).
  bool use_views = false;
  /// Row budget of the view catalog (0 = unlimited); the benchmarks set
  /// it equal to `graph_capacity_triples` for a fair comparison.
  uint64_t views_budget_rows = 0;
  /// Contention applied to graph-store execution (Table 6 / Figure 7).
  ResourceThrottle graph_throttle;
  /// Share-nothing predicate shards of the triple table and graph store
  /// (the online store's applier parallelism). One shard — the default —
  /// is bit-identical to the unsharded layout.
  int num_shards = 1;
  /// Pool used by the constructor's `BulkLoad` to sort and build the three
  /// index permutations in parallel (borrowed; null = serial). Loaded
  /// state and charges are bit-identical either way.
  ThreadPool* load_pool = nullptr;
};

/// The dual-store structure (relational + graph) for one knowledge graph.
class DualStore {
 public:
  /// Bulk-loads `dataset` into the relational store. The dataset is
  /// borrowed (it owns the term dictionary) and must outlive the store;
  /// it stays mutable because knowledge updates intern new terms.
  ///
  /// The table holds each triple once, so the load releases the term
  /// references of duplicate occurrences in the list (once per dataset —
  /// see `Dataset::ReleaseDuplicates`). From then on the store maintains
  /// only the dictionary: `ApplyUpdates` interns, retains and releases
  /// terms, and never touches the dataset's triple list or partition
  /// statistics, which keep describing the load.
  DualStore(rdf::Dataset* dataset, const DualStoreConfig& config);

  /// Recovery constructor (the persistence tier's entry): wires every
  /// component exactly like the bulk-load constructor over `dict` but
  /// skips the bulk load, leaving the triple table empty — the caller
  /// (the online store's restore path) rebuilds `table_` in place from a
  /// snapshot slab image, O(slab bytes) instead of O(n log n)
  /// re-insertion. `dict` is borrowed like the dataset above.
  struct RestoreTag {};
  DualStore(rdf::Dictionary* dict, const DualStoreConfig& config, RestoreTag);

  DualStore(const DualStore&) = delete;
  DualStore& operator=(const DualStore&) = delete;

  // ---- query path (Algorithm 3) -------------------------------------------
  // (`core::Session` is the front door — it adds the plan cache, `$param`
  // binding by name, snapshot pinning and epoch re-validation on top.)

  /// Plan-time half of Algorithm 3 for `query`: identification, routing,
  /// slot compilation, stamped with the current `plan_epoch()`.
  Result<PreparedPlan> Prepare(const sparql::Query& query) const;

  /// Executes a prepared plan with bound parameter values (one per
  /// `plan.params` entry; null when none). Identical results and
  /// simulated charges as preparing and executing the bound query. The
  /// caller is responsible for epoch validation (`Session` does it
  /// transparently).
  Result<QueryExecution> ExecutePlan(const PreparedPlan& plan,
                                     const rdf::TermId* params) const;

  /// Streaming variant of `ExecutePlan` (see `ExecutionCursor`).
  Result<ExecutionCursor> OpenCursor(const PreparedPlan& plan,
                                     const rdf::TermId* params) const;

  /// Monotone version of everything a prepared plan depends on: graph-
  /// store residency, the view catalog, and dictionary/statistics state
  /// (bumped by MigratePartition, EvictPartition and ApplyUpdates, plus
  /// every view-catalog change). A plan whose `plan_epoch` differs from
  /// the store's must be re-prepared before use. Under an installed
  /// `SnapshotScope` this is the captured epoch, so a reader validates
  /// against the state it will actually read.
  uint64_t plan_epoch() const {
    if (const Snapshot* snap = CurrentSnapshot()) return snap->plan_epoch;
    return plan_epoch_.load(std::memory_order_acquire) +
           (views_ != nullptr ? views_->catalog_version() : 0);
  }

  /// Forces `plan_epoch()` to `target` (which must be >= the current
  /// value). Snapshot bookkeeping only: `OnlineStore` bumps the epoch
  /// after an exclusive tuning window so plans validated against the
  /// pre-window snapshot re-prepare.
  void ForcePlanEpoch(uint64_t target);

  /// Inserts a new fact. The relational store always absorbs it; if the
  /// predicate's partition is resident in the graph store, the graph copy
  /// is updated too (the slow native-store insert path). Cost is charged
  /// to `meter` when provided.
  Status Insert(std::string_view subject, std::string_view predicate,
                std::string_view object, CostMeter* meter = nullptr);

  /// Applies one update batch (inserts + deletes, in op order) to every
  /// structure of this store at once: the dictionary's usage counts
  /// (an applied insert retains its three ids, an applied delete releases
  /// them once the batch's views are invalidated), the triple table with
  /// its three index permutations and per-predicate statistics, resident
  /// graph-store partitions (edges maintained in place; a partition that
  /// overflows capacity is evicted rather than left stale), and the
  /// materialized-view catalog (views over touched predicates are dropped
  /// — the tuner rebuilds them).
  /// Inserting a stored triple and deleting an absent one are no-ops.
  ///
  /// Single-applier: must not run concurrently with queries on THIS
  /// store — `OnlineStore` layers epoch-based read/write coordination on
  /// top for that. Charges per-tuple insert/remove and graph-maintenance
  /// costs to `meter` when provided.
  Result<UpdateResult> ApplyUpdates(const UpdateBatch& batch,
                                    CostMeter* meter = nullptr);

  // ---- tuner admin API -----------------------------------------------------

  /// Migrates `predicate`'s partition from the relational store to the
  /// graph store: extracts it via the POS index (charging
  /// `kMigratePartitionTriple` per triple) and bulk-imports it (charging
  /// `kImportTriple` per triple). The relational copy is kept, per §4.1.
  Status MigratePartition(rdf::TermId predicate, CostMeter* meter);

  /// Evicts `predicate`'s partition from the graph store.
  Status EvictPartition(rdf::TermId predicate, CostMeter* meter);

  /// True if `predicate`'s partition is resident in the graph store.
  bool IsResident(rdf::TermId predicate) const {
    return graph_.HasPredicate(predicate);
  }

  /// Triple count of `predicate`'s partition (in the relational store).
  uint64_t PartitionSize(rdf::TermId predicate) const {
    return table_.StatsOf(predicate).num_triples;
  }

  /// Cost probe c1 of Algorithm 2: runs `qc` in the graph store and
  /// returns its simulated cost in microseconds. Work is charged to
  /// `meter` (offline/tuning). Fails if the graph store does not cover
  /// `qc`.
  Result<double> GraphQueryCost(const sparql::Query& qc,
                                CostMeter* meter) const;

  /// Cost probe c2 of Algorithm 2 (the counterfactual parallel thread):
  /// runs `qc` in the relational store under a cost budget of
  /// `budget_micros`; returns the actual cost, or `budget_micros` if the
  /// run was cut off (the paper's λ·c1 cutoff). Work is charged to
  /// `meter`.
  Result<double> RelationalQueryCostWithCutoff(const sparql::Query& qc,
                                               double budget_micros,
                                               CostMeter* meter) const;

  // ---- snapshots (the online store's concurrent read path) ----------------

  /// A consistent, immutable view across every component a query reads:
  /// triple-table roots, graph partitions, view catalog, and the plan
  /// epoch they correspond to. Built by the online store's applier at the
  /// end of each batch; pointered state stays valid until the store's
  /// post-drain reclamation.
  struct Snapshot {
    const DualStore* owner = nullptr;
    relstore::TripleTable::Snapshot table;
    graphstore::PropertyGraph::Snapshot graph;
    /// Owner-null (inert) when the store has no view catalog.
    relstore::MaterializedViewManager::Snapshot views;
    uint64_t plan_epoch = 0;
  };

  /// Captures the current state of every component. Quiescent only (the
  /// online store calls it from the applier between batches).
  Snapshot MakeSnapshot() const;

  /// Installs `snap` as this thread's read source: the triple table, the
  /// graph store, the view catalog and `plan_epoch()` all serve the
  /// captured state for the scope's lifetime (nests; restores previous
  /// sources on destruction). A null snapshot leaves reads live.
  class SnapshotScope {
   public:
    explicit SnapshotScope(const Snapshot* snap)
        : table_(snap != nullptr ? &snap->table : nullptr),
          graph_(snap != nullptr ? &snap->graph : nullptr),
          views_(snap != nullptr ? &snap->views : nullptr),
          prev_(tls_snapshot_) {
      tls_snapshot_ = snap;
    }
    SnapshotScope(const SnapshotScope&) = delete;
    SnapshotScope& operator=(const SnapshotScope&) = delete;
    ~SnapshotScope() { tls_snapshot_ = prev_; }

   private:
    relstore::TripleTable::ReadScope table_;
    graphstore::PropertyGraph::ReadScope graph_;
    relstore::MaterializedViewManager::ReadScope views_;
    const Snapshot* prev_;
  };

  // ---- component access ----------------------------------------------------

  const rdf::Dictionary& dict() const { return *dict_; }
  const relstore::TripleTable& table() const { return table_; }
  const graphstore::PropertyGraph& graph() const { return graph_; }
  const relstore::Executor& executor() const { return executor_; }
  const graphstore::TraversalMatcher& matcher() const { return matcher_; }
  const QueryProcessor& processor() const { return *processor_; }
  relstore::MaterializedViewManager* views() { return views_.get(); }
  const relstore::MaterializedViewManager* views() const {
    return views_.get();
  }
  const DualStoreConfig& config() const { return config_; }

  /// Share-nothing predicate shards (1 = unsharded).
  int num_shards() const { return table_.num_shards(); }

  /// Simulated cost of the initial bulk load into the relational store.
  double load_micros() const { return load_micros_; }

  /// Updates the graph-store contention model (Table 6 sweeps).
  void SetGraphThrottle(ResourceThrottle t);

  /// Enables (null: disables) sharded graph traversal for every query
  /// routed through this store's processor — sessions inherit it, since
  /// they execute via the store. Set while no query is executing.
  void SetExecutionPool(ThreadPool* pool);

 private:
  /// The online store drives this store's sharded write pipeline (per-
  /// shard appliers, snapshot publication, deferred reclamation) through
  /// the private component state.
  friend class OnlineStore;

  /// This thread's installed snapshot if it belongs to this store.
  const Snapshot* CurrentSnapshot() const {
    const Snapshot* s = tls_snapshot_;
    return (s != nullptr && s->owner == this) ? s : nullptr;
  }

  rdf::Dictionary* dict_;
  DualStoreConfig config_;
  relstore::TripleTable table_;
  graphstore::PropertyGraph graph_;
  relstore::Executor executor_;
  graphstore::TraversalMatcher matcher_;
  std::unique_ptr<relstore::MaterializedViewManager> views_;
  std::unique_ptr<QueryProcessor> processor_;
  double load_micros_ = 0;
  /// Structural share of `plan_epoch()` (residency + content changes).
  /// Atomic: the online injector bumps it while prepared sessions poll.
  std::atomic<uint64_t> plan_epoch_{0};

  inline static thread_local const Snapshot* tls_snapshot_ = nullptr;
};

}  // namespace dskg::core

#endif  // DSKG_CORE_DUAL_STORE_H_
