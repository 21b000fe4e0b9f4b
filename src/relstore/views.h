#ifndef DSKG_RELSTORE_VIEWS_H_
#define DSKG_RELSTORE_VIEWS_H_

/// \file views.h
/// Materialized views over BGP subqueries — the substrate of the paper's
/// RDB-views baseline (§6.2), which materializes the most frequent complex
/// subqueries of the historical workload instead of shipping partitions to
/// a graph store.
///
/// A view generalizes its defining subquery: constants in subject/object
/// position are replaced by fresh variables before materialization, so one
/// view answers every *mutation* of a query template (the paper's
/// workloads are templates plus constant mutations). At use time the
/// original constants become filters over the view's columns.
///
/// Views are keyed by a canonical BGP signature: variables and generalized
/// constants are renamed in first-occurrence order, predicates are kept.
/// Two BGPs with the same join structure over the same predicates share a
/// signature.
///
/// Snapshot reads (online mode): views are held by pointer; under
/// `SetDeferredReclaim(true)` a dropped or invalidated view is retired —
/// kept alive until `CollectRetired` after the epoch drain — instead of
/// destroyed, so a `MakeSnapshot` captured earlier keeps serving it.
/// Readers install a snapshot with `ReadScope`; without one, reads serve
/// the live catalog.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/cost.h"
#include "common/status.h"
#include "relstore/executor.h"
#include "sparql/ast.h"
#include "sparql/bindings.h"

namespace dskg::relstore {

/// Canonical signature of a BGP: structure + predicates, ignoring variable
/// names and subject/object constant values. Used to match queries to
/// views (and, in the workload generators' tests, to group mutations).
std::string BgpSignature(const std::vector<sparql::TriplePattern>& patterns);

/// One materialized view.
struct MaterializedView {
  /// Canonical signature of the generalized defining BGP.
  std::string signature;
  /// The generalized defining query (all variables projected).
  sparql::Query definition;
  /// Materialized rows; columns are the canonical variable names.
  sparql::BindingTable data;
};

/// Creates, stores and matches materialized views under a row budget.
class MaterializedViewManager {
 public:
  /// \param executor    relational executor used to materialize views
  /// \param dict        shared term dictionary (for constant filters)
  /// \param budget_rows total rows all views may occupy (0 = unlimited);
  ///                    the benchmark harness sets this equal to the graph
  ///                    store's triple budget for a fair comparison.
  MaterializedViewManager(const Executor* executor,
                          const rdf::Dictionary* dict, uint64_t budget_rows)
      : executor_(executor), dict_(dict), budget_rows_(budget_rows) {}

  /// Materializes a view for the generalization of `subquery`.
  /// Charges the defining query's execution plus one `kTempTableTuple` per
  /// materialized row to `meter` (view building is offline work).
  /// Returns AlreadyExists if an equivalent view exists and
  /// CapacityExceeded (after discarding the result) if it does not fit.
  Status CreateView(const sparql::Query& subquery, CostMeter* meter);

  /// Drops the view with `signature`; NotFound if absent.
  Status DropView(const std::string& signature);

  /// Drops every view whose definition references any predicate in
  /// `predicates` (dictionary ids). The online applier calls this after a
  /// batch mutates those partitions — a stale view would keep serving
  /// pre-batch rows. The tuner rebuilds dropped views at its next window.
  /// Returns the number of views dropped.
  size_t InvalidatePredicates(
      const std::unordered_set<rdf::TermId>& predicates);

  /// Drops all views.
  void Clear();

  /// Result of matching a query against the view catalog.
  struct Answer {
    /// Bindings of the query's own variables obtained from the view.
    sparql::BindingTable bindings;
  };

  /// Attempts to answer the BGP `patterns` (e.g. a complex subquery) from
  /// a view. On success returns bindings for the query's variables, with
  /// the query's constants applied as filters. Charges one `kViewLookup`
  /// plus one `kViewScanTuple` per row scanned. Returns nullopt when no
  /// view matches.
  std::optional<Answer> TryAnswer(
      const std::vector<sparql::TriplePattern>& patterns,
      CostMeter* meter) const;

  /// True if a view with the signature of `patterns` exists.
  bool HasViewFor(const std::vector<sparql::TriplePattern>& patterns) const;

  uint64_t used_rows() const;
  uint64_t budget_rows() const { return budget_rows_; }
  size_t num_views() const;

  /// Monotone version of the catalog: bumped by every successful
  /// CreateView/DropView/InvalidatePredicates/Clear that changes it.
  /// Prepared query plans record it (folded into `DualStore::
  /// plan_epoch()`) and re-validate when it moves — a plan that decided
  /// its route against an older catalog must not keep serving it.
  uint64_t catalog_version() const;

  /// Signatures of all views, ascending (deterministic).
  std::vector<std::string> Signatures() const;

  // ---- snapshots (the online store's concurrent read path) --------------

  /// An immutable view of the catalog (by pointer — valid until
  /// `CollectRetired` destroys retired views). Capture at a
  /// write-quiescent point; read through `ReadScope`.
  struct Snapshot {
    const MaterializedViewManager* owner = nullptr;
    /// Views sorted by signature (map order).
    std::vector<std::pair<std::string, const MaterializedView*>> views;
    uint64_t used_rows = 0;
    uint64_t catalog_version = 0;
  };

  /// Captures the current catalog. Quiescent only.
  Snapshot MakeSnapshot() const;

  /// Installs `snap` as this thread's read source for the owning manager
  /// (nests; restores the previous source on destruction). A null
  /// snapshot, or one owned by another manager, leaves reads live.
  class ReadScope {
   public:
    explicit ReadScope(const Snapshot* snap) : prev_(tls_snapshot_) {
      tls_snapshot_ = snap;
    }
    ReadScope(const ReadScope&) = delete;
    ReadScope& operator=(const ReadScope&) = delete;
    ~ReadScope() { tls_snapshot_ = prev_; }

   private:
    const Snapshot* prev_;
  };

  // ---- deferred reclamation (the online store's write path) -------------

  /// Switches between immediate view destruction (offline, default) and
  /// retire-until-drained (online). Toggle only while quiescent.
  void SetDeferredReclaim(bool on) { deferred_ = on; }

  /// Destroys views retired by drops/invalidations. Call after the epoch
  /// protocol proves no reader still holds a snapshot referencing them.
  /// Returns the number destroyed.
  size_t CollectRetired() {
    const size_t n = retired_.size();
    retired_.clear();
    return n;
  }

 private:
  /// The view to read for `signature`: the installed snapshot's (binary
  /// search), or the live catalog's.
  const MaterializedView* FindView(const std::string& signature) const;

  /// This thread's installed snapshot if it belongs to this manager.
  const Snapshot* CurrentSnapshot() const {
    const Snapshot* s = tls_snapshot_;
    return (s != nullptr && s->owner == this) ? s : nullptr;
  }

  /// Removes `it`'s view from the catalog: destroyed offline, retired
  /// until the drain under deferred reclamation.
  std::map<std::string, std::unique_ptr<MaterializedView>>::iterator
  RemoveView(std::map<std::string, std::unique_ptr<MaterializedView>>::iterator
                 it);

  const Executor* executor_;
  const rdf::Dictionary* dict_;
  uint64_t budget_rows_;
  uint64_t used_rows_ = 0;
  /// Atomic: bumped by the applier while prepared sessions poll it.
  std::atomic<uint64_t> catalog_version_{0};
  // Ordered map => deterministic iteration.
  std::map<std::string, std::unique_ptr<MaterializedView>> views_;
  bool deferred_ = false;
  std::vector<std::unique_ptr<MaterializedView>> retired_;

  inline static thread_local const Snapshot* tls_snapshot_ = nullptr;
};

}  // namespace dskg::relstore

#endif  // DSKG_RELSTORE_VIEWS_H_
