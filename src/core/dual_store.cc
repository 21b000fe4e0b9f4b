#include "core/dual_store.h"

#include <unordered_set>

namespace dskg::core {

using rdf::TermId;
using rdf::Triple;
using sparql::Query;

DualStore::DualStore(rdf::Dataset* dataset, const DualStoreConfig& config)
    : dataset_(dataset),
      config_(config),
      table_(config.num_shards),
      graph_(config.graph_capacity_triples, config.num_shards),
      executor_(&table_, &dataset->dict()),
      matcher_(&graph_, &dataset->dict()) {
  CostMeter load_meter;
  table_.BulkLoad(dataset->triples(), &load_meter, config.load_pool);
  load_micros_ = load_meter.sim_micros();

  if (config.use_views) {
    views_ = std::make_unique<relstore::MaterializedViewManager>(
        &executor_, &dataset->dict(), config.views_budget_rows);
  }
  QueryProcessor::Config pc;
  pc.use_graph = config.use_graph;
  pc.use_views = config.use_views;
  pc.graph_throttle = config.graph_throttle;
  processor_ = std::make_unique<QueryProcessor>(
      &executor_, &graph_, &matcher_, views_.get(), &dataset->dict(), pc);
}

DualStore::DualStore(rdf::Dataset* dataset, const DualStoreConfig& config,
                     RestoreTag)
    : dataset_(dataset),
      config_(config),
      table_(config.num_shards),
      graph_(config.graph_capacity_triples, config.num_shards),
      executor_(&table_, &dataset->dict()),
      matcher_(&graph_, &dataset->dict()) {
  if (config.use_views) {
    views_ = std::make_unique<relstore::MaterializedViewManager>(
        &executor_, &dataset->dict(), config.views_budget_rows);
  }
  QueryProcessor::Config pc;
  pc.use_graph = config.use_graph;
  pc.use_views = config.use_views;
  pc.graph_throttle = config.graph_throttle;
  processor_ = std::make_unique<QueryProcessor>(
      &executor_, &graph_, &matcher_, views_.get(), &dataset->dict(), pc);
}

Result<PreparedPlan> DualStore::Prepare(const Query& query) const {
  DSKG_ASSIGN_OR_RETURN(PreparedPlan plan, processor_->Prepare(query));
  plan.plan_epoch = plan_epoch();
  return plan;
}

Result<QueryExecution> DualStore::ExecutePlan(const PreparedPlan& plan,
                                              const rdf::TermId* params) const {
  return processor_->ExecutePlan(plan, params);
}

Result<ExecutionCursor> DualStore::OpenCursor(const PreparedPlan& plan,
                                              const rdf::TermId* params) const {
  return processor_->OpenCursor(plan, params);
}

void DualStore::ForcePlanEpoch(uint64_t target) {
  const uint64_t views_v = views_ != nullptr ? views_->catalog_version() : 0;
  plan_epoch_.store(target > views_v ? target - views_v : 0,
                    std::memory_order_release);
}

DualStore::Snapshot DualStore::MakeSnapshot() const {
  Snapshot snap;
  snap.owner = this;
  snap.table = table_.MakeSnapshot();
  snap.graph = graph_.MakeSnapshot();
  if (views_ != nullptr) snap.views = views_->MakeSnapshot();
  snap.plan_epoch = plan_epoch_.load(std::memory_order_acquire) +
                    (views_ != nullptr ? views_->catalog_version() : 0);
  return snap;
}

Status DualStore::Insert(std::string_view subject, std::string_view predicate,
                         std::string_view object, CostMeter* meter) {
  // A single-fact insert is a one-op batch: same consistency guarantees
  // (resident-partition maintenance, view invalidation, duplicate no-op).
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert(std::string(subject),
                                       std::string(predicate),
                                       std::string(object)));
  return ApplyUpdates(batch, meter).status();
}

Result<UpdateResult> DualStore::ApplyUpdates(const UpdateBatch& batch,
                                             CostMeter* meter) {
  // Any batch may intern terms, flip residency (overflow eviction) or
  // change statistics: prepared plans must re-validate. Bumped
  // unconditionally so the epoch tracks applied batches exactly.
  plan_epoch_.fetch_add(1, std::memory_order_release);
  UpdateResult res;
  CostMeter local;
  CostMeter* m = meter != nullptr ? meter : &local;

  // Dataset removal is deferred to one stable end-of-batch sweep (O(|G|)
  // instead of O(|G|) per delete). A successful re-insert of a triple
  // deleted earlier in the same batch cancels against that pending sweep
  // instead of appending, so dataset occurrences and the table's set
  // semantics stay aligned. Deferring also delays dictionary releases to
  // the sweep, so ids stay valid for the whole batch.
  std::unordered_set<rdf::Triple, rdf::TripleHash> pending_removal;
  std::unordered_set<TermId> touched_predicates;

  for (const UpdateOp& op : batch.ops) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      rdf::Dictionary& dict = dataset_->mutable_dict();
      const Triple t{dict.Intern(op.subject), dict.Intern(op.predicate),
                     dict.Intern(op.object)};
      if (!table_.Insert(t, m)) continue;  // already stored: no-op
      if (pending_removal.erase(t) == 0) dataset_->Add(t);
      ++res.inserted;
      touched_predicates.insert(t.predicate);
      if (graph_.HasPredicate(t.predicate)) {
        Status s = graph_.InsertTriple(t, m);
        if (s.IsCapacityExceeded()) {
          // The graph copy no longer fits: drop the partition rather than
          // serve stale answers (the relational store stays authoritative).
          DSKG_RETURN_NOT_OK(graph_.EvictPartition(t.predicate, m));
        } else {
          DSKG_RETURN_NOT_OK(s);
          ++res.graph_maintained;
        }
      }
    } else {
      const rdf::Dictionary& dict = dataset_->dict();
      const Triple t{dict.Lookup(op.subject), dict.Lookup(op.predicate),
                     dict.Lookup(op.object)};
      if (t.subject == rdf::kInvalidTermId ||
          t.predicate == rdf::kInvalidTermId ||
          t.object == rdf::kInvalidTermId) {
        continue;  // references an unknown term: nothing stored to delete
      }
      if (!table_.RemoveTriple(t, m)) continue;  // not stored: no-op
      pending_removal.insert(t);
      ++res.deleted;
      touched_predicates.insert(t.predicate);
      if (graph_.HasPredicate(t.predicate)) {
        Status s = graph_.RemoveTriple(t, m);
        DSKG_RETURN_NOT_OK(s);
        ++res.graph_maintained;
      }
    }
  }

  // Invalidate views BEFORE the dataset sweep: the sweep releases
  // dictionary terms, and a predicate whose last triple died this batch
  // must still resolve while the catalog is matched against
  // `touched_predicates` (a stale view would otherwise survive and keep
  // serving the deleted rows).
  if (views_ != nullptr && !touched_predicates.empty()) {
    res.views_dropped = views_->InvalidatePredicates(touched_predicates);
  }
  if (!pending_removal.empty()) {
    dataset_->RemoveBatch(pending_removal);
  }
  return res;
}

Status DualStore::MigratePartition(TermId predicate, CostMeter* meter) {
  if (graph_.HasPredicate(predicate)) {
    return Status::AlreadyExists("partition " + std::to_string(predicate) +
                                 " already resident");
  }
  const uint64_t size = PartitionSize(predicate);
  if (size == 0) {
    return Status::NotFound("predicate " + std::to_string(predicate) +
                            " has no partition in the relational store");
  }
  if (graph_.capacity_triples() > 0 && size > graph_.FreeTriples()) {
    return Status::CapacityExceeded(
        "partition of " + std::to_string(size) +
        " triples does not fit in the graph store (free: " +
        std::to_string(graph_.FreeTriples()) + ")");
  }
  // Extract via the POS index, shipping each triple.
  std::vector<Triple> triples;
  triples.reserve(size);
  relstore::BoundPattern extent;
  extent.predicate = predicate;
  DSKG_RETURN_NOT_OK(table_.ScanPattern(extent, meter, [&](const Triple& t) {
    meter->Add(Op::kMigratePartitionTriple);
    triples.push_back(t);
    return true;
  }));
  DSKG_RETURN_NOT_OK(graph_.ImportPartition(predicate, triples, meter));
  ++plan_epoch_;  // residency changed: prepared routes are stale
  return Status::OK();
}

Status DualStore::EvictPartition(TermId predicate, CostMeter* meter) {
  DSKG_RETURN_NOT_OK(graph_.EvictPartition(predicate, meter));
  ++plan_epoch_;  // residency changed: prepared routes are stale
  return Status::OK();
}

Result<double> DualStore::GraphQueryCost(const Query& qc,
                                         CostMeter* meter) const {
  CostMeter local(&CostModel::Default(), config_.graph_throttle);
  DSKG_ASSIGN_OR_RETURN(graphstore::TraversalMatcher::Plan plan,
                        matcher_.Compile(qc));
  DSKG_ASSIGN_OR_RETURN(
      sparql::BindingTable ignored,
      matcher_.MatchSharded(plan, nullptr, &local, /*pool=*/nullptr,
                            /*max_shards=*/0));
  (void)ignored;
  meter->Merge(local);
  return local.sim_micros();
}

Result<double> DualStore::RelationalQueryCostWithCutoff(
    const Query& qc, double budget_micros, CostMeter* meter) const {
  CostMeter local;
  local.set_budget_micros(budget_micros);
  Result<sparql::BindingTable> r =
      executor_.ExecuteCompiled(executor_.Compile(qc), nullptr, nullptr,
                                &local);
  meter->Merge(local);
  if (!r.ok()) {
    if (r.status().IsCancelled()) return budget_micros;  // λ·c1 cutoff hit
    return r.status();
  }
  return local.sim_micros();
}

void DualStore::SetGraphThrottle(ResourceThrottle t) {
  config_.graph_throttle = t;
  processor_->set_graph_throttle(t);
}

void DualStore::SetExecutionPool(ThreadPool* pool) {
  processor_->set_exec_pool(pool);
}

}  // namespace dskg::core
