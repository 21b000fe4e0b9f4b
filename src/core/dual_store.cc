#include "core/dual_store.h"

#include <cassert>
#include <unordered_set>
#include <vector>

namespace dskg::core {

using rdf::TermId;
using rdf::Triple;
using sparql::Query;

DualStore::DualStore(rdf::Dataset* dataset, const DualStoreConfig& config)
    : DualStore(&dataset->mutable_dict(), config, RestoreTag{}) {
  CostMeter load_meter;
  dataset->ReleaseDuplicates(
      table_.BulkLoad(dataset->triples(), &load_meter, config.load_pool));
  load_micros_ = load_meter.sim_micros();
}

DualStore::DualStore(rdf::Dictionary* dict, const DualStoreConfig& config,
                     RestoreTag)
    : dict_(dict),
      config_(config),
      table_(config.num_shards),
      graph_(config.graph_capacity_triples, config.num_shards),
      executor_(&table_, dict),
      matcher_(&graph_, dict) {
  if (config.use_views) {
    views_ = std::make_unique<relstore::MaterializedViewManager>(
        &executor_, dict, config.views_budget_rows);
  }
  QueryProcessor::Config pc;
  pc.use_graph = config.use_graph;
  pc.use_views = config.use_views;
  pc.graph_throttle = config.graph_throttle;
  processor_ = std::make_unique<QueryProcessor>(
      &executor_, &graph_, &matcher_, views_.get(), dict, pc);
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
  CostMeter local;
  CostMeter* m = meter != nullptr ? meter : &local;
  std::vector<Triple> triples(batch.ops.size());
  std::vector<uint8_t> outcomes(batch.ops.size(), 0);
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const std::optional<Triple> t = ResolveOp(batch.ops[i]);
    if (!t) continue;
    triples[i] = *t;
    DSKG_ASSIGN_OR_RETURN(outcomes[i], ApplyOp(batch.ops[i].kind, *t, m));
  }
  return FoldOutcomes(batch, triples, outcomes);
}

std::optional<Triple> DualStore::ResolveOp(const UpdateOp& op) {
  if (op.kind == UpdateOp::Kind::kInsert) {
    return Triple{dict_->Intern(op.subject), dict_->Intern(op.predicate),
                  dict_->Intern(op.object)};
  }
  const Triple t{dict_->Lookup(op.subject), dict_->Lookup(op.predicate),
                 dict_->Lookup(op.object)};
  if (t.subject == rdf::kInvalidTermId || t.predicate == rdf::kInvalidTermId ||
      t.object == rdf::kInvalidTermId) {
    return std::nullopt;
  }
  return t;
}

Result<uint8_t> DualStore::ApplyOp(UpdateOp::Kind kind, const Triple& t,
                                   CostMeter* meter) {
  // `HasPredicate` follows this thread's installed snapshot.
  assert(graph_.InstalledSnapshot() == nullptr);
  const bool insert = kind == UpdateOp::Kind::kInsert;
  if (insert ? !table_.Insert(t, meter) : !table_.RemoveTriple(t, meter)) {
    return uint8_t{0};  // already stored / not stored: no-op
  }
  if (!graph_.HasPredicate(t.predicate)) return kOutcomeApplied;
  Status s = insert ? graph_.InsertTriple(t, meter)
                    : graph_.RemoveTriple(t, meter);
  if (insert && s.IsCapacityExceeded()) {
    // The graph copy no longer fits: drop the partition rather than serve
    // stale answers (the relational store stays authoritative).
    DSKG_RETURN_NOT_OK(graph_.EvictPartition(t.predicate, meter));
    return kOutcomeApplied;
  }
  DSKG_RETURN_NOT_OK(s);
  return uint8_t{kOutcomeApplied | kOutcomeGraphMaintained};
}

UpdateResult DualStore::FoldOutcomes(const UpdateBatch& batch,
                                     const std::vector<Triple>& triples,
                                     const std::vector<uint8_t>& outcomes) {
  UpdateResult res;
  std::unordered_set<TermId> touched_predicates;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if ((outcomes[i] & kOutcomeApplied) == 0) continue;
    if (batch.ops[i].kind == UpdateOp::Kind::kInsert) {
      dict_->Retain(triples[i]);
      ++res.inserted;
    } else {
      ++res.deleted;
    }
    touched_predicates.insert(triples[i].predicate);
    if ((outcomes[i] & kOutcomeGraphMaintained) != 0) ++res.graph_maintained;
  }
  // Invalidate views BEFORE releasing: a release may forget a term, and a
  // predicate whose last triple died this batch must still resolve while
  // the catalog is matched against `touched_predicates` (a stale view
  // would otherwise survive and keep serving the deleted rows). Releasing
  // last also keeps every id valid for the whole batch, so a delete plus
  // re-insert of one triple nets to zero.
  if (views_ != nullptr && !touched_predicates.empty()) {
    res.views_dropped = views_->InvalidatePredicates(touched_predicates);
  }
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if ((outcomes[i] & kOutcomeApplied) != 0 &&
        batch.ops[i].kind == UpdateOp::Kind::kDelete) {
      dict_->Release(triples[i]);
    }
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
