#include "core/session.h"

#include <utility>

#include "sparql/parser.h"

namespace dskg::core {

using session_internal::CacheEntry;
using session_internal::Snapshot;

namespace {

// Session-layer metrics, resolved once against the global registry (the
// lookup takes a lock; the pointers are stable).
struct SessionMetrics {
  telemetry::Histogram* prepare_us;
  telemetry::Histogram* plan_us;
  telemetry::Histogram* bind_us;
  telemetry::Histogram* execute_us;
  telemetry::Histogram* cursor_next_us;
  telemetry::Counter* prepares;
  telemetry::Counter* cache_hits;
  telemetry::Counter* executions;
  telemetry::Counter* replans;
  telemetry::Counter* evictions;
};

const SessionMetrics& Metrics() {
  static const SessionMetrics m = [] {
    auto& reg = telemetry::MetricsRegistry::Global();
    return SessionMetrics{reg.histogram("session.prepare_us"),
                          reg.histogram("session.plan_us"),
                          reg.histogram("session.bind_us"),
                          reg.histogram("session.execute_us"),
                          reg.histogram("session.cursor_next_us"),
                          reg.counter("session.prepares"),
                          reg.counter("session.cache_hits"),
                          reg.counter("session.executions"),
                          reg.counter("session.replans"),
                          reg.counter("session.evictions")};
  }();
  return m;
}

}  // namespace

Session::Counts::Counts()
    : prepares(Metrics().prepares),
      cache_hits(Metrics().cache_hits),
      executions(Metrics().executions),
      replans(Metrics().replans),
      evictions(Metrics().evictions) {}

void session_internal::CacheEntry::InstallIfNewer(
    std::shared_ptr<const PreparedPlan> fresh) {
  std::lock_guard<std::mutex> lock(mu);
  if (plan == nullptr || plan->plan_epoch < fresh->plan_epoch) {
    plan = std::move(fresh);
  }
}

// ---- Cursor -----------------------------------------------------------------

Status Cursor::Next(sparql::BindingTable* chunk, size_t max_rows,
                    bool* done) {
  telemetry::TraceScope span(Metrics().cursor_next_us, "session.cursor_next");
  DualStore::SnapshotScope scope(view_);
  return impl_.Next(chunk, max_rows, done);
}

Result<sparql::BindingTable> Cursor::DrainAll(size_t chunk_rows) {
  sparql::BindingTable all;
  all.columns = columns();
  sparql::BindingTable chunk;
  bool done = false;
  while (!done) {
    DSKG_RETURN_NOT_OK(Next(&chunk, chunk_rows, &done));
    all.AppendRowsFrom(chunk);
  }
  return all;
}

// ---- PreparedQuery ----------------------------------------------------------

PreparedQuery::PreparedQuery(Session* session,
                             std::shared_ptr<CacheEntry> entry)
    : session_(session), entry_(std::move(entry)),
      bindings_(entry_->params.size()) {}

Status PreparedQuery::Bind(std::string_view param, std::string_view term) {
  telemetry::TraceScope span(Metrics().bind_us, "session.bind");
  size_t idx = entry_->params.size();
  for (size_t i = 0; i < entry_->params.size(); ++i) {
    if (entry_->params[i] == param) {
      idx = i;
      break;
    }
  }
  if (idx == entry_->params.size()) {
    return Status::InvalidArgument(
        "no parameter $" + std::string(param) + " in query \"" +
        entry_->text + "\"");
  }
  const Snapshot snap = session_->Pin();
  DualStore::SnapshotScope scope(snap.view);
  const rdf::TermId id = snap.store->dict().Lookup(term);
  if (id == rdf::kInvalidTermId) {
    return Status::NotFound("term " + std::string(term) +
                            " is not in the dictionary; binding it to $" +
                            std::string(param) + " could never match");
  }
  bindings_[idx] = {true, std::string(term), id, snap.store->plan_epoch()};
  return Status::OK();
}

Result<std::vector<rdf::TermId>> PreparedQuery::ResolveForExecution(
    const Snapshot& snap, std::shared_ptr<const PreparedPlan>* plan) {
  DSKG_ASSIGN_OR_RETURN(*plan, session_->PlanFor(entry_.get(), *snap.store));
  const uint64_t epoch = (*plan)->plan_epoch;
  std::vector<rdf::TermId> values;
  values.reserve(bindings_.size());
  for (size_t i = 0; i < bindings_.size(); ++i) {
    Binding& b = bindings_[i];
    if (!b.bound) {
      return Status::FailedPrecondition(
          "parameter $" + entry_->params[i] + " is unbound in query \"" +
          entry_->text + "\"");
    }
    if (b.epoch != epoch) {
      // The dictionary may have changed (ids are recycled
      // deterministically): re-resolve the bound text against the pinned
      // snapshot rather than trusting a possibly re-assigned id.
      b.id = snap.store->dict().Lookup(b.term);
      b.epoch = epoch;
      if (b.id == rdf::kInvalidTermId) {
        return Status::NotFound("bound term " + b.term +
                                " is no longer in the dictionary");
      }
    }
    values.push_back(b.id);
  }
  return values;
}

Result<QueryExecution> PreparedQuery::ExecuteAll() {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const double start_us = telem ? reg.NowMicros() : 0;
  Snapshot snap = session_->Pin();
  // Everything from plan validation to the last row reads the pinned
  // snapshot: over an OnlineStore the execution is wait-free against the
  // applier and never sees a half-applied batch.
  DualStore::SnapshotScope scope(snap.view);
  std::shared_ptr<const PreparedPlan> plan;
  DSKG_ASSIGN_OR_RETURN(std::vector<rdf::TermId> values,
                        ResolveForExecution(snap, &plan));
  Result<QueryExecution> result = snap.store->ExecutePlan(
      *plan, values.empty() ? nullptr : values.data());
  if (telem) {
    const double dur_us = reg.NowMicros() - start_us;
    Metrics().execute_us->Record(dur_us);
    if (reg.traces().enabled()) {
      reg.traces().Record("session.execute", start_us, dur_us);
    }
    if (result.ok() && reg.slow_queries().enabled()) {
      reg.slow_queries().MaybeRecord(entry_->text, RouteName(result->route),
                                     dur_us / 1000.0);
    }
  }
  return result;
}

Result<Cursor> PreparedQuery::OpenCursor() {
  Snapshot snap = session_->Pin();
  DualStore::SnapshotScope scope(snap.view);
  std::shared_ptr<const PreparedPlan> plan;
  DSKG_ASSIGN_OR_RETURN(std::vector<rdf::TermId> values,
                        ResolveForExecution(snap, &plan));
  Cursor cursor;
  DSKG_ASSIGN_OR_RETURN(
      cursor.impl_,
      snap.store->OpenCursor(*plan,
                             values.empty() ? nullptr : values.data()));
  cursor.plan_ = std::move(plan);
  // The cursor owns the snapshot pin from here: over an OnlineStore the
  // pinned snapshot stays immutable (and re-installed per Next) until
  // the cursor is destroyed.
  cursor.view_ = snap.view;
  cursor.pin_ = std::move(snap.guard);
  return cursor;
}

// ---- Session ----------------------------------------------------------------

Snapshot Session::Pin() const {
  Snapshot snap;
  if (online_ != nullptr) {
    snap.guard = online_->Read();
    snap.store = &snap.guard->store();
    snap.view = &snap.guard->snapshot();
  } else {
    snap.store = dual_;
  }
  return snap;
}

Result<PreparedQuery> Session::Prepare(std::string_view text) {
  telemetry::TraceScope span(Metrics().prepare_us, "session.prepare");
  std::shared_ptr<CacheEntry> entry;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(std::string(text));
    if (it != cache_.end()) {
      entry = it->second.entry;
      // Most-recently-prepared: move to the front of the LRU list.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    }
  }
  if (entry != nullptr) {
    counts_.cache_hits.Add();
    return PreparedQuery(this, std::move(entry));
  }

  DSKG_ASSIGN_OR_RETURN(sparql::Query query, sparql::Parser::Parse(text));
  entry = std::make_shared<CacheEntry>();
  entry->text = std::string(text);
  entry->query = std::move(query);
  entry->params = entry->query.Parameters();
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(entry->text);
    if (it != cache_.end()) {
      entry = it->second.entry;  // lost a race: share the winner's
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    } else {
      lru_.push_front(entry->text);
      cache_.emplace(entry->text,
                     session_internal::CacheSlot{entry, lru_.begin()});
      EvictOverflowLocked();
    }
  }
  counts_.prepares.Add();
  return PreparedQuery(this, std::move(entry));
}

void Session::EvictOverflowLocked() {
  if (plan_cache_capacity_ == 0) return;
  while (cache_.size() > plan_cache_capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    counts_.evictions.Add();
  }
}

void Session::SetPlanCacheCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  plan_cache_capacity_ = capacity;
  EvictOverflowLocked();
}

size_t Session::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

Result<std::shared_ptr<const PreparedPlan>> Session::PlanFor(
    CacheEntry* entry, const DualStore& store) {
  const uint64_t epoch = store.plan_epoch();
  bool replanned = false;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->plan != nullptr && entry->plan->plan_epoch == epoch) {
      counts_.executions.Add();
      return entry->plan;
    }
    replanned = entry->plan != nullptr;
  }
  // Planning proper, on first use of the text or after the epoch moved
  // (`Session::Prepare` only parses).
  telemetry::TraceScope span(Metrics().plan_us, "session.plan");
  DSKG_ASSIGN_OR_RETURN(PreparedPlan plan, store.Prepare(entry->query));
  auto fresh = std::make_shared<const PreparedPlan>(std::move(plan));
  entry->InstallIfNewer(fresh);
  counts_.executions.Add();
  if (replanned) counts_.replans.Add();
  return fresh;
}

Result<QueryExecution> Session::Execute(std::string_view text) {
  DSKG_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(text));
  return prepared.ExecuteAll();
}

std::future<Result<QueryExecution>> Session::SubmitAsync(
    std::string_view text) {
  std::string owned(text);
  if (pool_ == nullptr) {
    std::promise<Result<QueryExecution>> promise;
    promise.set_value(Execute(owned));
    return promise.get_future();
  }
  return pool_->Submit(
      [this, owned = std::move(owned)] { return Execute(owned); });
}

std::future<Result<QueryExecution>> Session::SubmitAsync(
    PreparedQuery prepared) {
  if (pool_ == nullptr) {
    std::promise<Result<QueryExecution>> promise;
    promise.set_value(prepared.ExecuteAll());
    return promise.get_future();
  }
  return pool_->Submit(
      [prepared = std::move(prepared)]() mutable {
        return prepared.ExecuteAll();
      });
}

Session::Stats Session::stats() const {
  Stats s;
  s.prepares = counts_.prepares.value();
  s.cache_hits = counts_.cache_hits.value();
  s.executions = counts_.executions.value();
  s.replans = counts_.replans.value();
  s.evictions = counts_.evictions.value();
  return s;
}

}  // namespace dskg::core
