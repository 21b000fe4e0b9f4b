#ifndef DSKG_CORE_SESSION_H_
#define DSKG_CORE_SESSION_H_

/// \file session.h
/// The library's public query API: a session façade with prepared
/// queries, `$parameter` binding, and streaming result cursors.
///
/// Lifecycle:
///
///   core::Session session(&store);
///   auto prepared = session.Prepare(
///       "SELECT ?p WHERE { ?p y:wasBornIn $city . "
///       "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn $city . }");
///   prepared->Bind("city", "y:city_42");
///   auto exec = prepared->ExecuteAll();              // materialized
///   auto cursor = prepared->OpenCursor();            // or streamed
///   sparql::BindingTable chunk;
///   bool done = false;
///   while (cursor->Next(&chunk, 1024, &done).ok() && !done) Consume(chunk);
///
/// `Prepare` parses the text **once** and caches it by exact text, so
/// preparing the same text again is a hash lookup. The first execution
/// plans it (identifies the complex subquery, selects the route and
/// slot-compiles), and every later execution reuses that plan while the
/// store's plan epoch stands. `Bind` resolves a parameter to a
/// dictionary id (one probe); re-executing with new bindings never
/// re-parses, re-routes or re-encodes.
///
/// `Session::Execute(text)` is the one-shot form of the same path
/// (`Prepare` + `ExecuteAll`) for a query without parameters.
///
/// Snapshots and invalidation: every execution runs against one
/// consistent snapshot — over an `OnlineStore` each execution (and each
/// cursor, for its whole lifetime) pins the snapshot that was active when
/// it started, so concurrent `ApplyUpdates` never tear a result. A pin
/// also holds back the writer: `OnlineStore::ApplyUpdates` returns only
/// once every pin older than its publish is released, so an open cursor
/// stalls the next batch until the cursor is destroyed. Plans
/// carry the store's `plan_epoch()`; when updates or re-tuning move it
/// (graph residency, view catalog, dictionary contents), the next
/// execution transparently re-prepares against the pinned snapshot and
/// re-resolves its bindings — a stale plan is never executed. Epochs
/// only grow, so a fresh plan replaces the cached one only when it is
/// newer: a reader still pinned at an older epoch plans and runs its own
/// plan without evicting the newer one.
///
/// Error handling at the API boundary is uniform `Status`/`Result`:
/// parse failures surface from `Prepare` (ParseError), planning failures
/// from the first `ExecuteAll`/`OpenCursor`, unknown terms from `Bind`
/// (NotFound), unknown parameter names from `Bind` (InvalidArgument), and
/// executing with unbound parameters fails (FailedPrecondition) — no path
/// silently yields an empty table.
///
/// Threading: `Session` itself is thread-safe — the plan cache is
/// shared under a mutex taken per `Prepare`, stats counters are atomics,
/// and concurrent executions only touch a per-entry mutex for a pointer
/// compare/swap before running lock-free. A `PreparedQuery` or `Cursor`
/// instance is a single-thread object — create one per worker (they
/// share the cached plan, so this is cheap).
///
/// Cache bound: the plan cache holds at most `plan_cache_capacity`
/// entries (default `kDefaultPlanCacheCapacity`; 0 = unbounded). When a
/// `Prepare` of a new text overflows it, the least-recently-*prepared*
/// text is evicted (`stats().evictions`). Outstanding `PreparedQuery`
/// handles keep their entry alive through their shared pointer and keep
/// working; re-preparing an evicted text is a fresh parse.

#include <atomic>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/dual_store.h"
#include "core/online_store.h"
#include "core/query_processor.h"
#include "rdf/triple.h"
#include "sparql/ast.h"
#include "sparql/bindings.h"

namespace dskg::core {

class Session;

namespace session_internal {

/// One cached prepared query: the store-independent parse result plus the
/// epoch-stamped plan, refreshed in place when the store's physical state
/// moves. Shared by every `PreparedQuery` handle for the same text.
struct CacheEntry {
  std::string text;
  sparql::Query query;               // parsed once, may contain $params
  std::vector<std::string> params;   // distinct $param names

  std::mutex mu;                     // guards `plan`
  std::shared_ptr<const PreparedPlan> plan;  // null until first execution

  /// Caches `fresh` unless the cached plan is at least as new. Epochs
  /// only grow, so a reader pinned at an older epoch runs its own plan
  /// without replacing a newer reader's.
  void InstallIfNewer(std::shared_ptr<const PreparedPlan> fresh);
};

/// A plan-cache slot: the shared entry plus its position in the session's
/// least-recently-prepared list (most recent at the front).
struct CacheSlot {
  std::shared_ptr<CacheEntry> entry;
  std::list<std::string>::iterator lru_it;
};

/// An epoch-pinned view of the session's store: for an `OnlineStore` the
/// guard keeps the published snapshot immutable and `view` points at it
/// (executions install it as the thread's read source); for a plain
/// `DualStore` it is just the store pointer and reads serve live state.
struct Snapshot {
  const DualStore* store = nullptr;
  const DualStore::Snapshot* view = nullptr;
  std::optional<OnlineStore::ReadGuard> guard;
};

}  // namespace session_internal

/// A streaming result handle: pull-based chunks over one consistent
/// snapshot of the store, pinned for the cursor's whole lifetime.
///
/// Over an `OnlineStore` the pin is a `ReadGuard` held until the cursor
/// is destroyed — draining it does not release it. Until then the next
/// `OnlineStore::ApplyUpdates` cannot finish reclaiming and does not
/// return, so destroy a cursor as soon as it is no longer read.
class Cursor {
 public:
  /// Replaces `*chunk` with the next `max_rows` (or fewer) rows; `*done`
  /// turns true once the result set is exhausted. Graph-route cursors
  /// traverse incrementally — abandoning the cursor early really does
  /// skip the remaining work. Each pull re-installs the cursor's pinned
  /// snapshot, so the traversal keeps reading the state it started on no
  /// matter how many batches publish in between.
  Status Next(sparql::BindingTable* chunk, size_t max_rows, bool* done);

  /// Pulls everything that remains into one table (chunked internally).
  Result<sparql::BindingTable> DrainAll(size_t chunk_rows = 4096);

  const std::vector<std::string>& columns() const { return impl_.columns(); }
  Route route() const { return impl_.route(); }

  /// Route, bound split and cost breakdown accrued so far; after a full
  /// drain the totals equal `ExecuteAll`'s for the same bindings.
  QueryExecution Execution() const { return impl_.Execution(); }

 private:
  friend class PreparedQuery;
  Cursor() = default;

  std::shared_ptr<const PreparedPlan> plan_;       // keeps the plan alive
  std::optional<OnlineStore::ReadGuard> pin_;      // keeps the snapshot alive
  const DualStore::Snapshot* view_ = nullptr;      // pinned snapshot (or null)
  ExecutionCursor impl_;
};

/// A handle to a cached prepared query plus this handle's parameter
/// bindings. Copyable (copies share the plan, not the bindings); cheap to
/// create per worker thread.
class PreparedQuery {
 public:
  const std::string& text() const { return entry_->text; }

  /// Distinct `$parameter` names, in first-appearance order.
  const std::vector<std::string>& parameters() const {
    return entry_->params;
  }

  /// Binds `$param` to the term with text `term`. InvalidArgument when no
  /// such parameter exists; NotFound when the term is not in the
  /// dictionary (nothing could ever match — surfaced instead of silently
  /// returning empty results).
  Status Bind(std::string_view param, std::string_view term);

  /// Executes with the current bindings and materializes the full result
  /// — semantics, rows and simulated cost charges identical to
  /// `Session::Execute` on the equivalent bound query text.
  /// FailedPrecondition if any parameter is unbound.
  Result<QueryExecution> ExecuteAll();

  /// Executes with the current bindings, streaming: returns a cursor over
  /// an epoch-pinned snapshot. The relational pipeline's join
  /// intermediates still materialize (that is the row-store semantics the
  /// cost model charges), but the projected result is emitted chunk by
  /// chunk, and pure graph-store routes stream straight out of the
  /// resumable traversal. Over an `OnlineStore` the returned cursor
  /// blocks the next `ApplyUpdates` until it is destroyed (see `Cursor`).
  Result<Cursor> OpenCursor();

 private:
  friend class Session;
  PreparedQuery(Session* session,
                std::shared_ptr<session_internal::CacheEntry> entry);

  struct Binding {
    bool bound = false;
    std::string term;                       // bound term text
    rdf::TermId id = rdf::kInvalidTermId;   // resolved id
    uint64_t epoch = 0;                     // plan_epoch at resolve time
  };

  /// Re-validates the plan and the bound ids against `snap`, returning
  /// the per-plan-parameter value array (empty when no parameters).
  Result<std::vector<rdf::TermId>> ResolveForExecution(
      const session_internal::Snapshot& snap,
      std::shared_ptr<const PreparedPlan>* plan);

  Session* session_;
  std::shared_ptr<session_internal::CacheEntry> entry_;
  std::vector<Binding> bindings_;  // aligned with entry_->params
};

/// The session façade over a `DualStore` or an `OnlineStore`.
class Session {
 public:
  /// Default bound on cached plans. Generous for any workload's template
  /// catalog while capping an adversarial stream of distinct texts.
  static constexpr size_t kDefaultPlanCacheCapacity = 256;

  /// Neither store nor pool is owned; both must outlive the session.
  /// `pool` (optional) serves `SubmitAsync`.
  explicit Session(DualStore* store, ThreadPool* pool = nullptr)
      : dual_(store), pool_(pool) {}
  explicit Session(OnlineStore* store, ThreadPool* pool = nullptr)
      : online_(store), pool_(pool) {}

  /// Rebounds the plan cache to at most `capacity` entries (0 =
  /// unbounded), evicting least-recently-prepared entries immediately if
  /// the cache is over the new bound.
  void SetPlanCacheCapacity(size_t capacity);

  /// Cached plans currently held.
  size_t plan_cache_size() const;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses `text` once; cached by exact text. Parse failures surface
  /// here as `Status`. Planning waits for the first execution, so its
  /// failures surface from `ExecuteAll` / `OpenCursor`.
  Result<PreparedQuery> Prepare(std::string_view text);

  /// One-shot form: `Prepare` (cache-backed) + `ExecuteAll`, the same
  /// `DualStore::Prepare` + `ExecutePlan` pair every execution runs.
  /// Parameterized texts fail with FailedPrecondition — bind them through
  /// a `PreparedQuery` instead.
  Result<QueryExecution> Execute(std::string_view text);

  /// Schedules `Execute(text)` on the session's thread pool and returns
  /// its future. Falls back to inline execution (an already-resolved
  /// future) when the session has no pool.
  std::future<Result<QueryExecution>> SubmitAsync(std::string_view text);

  /// Schedules `prepared.ExecuteAll()` with its current bindings. The
  /// handle is copied into the task, so the caller may rebind and submit
  /// again immediately.
  std::future<Result<QueryExecution>> SubmitAsync(PreparedQuery prepared);

  /// This session's own counts. Each event also adds to the process-wide
  /// `session.*` counter of the same name, which sums every session.
  struct Stats {
    uint64_t prepares = 0;     ///< cache misses: texts parsed
    uint64_t cache_hits = 0;   ///< Prepare served from the cache
    uint64_t executions = 0;   ///< ExecuteAll / cursor opens
    uint64_t replans = 0;      ///< plans re-validated after an epoch move
    uint64_t evictions = 0;    ///< entries dropped by the LRU bound
  };
  Stats stats() const;

 private:
  friend class PreparedQuery;

  /// Pins the current snapshot (wait-free over an OnlineStore).
  session_internal::Snapshot Pin() const;

  /// The plan to run against `store`: the entry's cached plan when its
  /// epoch matches, else a freshly prepared one, which the entry caches
  /// only if it is newer. Every fresh plan is timed into
  /// `session.plan_us`.
  Result<std::shared_ptr<const PreparedPlan>> PlanFor(
      session_internal::CacheEntry* entry, const DualStore& store);

  DualStore* dual_ = nullptr;
  OnlineStore* online_ = nullptr;
  ThreadPool* pool_ = nullptr;

  /// Evicts least-recently-prepared entries until the cache fits the
  /// capacity. Caller holds `cache_mu_`.
  void EvictOverflowLocked();

  mutable std::mutex cache_mu_;
  std::unordered_map<std::string, session_internal::CacheSlot> cache_;
  /// Texts ordered by last `Prepare`, most recent first. Guarded by
  /// `cache_mu_`.
  std::list<std::string> lru_;
  size_t plan_cache_capacity_ = kDefaultPlanCacheCapacity;

  /// The counts behind `stats()`: lock-free (executions must not
  /// serialize on a stats mutex) and unconditional, so `stats()` keeps
  /// its meaning whether telemetry is enabled or not.
  struct Counts {
    Counts();  // resolves the global `session.*` counters
    telemetry::LocalCount prepares, cache_hits, executions, replans,
        evictions;
  };
  Counts counts_;
};

}  // namespace dskg::core

#endif  // DSKG_CORE_SESSION_H_
