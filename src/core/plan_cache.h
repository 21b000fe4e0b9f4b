#ifndef DSKG_CORE_PLAN_CACHE_H_
#define DSKG_CORE_PLAN_CACHE_H_

/// \file plan_cache.h
/// The cross-session shared plan cache: one compiled plan per
/// `(query text, plan_epoch)` for *all* tenants of a store.
///
/// A `core::Session` caches plans per session, so two tenants preparing
/// the same template each pay a full parse + route + slot compilation.
/// With thousands of connections running a catalog of a few dozen
/// templates that is pure waste: the plan depends only on the query text
/// and the store's physical state (versioned by `DualStore::
/// plan_epoch()`), never on who asked. `SharedPlanCache` hoists the
/// cache one level up:
///
///   * `GetOrPrepare(text, store)` returns the plan for
///     `(text, store.plan_epoch())`, parsing and preparing at most once
///     per key no matter how many sessions/connections race on it.
///   * Parses are cached separately per text, so an epoch move (an
///     `ApplyUpdates`, a tuning window) re-plans without re-parsing.
///   * Epochs are monotone, so a newer epoch's plan simply replaces the
///     stale one (`stats().invalidations`) — a stale entry is never
///     returned, callers transparently re-prepare.
///   * Texts are LRU-bounded (`capacity`, 0 = unbounded); plans held by
///     callers stay alive through their shared_ptr after eviction.
///
/// The server tier uses it directly (its per-connection statements are
/// plain text + bindings, the plans all live here); a `core::Session`
/// keeps its own per-session cache. Thread-safe; the map lock is
/// never held across a parse or prepare, so a slow compilation of one
/// text does not serialize lookups of another. Losing a prepare race
/// costs one redundant compilation; the first-installed plan wins and
/// both callers get a valid plan for their epoch.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/status.h"
#include "common/telemetry.h"
#include "core/dual_store.h"
#include "core/query_processor.h"
#include "sparql/ast.h"

namespace dskg::core {

/// A process-wide (or per-store) plan cache shared by any number of
/// sessions and server connections.
class SharedPlanCache {
 public:
  /// Default bound on cached texts. Sized for a production template
  /// catalog; an adversarial stream of distinct texts evicts LRU.
  static constexpr size_t kDefaultCapacity = 512;

  explicit SharedPlanCache(size_t capacity = kDefaultCapacity);

  SharedPlanCache(const SharedPlanCache&) = delete;
  SharedPlanCache& operator=(const SharedPlanCache&) = delete;

  /// The plan for `(text, store.plan_epoch())`. On a hit this is a map
  /// lookup; on a miss the text is parsed (unless `parsed` supplies the
  /// caller's parse, or a previous epoch's parse is cached) and prepared
  /// against `store`, and the result is installed for every other
  /// caller. Under an installed `DualStore::SnapshotScope` both the
  /// epoch and the prepared plan read the pinned snapshot.
  Result<std::shared_ptr<const PreparedPlan>> GetOrPrepare(
      std::string_view text, const DualStore& store,
      const sparql::Query* parsed = nullptr);

  /// Monotone counters since construction.
  struct Stats {
    uint64_t hits = 0;           ///< plan served from the cache
    uint64_t misses = 0;         ///< full prepare (new text or new epoch)
    uint64_t parses = 0;         ///< texts parsed (<= misses)
    uint64_t invalidations = 0;  ///< stale-epoch plans replaced
    uint64_t evictions = 0;      ///< texts dropped by the LRU bound
  };
  Stats stats() const;

  /// Distinct texts currently cached.
  size_t size() const;

  /// Rebounds the cache (0 = unbounded), evicting immediately if over.
  void set_capacity(size_t capacity);

  /// Drops every cached parse and plan.
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const sparql::Query> parsed;  // survives epoch moves
    uint64_t epoch = 0;
    std::shared_ptr<const PreparedPlan> plan;  // null until first prepare
    std::list<std::string>::iterator lru_it;
  };

  /// Caller holds `mu_`.
  void EvictOverflowLocked();

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  /// Texts, most recently used first. Guarded by `mu_`.
  std::list<std::string> lru_;
  size_t capacity_;

  /// Dedicated cells in the global `plan_cache.shared.*` counters: exact
  /// per-cache stats that also roll up into the process-wide totals.
  telemetry::Counter::Cell* hits_;
  telemetry::Counter::Cell* misses_;
  telemetry::Counter::Cell* parses_;
  telemetry::Counter::Cell* invalidations_;
  telemetry::Counter::Cell* evictions_;
};

}  // namespace dskg::core

#endif  // DSKG_CORE_PLAN_CACHE_H_
