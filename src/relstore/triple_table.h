#ifndef DSKG_RELSTORE_TRIPLE_TABLE_H_
#define DSKG_RELSTORE_TRIPLE_TABLE_H_

/// \file triple_table.h
/// The relational store's base table: a triple table (the paper's
/// relation-based layout) with three covering B+-tree indexes.
///
/// The heap holds `(subject, predicate, object)` rows in insertion order.
/// Secondary indexes store the three permutations SPO, POS and OSP, which
/// together answer any bound/unbound combination of a triple pattern with
/// one index range scan — the plan MySQL would use for small selectivity.
/// Large-selectivity access degrades to full partition/table scans, which
/// is exactly the behaviour the paper's Table 1 attributes to MySQL.
///
/// Share-nothing sharding: the table is split into `num_shards` sub-shards
/// partitioned by `predicate % num_shards`. Each sub-shard owns its own
/// three permutation trees, row counter and statistics maps, so the online
/// store's per-shard apply tasks mutate disjoint state with no cross-shard
/// synchronization. With one shard (the default, and every
/// offline caller) the layout, operation order, statistics and simulated
/// charges are exactly the unsharded table's. Bound-predicate operations
/// touch one sub-shard; predicate-unbound scans visit sub-shards in index
/// order 0..N-1.
///
/// Snapshot reads: `MakeSnapshot` captures the tables's per-shard B+-tree
/// roots plus summary statistics. Installing it in a thread's `ReadScope`
/// makes every read method on that thread serve the captured state, which
/// combined with the trees' copy-on-write mode gives concurrent readers a
/// consistent, immutable view while the appliers mutate. Without a scope
/// (or under a scope owned by a different table) reads serve live state.
///
/// All access paths charge the `CostMeter` (see common/cost.h).

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/cost.h"
#include "common/status.h"
#include "rdf/triple.h"
#include "relstore/btree.h"

namespace dskg {
class ThreadPool;
}  // namespace dskg

namespace dskg::relstore {

/// A triple pattern with optional bound positions (ids from the shared
/// dictionary). Unbound positions are `std::nullopt`.
struct BoundPattern {
  std::optional<rdf::TermId> subject;
  std::optional<rdf::TermId> predicate;
  std::optional<rdf::TermId> object;
};

/// Per-predicate statistics used by the cardinality estimator.
struct PredicateTableStats {
  uint64_t num_triples = 0;
  uint64_t num_distinct_subjects = 0;
  uint64_t num_distinct_objects = 0;
};

/// Triple table + SPO/POS/OSP B+-tree indexes + statistics, split into
/// share-nothing predicate sub-shards.
class TripleTable {
 public:
  explicit TripleTable(int num_shards = 1)
      : shards_(static_cast<size_t>(num_shards < 1 ? 1 : num_shards)) {}

  TripleTable(const TripleTable&) = delete;
  TripleTable& operator=(const TripleTable&) = delete;

  /// Number of share-nothing predicate sub-shards.
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The sub-shard owning `predicate`'s rows.
  int ShardOf(rdf::TermId predicate) const {
    return static_cast<int>(predicate % shards_.size());
  }

  /// Pre-sizes the index node pools for `num_triples` keys total — the
  /// bulk-load path reserves once instead of growing the slabs
  /// incrementally. An allocation hint only; never shrinks.
  void Reserve(uint64_t num_triples) {
    const uint64_t per_shard = num_triples / shards_.size();
    for (SubShard& s : shards_) {
      s.spo.Reserve(per_shard);
      s.pos.Reserve(per_shard);
      s.osp.Reserve(per_shard);
    }
  }

  /// Inserts one triple, maintaining all indexes and statistics.
  /// Duplicate triples are ignored (set semantics, as in an SPO-keyed
  /// table). Charges one `kInsertTuple` when inserted.
  /// Returns true if the triple was new. Touches only the predicate's
  /// sub-shard — safe to call concurrently for triples of *different*
  /// sub-shards.
  bool Insert(const rdf::Triple& t, CostMeter* meter);

  /// Bulk-loads a batch of triples (charges per-tuple insert costs).
  /// Into an empty table this is the packed fresh-load path: each
  /// permutation index is built bottom-up at full leaf occupancy
  /// (`BPlusTree::BulkBuild`), roughly halving index slab bytes versus
  /// one-by-one insertion; rows, statistics and simulated charges are
  /// identical either way. Into a non-empty table it degrades to
  /// per-triple inserts.
  ///
  /// Returns the occurrences it did not store, one entry per duplicate
  /// of a triple already stored or loaded earlier (set semantics). The
  /// fresh path collects them while it collapses its sorted keys.
  ///
  /// With a `pool`, the fresh path parallelizes key encoding and the
  /// independent per-sub-shard jobs (each permutation's sort + BulkBuild,
  /// the statistics pass). Every job writes disjoint state and the meter
  /// accumulates in exact integer picoseconds, so the loaded table, its
  /// statistics, and every charge component are bit-identical to the
  /// serial load at every thread count.
  std::vector<rdf::Triple> BulkLoad(const std::vector<rdf::Triple>& triples,
                                    CostMeter* meter,
                                    ThreadPool* pool = nullptr);

  /// Bytes of the B+-tree node slabs (SPO + POS + OSP, all sub-shards,
  /// including pending-reclaim bookkeeping). Deterministic for a given
  /// operation sequence — the bench baselines track this as part of
  /// bytes/triple.
  uint64_t IndexBytes() const {
    uint64_t total = 0;
    for (const SubShard& s : shards_) {
      total += s.spo.MemoryBytes() + s.pos.MemoryBytes() + s.osp.MemoryBytes();
    }
    return total;
  }

  /// Live B+-tree nodes across all indexes (footprint diagnostics).
  uint64_t IndexNodes() const {
    uint64_t total = 0;
    for (const SubShard& s : shards_) {
      total += s.spo.live_nodes() + s.pos.live_nodes() + s.osp.live_nodes();
    }
    return total;
  }

  /// Copy-on-write nodes retired by past batches and not yet reclaimed
  /// (zero offline).
  uint64_t PendingNodes() const {
    uint64_t total = 0;
    for (const SubShard& s : shards_) {
      total += s.spo.pending_nodes() + s.pos.pending_nodes() +
               s.osp.pending_nodes();
    }
    return total;
  }

  /// One sub-shard's retired-but-undrained copy-on-write nodes (its
  /// applier's view of `PendingNodes`).
  uint64_t PendingNodesOf(int sub_shard) const {
    const SubShard& s = shards_[static_cast<size_t>(sub_shard)];
    return s.spo.pending_nodes() + s.pos.pending_nodes() +
           s.osp.pending_nodes();
  }

  /// Lifetime copy-on-write clones across one sub-shard's three index
  /// trees (monotone; per-batch churn is a delta of two reads). Read it
  /// from the task applying the sub-shard or while quiescent.
  uint64_t CowClonesOf(int sub_shard) const {
    const SubShard& s = shards_[static_cast<size_t>(sub_shard)];
    return s.spo.cow_clones() + s.pos.cow_clones() + s.osp.cow_clones();
  }

  /// Removes one triple, maintaining all three indexes and the statistics
  /// (distinct subject/object counts decay exactly — the stats keep
  /// per-term occurrence counts, not just sets). Charges one
  /// `kRemoveTuple` when the triple was present. Returns true if removed.
  /// Sub-shard-local, like `Insert`.
  bool RemoveTriple(const rdf::Triple& t, CostMeter* meter);

  /// True if the exact triple is stored. Charges one index probe.
  bool Contains(const rdf::Triple& t, CostMeter* meter) const;

  /// Streams every triple matching `pattern` to `fn` using the cheapest
  /// access path. Charges probe/scan costs. Stops early (returning
  /// Cancelled) if the meter's budget is exceeded; stops cleanly if `fn`
  /// returns false. Predicate-unbound patterns visit sub-shards in order
  /// (one descent charged per sub-shard for index scans).
  Status ScanPattern(const BoundPattern& pattern, CostMeter* meter,
                     const std::function<bool(const rdf::Triple&)>& fn) const;

  /// Estimated number of triples matching `pattern` (no cost charged;
  /// estimation is a catalog lookup).
  uint64_t EstimateMatches(const BoundPattern& pattern) const;

  /// Statistics of one predicate's partition (zeros if absent).
  PredicateTableStats StatsOf(rdf::TermId predicate) const;

  /// Predicates present in the table, unordered.
  std::vector<rdf::TermId> Predicates() const;

  uint64_t size() const;
  uint64_t num_predicates() const;

  /// Distinct subjects / objects across the whole table (with more than
  /// one sub-shard these sum per-shard distinct counts, so a term used by
  /// several sub-shards counts once per shard — an estimator input, not
  /// an exact cardinality).
  uint64_t SubjectCount() const;
  uint64_t ObjectCount() const;

  // ---- snapshots (the online store's concurrent read path) --------------

  /// An immutable view of the table: per-sub-shard B+-tree roots plus
  /// summary statistics, valid until the copy-on-write nodes it pins are
  /// reclaimed (the epoch protocol's job). Capture at a write-quiescent
  /// point; read through `ReadScope`.
  struct Snapshot {
    struct ShardView {
      uint32_t spo_root = 0;
      uint32_t pos_root = 0;
      uint32_t osp_root = 0;
    };
    const TripleTable* owner = nullptr;
    std::vector<ShardView> shards;
    /// Per-predicate summary stats, sorted by predicate id.
    std::vector<std::pair<rdf::TermId, PredicateTableStats>> stats;
    uint64_t num_rows = 0;
    uint64_t subject_count = 0;
    uint64_t object_count = 0;
  };

  /// Captures the current state. Quiescent only (no concurrent writers).
  Snapshot MakeSnapshot() const;

  /// Installs `snap` as this thread's read source for the owning table —
  /// every read method called on this thread serves the captured state
  /// until the scope dies (scopes nest; the previous source is restored).
  /// A null snapshot, or one owned by another table, leaves reads live.
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

  // ---- copy-on-write control (the online store's write path) ------------

  /// Switches every index tree between in-place (offline, default) and
  /// copy-on-write mutation. Toggle only while quiescent.
  void SetCopyOnWrite(bool on) {
    for (SubShard& s : shards_) {
      s.spo.SetCopyOnWrite(on);
      s.pos.SetCopyOnWrite(on);
      s.osp.SetCopyOnWrite(on);
    }
  }

  /// Starts a copy-on-write batch on one sub-shard's trees (called by
  /// that sub-shard's applier; shard-local).
  void BeginShardBatch(int sub_shard) {
    SubShard& s = shards_[static_cast<size_t>(sub_shard)];
    s.spo.BeginCowBatch();
    s.pos.BeginCowBatch();
    s.osp.BeginCowBatch();
  }

  /// Returns one sub-shard's drained copy-on-write nodes to the free
  /// lists. Call after the epoch protocol proves no reader still holds a
  /// root that references them.
  size_t ReclaimShard(int sub_shard) {
    SubShard& s = shards_[static_cast<size_t>(sub_shard)];
    return s.spo.ReclaimRetired() + s.pos.ReclaimRetired() +
           s.osp.ReclaimRetired();
  }

  // ---- persistence (the snapshot tier) ----------------------------------

  /// Appends every sub-shard — the three permutation trees (slab images,
  /// see `BPlusTree::SerializeTo`), row count and statistics — to `out`.
  /// Unordered statistics maps are written sorted by term id so the
  /// encoding is deterministic. Requires quiescence: no pending-reclaim
  /// copy-on-write nodes in any tree.
  Status SerializeTo(std::string* out) const;

  /// Restores a `SerializeTo` image into this (freshly constructed)
  /// table. The shard count must match the image's — row placement is
  /// `predicate % num_shards`. Trees come back in offline mode; the
  /// restore path flips copy-on-write on afterwards.
  Status DeserializeFrom(ByteReader* in);

 private:
  // Index key: a triple permuted into the index's component order.
  using Key = std::array<rdf::TermId, 3>;

  enum class Order { kSPO, kPOS, kOSP };

  static Key MakeKey(Order order, const rdf::Triple& t);
  static rdf::Triple KeyToTriple(Order order, const Key& k);

  /// Chooses the index order and the number of leading bound components
  /// for `pattern`. Returns nullopt if nothing is bound (full scan).
  static std::optional<std::pair<Order, int>> ChooseIndex(
      const BoundPattern& pattern);

  /// `ScanPattern`'s scan loop: walks keys of one sub-shard's index from
  /// the first >= `lo` while the `prefix_len`-component prefix matches
  /// `lo`, charging `tuple_op` per key (plus one `kIndexProbe` when
  /// `charge_probe`). Sets `*stopped` when `fn` returned false (so
  /// multi-shard loops stop cleanly too).
  Status RangeScan(int sub_shard, Order order, const Key& lo, int prefix_len,
                   bool charge_probe, Op tuple_op,
                   const BoundPattern& pattern, CostMeter* meter,
                   const std::function<bool(const rdf::Triple&)>& fn,
                   bool* stopped) const;

  static bool Matches(const BoundPattern& p, const rdf::Triple& t) {
    return (!p.subject || *p.subject == t.subject) &&
           (!p.predicate || *p.predicate == t.predicate) &&
           (!p.object || *p.object == t.object);
  }

  /// Occurrence-counted term sets: `map[id]` is the number of stored
  /// triples using `id` in that position, so deletions can retire a term
  /// exactly when its last occurrence goes (a plain set cannot shrink).
  using TermCounts = std::unordered_map<rdf::TermId, uint64_t>;

  static void CountUp(TermCounts* counts, rdf::TermId id) { ++(*counts)[id]; }
  static void CountDown(TermCounts* counts, rdf::TermId id) {
    auto it = counts->find(id);
    if (it == counts->end()) return;
    if (--it->second == 0) counts->erase(it);
  }

  struct MutableStats {
    uint64_t num_triples = 0;
    TermCounts subjects;
    TermCounts objects;
  };

  /// One share-nothing predicate sub-shard: indexes + row count + stats.
  /// Mutated only by its owning applier (or the single offline writer).
  struct SubShard {
    BPlusTree<Key> spo;
    BPlusTree<Key> pos;
    BPlusTree<Key> osp;
    uint64_t num_rows = 0;
    std::unordered_map<rdf::TermId, MutableStats> stats;
    TermCounts all_subjects;
    TermCounts all_objects;

    BPlusTree<Key>& Index(Order order) {
      switch (order) {
        case Order::kSPO: return spo;
        case Order::kPOS: return pos;
        case Order::kOSP: return osp;
      }
      return spo;
    }
    const BPlusTree<Key>& Index(Order order) const {
      return const_cast<SubShard*>(this)->Index(order);
    }
  };

  /// This thread's installed snapshot if it belongs to this table.
  const Snapshot* CurrentSnapshot() const {
    const Snapshot* s = tls_snapshot_;
    return (s != nullptr && s->owner == this) ? s : nullptr;
  }

  /// Root to traverse for one sub-shard's index: the installed snapshot's
  /// published root, or the live root.
  uint32_t RootFor(const Snapshot* snap, int sub_shard, Order order) const {
    if (snap != nullptr) {
      const Snapshot::ShardView& v =
          snap->shards[static_cast<size_t>(sub_shard)];
      switch (order) {
        case Order::kSPO: return v.spo_root;
        case Order::kPOS: return v.pos_root;
        case Order::kOSP: return v.osp_root;
      }
    }
    return shards_[static_cast<size_t>(sub_shard)].Index(order).root();
  }

  std::vector<SubShard> shards_;

  inline static thread_local const Snapshot* tls_snapshot_ = nullptr;
};

}  // namespace dskg::relstore

#endif  // DSKG_RELSTORE_TRIPLE_TABLE_H_
