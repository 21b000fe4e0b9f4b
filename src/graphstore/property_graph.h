#ifndef DSKG_GRAPHSTORE_PROPERTY_GRAPH_H_
#define DSKG_GRAPHSTORE_PROPERTY_GRAPH_H_

/// \file property_graph.h
/// The native graph store: an index-free-adjacency property graph holding
/// a *subset* of the knowledge graph's predicate partitions.
///
/// Vertices are dictionary term ids; edges are labelled with predicate
/// ids. Each loaded partition keeps one adjacency per direction (vertex ->
/// sorted neighbour list), so a traversal step from a bound vertex costs
/// a directory index, a bitmap test and a popcount, then a walk over that
/// vertex's list — the index-free adjacency property the paper leans on
/// (query cost tracks the traversal range, not the graph size).
///
/// Layout: vertex ids are cut into fixed 64-id chunks. A direction is a
/// directory indexed by `id >> 6` of chunk pointers (null where no vertex
/// of the range has a list); a chunk is a 64-bit occupancy bitmap, CSR
/// offsets (one per set bit, plus the end) and the lists, each sorted
/// ascending. Every edge is stored twice, once per direction; a seed scan
/// walks the in-direction in (object, subject) order, which is the order
/// of the POS scan partitions are imported from.
///
/// Mirroring the systems the paper measured (Neo4j's cumbersome import,
/// gStore's triple limit), the store has
///   * a hard capacity in triples (`capacity_triples`), and
///   * an expensive bulk-import path (`kImportTriple` is the costliest
///     per-tuple weight in the cost model).
/// Partitions are imported and evicted whole, which is exactly the
/// granularity DOTIL tunes.
///
/// Share-nothing sharding: partitions are split across `num_shards`
/// sub-shards by `predicate % num_shards`, each with its own partition
/// map, so the online store's per-shard appliers maintain disjoint state.
/// The triple budget stays global — an atomic reservation counter — so
/// capacity decisions (and the tuner's eviction planning against
/// `FreeTriples`) are identical at every shard count. One shard (the
/// default) is exactly the unsharded store.
///
/// Snapshot reads + copy-on-write chunks (online mode): partitions are
/// held by pointer; under `SetDeferredReclaim(true)` a batch's first
/// mutation of a partition clones only its two directories (the clone
/// shares every chunk), and its first touch of a chunk copies that chunk
/// and retires the original. A `MakeSnapshot` taken earlier keeps serving
/// the untouched partition object and chunks, and a batch copies only the
/// chunks its ops touch. Readers install a snapshot with `ReadScope`;
/// retired partition objects and chunks are destroyed by `ReclaimShard`
/// after the epoch drain.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/cost.h"
#include "common/status.h"
#include "rdf/triple.h"

namespace dskg::graphstore {

/// A capacity-bounded, partition-granular property graph.
class PropertyGraph {
  /// Vertex ids per chunk: one occupancy bitmap word.
  static constexpr int kChunkBits = 6;

  /// The neighbour lists of up to 64 consecutive vertex ids.
  struct Chunk {
    uint64_t present = 0;           ///< bit i: vertex base+i has a list
    std::vector<uint32_t> offsets;  ///< popcount(present)+1 list bounds
    std::vector<rdf::TermId> nbrs;  ///< the lists in vertex order, sorted
    uint64_t batch = 0;             ///< copy-on-write batch that made it
  };

  /// One direction of a partition: chunk `v >> kChunkBits` holds vertex
  /// v's list (null: no vertex of that range has one). Chunks are shared
  /// between a partition and the clones copy-on-write makes of it.
  using Directory = std::vector<Chunk*>;

  struct Partition {
    Partition() = default;
    Partition(const Partition&) = delete;
    Partition& operator=(const Partition&) = delete;
    ~Partition();  ///< frees the directories' chunks if `owns_chunks`

    Directory out;
    Directory in;
    uint64_t triples = 0;
    uint64_t chunk_bytes = 0;  ///< running heap bytes of the chunks
    /// False once a copy-on-write clone took the chunks over: a retired
    /// original frees none of them (its replaced chunks are retired on
    /// their own).
    bool owns_chunks = true;
  };

 public:
  /// \param capacity_triples  maximum triples resident at once
  ///                          (0 = unlimited, for tests / Table 1).
  /// \param num_shards        share-nothing predicate sub-shards.
  explicit PropertyGraph(uint64_t capacity_triples = 0, int num_shards = 1)
      : capacity_triples_(capacity_triples),
        shards_(static_cast<size_t>(num_shards < 1 ? 1 : num_shards)) {}

  PropertyGraph(const PropertyGraph&) = delete;
  PropertyGraph& operator=(const PropertyGraph&) = delete;

  /// Number of share-nothing predicate sub-shards.
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The sub-shard owning `predicate`'s partition.
  int ShardOf(rdf::TermId predicate) const {
    return static_cast<int>(predicate % shards_.size());
  }

  /// Bulk-imports the partition of `predicate`. All triples must carry
  /// that predicate. Fails with AlreadyExists if the partition is loaded
  /// and with CapacityExceeded if it does not fit its sub-shard's slice
  /// of the budget. Charges one `kImportTriple` per triple.
  Status ImportPartition(rdf::TermId predicate,
                         const std::vector<rdf::Triple>& triples,
                         CostMeter* meter);

  /// Removes the partition of `predicate`. Charges one `kEvictTriple` per
  /// removed triple. NotFound if not loaded.
  Status EvictPartition(rdf::TermId predicate, CostMeter* meter);

  /// Inserts one triple into an already-loaded partition (the slow
  /// single-edge update path). CapacityExceeded / NotFound as above.
  Status InsertTriple(const rdf::Triple& t, CostMeter* meter);

  /// Removes one edge from an already-loaded partition (the online-update
  /// delete path). Charges one `kEvictTriple`. NotFound if the partition
  /// is not resident or the edge is absent; either leaves the graph
  /// unchanged. A binary search in the subject's sorted out-list finds
  /// the edge, then each direction erases it from one list.
  Status RemoveTriple(const rdf::Triple& t, CostMeter* meter);

  /// True if `predicate`'s partition is resident.
  bool HasPredicate(rdf::TermId predicate) const {
    return Find(predicate) != nullptr;
  }

  /// Resident predicates in ascending id order (deterministic).
  std::vector<rdf::TermId> LoadedPredicates() const;

  /// Number of triples in `predicate`'s resident partition (0 if absent).
  uint64_t PartitionTriples(rdf::TermId predicate) const;

  uint64_t used_triples() const;
  uint64_t capacity_triples() const { return capacity_triples_; }
  /// Remaining capacity in triples (max value when unlimited).
  uint64_t FreeTriples() const;

  /// Heap bytes the live partitions hold: container capacities, not
  /// allocator overhead. Retired copies awaiting the drain are not
  /// counted. O(partitions): each partition keeps a running count.
  /// Quiescent only.
  uint64_t MemoryBytes() const;

  // --- adjacency access (used by the traversal matcher) -------------------

  /// Out-neighbours of `v` via `predicate` in ascending id order; empty
  /// if none or not loaded. The span stays valid while the snapshot it
  /// was read through (or, for live reads, the unmodified graph) lives.
  std::span<const rdf::TermId> OutNeighbors(rdf::TermId v,
                                            rdf::TermId predicate) const;

  /// In-neighbours of `v` via `predicate`; as `OutNeighbors`.
  std::span<const rdf::TermId> InNeighbors(rdf::TermId v,
                                           rdf::TermId predicate) const;

  /// A forward walk over one partition's edges in (object, subject)
  /// order: the in-lists in vertex order. Borrows the partition like the
  /// spans above. Default-constructed, or past the last edge, it is
  /// exhausted.
  class EdgeWalk {
   public:
    EdgeWalk() = default;

    /// Takes the current edge and advances. Precondition: not exhausted
    /// (at most `PartitionTriples` edges, counting from the start).
    void Next(rdf::TermId* subject, rdf::TermId* object);

   private:
    friend class PropertyGraph;

    Chunk* const* dir_ = nullptr;  ///< the partition's in-directory
    size_t slots_ = 0;
    size_t slot_ = 0;     ///< current chunk; == slots_ when exhausted
    uint32_t pos_ = 0;    ///< current edge within the chunk's lists
    uint32_t list_ = 0;   ///< rank of the list holding `pos_`
    uint64_t rest_ = 0;   ///< present bits from the current list on
  };

  /// The edge walk of `predicate`'s partition, positioned at edge `start`
  /// (0-based, in walk order). Exhausted if not loaded or `start` is past
  /// the end. O(directory + log chunk) to position.
  EdgeWalk WalkEdges(rdf::TermId predicate, uint64_t start) const;

  // ---- snapshots (the online store's concurrent read path) --------------

  /// An immutable view: the resident partitions (by pointer — valid until
  /// `ReclaimShard` destroys the retired originals) plus usage totals.
  /// Capture at a write-quiescent point; read through `ReadScope`.
  struct Snapshot {
    const PropertyGraph* owner = nullptr;
    /// Resident partitions sorted by predicate id.
    std::vector<std::pair<rdf::TermId, const Partition*>> parts;
    uint64_t used_triples = 0;
  };

  /// Captures the current state. Quiescent only.
  Snapshot MakeSnapshot() const;

  /// Installs `snap` as this thread's read source for the owning graph
  /// (nests; restores the previous source on destruction). A null
  /// snapshot, or one owned by another graph, leaves reads live.
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

  /// The snapshot this thread currently reads through (null = live reads).
  /// Parallel traversal captures it on the dispatching thread and
  /// re-installs it with `ReadScope` inside each pool task, so shards see
  /// the same graph state as the caller.
  const Snapshot* InstalledSnapshot() const { return CurrentSnapshot(); }

  // ---- copy-on-write control (the online store's write path) ------------

  /// Switches between in-place mutation (offline, default) and
  /// copy-on-first-touch of partitions and chunks with deferred
  /// destruction (online). Everything resident when it is switched on
  /// counts as published. Toggle only while quiescent.
  void SetDeferredReclaim(bool on) {
    deferred_ = on;
    for (Shard& sh : shards_) {
      sh.fresh.clear();
      ++sh.batch;
    }
  }

  /// Starts a batch on one sub-shard: partitions and chunks mutated from
  /// now on are copied on first touch (shard-local; called by the shard's
  /// applier).
  void BeginShardBatch(int shard) {
    Shard& sh = shards_[static_cast<size_t>(shard)];
    sh.fresh.clear();
    ++sh.batch;
  }

  /// Destroys one sub-shard's retired partition objects and chunks. Call
  /// after the epoch protocol proves no reader still holds a snapshot
  /// referencing them. Returns the number destroyed.
  size_t ReclaimShard(int shard) {
    Shard& sh = shards_[static_cast<size_t>(shard)];
    const size_t n = sh.retired.size() + sh.retired_chunks.size();
    sh.retired.clear();
    sh.retired_chunks.clear();
    return n;
  }

  /// Retired partition objects and chunks not yet reclaimed, over every
  /// sub-shard (zero offline). Quiescent only.
  size_t PendingRetired() const {
    size_t n = 0;
    for (const Shard& sh : shards_) {
      n += sh.retired.size() + sh.retired_chunks.size();
    }
    return n;
  }

  /// Lifetime count of chunks one sub-shard copied on write (monotone;
  /// per-batch churn is a delta of two reads). Read it from the task
  /// applying the sub-shard or while quiescent.
  uint64_t CowChunksClonedOf(int shard) const {
    return shards_[static_cast<size_t>(shard)].chunks_cloned;
  }

 private:
  /// One share-nothing sub-shard. Mutated only by its owning applier (or
  /// the single offline writer).
  struct Shard {
    // Ordered map keeps LoadedPredicates() deterministic.
    std::map<rdf::TermId, std::unique_ptr<Partition>> partitions;
    std::set<rdf::TermId> fresh;  ///< partitions owned by the current batch
    uint64_t batch = 0;           ///< current copy-on-write batch
    uint64_t chunks_cloned = 0;   ///< lifetime chunk copies
    std::vector<std::unique_ptr<Partition>> retired;  ///< awaiting drain
    std::vector<std::unique_ptr<Chunk>> retired_chunks;  ///< awaiting drain
  };

  /// Builds one direction from (vertex, neighbour) pairs, sorting them
  /// first unless already sorted. Returns the chunks' heap bytes.
  static uint64_t BuildDirectory(
      std::vector<std::pair<rdf::TermId, rdf::TermId>>* pairs,
      uint64_t batch, Directory* dir);

  /// `v`'s list in `dir`; empty if it has none.
  static std::span<const rdf::TermId> ListOf(const Directory& dir,
                                             rdf::TermId v);

  static uint64_t ChunkBytes(const Chunk& c) {
    return sizeof(Chunk) + c.offsets.capacity() * sizeof(uint32_t) +
           c.nbrs.capacity() * sizeof(rdf::TermId);
  }

  /// Chunk `slot` of `dir` ready to mutate: created if absent, copied on
  /// the batch's first touch under deferred reclamation (the original is
  /// retired). Keeps `part->chunk_bytes` current.
  Chunk* WritableChunk(Shard* sh, Partition* part, Directory* dir,
                       size_t slot);

  /// Adds `nbr` to `v`'s list in `dir`, keeping it sorted.
  void Link(Shard* sh, Partition* part, Directory* dir, rdf::TermId v,
            rdf::TermId nbr);

  /// Removes one `nbr` from `v`'s list in `dir`, which must hold it; a
  /// chunk left with no list is freed.
  void Unlink(Shard* sh, Partition* part, Directory* dir, rdf::TermId v,
              rdf::TermId nbr);

  /// Reserves `n` triples of the global budget; false when they do not
  /// fit. CAS loop: concurrent shard appliers never overshoot.
  bool TryReserve(uint64_t n) {
    if (capacity_triples_ == 0) {
      used_.fetch_add(n, std::memory_order_relaxed);
      return true;
    }
    uint64_t cur = used_.load(std::memory_order_relaxed);
    do {
      if (cur + n > capacity_triples_) return false;
    } while (!used_.compare_exchange_weak(cur, cur + n,
                                          std::memory_order_relaxed));
    return true;
  }

  /// The partition to read for `predicate`: the installed snapshot's, or
  /// the live one.
  const Partition* Find(rdf::TermId predicate) const;

  /// The partition to *write* for `predicate` in `sh`: under deferred
  /// reclamation the batch's first touch clones its directories, sharing
  /// every chunk. Null if not resident.
  Partition* Own(Shard* sh, rdf::TermId predicate);

  /// This thread's installed snapshot if it belongs to this graph.
  const Snapshot* CurrentSnapshot() const {
    const Snapshot* s = tls_snapshot_;
    return (s != nullptr && s->owner == this) ? s : nullptr;
  }

  uint64_t capacity_triples_;
  /// Global resident-triple count (atomic: shard appliers reserve and
  /// release concurrently).
  std::atomic<uint64_t> used_{0};
  std::vector<Shard> shards_;
  bool deferred_ = false;

  inline static thread_local const Snapshot* tls_snapshot_ = nullptr;
};

}  // namespace dskg::graphstore

#endif  // DSKG_GRAPHSTORE_PROPERTY_GRAPH_H_
