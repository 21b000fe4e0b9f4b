#ifndef DSKG_CORE_ONLINE_STORE_H_
#define DSKG_CORE_ONLINE_STORE_H_

/// \file online_store.h
/// The online-update subsystem's front door: a dual store that stays
/// queryable while a stream of knowledge mutations is applied.
///
/// Design — *share-nothing shards + copy-on-write snapshots under epoch
/// reclamation*:
///
/// An `OnlineStore` owns ONE `DualStore` whose triple table, graph store
/// and dictionary are split into `num_shards` share-nothing predicate
/// shards. Batches flow through a four-phase pipeline built from the
/// serial store's own update rule (`DualStore::ResolveOp`, `ApplyOp`,
/// `FoldOutcomes`):
///
///   1. **Inject** (caller thread): resolve every op's term ids against
///      the dictionary in op order (id assignment is therefore identical
///      to the serial store's), then route each op to the shard owning
///      its predicate.
///   2. **Apply** (parallel): the shards run on a store-owned
///      `ThreadPool` of `num_shards - 1` workers plus the caller thread;
///      each shard applies its ops in order to its own B+-tree slabs and
///      graph partitions. Structures a published snapshot can reach are
///      never mutated in place — the B+-trees clone root-to-leaf paths
///      into fresh pool nodes (node-level copy-on-write), graph partitions
///      copy their chunks on the batch's first touch. Shards share no
///      mutable state: outcomes land in per-op slots, costs in per-shard
///      meters.
///   3. **Merge** (caller thread): fold shard meters in shard order,
///      fold outcomes in op order into the dictionary's refcounts
///      (retain applied inserts; release applied deletes after stale
///      materialized views are invalidated).
///   4. **Publish + reclaim** (caller thread): capture a new immutable
///      `DualStore::Snapshot` (new tree roots, partition pointers, view
///      catalog), publish it atomically, advance the epoch, wait for the
///      previous epoch to drain, and only then free what the retired
///      snapshot could reach: retired tree nodes return to the pools,
///      cloned-over partitions and dropped views are destroyed, and
///      dictionary ids released by the batch finish their two-stage
///      reclamation.
///
/// Readers pin an epoch and traverse the published snapshot — wait-free,
/// no reader-side lock anywhere on the query path. Every query sees the
/// store exactly as of some batch boundary (snapshot-per-batch
/// consistency): results are identical to *some* serial apply-then-query
/// interleaving, which is what the randomized online equivalence tests
/// assert. Memory holds ONE copy of the store plus the current batch's
/// copy-on-write deltas — the predecessor design's left-right replica
/// pair (2x memory, every batch applied twice) is gone.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/cost.h"
#include "common/epoch.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/dual_store.h"
#include "core/update.h"
#include "persist/wal.h"
#include "rdf/dataset.h"

namespace dskg::core {

/// A mutable-while-queried dual store (sharded copy-on-write apply +
/// epoch-coordinated snapshot reads).
class OnlineStore {
 public:
  /// Builds the store from a clone of `initial` (the source dataset is
  /// only read during construction and is not retained). The clone's
  /// dictionary is sliced to match `config.num_shards`; its triple list
  /// and statistics are freed once the table is built.
  OnlineStore(const rdf::Dataset& initial, const DualStoreConfig& config);

  /// Durable variant: same construction, plus crash safety rooted at
  /// `durability.dir`. Writes an initial snapshot (watermark 0 — the WAL
  /// alone cannot reconstruct the bulk-loaded dataset) and opens a WAL;
  /// every subsequent `ApplyUpdates` appends its batch as a checksummed
  /// record *before* any structure mutates. A failure to establish
  /// durability poisons the store (check `poison_status()`).
  OnlineStore(const rdf::Dataset& initial, const DualStoreConfig& config,
              const persist::DurabilityOptions& durability);

  ~OnlineStore();

  OnlineStore(const OnlineStore&) = delete;
  OnlineStore& operator=(const OnlineStore&) = delete;

  // ---- read path (any number of threads) ---------------------------------

  /// Epoch-pinned access to the snapshot published at pin time. The
  /// snapshot is immutable for as long as the guard lives; queries,
  /// stats reads and result decoding through it are all safe.
  ///
  /// While a guard lives, the next `ApplyUpdates` cannot finish: its
  /// reclamation step waits for every pin at or below the epoch it
  /// retires. Hold guards for the span of one query, not longer.
  class ReadGuard {
   public:
    /// The underlying store. Reads through it see LIVE state unless
    /// `snapshot()` is installed — safe only while no batch is applying.
    /// Concurrent readers go through `core::Session` (which installs the
    /// pinned snapshot for every execution), or install `snapshot()`
    /// themselves with a `DualStore::SnapshotScope` around
    /// `Prepare` + `ExecutePlan`.
    const DualStore& store() const { return *store_; }
    const DualStore* operator->() const { return store_; }

    /// The pinned immutable snapshot.
    const DualStore::Snapshot& snapshot() const { return *snap_; }

   private:
    friend class OnlineStore;
    ReadGuard(const DualStore* store, const DualStore::Snapshot* snap,
              EpochManager::Pin pin)
        : store_(store), snap_(snap), pin_(std::move(pin)) {}
    const DualStore* store_;
    const DualStore::Snapshot* snap_;
    EpochManager::Pin pin_;
  };

  /// Pins the current snapshot. Wait-free against the writer.
  ReadGuard Read() const;

  // ---- write path (one injector thread) ----------------------------------

  /// Applies `batch` through the sharded pipeline and publishes the
  /// resulting snapshot to readers. Costs are charged to `meter`: shard
  /// meters merge in shard order, and since charges are integer
  /// picoseconds they equal the serial store's exactly at every shard
  /// count. Single injector: concurrent ApplyUpdates or TuneExclusive
  /// calls must be externally serialized; concurrent `Read` calls and
  /// `Session` executions need no coordination at all. The calling
  /// thread applies shards itself, so it must not have a
  /// `DualStore::SnapshotScope` installed.
  ///
  /// Open cursors are the exception: the call does not return until
  /// every `ReadGuard` pinned before its publish is released, because
  /// reclamation waits for the retired epoch to drain
  /// (`EpochManager::WaitUntilDrained`). A `core::Cursor` holds its guard
  /// until it is destroyed, and a server cursor until it is drained or
  /// closed, so an idle open cursor stalls this call for as long as it
  /// stays open.
  ///
  /// Failure poisons the store: a half-applied batch is never published
  /// (readers keep the last published snapshot forever), but the live
  /// structures may have diverged from it, so every further
  /// ApplyUpdates/TuneExclusive returns the original error. Rebuild the
  /// OnlineStore to resume ingestion after a poisoned batch.
  Result<UpdateResult> ApplyUpdates(const UpdateBatch& batch,
                                    CostMeter* meter = nullptr);

  /// Offline tuning window: runs `fn` against the store (graph-store
  /// migrations/evictions, view builds) and publishes the tuned state as
  /// a fresh snapshot. Caller must guarantee no queries are in flight
  /// (the online runner tunes strictly between batches, as the paper's
  /// protocol does).
  Status TuneExclusive(const std::function<Status(DualStore*)>& fn);

  // ---- durability & crash recovery (injector thread) ---------------------

  /// What `Recover` found and did.
  struct RecoveryReport {
    uint64_t snapshot_watermark = 0;  ///< batch id the loaded snapshot covers
    uint64_t replayed_batches = 0;    ///< WAL records applied past it
    bool used_fallback_snapshot = false;  ///< newest snapshot failed checksums
    bool dropped_tail = false;  ///< bytes past the valid WAL prefix discarded
    /// OK when the WAL ended cleanly (a record boundary, or a torn tail
    /// from a crash mid-append). IoError when a fully framed mid-log
    /// record failed its checksum or would not decode — recovery still
    /// returns the store at the last good prefix.
    Status wal_status = Status::OK();
    std::string snapshot_file;  ///< path of the snapshot recovery loaded
  };

  /// Rebuilds a store from `durability.dir`: loads the newest snapshot
  /// that validates end to end (falling back to older ones on checksum
  /// failure — corrupt images are never loaded), replays the contiguous
  /// WAL suffix past its watermark, then checkpoints the recovered state
  /// (fresh snapshot + rotated WAL) so the next crash replays from here.
  /// NotFound when the directory holds no snapshot at all.
  /// `config` must describe the same shard layout the snapshot was saved
  /// under (InvalidArgument otherwise).
  static Result<std::unique_ptr<OnlineStore>> Recover(
      const DualStoreConfig& config,
      const persist::DurabilityOptions& durability,
      RecoveryReport* report = nullptr);

  /// Checkpoints the current state: writes a snapshot at the current
  /// watermark (temp file + rename + directory fsync — torn saves never
  /// shadow the previous snapshot), rotates the WAL to a fresh segment,
  /// and prunes snapshots/segments made obsolete by
  /// `DurabilityOptions::keep_snapshots`. Durable stores only; call
  /// between batches (the store must be quiescent).
  Status SaveSnapshot();

  /// The id the next applied batch will be sequenced as (the durability
  /// watermark). Batches below it are acknowledged as no-ops.
  uint64_t next_batch_id() const { return next_batch_id_; }

  /// True when construction configured a durability directory.
  bool durable() const { return !durability_.dir.empty(); }

  // ---- introspection (injector thread / quiescent store only) ------------

  /// The store. Only meaningful from the injector thread or while no
  /// batch is applying; readers use `Read()`.
  const DualStore& active() const { return *store_; }

  /// Batches published so far.
  uint64_t applied_batches() const {
    return applied_batches_.load(std::memory_order_relaxed);
  }

  /// Share-nothing predicate shards (applied in parallel by the caller
  /// thread and `num_shards - 1` pool workers).
  int num_shards() const { return store_->num_shards(); }

  /// Deterministic storage-tier footprint of the online store: the
  /// dictionary plus the index slabs of the single copy it keeps.
  /// Quiescent only.
  uint64_t StorageBytes() const {
    return dataset_.dict().MemoryBytes() + store_->table().IndexBytes();
  }

  /// OK unless a failed batch poisoned the store (see `ApplyUpdates`).
  const Status& poison_status() const { return poisoned_; }

  /// The epoch manager (exposed for tests and diagnostics).
  const EpochManager& epochs() const { return epochs_; }

 private:
  /// Restores from a snapshot instead of bulk-loading: the dataset (its
  /// dictionary only) is moved in, the triple table deserialized from its
  /// slab image, and the graph re-imports the partitions that were
  /// resident at save time.
  /// On failure `*status` is set and construction stops before
  /// `FinishConstruction` (the destructor is safe either way).
  struct RestoreTag {};
  OnlineStore(RestoreTag, rdf::Dataset&& restored,
              const DualStoreConfig& config, std::string_view table_payload,
              const std::vector<rdf::TermId>& resident_predicates,
              Status* status);

  /// Shared constructor tail: flips every component into online
  /// (copy-on-write / deferred-reclaim) mode, publishes the first
  /// snapshot, and starts the shard pool's `num_shards - 1` workers.
  void FinishConstruction();

  /// Best-effort cleanup of files superseded by the newest snapshots
  /// (keeps `DurabilityOptions::keep_snapshots` of them plus every WAL
  /// segment the oldest kept snapshot still needs). Failures are ignored:
  /// stale files are harmless at recovery.
  void PruneObsoleteFiles();

  /// Phase II body for one shard: applies the batch's ops at `ops`
  /// (indices into `batch.ops` and `triples`, in op order) to shard
  /// `shard`'s slabs and partitions, recording outcomes and charging `m`.
  Status ApplyShard(int shard, const UpdateBatch& batch,
                    const std::vector<rdf::Triple>& triples,
                    const std::vector<uint32_t>& ops, CostMeter* m,
                    std::vector<uint8_t>* outcomes);

  /// Phase IV: captures the live state, publishes it, waits for the
  /// previous epoch to drain, and reclaims everything only the retired
  /// snapshot could reach.
  void PublishAndReclaim();

  /// One shard's apply telemetry, resolved against the global registry
  /// at construction (`store.shard<k>.*` metrics; shared by every store
  /// with a shard k — the registry merges, per-run deltas come from
  /// snapshots).
  struct ShardMetrics {
    telemetry::Histogram* apply_us = nullptr;
    telemetry::Gauge* queue_depth = nullptr;
  };

  rdf::Dataset dataset_;
  std::unique_ptr<DualStore> store_;
  mutable EpochManager epochs_;
  /// The published snapshot; replaced (never mutated) by the injector.
  std::atomic<const DualStore::Snapshot*> snapshot_{nullptr};
  /// Runs the shards of a batch beside the caller thread; null at one
  /// shard. Never shared: `ParallelFor`'s caller runs queued tasks while
  /// it waits, so a foreign task could run inside `ApplyUpdates`.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ShardMetrics> shard_metrics_;  // one per shard
  std::atomic<uint64_t> applied_batches_{0};
  Status poisoned_ = Status::OK();  // injector-thread state

  // Durability (injector-thread state; empty dir = not durable).
  persist::DurabilityOptions durability_;
  std::unique_ptr<persist::WalWriter> wal_;
  /// Monotone batch sequence: the id the next batch will carry. Equals
  /// the watermark every snapshot/WAL rotation is stamped with.
  uint64_t next_batch_id_ = 0;
};

}  // namespace dskg::core

#endif  // DSKG_CORE_ONLINE_STORE_H_
