#include "core/online_store.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "persist/snapshot.h"

namespace dskg::core {

using rdf::TermId;
using rdf::Triple;

namespace {

// Store-level pipeline metrics, resolved once against the global
// registry (per-shard metrics live in OnlineStore::shard_metrics_).
struct StoreMetrics {
  telemetry::Counter* batches_applied;
  telemetry::Counter* triples_inserted;
  telemetry::Counter* triples_deleted;
  telemetry::Counter* cow_nodes_cloned;
  telemetry::Counter* cow_nodes_retired;
  telemetry::Counter* cow_nodes_reclaimed;
  telemetry::Gauge* cow_pending_nodes;
  telemetry::Histogram* inject_route_us;
  telemetry::Histogram* merge_barrier_us;
  telemetry::Histogram* epoch_drain_us;
};

const StoreMetrics& Sm() {
  static const StoreMetrics m = [] {
    auto& reg = telemetry::MetricsRegistry::Global();
    return StoreMetrics{reg.counter("store.batches_applied"),
                        reg.counter("store.triples_inserted"),
                        reg.counter("store.triples_deleted"),
                        reg.counter("store.cow.nodes_cloned"),
                        reg.counter("store.cow.nodes_retired"),
                        reg.counter("store.cow.nodes_reclaimed"),
                        reg.gauge("store.cow.pending_nodes"),
                        reg.histogram("store.inject_route_us"),
                        reg.histogram("store.merge_barrier_us"),
                        reg.histogram("store.epoch_drain_us")};
  }();
  return m;
}

}  // namespace

OnlineStore::OnlineStore(const rdf::Dataset& initial,
                         const DualStoreConfig& config)
    : dataset_(initial.Clone(std::max(1, config.num_shards))) {
  store_ = std::make_unique<DualStore>(&dataset_, config);
  // The table now holds the triples; the store maintains only the
  // dictionary, so the clone's list and statistics are dead weight.
  dataset_.DropTriples();
  FinishConstruction();
}

OnlineStore::OnlineStore(const rdf::Dataset& initial,
                         const DualStoreConfig& config,
                         const persist::DurabilityOptions& durability)
    : OnlineStore(initial, config) {
  durability_ = durability;
  Status s = persist::CreateDirIfMissing(durability_.dir);
  // The initial snapshot at watermark 0 is recovery's base image: the WAL
  // alone cannot reconstruct the bulk-loaded dataset. SaveSnapshot also
  // opens the first WAL segment.
  if (s.ok()) s = SaveSnapshot();
  if (!s.ok()) poisoned_ = std::move(s);
}

OnlineStore::OnlineStore(RestoreTag, rdf::Dataset&& restored,
                         const DualStoreConfig& config,
                         std::string_view table_payload,
                         const std::vector<rdf::TermId>& resident_predicates,
                         Status* status)
    : dataset_(std::move(restored)) {
  store_ = std::make_unique<DualStore>(&dataset_.mutable_dict(), config,
                                       DualStore::RestoreTag{});
  ByteReader reader(table_payload);
  *status = store_->table_.DeserializeFrom(&reader);
  if (status->ok() && !reader.AtEnd()) {
    *status = Status::IoError("trailing bytes in snapshot table section");
  }
  if (!status->ok()) return;  // appliers never started; destructor is safe
  // Re-import the partitions that were graph-resident at save time. The
  // graph copy is derived state, so this is a rebuild, not a replay — the
  // charges go to a throwaway meter (recovery work is not part of any
  // measured run). A partition that no longer fits or vanished is simply
  // left relational, exactly as the online overflow path would leave it.
  CostMeter rebuild_meter;
  for (const rdf::TermId p : resident_predicates) {
    Status s = store_->MigratePartition(p, &rebuild_meter);
    if (s.ok() || s.IsNotFound() || s.IsCapacityExceeded() ||
        s.IsAlreadyExists()) {
      continue;
    }
    *status = std::move(s);
    return;
  }
  FinishConstruction();
}

void OnlineStore::FinishConstruction() {
  // Flip every component into online mode: tree writes copy root-to-leaf
  // paths instead of mutating shared nodes, graph partitions clone on
  // first touch, dropped views and released dictionary ids are retired
  // until the epoch drain instead of destroyed.
  store_->table_.SetCopyOnWrite(true);
  store_->graph_.SetDeferredReclaim(true);
  if (store_->views_ != nullptr) store_->views_->SetDeferredReclaim(true);
  dataset_.mutable_dict().SetDeferredReclaim(true);

  snapshot_.store(new DualStore::Snapshot(store_->MakeSnapshot()),
                  std::memory_order_seq_cst);

  const int n = store_->num_shards();
  workers_.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) workers_.push_back(std::make_unique<Worker>());
  auto& reg = telemetry::MetricsRegistry::Global();
  shard_metrics_.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    const std::string prefix = "store.shard" + std::to_string(s);
    shard_metrics_[static_cast<size_t>(s)] = {
        reg.histogram(prefix + ".apply_us"),
        reg.gauge(prefix + ".queue_depth")};
  }
  for (int s = 0; s < n; ++s) {
    workers_[static_cast<size_t>(s)]->thread =
        std::thread(&OnlineStore::WorkerLoop, this, s);
  }
}

OnlineStore::~OnlineStore() {
  for (const std::unique_ptr<Worker>& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->stop = true;
    }
    w->cv.notify_all();
  }
  for (const std::unique_ptr<Worker>& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  delete snapshot_.load(std::memory_order_seq_cst);
}

OnlineStore::ReadGuard OnlineStore::Read() const {
  // Pin first, then resolve the published snapshot: the writer's publish
  // (pointer exchange) precedes its epoch advance, so a pin at the
  // advanced epoch is guaranteed to resolve the *new* snapshot, and a pin
  // at the old epoch is drained before anything the old snapshot reaches
  // is reclaimed. Either way the resolved snapshot stays immutable for
  // the guard's lifetime.
  EpochManager::Pin pin = epochs_.Enter();
  const DualStore::Snapshot* snap = snapshot_.load(std::memory_order_seq_cst);
  return ReadGuard(store_.get(), snap, std::move(pin));
}

Result<UpdateResult> OnlineStore::ApplyUpdates(const UpdateBatch& batch,
                                               CostMeter* meter) {
  DSKG_RETURN_NOT_OK(poisoned_);
  // Sequence the batch. A pre-assigned id below the watermark means the
  // batch is already folded into this store's state (a recovery replay or
  // a client retry) — acknowledge it as an idempotent no-op before
  // anything, including the WAL, sees it.
  const uint64_t batch_id =
      batch.batch_id == kUnassignedBatchId ? next_batch_id_ : batch.batch_id;
  if (batch_id < next_batch_id_) {
    UpdateResult replayed;
    replayed.batch_id = batch_id;
    replayed.already_applied = true;
    return replayed;
  }
  if (durable()) {
    if (wal_ == nullptr) {
      // A failed rotation left no open segment; nothing applied since is
      // durable, so refuse new batches rather than silently lose them.
      return Status::IoError(
          "WAL unavailable (a previous snapshot rotation failed); "
          "call SaveSnapshot() to re-establish durability");
    }
    // WAL-before-apply: the record must be on its way to disk before any
    // structure mutates. On failure nothing has changed — the store stays
    // healthy (NOT poisoned), the batch is simply not applied.
    DSKG_RETURN_NOT_OK(wal_->Append(batch, batch_id));
  }
  // Any batch may intern terms, flip residency (overflow eviction) or
  // change statistics: prepared plans must re-validate.
  store_->plan_epoch_.fetch_add(1, std::memory_order_release);

  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();

  UpdateResult res;
  CostMeter local;
  CostMeter* m = meter != nullptr ? meter : &local;
  const int n = num_shards();
  const size_t num_ops = batch.ops.size();

  // ---- Phase I (inject): resolve ids in op order, route by predicate.
  // Interning happens here, on one thread, in exactly the serial store's
  // order — id assignment is independent of the shard count's timing.
  const double inject0 = telem ? reg.NowMicros() : 0;
  rdf::Dictionary& dict = dataset_.mutable_dict();
  std::vector<Triple> triples(num_ops);
  std::vector<uint8_t> outcomes(num_ops, 0);  // 0 = skipped no-op
  std::vector<std::vector<ShardOp>> shard_ops(static_cast<size_t>(n));
  for (size_t i = 0; i < num_ops; ++i) {
    const UpdateOp& op = batch.ops[i];
    if (op.kind == UpdateOp::Kind::kInsert) {
      const Triple t{dict.Intern(op.subject), dict.Intern(op.predicate),
                     dict.Intern(op.object)};
      triples[i] = t;
      shard_ops[static_cast<size_t>(store_->table_.ShardOf(t.predicate))]
          .push_back({static_cast<uint32_t>(i), true, t});
    } else {
      const Triple t{dict.Lookup(op.subject), dict.Lookup(op.predicate),
                     dict.Lookup(op.object)};
      if (t.subject == rdf::kInvalidTermId ||
          t.predicate == rdf::kInvalidTermId ||
          t.object == rdf::kInvalidTermId) {
        continue;  // references an unknown term: nothing stored to delete
      }
      triples[i] = t;
      shard_ops[static_cast<size_t>(store_->table_.ShardOf(t.predicate))]
          .push_back({static_cast<uint32_t>(i), false, t});
    }
  }

  if (telem) {
    Sm().inject_route_us->Record(reg.NowMicros() - inject0);
    // Routed queue depth per shard: how skewed this batch's predicate
    // distribution is (the rebalancing follow-on's input signal).
    for (int s = 0; s < n; ++s) {
      shard_metrics_[static_cast<size_t>(s)].queue_depth->Set(
          static_cast<double>(shard_ops[static_cast<size_t>(s)].size()));
    }
  }

  // ---- Phase II (apply): fan out to the shard appliers. Each charges
  // its own meter; with one shard the caller's meter is charged directly,
  // so the serial charge sequence is reproduced bit for bit.
  std::vector<CostMeter> shard_meters;
  if (n > 1) {
    shard_meters.reserve(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
      shard_meters.emplace_back(m->model(), m->throttle());
    }
  }
  for (int s = 0; s < n; ++s) {
    if (shard_ops[static_cast<size_t>(s)].empty()) continue;
    Worker& w = *workers_[static_cast<size_t>(s)];
    {
      std::lock_guard<std::mutex> lock(w.mu);
      w.ops = &shard_ops[static_cast<size_t>(s)];
      w.meter = n > 1 ? &shard_meters[static_cast<size_t>(s)] : m;
      w.outcomes = &outcomes;
      w.has_work = true;
      w.done = false;
    }
    w.cv.notify_all();
  }
  // Merge barrier: the injector blocks here until every shard applier
  // reports done (the overlapped-injection follow-on wants this wait
  // small; now it is measured).
  const double barrier0 = telem ? reg.NowMicros() : 0;
  Status apply_status = Status::OK();
  for (int s = 0; s < n; ++s) {
    if (shard_ops[static_cast<size_t>(s)].empty()) continue;
    Worker& w = *workers_[static_cast<size_t>(s)];
    std::unique_lock<std::mutex> lock(w.mu);
    w.cv.wait(lock, [&w] { return w.done; });
    if (!w.status.ok() && apply_status.ok()) apply_status = w.status;
  }
  if (telem) Sm().merge_barrier_us->Record(reg.NowMicros() - barrier0);
  if (!apply_status.ok()) {
    // Never published: readers keep the last consistent snapshot, but the
    // live shards may have half-applied the batch — poison.
    poisoned_ = apply_status;
    return poisoned_;
  }

  // ---- Phase III (merge): fold shard meters in shard order, replay
  // outcomes in op order into the dictionary's refcounts.
  if (n > 1) {
    for (int s = 0; s < n; ++s) {
      if (shard_ops[static_cast<size_t>(s)].empty()) continue;
      m->Merge(shard_meters[static_cast<size_t>(s)]);
    }
  }
  // Refcounts follow the outcomes exactly as in DualStore::ApplyUpdates,
  // the serial reference: an applied insert retains its ids here, an
  // applied delete releases them after view invalidation.
  std::unordered_set<TermId> touched_predicates;
  for (size_t i = 0; i < num_ops; ++i) {
    if ((outcomes[i] & kOutcomeApplied) == 0) continue;
    const Triple& t = triples[i];
    if (batch.ops[i].kind == UpdateOp::Kind::kInsert) {
      dict.Retain(t);
      ++res.inserted;
    } else {
      ++res.deleted;
    }
    touched_predicates.insert(t.predicate);
    if ((outcomes[i] & kOutcomeGraphMaintained) != 0) ++res.graph_maintained;
  }
  // Invalidate views BEFORE releasing: invalidation resolves predicate
  // text against the dictionary, and a predicate whose last triple died
  // this batch must still resolve.
  if (store_->views_ != nullptr && !touched_predicates.empty()) {
    res.views_dropped =
        store_->views_->InvalidatePredicates(touched_predicates);
  }
  for (size_t i = 0; i < num_ops; ++i) {
    if ((outcomes[i] & kOutcomeApplied) != 0 &&
        batch.ops[i].kind == UpdateOp::Kind::kDelete) {
      dict.Release(triples[i]);
    }
  }

  Sm().triples_inserted->Add(res.inserted);
  Sm().triples_deleted->Add(res.deleted);

  // ---- Phase IV: publish the new snapshot, then reclaim the old one's
  // reachable state once its last reader leaves.
  PublishAndReclaim();
  applied_batches_.fetch_add(1, std::memory_order_relaxed);
  Sm().batches_applied->Add();
  res.batch_id = batch_id;
  next_batch_id_ = batch_id + 1;
  return res;
}

void OnlineStore::WorkerLoop(int shard) {
  Worker& w = *workers_[static_cast<size_t>(shard)];
  std::unique_lock<std::mutex> lock(w.mu);
  for (;;) {
    w.cv.wait(lock, [&w] { return w.has_work || w.stop; });
    if (w.stop) return;
    const std::vector<ShardOp>* ops = w.ops;
    CostMeter* m = w.meter;
    std::vector<uint8_t>* outcomes = w.outcomes;
    lock.unlock();
    Status status = ApplyShard(shard, *ops, m, outcomes);
    lock.lock();
    w.status = std::move(status);
    w.has_work = false;
    w.done = true;
    w.cv.notify_all();
  }
}

Status OnlineStore::ApplyShard(int shard, const std::vector<ShardOp>& ops,
                               CostMeter* m,
                               std::vector<uint8_t>* outcomes) {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  relstore::TripleTable& table = store_->table_;
  graphstore::PropertyGraph& graph = store_->graph_;
  // COW churn is a before/after delta of the shard's own tree counters:
  // this applier is the only mutator, so the reads are exact.
  const double wall0 = telem ? reg.NowMicros() : 0;
  const uint64_t clones0 = telem ? table.CowClonesOf(shard) : 0;
  const uint64_t pending0 = telem ? table.PendingNodesOf(shard) : 0;
  // New copy-on-write batch: the first touch of any tree node or graph
  // partition reachable from the published snapshot clones it.
  table.BeginShardBatch(shard);
  graph.BeginShardBatch(shard);
  for (const ShardOp& op : ops) {
    if (op.is_insert) {
      if (!table.Insert(op.triple, m)) continue;  // already stored: no-op
      uint8_t bits = kOutcomeApplied;
      if (graph.HasPredicate(op.triple.predicate)) {
        Status s = graph.InsertTriple(op.triple, m);
        if (s.IsCapacityExceeded()) {
          // The graph copy no longer fits: drop the partition rather than
          // serve stale answers (the relational store stays
          // authoritative).
          DSKG_RETURN_NOT_OK(
              graph.EvictPartition(op.triple.predicate, m));
        } else {
          DSKG_RETURN_NOT_OK(s);
          bits |= kOutcomeGraphMaintained;
        }
      }
      (*outcomes)[op.index] = bits;
    } else {
      if (!table.RemoveTriple(op.triple, m)) continue;  // not stored: no-op
      uint8_t bits = kOutcomeApplied;
      if (graph.HasPredicate(op.triple.predicate)) {
        DSKG_RETURN_NOT_OK(graph.RemoveTriple(op.triple, m));
        bits |= kOutcomeGraphMaintained;
      }
      (*outcomes)[op.index] = bits;
    }
  }
  if (telem) {
    shard_metrics_[static_cast<size_t>(shard)].apply_us->Record(
        reg.NowMicros() - wall0);
    Sm().cow_nodes_cloned->Add(table.CowClonesOf(shard) - clones0);
    Sm().cow_nodes_retired->Add(table.PendingNodesOf(shard) - pending0);
  }
  return Status::OK();
}

void OnlineStore::PublishAndReclaim() {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const DualStore::Snapshot* fresh =
      new DualStore::Snapshot(store_->MakeSnapshot());
  const DualStore::Snapshot* old =
      snapshot_.exchange(fresh, std::memory_order_seq_cst);
  const uint64_t retired_epoch = epochs_.Advance();
  // Wait for every reader that may still observe the retired snapshot,
  // then free what only it could reach: the snapshot object itself,
  // copied-over tree nodes, cloned-over graph partitions, dropped views,
  // and dictionary ids released by the batch (their two-stage
  // reclamation keeps ids resolvable for exactly one more snapshot).
  const double drain0 = telem ? reg.NowMicros() : 0;
  epochs_.WaitUntilDrained(retired_epoch);
  if (telem) Sm().epoch_drain_us->Record(reg.NowMicros() - drain0);
  delete old;
  size_t reclaimed = 0;
  for (int s = 0; s < num_shards(); ++s) {
    reclaimed += store_->table_.ReclaimShard(s);
    store_->graph_.ReclaimShard(s);
  }
  if (store_->views_ != nullptr) store_->views_->CollectRetired();
  dataset_.mutable_dict().ReclaimDeferred();
  if (telem) {
    Sm().cow_nodes_reclaimed->Add(reclaimed);
    Sm().cow_pending_nodes->Set(
        static_cast<double>(store_->table_.PendingNodes()));
  }
}

Status OnlineStore::SaveSnapshot() {
  DSKG_RETURN_NOT_OK(poisoned_);
  if (!durable()) {
    return Status::FailedPrecondition(
        "SaveSnapshot on a store with no durability directory");
  }
  const uint64_t watermark = next_batch_id_;
  const std::string final_path =
      durability_.dir + "/" + persist::SnapshotFileName(watermark);
  // Temp file + rename + directory fsync: a torn save never shadows the
  // previous snapshot — readers of the directory only ever see images
  // whose footer committed.
  const std::string tmp_path = final_path + ".tmp";
  DSKG_RETURN_NOT_OK(persist::SaveStoreSnapshot(*store_, watermark, tmp_path,
                                                durability_.wrap_writable));
  DSKG_RETURN_NOT_OK(persist::RenameFile(tmp_path, final_path));
  DSKG_RETURN_NOT_OK(persist::SyncDir(durability_.dir));
  // Read-back validation BEFORE anything rotates or prunes: a disk that
  // silently dropped the snapshot's bytes (torn write) must not retire
  // the older snapshot + WAL chain that still holds the only good copy.
  {
    Result<persist::RawSnapshot> check = persist::ReadSnapshotFile(final_path);
    if (!check.ok()) return check.status();
  }
  // Rotate: every record in the outgoing segment is below the new
  // watermark, so its close outcome no longer affects durability.
  if (wal_ != nullptr) {
    (void)wal_->Close();
    wal_.reset();
  }
  DSKG_ASSIGN_OR_RETURN(wal_, persist::WalWriter::Open(durability_, watermark));
  PruneObsoleteFiles();
  return Status::OK();
}

void OnlineStore::PruneObsoleteFiles() {
  // Best effort throughout: a file that fails to delete is harmless (it
  // is either ignored or superseded at recovery), so errors are dropped.
  Result<std::vector<std::string>> listing = persist::ListDir(durability_.dir);
  if (!listing.ok()) return;
  std::vector<uint64_t> snaps;
  std::vector<uint64_t> segments;
  for (const std::string& name : *listing) {
    uint64_t v = 0;
    if (persist::ParseSnapshotFileName(name, &v)) {
      snaps.push_back(v);
    } else if (persist::ParseWalSegmentName(name, &v)) {
      segments.push_back(v);
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A torn save that never committed.
      (void)persist::RemoveFile(durability_.dir + "/" + name);
    }
  }
  std::sort(snaps.begin(), snaps.end());
  std::sort(segments.begin(), segments.end());
  const size_t keep =
      durability_.keep_snapshots < 1
          ? 1
          : static_cast<size_t>(durability_.keep_snapshots);
  if (snaps.empty()) return;
  const uint64_t oldest_kept =
      snaps.size() > keep ? snaps[snaps.size() - keep] : snaps.front();
  for (const uint64_t wm : snaps) {
    if (wm < oldest_kept) {
      (void)persist::RemoveFile(durability_.dir + "/" +
                                persist::SnapshotFileName(wm));
    }
  }
  // Segment i is dead once the NEXT segment starts at or below the oldest
  // kept watermark: every record it holds is then covered by a snapshot
  // recovery could still pick. The open (last) segment always survives.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1] <= oldest_kept) {
      (void)persist::RemoveFile(durability_.dir + "/" +
                                persist::WalSegmentName(segments[i]));
    }
  }
}

Result<std::unique_ptr<OnlineStore>> OnlineStore::Recover(
    const DualStoreConfig& config,
    const persist::DurabilityOptions& durability, RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport{};
  if (!persist::FileExists(durability.dir)) {
    return Status::NotFound("no durability directory at " + durability.dir);
  }
  DSKG_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        persist::ListDir(durability.dir));
  std::vector<uint64_t> snaps;
  std::vector<uint64_t> segments;
  for (const std::string& name : names) {
    uint64_t v = 0;
    if (persist::ParseSnapshotFileName(name, &v)) snaps.push_back(v);
    if (persist::ParseWalSegmentName(name, &v)) segments.push_back(v);
  }
  if (snaps.empty()) {
    return Status::NotFound("no snapshot in " + durability.dir);
  }
  std::sort(snaps.begin(), snaps.end());
  std::sort(segments.begin(), segments.end());

  // The newest snapshot that validates end to end wins; older ones are
  // the fallback when it is torn or bit-flipped. Corrupt images are
  // rejected wholesale by the reader — never partially loaded.
  persist::LoadedSnapshot loaded;
  Status last_error = Status::OK();
  bool have_snapshot = false;
  for (size_t i = snaps.size(); i-- > 0;) {
    const std::string path =
        durability.dir + "/" + persist::SnapshotFileName(snaps[i]);
    Result<persist::LoadedSnapshot> r = persist::LoadStoreSnapshot(path);
    if (r.ok()) {
      loaded = std::move(*r);
      have_snapshot = true;
      rep.used_fallback_snapshot = i + 1 != snaps.size();
      rep.snapshot_file = path;
      break;
    }
    last_error = r.status();
  }
  if (!have_snapshot) {
    return Status::IoError("every snapshot in " + durability.dir +
                           " failed validation; newest error: " +
                           last_error.message());
  }
  if (loaded.num_shards != std::max(1, config.num_shards)) {
    return Status::InvalidArgument(
        "snapshot was saved with " + std::to_string(loaded.num_shards) +
        " shards but recovery requested " +
        std::to_string(std::max(1, config.num_shards)));
  }
  rep.snapshot_watermark = loaded.watermark;

  Status restore_status = Status::OK();
  std::unique_ptr<OnlineStore> store(new OnlineStore(
      RestoreTag{}, std::move(loaded.dataset), config, loaded.table_payload,
      loaded.resident_predicates, &restore_status));
  DSKG_RETURN_NOT_OK(restore_status);
  store->next_batch_id_ = loaded.watermark;

  // Replay the contiguous WAL suffix past the watermark, oldest segment
  // first. Replay is plain ApplyUpdates (the store is not yet durable, so
  // nothing is re-logged); ids below the watermark acknowledge as
  // idempotent no-ops. A gap or a corrupt mid-log record ends replay at
  // the last good prefix — everything before it stays usable.
  uint64_t expect = loaded.watermark;
  bool stop = false;
  for (size_t i = 0; i < segments.size() && !stop; ++i) {
    if (i + 1 < segments.size() && segments[i + 1] <= loaded.watermark) {
      continue;  // wholly covered: the next segment starts at/below the mark
    }
    const std::string path =
        durability.dir + "/" + persist::WalSegmentName(segments[i]);
    Result<persist::WalScanResult> scan = persist::ScanWalFile(path);
    if (!scan.ok()) {
      rep.wal_status = scan.status();
      break;
    }
    for (UpdateBatch& b : scan->batches) {
      if (b.batch_id < expect) continue;  // covered by the snapshot
      if (b.batch_id != expect) {
        rep.wal_status = Status::IoError(
            path + ": WAL gap (expected batch " + std::to_string(expect) +
            ", found " + std::to_string(b.batch_id) + ")");
        stop = true;
        break;
      }
      Result<UpdateResult> applied = store->ApplyUpdates(b);
      if (!applied.ok()) return applied.status();
      ++rep.replayed_batches;
      ++expect;
    }
    if (scan->dropped_tail) {
      rep.dropped_tail = true;
      if (!scan->tail_status.ok()) rep.wal_status = scan->tail_status;
      stop = true;  // nothing after a bad tail is trustworthy
    }
  }

  // Checkpoint the recovered state: the replayed batches become durable
  // again under a fresh snapshot, and a new WAL segment opens at the new
  // watermark (so the next crash replays from here, not from the old,
  // possibly damaged log).
  store->durability_ = durability;
  DSKG_RETURN_NOT_OK(store->SaveSnapshot());

  auto& reg = telemetry::MetricsRegistry::Global();
  if (reg.enabled()) {
    reg.counter("persist.recovery.replayed_batches")
        ->Add(rep.replayed_batches);
  }
  return store;
}

Status OnlineStore::TuneExclusive(const std::function<Status(DualStore*)>& fn) {
  DSKG_RETURN_NOT_OK(poisoned_);
  Status s = fn(store_.get());
  if (!s.ok()) {
    // A half-applied tuning window leaves the live accelerator state
    // divergent from the published snapshot; poison, exactly as a failed
    // batch does.
    poisoned_ = s;
    return s;
  }
  // Strictly above the pre-tune epoch, so every pre-tune plan
  // re-validates even when the window was a no-op.
  store_->ForcePlanEpoch(store_->plan_epoch() + 1);
  PublishAndReclaim();
  return Status::OK();
}

}  // namespace dskg::core
