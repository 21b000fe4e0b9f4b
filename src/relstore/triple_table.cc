#include "relstore/triple_table.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace dskg::relstore {

using rdf::TermId;
using rdf::Triple;

TripleTable::Key TripleTable::MakeKey(Order order, const Triple& t) {
  switch (order) {
    case Order::kSPO: return {t.subject, t.predicate, t.object};
    case Order::kPOS: return {t.predicate, t.object, t.subject};
    case Order::kOSP: return {t.object, t.subject, t.predicate};
  }
  return {};
}

Triple TripleTable::KeyToTriple(Order order, const Key& k) {
  switch (order) {
    case Order::kSPO: return {k[0], k[1], k[2]};
    case Order::kPOS: return {k[2], k[0], k[1]};
    case Order::kOSP: return {k[1], k[2], k[0]};
  }
  return {};
}

bool TripleTable::Insert(const Triple& t, CostMeter* meter) {
  SubShard& sh = shards_[static_cast<size_t>(ShardOf(t.predicate))];
  if (!sh.spo.Insert(MakeKey(Order::kSPO, t))) return false;  // duplicate
  sh.pos.Insert(MakeKey(Order::kPOS, t));
  sh.osp.Insert(MakeKey(Order::kOSP, t));
  ++sh.num_rows;
  MutableStats& st = sh.stats[t.predicate];
  st.num_triples += 1;
  CountUp(&st.subjects, t.subject);
  CountUp(&st.objects, t.object);
  CountUp(&sh.all_subjects, t.subject);
  CountUp(&sh.all_objects, t.object);
  if (meter != nullptr) meter->Add(Op::kInsertTuple);
  return true;
}

bool TripleTable::RemoveTriple(const Triple& t, CostMeter* meter) {
  SubShard& sh = shards_[static_cast<size_t>(ShardOf(t.predicate))];
  if (!sh.spo.Erase(MakeKey(Order::kSPO, t))) return false;  // not stored
  sh.pos.Erase(MakeKey(Order::kPOS, t));
  sh.osp.Erase(MakeKey(Order::kOSP, t));
  --sh.num_rows;
  auto it = sh.stats.find(t.predicate);
  MutableStats& st = it->second;
  st.num_triples -= 1;
  CountDown(&st.subjects, t.subject);
  CountDown(&st.objects, t.object);
  if (st.num_triples == 0) sh.stats.erase(it);
  CountDown(&sh.all_subjects, t.subject);
  CountDown(&sh.all_objects, t.object);
  if (meter != nullptr) meter->Add(Op::kRemoveTuple);
  return true;
}

void TripleTable::BulkLoad(const std::vector<Triple>& triples,
                           CostMeter* meter, ThreadPool* pool) {
  if (size() != 0) {
    // Incremental top-up of a live table: per-key inserts.
    Reserve(size() + triples.size());
    for (const Triple& t : triples) Insert(t, meter);
    return;
  }
  // Fresh load: sort/unique once, then build each permutation of each
  // sub-shard bottom-up at full leaf occupancy (`BPlusTree::BulkBuild`) —
  // ~half the slab bytes and none of the split churn of one-by-one
  // insertion. Charges and statistics are identical to the incremental
  // path: one `kInsertTuple` and one stats update per *stored* (unique)
  // triple; the cost meter and the occurrence counters are
  // order-independent. Duplicates collapse globally, which equals
  // per-shard collapse (duplicates share a predicate and thus a shard).
  std::vector<Key> keys(triples.size());
  const auto encode_keys = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      keys[i] = MakeKey(Order::kSPO, triples[i]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunked(triples.size(), 65536, encode_keys);
  } else {
    encode_keys(0, triples.size());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const size_t n_shards = shards_.size();
  // Partition the sorted key set by owning sub-shard (order-preserving,
  // so each sub-shard's subset is itself sorted). One shard: pass-through.
  std::vector<std::vector<Key>> per_shard(n_shards);
  if (n_shards == 1) {
    per_shard[0] = keys;
  } else {
    for (const Key& k : keys) {
      per_shard[static_cast<size_t>(ShardOf(k[1]))].push_back(k);
    }
  }
  // Four independent jobs per sub-shard — the SPO build, the statistics +
  // charge pass, and the POS/OSP permute-sort-builds. Each writes a
  // disjoint part of its own sub-shard (distinct trees vs. the stats
  // maps), each shard's stats pass replays the serial loop's exact
  // per-shard insertion subsequence, and the shared meter accumulates in
  // exact integer picoseconds, so the resulting table and charges are
  // bit-identical to the serial job order below.
  const auto run_job = [&](size_t job) {
    const size_t s = job / 4;
    SubShard& sh = shards_[s];
    switch (job % 4) {
      case 0:
        sh.spo.BulkBuild(per_shard[s]);
        break;
      case 1:
        for (const Key& k : per_shard[s]) {
          const Triple t = KeyToTriple(Order::kSPO, k);
          ++sh.num_rows;
          MutableStats& st = sh.stats[t.predicate];
          st.num_triples += 1;
          CountUp(&st.subjects, t.subject);
          CountUp(&st.objects, t.object);
          CountUp(&sh.all_subjects, t.subject);
          CountUp(&sh.all_objects, t.object);
          if (meter != nullptr) meter->Add(Op::kInsertTuple);
        }
        break;
      case 2:
      case 3: {
        const Order order = job % 4 == 2 ? Order::kPOS : Order::kOSP;
        std::vector<Key> permuted;
        permuted.reserve(per_shard[s].size());
        for (const Key& k : per_shard[s]) {
          permuted.push_back(MakeKey(order, KeyToTriple(Order::kSPO, k)));
        }
        std::sort(permuted.begin(), permuted.end());
        (order == Order::kPOS ? sh.pos : sh.osp).BulkBuild(permuted);
        break;
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n_shards * 4, run_job);
  } else {
    for (size_t job = 0; job < n_shards * 4; ++job) run_job(job);
  }
}

bool TripleTable::Contains(const Triple& t, CostMeter* meter) const {
  if (meter != nullptr) meter->Add(Op::kIndexProbe);
  const Snapshot* snap = CurrentSnapshot();
  const int sub = ShardOf(t.predicate);
  return shards_[static_cast<size_t>(sub)].spo.ContainsAt(
      RootFor(snap, sub, Order::kSPO), MakeKey(Order::kSPO, t));
}

std::optional<std::pair<TripleTable::Order, int>> TripleTable::ChooseIndex(
    const BoundPattern& p) {
  const bool s = p.subject.has_value();
  const bool pr = p.predicate.has_value();
  const bool o = p.object.has_value();
  if (s && pr && o) return {{Order::kSPO, 3}};
  if (s && pr) return {{Order::kSPO, 2}};
  if (pr && o) return {{Order::kPOS, 2}};
  if (o && s) return {{Order::kOSP, 2}};
  if (s) return {{Order::kSPO, 1}};
  if (pr) return {{Order::kPOS, 1}};
  if (o) return {{Order::kOSP, 1}};
  return std::nullopt;
}

Status TripleTable::RangeScan(
    int sub_shard, Order order, const Key& lo, int prefix_len,
    bool charge_probe, Op tuple_op, const BoundPattern& pattern,
    CostMeter* meter, const std::function<bool(const Triple&)>& fn,
    bool* stopped) const {
  if (charge_probe) meter->Add(Op::kIndexProbe);
  const Snapshot* snap = CurrentSnapshot();
  const BPlusTree<Key>& idx =
      shards_[static_cast<size_t>(sub_shard)].Index(order);
  const uint32_t root = RootFor(snap, sub_shard, order);
  for (auto it = idx.LowerBoundAt(root, lo); !it.AtEnd(); ++it) {
    const Key& k = *it;
    // Stop once the bound prefix no longer matches (end of the range).
    bool in_range = true;
    for (int i = 0; i < prefix_len; ++i) {
      if (k[i] != lo[i]) {
        in_range = false;
        break;
      }
    }
    if (!in_range) break;
    meter->Add(tuple_op);
    if (meter->ExceededBudget()) {
      return Status::Cancelled("index scan exceeded cost budget");
    }
    const Triple t = KeyToTriple(order, k);
    if (!Matches(pattern, t)) continue;  // residual predicate
    if (!fn(t)) {
      if (stopped != nullptr) *stopped = true;
      break;
    }
  }
  return Status::OK();
}

Status TripleTable::ScanPattern(
    const BoundPattern& pattern, CostMeter* meter,
    const std::function<bool(const Triple&)>& fn) const {
  const auto choice = ChooseIndex(pattern);
  if (!choice.has_value()) {
    // Nothing bound: full table scan over the SPO indexes in sub-shard
    // order (clustered order within each); no descent is charged, each
    // tuple is a sequential read.
    bool stopped = false;
    for (int s = 0; s < num_shards() && !stopped; ++s) {
      DSKG_RETURN_NOT_OK(RangeScan(s, Order::kSPO, Key{0, 0, 0},
                                   /*prefix_len=*/0, /*charge_probe=*/false,
                                   Op::kSeqScanTuple, pattern, meter, fn,
                                   &stopped));
    }
    return Status::OK();
  }
  const auto [order, prefix_len] = *choice;
  Key lo{0, 0, 0};
  const Triple bound{pattern.subject.value_or(0),
                     pattern.predicate.value_or(0),
                     pattern.object.value_or(0)};
  const Key full = MakeKey(order, bound);
  for (int i = 0; i < prefix_len; ++i) lo[i] = full[i];
  if (pattern.predicate.has_value()) {
    // Bound predicate: every matching row lives in one sub-shard.
    return RangeScan(ShardOf(*pattern.predicate), order, lo, prefix_len,
                     /*charge_probe=*/true, Op::kIndexScanTuple, pattern,
                     meter, fn, nullptr);
  }
  // Predicate unbound: the matching rows may live in any sub-shard; scan
  // each in order (one descent per sub-shard).
  bool stopped = false;
  for (int s = 0; s < num_shards() && !stopped; ++s) {
    DSKG_RETURN_NOT_OK(RangeScan(s, order, lo, prefix_len,
                                 /*charge_probe=*/true, Op::kIndexScanTuple,
                                 pattern, meter, fn, &stopped));
  }
  return Status::OK();
}

uint64_t TripleTable::EstimateMatches(const BoundPattern& p) const {
  if (p.predicate.has_value()) {
    const PredicateTableStats st = StatsOf(*p.predicate);
    if (st.num_triples == 0) return 0;
    double est = static_cast<double>(st.num_triples);
    if (p.subject.has_value()) {
      est /= std::max<uint64_t>(1, st.num_distinct_subjects);
    }
    if (p.object.has_value()) {
      est /= std::max<uint64_t>(1, st.num_distinct_objects);
    }
    return static_cast<uint64_t>(std::max(1.0, est));
  }
  // Variable predicate: assume uniformity across the whole table.
  double est = static_cast<double>(size());
  if (p.subject.has_value()) est /= std::max<uint64_t>(1, SubjectCount());
  if (p.object.has_value()) est /= std::max<uint64_t>(1, ObjectCount());
  return static_cast<uint64_t>(std::max(1.0, est));
}

PredicateTableStats TripleTable::StatsOf(TermId predicate) const {
  if (const Snapshot* snap = CurrentSnapshot()) {
    const auto it = std::lower_bound(
        snap->stats.begin(), snap->stats.end(), predicate,
        [](const auto& entry, TermId p) { return entry.first < p; });
    if (it == snap->stats.end() || it->first != predicate) return {};
    return it->second;
  }
  const SubShard& sh = shards_[static_cast<size_t>(ShardOf(predicate))];
  const auto it = sh.stats.find(predicate);
  if (it == sh.stats.end()) return {};
  return {it->second.num_triples,
          static_cast<uint64_t>(it->second.subjects.size()),
          static_cast<uint64_t>(it->second.objects.size())};
}

std::vector<TermId> TripleTable::Predicates() const {
  std::vector<TermId> out;
  if (const Snapshot* snap = CurrentSnapshot()) {
    out.reserve(snap->stats.size());
    for (const auto& [p, _] : snap->stats) out.push_back(p);
    return out;
  }
  for (const SubShard& sh : shards_) {
    for (const auto& [p, _] : sh.stats) out.push_back(p);
  }
  return out;
}

uint64_t TripleTable::size() const {
  if (const Snapshot* snap = CurrentSnapshot()) return snap->num_rows;
  uint64_t total = 0;
  for (const SubShard& sh : shards_) total += sh.num_rows;
  return total;
}

uint64_t TripleTable::num_predicates() const {
  if (const Snapshot* snap = CurrentSnapshot()) return snap->stats.size();
  uint64_t total = 0;
  for (const SubShard& sh : shards_) total += sh.stats.size();
  return total;
}

uint64_t TripleTable::SubjectCount() const {
  if (const Snapshot* snap = CurrentSnapshot()) return snap->subject_count;
  uint64_t total = 0;
  for (const SubShard& sh : shards_) total += sh.all_subjects.size();
  return total;
}

uint64_t TripleTable::ObjectCount() const {
  if (const Snapshot* snap = CurrentSnapshot()) return snap->object_count;
  uint64_t total = 0;
  for (const SubShard& sh : shards_) total += sh.all_objects.size();
  return total;
}

TripleTable::Snapshot TripleTable::MakeSnapshot() const {
  Snapshot snap;
  snap.owner = this;
  snap.shards.reserve(shards_.size());
  for (const SubShard& sh : shards_) {
    snap.shards.push_back(
        {sh.spo.root(), sh.pos.root(), sh.osp.root()});
    snap.num_rows += sh.num_rows;
    snap.subject_count += sh.all_subjects.size();
    snap.object_count += sh.all_objects.size();
    for (const auto& [p, st] : sh.stats) {
      snap.stats.emplace_back(
          p, PredicateTableStats{st.num_triples,
                                 static_cast<uint64_t>(st.subjects.size()),
                                 static_cast<uint64_t>(st.objects.size())});
    }
  }
  std::sort(snap.stats.begin(), snap.stats.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

// ---- persistence ------------------------------------------------------------

namespace {

/// Writes an occurrence-count map sorted by term id (deterministic bytes
/// for a given table state).
void PutCounts(const std::unordered_map<TermId, uint64_t>& counts,
               std::string* out) {
  std::vector<std::pair<TermId, uint64_t>> sorted(counts.begin(),
                                                  counts.end());
  std::sort(sorted.begin(), sorted.end());
  PutU64(out, sorted.size());
  for (const auto& [id, n] : sorted) {
    PutU64(out, id);
    PutU64(out, n);
  }
}

Status ReadCounts(ByteReader* in, std::unordered_map<TermId, uint64_t>* out) {
  uint64_t n = 0;
  DSKG_RETURN_NOT_OK(in->ReadU64(&n));
  if (n * 16 > in->remaining()) {
    return Status::IoError("table image: count-map size overflow");
  }
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0, count = 0;
    DSKG_RETURN_NOT_OK(in->ReadU64(&id));
    DSKG_RETURN_NOT_OK(in->ReadU64(&count));
    (*out)[id] = count;
  }
  return Status::OK();
}

}  // namespace

Status TripleTable::SerializeTo(std::string* out) const {
  PutU32(out, static_cast<uint32_t>(shards_.size()));
  for (const SubShard& sh : shards_) {
    DSKG_RETURN_NOT_OK(sh.spo.SerializeTo(out));
    DSKG_RETURN_NOT_OK(sh.pos.SerializeTo(out));
    DSKG_RETURN_NOT_OK(sh.osp.SerializeTo(out));
    PutU64(out, sh.num_rows);
    std::vector<TermId> preds;
    preds.reserve(sh.stats.size());
    for (const auto& [p, st] : sh.stats) preds.push_back(p);
    std::sort(preds.begin(), preds.end());
    PutU64(out, preds.size());
    for (const TermId p : preds) {
      const MutableStats& st = sh.stats.at(p);
      PutU64(out, p);
      PutU64(out, st.num_triples);
      PutCounts(st.subjects, out);
      PutCounts(st.objects, out);
    }
    PutCounts(sh.all_subjects, out);
    PutCounts(sh.all_objects, out);
  }
  return Status::OK();
}

Status TripleTable::DeserializeFrom(ByteReader* in) {
  uint32_t num_shards = 0;
  DSKG_RETURN_NOT_OK(in->ReadU32(&num_shards));
  if (num_shards != shards_.size()) {
    return Status::InvalidArgument(
        "table image has " + std::to_string(num_shards) +
        " sub-shards, store configured for " +
        std::to_string(shards_.size()));
  }
  for (SubShard& sh : shards_) {
    if (sh.num_rows != 0 || !sh.spo.empty()) {
      return Status::FailedPrecondition("table restore target is not empty");
    }
    DSKG_RETURN_NOT_OK(sh.spo.DeserializeFrom(in));
    DSKG_RETURN_NOT_OK(sh.pos.DeserializeFrom(in));
    DSKG_RETURN_NOT_OK(sh.osp.DeserializeFrom(in));
    DSKG_RETURN_NOT_OK(in->ReadU64(&sh.num_rows));
    uint64_t num_preds = 0;
    DSKG_RETURN_NOT_OK(in->ReadU64(&num_preds));
    if (num_preds * 16 > in->remaining()) {
      return Status::IoError("table image: predicate count overflow");
    }
    sh.stats.reserve(num_preds);
    for (uint64_t i = 0; i < num_preds; ++i) {
      uint64_t pred = 0;
      DSKG_RETURN_NOT_OK(in->ReadU64(&pred));
      MutableStats& st = sh.stats[pred];
      DSKG_RETURN_NOT_OK(in->ReadU64(&st.num_triples));
      DSKG_RETURN_NOT_OK(ReadCounts(in, &st.subjects));
      DSKG_RETURN_NOT_OK(ReadCounts(in, &st.objects));
    }
    DSKG_RETURN_NOT_OK(ReadCounts(in, &sh.all_subjects));
    DSKG_RETURN_NOT_OK(ReadCounts(in, &sh.all_objects));
  }
  return Status::OK();
}

}  // namespace dskg::relstore
