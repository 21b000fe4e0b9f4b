#include "graphstore/property_graph.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace dskg::graphstore {

using rdf::TermId;
using rdf::Triple;

namespace {

constexpr uint64_t kChunkMask = 63;

}  // namespace

PropertyGraph::Partition::~Partition() {
  if (!owns_chunks) return;
  for (Chunk* c : out) delete c;
  for (Chunk* c : in) delete c;
}

Status PropertyGraph::ImportPartition(TermId predicate,
                                      const std::vector<Triple>& triples,
                                      CostMeter* meter) {
  Shard& sh = shards_[static_cast<size_t>(ShardOf(predicate))];
  if (sh.partitions.find(predicate) != sh.partitions.end()) {
    return Status::AlreadyExists("partition " + std::to_string(predicate) +
                                 " already resident");
  }
  for (const Triple& t : triples) {
    if (t.predicate != predicate) {
      return Status::InvalidArgument(
          "triple with predicate " + std::to_string(t.predicate) +
          " in partition " + std::to_string(predicate));
    }
  }
  if (!TryReserve(triples.size())) {
    return Status::CapacityExceeded(
        "importing " + std::to_string(triples.size()) + " triples exceeds " +
        std::to_string(capacity_triples_) + "-triple budget (" +
        std::to_string(used_.load(std::memory_order_relaxed)) + " used)");
  }
  auto part = std::make_unique<Partition>();
  std::vector<std::pair<TermId, TermId>> pairs;
  pairs.reserve(triples.size());
  for (const Triple& t : triples) {
    pairs.emplace_back(t.subject, t.object);
    if (meter != nullptr) meter->Add(Op::kImportTriple);
  }
  part->chunk_bytes = BuildDirectory(&pairs, sh.batch, &part->out);
  pairs.clear();
  for (const Triple& t : triples) pairs.emplace_back(t.object, t.subject);
  part->chunk_bytes += BuildDirectory(&pairs, sh.batch, &part->in);
  part->triples = triples.size();
  sh.partitions.emplace(predicate, std::move(part));
  if (deferred_) sh.fresh.insert(predicate);
  return Status::OK();
}

Status PropertyGraph::EvictPartition(TermId predicate, CostMeter* meter) {
  Shard& sh = shards_[static_cast<size_t>(ShardOf(predicate))];
  auto it = sh.partitions.find(predicate);
  if (it == sh.partitions.end()) {
    return Status::NotFound("partition " + std::to_string(predicate) +
                            " not resident");
  }
  const uint64_t n = it->second->triples;
  if (meter != nullptr) meter->Add(Op::kEvictTriple, n);
  used_.fetch_sub(n, std::memory_order_relaxed);
  if (deferred_) {
    // A published snapshot may still traverse the partition: keep the
    // object (and the chunks it owns) alive until the shard's post-drain
    // reclamation.
    sh.retired.push_back(std::move(it->second));
    sh.fresh.erase(predicate);
  }
  sh.partitions.erase(it);
  return Status::OK();
}

Status PropertyGraph::InsertTriple(const Triple& t, CostMeter* meter) {
  Shard& sh = shards_[static_cast<size_t>(ShardOf(t.predicate))];
  if (sh.partitions.find(t.predicate) == sh.partitions.end()) {
    return Status::NotFound("partition " + std::to_string(t.predicate) +
                            " not resident; single inserts only extend "
                            "loaded partitions");
  }
  if (!TryReserve(1)) {
    return Status::CapacityExceeded("graph store is full");
  }
  Partition* part = Own(&sh, t.predicate);
  Link(&sh, part, &part->out, t.subject, t.object);
  Link(&sh, part, &part->in, t.object, t.subject);
  ++part->triples;
  if (meter != nullptr) meter->Add(Op::kImportTriple);
  return Status::OK();
}

Status PropertyGraph::RemoveTriple(const Triple& t, CostMeter* meter) {
  Shard& sh = shards_[static_cast<size_t>(ShardOf(t.predicate))];
  const auto it = sh.partitions.find(t.predicate);
  if (it == sh.partitions.end()) {
    return Status::NotFound("partition " + std::to_string(t.predicate) +
                            " not resident");
  }
  const std::span<const TermId> out = ListOf(it->second->out, t.subject);
  if (!std::binary_search(out.begin(), out.end(), t.object)) {
    return Status::NotFound("edge not present in partition " +
                            std::to_string(t.predicate));
  }
  Partition* part = Own(&sh, t.predicate);
  Unlink(&sh, part, &part->out, t.subject, t.object);
  Unlink(&sh, part, &part->in, t.object, t.subject);
  --part->triples;
  used_.fetch_sub(1, std::memory_order_relaxed);
  if (meter != nullptr) meter->Add(Op::kEvictTriple);
  return Status::OK();
}

std::vector<TermId> PropertyGraph::LoadedPredicates() const {
  std::vector<TermId> out;
  if (const Snapshot* snap = CurrentSnapshot()) {
    out.reserve(snap->parts.size());
    for (const auto& [p, _] : snap->parts) out.push_back(p);
    return out;  // snapshot is already sorted by predicate
  }
  for (const Shard& sh : shards_) {
    for (const auto& [p, _] : sh.partitions) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t PropertyGraph::PartitionTriples(TermId predicate) const {
  const Partition* part = Find(predicate);
  return part == nullptr ? 0 : part->triples;
}

uint64_t PropertyGraph::used_triples() const {
  if (const Snapshot* snap = CurrentSnapshot()) return snap->used_triples;
  return used_.load(std::memory_order_relaxed);
}

uint64_t PropertyGraph::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const Shard& sh : shards_) {
    for (const auto& [p, part] : sh.partitions) {
      bytes += sizeof(Partition) +
               (part->out.capacity() + part->in.capacity()) * sizeof(Chunk*) +
               part->chunk_bytes;
    }
  }
  return bytes;
}

uint64_t PropertyGraph::FreeTriples() const {
  if (capacity_triples_ == 0) {
    return std::numeric_limits<uint64_t>::max();
  }
  return capacity_triples_ - used_triples();
}

std::span<const TermId> PropertyGraph::OutNeighbors(TermId v,
                                                    TermId predicate) const {
  const Partition* part = Find(predicate);
  return part == nullptr ? std::span<const TermId>() : ListOf(part->out, v);
}

std::span<const TermId> PropertyGraph::InNeighbors(TermId v,
                                                   TermId predicate) const {
  const Partition* part = Find(predicate);
  return part == nullptr ? std::span<const TermId>() : ListOf(part->in, v);
}

std::span<const TermId> PropertyGraph::ListOf(const Directory& dir,
                                              TermId v) {
  const uint64_t slot = v >> kChunkBits;
  if (slot >= dir.size() || dir[slot] == nullptr) return {};
  const Chunk& c = *dir[slot];
  const uint64_t bit = uint64_t{1} << (v & kChunkMask);
  if ((c.present & bit) == 0) return {};
  const int rank = std::popcount(c.present & (bit - 1));
  return {c.nbrs.data() + c.offsets[rank],
          c.offsets[rank + 1] - c.offsets[rank]};
}

PropertyGraph::EdgeWalk PropertyGraph::WalkEdges(TermId predicate,
                                                 uint64_t start) const {
  EdgeWalk w;
  const Partition* part = Find(predicate);
  if (part == nullptr) return w;
  w.dir_ = part->in.data();
  w.slots_ = part->in.size();
  for (w.slot_ = 0; w.slot_ < w.slots_; ++w.slot_) {
    const Chunk* c = w.dir_[w.slot_];
    if (c == nullptr) continue;
    if (start >= c->nbrs.size()) {
      start -= c->nbrs.size();
      continue;
    }
    w.pos_ = static_cast<uint32_t>(start);
    // The list holding edge `start`: the last offset at or below it.
    w.list_ = static_cast<uint32_t>(
        std::upper_bound(c->offsets.begin(), c->offsets.end(), w.pos_) -
        c->offsets.begin() - 1);
    w.rest_ = c->present;
    for (uint32_t i = 0; i < w.list_; ++i) w.rest_ &= w.rest_ - 1;
    break;
  }
  return w;
}

void PropertyGraph::EdgeWalk::Next(TermId* subject, TermId* object) {
  const Chunk& c = *dir_[slot_];
  *object = (static_cast<TermId>(slot_) << kChunkBits) |
            static_cast<TermId>(std::countr_zero(rest_));
  *subject = c.nbrs[pos_];
  ++pos_;
  if (pos_ < c.offsets[list_ + 1]) return;
  // The list is done (lists are never empty): step to the next one, or
  // to the next chunk (a resident chunk always holds a list).
  ++list_;
  rest_ &= rest_ - 1;
  if (rest_ != 0) return;
  do {
    ++slot_;
  } while (slot_ < slots_ && dir_[slot_] == nullptr);
  if (slot_ == slots_) return;
  pos_ = 0;
  list_ = 0;
  rest_ = dir_[slot_]->present;
}

const PropertyGraph::Partition* PropertyGraph::Find(TermId predicate) const {
  if (const Snapshot* snap = CurrentSnapshot()) {
    const auto it = std::lower_bound(
        snap->parts.begin(), snap->parts.end(), predicate,
        [](const auto& entry, TermId p) { return entry.first < p; });
    if (it == snap->parts.end() || it->first != predicate) return nullptr;
    return it->second;
  }
  const Shard& sh = shards_[static_cast<size_t>(ShardOf(predicate))];
  const auto it = sh.partitions.find(predicate);
  return it == sh.partitions.end() ? nullptr : it->second.get();
}

PropertyGraph::Partition* PropertyGraph::Own(Shard* sh, TermId predicate) {
  auto it = sh->partitions.find(predicate);
  if (it == sh->partitions.end()) return nullptr;
  if (!deferred_ || sh->fresh.count(predicate) != 0) return it->second.get();
  // Batch's first touch of a published partition: the clone copies the
  // two directories and shares every chunk; `WritableChunk` copies a
  // chunk on its first touch. The original, retired until the drain
  // proves its snapshot readers finished, no longer owns the chunks.
  auto clone = std::make_unique<Partition>();
  clone->out = it->second->out;
  clone->in = it->second->in;
  clone->triples = it->second->triples;
  clone->chunk_bytes = it->second->chunk_bytes;
  sh->retired.push_back(std::move(it->second));
  sh->retired.back()->owns_chunks = false;
  it->second = std::move(clone);
  sh->fresh.insert(predicate);
  return it->second.get();
}

PropertyGraph::Chunk* PropertyGraph::WritableChunk(Shard* sh,
                                                   Partition* part,
                                                   Directory* dir,
                                                   size_t slot) {
  if (slot >= dir->size()) dir->resize(slot + 1, nullptr);
  Chunk*& c = (*dir)[slot];
  if (c == nullptr) {
    auto made = std::make_unique<Chunk>();
    made->offsets.push_back(0);
    made->batch = sh->batch;
    part->chunk_bytes += ChunkBytes(*made);
    c = made.release();
  } else if (deferred_ && c->batch != sh->batch) {
    // First touch this batch of a chunk a snapshot may read: mutate a
    // copy, retire the original until the drain. The copy has room for
    // the one entry the touching op usually adds.
    auto copy = std::make_unique<Chunk>();
    copy->present = c->present;
    copy->batch = sh->batch;
    copy->offsets.reserve(c->offsets.size() + 1);
    copy->offsets.assign(c->offsets.begin(), c->offsets.end());
    copy->nbrs.reserve(c->nbrs.size() + 1);
    copy->nbrs.assign(c->nbrs.begin(), c->nbrs.end());
    part->chunk_bytes += ChunkBytes(*copy);
    part->chunk_bytes -= ChunkBytes(*c);
    sh->retired_chunks.emplace_back(c);
    c = copy.release();
    ++sh->chunks_cloned;
  }
  return c;
}

void PropertyGraph::Link(Shard* sh, Partition* part, Directory* dir,
                         TermId v, TermId nbr) {
  Chunk* c = WritableChunk(sh, part, dir, v >> kChunkBits);
  part->chunk_bytes -= ChunkBytes(*c);
  const uint64_t bit = uint64_t{1} << (v & kChunkMask);
  const size_t rank = std::popcount(c->present & (bit - 1));
  if ((c->present & bit) == 0) {
    // A new, empty list at `rank`: repeat its start offset.
    c->offsets.insert(c->offsets.begin() + rank, c->offsets[rank]);
    c->present |= bit;
  }
  const auto first = c->nbrs.begin() + c->offsets[rank];
  const auto last = c->nbrs.begin() + c->offsets[rank + 1];
  c->nbrs.insert(std::upper_bound(first, last, nbr), nbr);
  for (size_t i = rank + 1; i < c->offsets.size(); ++i) ++c->offsets[i];
  part->chunk_bytes += ChunkBytes(*c);
}

void PropertyGraph::Unlink(Shard* sh, Partition* part, Directory* dir,
                           TermId v, TermId nbr) {
  const size_t slot = v >> kChunkBits;
  Chunk* c = WritableChunk(sh, part, dir, slot);
  part->chunk_bytes -= ChunkBytes(*c);
  const uint64_t bit = uint64_t{1} << (v & kChunkMask);
  const size_t rank = std::popcount(c->present & (bit - 1));
  const auto first = c->nbrs.begin() + c->offsets[rank];
  const auto last = c->nbrs.begin() + c->offsets[rank + 1];
  c->nbrs.erase(std::lower_bound(first, last, nbr));
  for (size_t i = rank + 1; i < c->offsets.size(); ++i) --c->offsets[i];
  if (c->offsets[rank] == c->offsets[rank + 1]) {
    c->offsets.erase(c->offsets.begin() + rank + 1);
    c->present &= ~bit;
  }
  if (c->present == 0) {
    // Written this batch (or offline): no snapshot reaches it.
    delete c;
    (*dir)[slot] = nullptr;
    return;
  }
  part->chunk_bytes += ChunkBytes(*c);
}

uint64_t PropertyGraph::BuildDirectory(
    std::vector<std::pair<TermId, TermId>>* pairs, uint64_t batch,
    Directory* dir) {
  std::vector<std::pair<TermId, TermId>>& e = *pairs;
  if (!std::is_sorted(e.begin(), e.end())) std::sort(e.begin(), e.end());
  uint64_t bytes = 0;
  if (!e.empty()) dir->assign((e.back().first >> kChunkBits) + 1, nullptr);
  for (size_t i = 0; i < e.size();) {
    const uint64_t slot = e[i].first >> kChunkBits;
    size_t end = i;
    uint64_t present = 0;
    for (; end < e.size() && (e[end].first >> kChunkBits) == slot; ++end) {
      present |= uint64_t{1} << (e[end].first & kChunkMask);
    }
    auto c = std::make_unique<Chunk>();
    c->present = present;
    c->batch = batch;
    c->offsets.reserve(static_cast<size_t>(std::popcount(present)) + 1);
    c->nbrs.reserve(end - i);
    for (size_t k = i; k < end; ++k) {
      if (k == i || e[k].first != e[k - 1].first) {
        c->offsets.push_back(static_cast<uint32_t>(k - i));
      }
      c->nbrs.push_back(e[k].second);
    }
    c->offsets.push_back(static_cast<uint32_t>(end - i));
    bytes += ChunkBytes(*c);
    (*dir)[slot] = c.release();
    i = end;
  }
  return bytes;
}

PropertyGraph::Snapshot PropertyGraph::MakeSnapshot() const {
  Snapshot snap;
  snap.owner = this;
  for (const Shard& sh : shards_) {
    for (const auto& [p, part] : sh.partitions) {
      snap.parts.emplace_back(p, part.get());
    }
  }
  snap.used_triples = used_.load(std::memory_order_relaxed);
  std::sort(snap.parts.begin(), snap.parts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

}  // namespace dskg::graphstore
