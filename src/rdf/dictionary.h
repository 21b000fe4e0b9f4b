#ifndef DSKG_RDF_DICTIONARY_H_
#define DSKG_RDF_DICTIONARY_H_

/// \file dictionary.h
/// Bidirectional mapping between term strings and dense `TermId`s.
///
/// Memory layout — *interned-string arena*: term text lives in an
/// append-only byte arena (a list of fixed-size chunks that never move),
/// each id owning one `{ptr, len, cap}` span. The forward index is an
/// open-addressing (linear-probing) hash table of term ids hashed by their
/// span's text, probed heterogeneously with a `string_view`, so `Intern`
/// and `Lookup` allocate nothing — hit or miss. Compared to the historical
/// layout (a `std::vector<std::string>` plus an `unordered_map` keyed by a
/// second copy of every string), each term's text is stored once, with
/// ~24 bytes of fixed per-term metadata instead of two `std::string`
/// headers plus a hash-map node.
///
/// Slices: the dictionary is split into `num_slices` share-nothing slices
/// routed by term hash, each owning its own arena, span table, index and
/// free list. Ids interleave — `id = local * num_slices + slice` — so ids
/// from different slices stay globally unique and comparable, and with one
/// slice (the default) id assignment is exactly the unsliced dictionary's.
/// The online store sizes the slice count to its shard count so per-slice
/// arenas grow independently; interning remains single-writer (the
/// injector) because a term's slice is its hash, not its triple's shard.
///
/// Concurrent reads: `Lookup`/`TermOf`/`Contains` are safe to call from
/// any number of reader threads while the single writer interns. Spans
/// live in a `StableVector` (addresses never move), spans point straight
/// into arena chunk storage (readers never touch the chunk table), and
/// the probe index is a heap table of atomic slots republished wholesale
/// on growth — a reader sees a term exactly when the writer's release
/// store of its slot has been observed.
///
/// `string_view`s returned by `TermOf` point into the arena and stay valid
/// for as long as the term is live (chunks never move or shrink); the
/// bytes of a term whose refcount reached zero may be overwritten when its
/// id is recycled.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/stable_vector.h"
#include "common/status.h"
#include "rdf/triple.h"

namespace dskg::rdf {

/// Interns term strings, assigning dense ids 0, 1, 2, ... in first-seen
/// order (interleaved across slices when `num_slices > 1`). Lookup is O(1)
/// expected in both directions and allocation-free.
///
/// Terms are usage-counted for the online-update path: every stored triple
/// `Retain`s its three ids, deletion `Release`s them, and a term
/// whose count drops to zero is forgotten — its id joins the free list and
/// is recycled by the next `Intern` (LIFO, so id assignment is a
/// deterministic function of the operation sequence). The freed id keeps
/// its arena extent: a recycled term whose text fits the old extent is
/// written in place, so churn at a steady term population stops growing
/// the arena. Ids retained at least once are stable for as long as any
/// triple uses them.
///
/// Deferred reclamation (`SetDeferredReclaim(true)`, the online store's
/// mode): a zero-refcount term is not erased immediately — concurrent
/// epoch-pinned readers may still look it up or read its text. Instead it
/// retires in two stages driven by `ReclaimDeferred()`, which the store
/// calls once per batch *after* its epoch drain: the first call tombstones
/// the term's index slot (lookups stop finding it; a term re-interned
/// before this resurrects with its old id, matching the serial path's
/// LIFO-recycled assignment); the second returns the id to the free list
/// and lets its text bytes be overwritten. Offline (the default), a
/// zero-refcount term is erased and recycled immediately — the exact
/// historical semantics.
class Dictionary {
 public:
  explicit Dictionary(int num_slices = 1)
      : slices_(static_cast<size_t>(num_slices < 1 ? 1 : num_slices)) {}

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = delete;
  Dictionary& operator=(Dictionary&&) = delete;

  ~Dictionary() {
    for (Slice& s : slices_) delete s.table.load(std::memory_order_relaxed);
  }

  /// Number of share-nothing hash slices.
  int num_slices() const { return static_cast<int>(slices_.size()); }

  /// Switches between immediate (offline, default) and epoch-deferred
  /// (online) reclamation of zero-refcount terms. Toggle only while
  /// quiescent with no zombies outstanding.
  void SetDeferredReclaim(bool on) { deferred_ = on; }

  /// Pre-sizes the id tables, hash indexes and text arenas — the
  /// bulk-load / rebuild path (`Dataset::Clone`) passes the source's
  /// exact totals so the rebuild performs O(chunks) allocations instead
  /// of growing incrementally. An allocation hint only; never shrinks.
  void Reserve(size_t num_terms, uint64_t total_text_bytes) {
    const size_t per_terms = num_terms / slices_.size();
    const uint64_t per_bytes = total_text_bytes / slices_.size();
    for (Slice& s : slices_) {
      s.spans.reserve(per_terms);
      s.refs.reserve(per_terms);
      size_t want_slots = 16;
      while (want_slots * 7 < per_terms * 10) want_slots *= 2;
      const SlotTable* t = s.table.load(std::memory_order_relaxed);
      if (t == nullptr || want_slots > t->size) Rehash(&s, want_slots);
      if (per_bytes > 0) ReserveArena(&s, per_bytes);
    }
  }

  /// Returns the id for `term`, interning it if new (recycled ids first).
  /// Allocation-free on hit (heterogeneous `string_view` probe of the
  /// open-addressing index). Single writer.
  TermId Intern(std::string_view term) {
    const uint64_t hash = HashTerm(term);
    Slice& sl = slices_[hash % slices_.size()];
    const TermId found = FindLocal(sl, term, hash);
    if (found != kInvalidTermId) {
      // May be a hit on a stage-one zombie (deferred mode): the term
      // resurrects with its old id — exactly the id the serial path's
      // LIFO recycling would reassign. `ReclaimDeferred` skips it once
      // the caller's `Retain` lands.
      return ToGlobal(sl, found);
    }
    TermId local;
    if (!sl.free_local.empty()) {
      local = sl.free_local.back();
      sl.free_local.pop_back();
      WriteSpan(&sl, &sl.spans[local], term);
    } else {
      local = static_cast<TermId>(sl.spans.size());
      Span& s = sl.spans.emplace_back();
      WriteSpan(&sl, &s, term);
      sl.refs.push_back(0);
    }
    InsertSlot(&sl, local, hash);
    sl.bytes += term.size();
    return ToGlobal(sl, local);
  }

  /// Records one usage of `id` (callers: one per triple that uses it).
  void Retain(TermId id) {
    Slice& sl = SliceOf(id);
    const TermId local = ToLocal(id);
    if (local < sl.refs.size()) ++sl.refs[local];
  }

  /// Releases one usage of `id`. At zero the term is forgotten: `Lookup`
  /// stops finding it (immediately offline; after the next
  /// `ReclaimDeferred` online), its text bytes become reusable, and the
  /// id joins the free list. Unretained or already-free ids are ignored.
  void Release(TermId id) {
    Slice& sl = SliceOf(id);
    const TermId local = ToLocal(id);
    if (local >= sl.refs.size() || sl.refs[local] == 0) return;
    if (--sl.refs[local] > 0) return;
    if (deferred_) {
      // Leave slot, span and byte accounting intact: epoch-pinned readers
      // may still find the term, and a same-window re-intern resurrects
      // it. `ReclaimDeferred` finishes the job after the drain.
      sl.zombies_stage1.push_back(local);
      return;
    }
    Span& s = sl.spans[local];
    EraseSlot(&sl, local, HashTerm(TextOf(s)));
    sl.bytes -= s.len;
    s.len = 0;  // TermOf of a freed id reads as empty; extent kept for reuse
    sl.free_local.push_back(local);
  }

  /// Deferred-mode reclamation step; call once per update batch, after
  /// the epoch protocol proves the batch's readers drained. Stage one
  /// tombstones the index slots of terms released in the just-drained
  /// window (skipping any that were re-interned meanwhile); stage two
  /// recycles the ids tombstoned by the *previous* call, whose text no
  /// published state can reach any more. Also frees index tables retired
  /// by growth.
  void ReclaimDeferred() {
    for (Slice& sl : slices_) {
      for (const TermId local : sl.zombies_stage2) {
        sl.spans[local].len = 0;
        sl.free_local.push_back(local);
      }
      sl.zombies_stage2.clear();
      for (const TermId local : sl.zombies_stage1) {
        if (sl.refs[local] > 0) continue;  // resurrected; still live
        Span& s = sl.spans[local];
        TombstoneSlot(&sl, local, HashTerm(TextOf(s)));
        sl.bytes -= s.len;
        sl.zombies_stage2.push_back(local);
      }
      sl.zombies_stage1.clear();
      sl.retired_tables.clear();
    }
  }

  /// Retains / releases the three ids of one stored triple.
  void Retain(const Triple& t) {
    Retain(t.subject);
    Retain(t.predicate);
    Retain(t.object);
  }
  void Release(const Triple& t) {
    Release(t.subject);
    Release(t.predicate);
    Release(t.object);
  }

  /// Current usage count of `id` (0 for unretained or freed ids).
  uint64_t RefCount(TermId id) const {
    const Slice& sl = SliceOf(id);
    const TermId local = ToLocal(id);
    return local < sl.refs.size() ? sl.refs[local] : 0;
  }

  /// Number of freed ids awaiting reuse.
  size_t free_ids() const {
    size_t n = 0;
    for (const Slice& sl : slices_) n += sl.free_local.size();
    return n;
  }

  /// Returns the id for `term` if present, `kInvalidTermId` otherwise.
  /// Allocation-free (heterogeneous `string_view` probe); safe against a
  /// concurrent writer.
  TermId Lookup(std::string_view term) const {
    const uint64_t hash = HashTerm(term);
    const Slice& sl = slices_[hash % slices_.size()];
    const TermId local = FindLocal(sl, term, hash);
    return local == kInvalidTermId ? kInvalidTermId : ToGlobal(sl, local);
  }

  /// True if `term` has been interned.
  bool Contains(std::string_view term) const {
    return Lookup(term) != kInvalidTermId;
  }

  /// Returns the text for `id` as a view into the arena. Requires a
  /// previously assigned id. Valid while the term stays live (freed ids
  /// read as empty until recycled; recycling may overwrite the bytes).
  std::string_view TermOf(TermId id) const {
    const Slice& sl = SliceOf(id);
    return TextOf(sl.spans[ToLocal(id)]);
  }

  /// Returns the string for `id` or an error if out of range.
  Result<std::string> TermOfChecked(TermId id) const {
    const Slice& sl = SliceOf(id);
    const TermId local = ToLocal(id);
    if (local >= sl.spans.size()) {
      return Status::NotFound("term id " + std::to_string(id) +
                              " not in dictionary of size " +
                              std::to_string(size()));
    }
    return std::string(TextOf(sl.spans[local]));
  }

  /// Size of the id space (live terms plus freed slots awaiting reuse).
  /// With several slices this counts assigned ids, whose *values*
  /// interleave (an id may exceed `size()` when slices are unbalanced).
  size_t size() const {
    size_t n = 0;
    for (const Slice& sl : slices_) n += sl.spans.size();
    return n;
  }

  /// Total bytes of interned term text (used for size reporting).
  uint64_t text_bytes() const {
    uint64_t n = 0;
    for (const Slice& sl : slices_) n += sl.bytes;
    return n;
  }

  /// Bytes allocated for arena chunks (includes reusable freed extents
  /// and chunk tails). Deterministic for a given operation sequence.
  uint64_t arena_bytes() const {
    uint64_t n = 0;
    for (const Slice& sl : slices_) n += sl.arena_bytes;
    return n;
  }

  /// Total storage-tier footprint: arena chunks plus span/refcount/index
  /// tables. Deterministic for a given operation sequence (counts table
  /// sizes, not vector capacities).
  uint64_t MemoryBytes() const {
    uint64_t n = 0;
    for (const Slice& sl : slices_) {
      const SlotTable* t = sl.table.load(std::memory_order_relaxed);
      n += sl.arena_bytes + sl.spans.size() * sizeof(Span) +
           sl.refs.size() * sizeof(uint64_t) +
           (t != nullptr ? t->size : 0) * sizeof(TermId) +
           sl.free_local.size() * sizeof(TermId);
    }
    return n;
  }

  // ---- persistence (the snapshot tier's arena codec) ------------------------

  /// Appends every slice — arena chunks, spans (as chunk-relative
  /// extents), refcounts, the free list and both zombie stages — to `out`
  /// in the snapshot wire format. Id assignment is position-based, so a
  /// restored dictionary recycles, resurrects and tombstones exactly like
  /// the original: same ids for the same future operation sequence. The
  /// probe index is *not* serialized (it is rebuilt on load); retired
  /// index tables are reader-epoch state and die with the process.
  Status SerializeTo(std::string* out) const {
    PutU32(out, static_cast<uint32_t>(slices_.size()));
    for (const Slice& sl : slices_) {
      PutU32(out, static_cast<uint32_t>(sl.chunks.size()));
      for (const Chunk& c : sl.chunks) {
        PutU32(out, c.cap);
        PutU32(out, c.used);
        PutBytes(out, c.data.get(), c.used);
      }
      // Chunk starts ascending by address for extent -> chunk resolution.
      std::vector<std::pair<const char*, uint32_t>> starts;
      starts.reserve(sl.chunks.size());
      for (uint32_t i = 0; i < sl.chunks.size(); ++i) {
        starts.emplace_back(sl.chunks[i].data.get(), i);
      }
      std::sort(starts.begin(), starts.end());
      PutU64(out, sl.spans.size());
      for (size_t i = 0; i < sl.spans.size(); ++i) {
        const Span& s = sl.spans[i];
        if (s.cap == 0) {
          PutU32(out, 0xFFFFFFFFu);  // no extent (empty term / fresh slot)
          PutU32(out, 0);
        } else {
          auto it = std::upper_bound(
              starts.begin(), starts.end(),
              std::make_pair(static_cast<const char*>(s.ptr), ~0u));
          const auto& [start, chunk_idx] = *--it;
          PutU32(out, chunk_idx);
          PutU32(out, static_cast<uint32_t>(s.ptr - start));
        }
        PutU32(out, s.len);
        PutU32(out, s.cap);
      }
      for (size_t i = 0; i < sl.refs.size(); ++i) PutU64(out, sl.refs[i]);
      const auto put_ids = [out](const std::vector<TermId>& ids) {
        PutU64(out, ids.size());
        for (const TermId id : ids) PutU64(out, id);
      };
      put_ids(sl.free_local);
      put_ids(sl.zombies_stage1);
      put_ids(sl.zombies_stage2);
      PutU64(out, sl.bytes);
    }
    return Status::OK();
  }

  /// Restores a `SerializeTo` image into this (freshly constructed)
  /// dictionary and rebuilds each slice's probe index from the live local
  /// ids (everything except free-listed and stage-two-tombstoned slots —
  /// stage-one zombies are still findable, matching the crash-time
  /// semantics). The slice count must match construction: id interleaving
  /// depends on it.
  Status DeserializeFrom(ByteReader* in) {
    uint32_t num_slices = 0;
    DSKG_RETURN_NOT_OK(in->ReadU32(&num_slices));
    if (num_slices != slices_.size()) {
      return Status::InvalidArgument(
          "dictionary image has " + std::to_string(num_slices) +
          " slices, store configured for " + std::to_string(slices_.size()));
    }
    for (Slice& sl : slices_) {
      if (!sl.spans.empty() || !sl.chunks.empty()) {
        return Status::FailedPrecondition(
            "dictionary restore target is not empty");
      }
      uint32_t num_chunks = 0;
      DSKG_RETURN_NOT_OK(in->ReadU32(&num_chunks));
      sl.chunks.reserve(num_chunks);
      for (uint32_t i = 0; i < num_chunks; ++i) {
        uint32_t cap = 0, used = 0;
        DSKG_RETURN_NOT_OK(in->ReadU32(&cap));
        DSKG_RETURN_NOT_OK(in->ReadU32(&used));
        if (used > cap || used > in->remaining()) {
          return Status::IoError("dictionary image: bad chunk extent");
        }
        Chunk c{std::make_unique<char[]>(cap), cap, used};
        DSKG_RETURN_NOT_OK(in->ReadBytes(c.data.get(), used));
        sl.arena_bytes += cap;
        sl.chunks.push_back(std::move(c));
      }
      uint64_t num_spans = 0;
      DSKG_RETURN_NOT_OK(in->ReadU64(&num_spans));
      // Each span occupies 16 bytes plus an 8-byte refcount downstream.
      if (num_spans * 16 > in->remaining()) {
        return Status::IoError("dictionary image: span count overflow");
      }
      sl.spans.reserve(num_spans);
      for (uint64_t i = 0; i < num_spans; ++i) {
        uint32_t chunk_idx = 0, offset = 0;
        Span& s = sl.spans.emplace_back();
        DSKG_RETURN_NOT_OK(in->ReadU32(&chunk_idx));
        DSKG_RETURN_NOT_OK(in->ReadU32(&offset));
        DSKG_RETURN_NOT_OK(in->ReadU32(&s.len));
        DSKG_RETURN_NOT_OK(in->ReadU32(&s.cap));
        if (chunk_idx == 0xFFFFFFFFu) {
          if (s.cap != 0 || s.len != 0) {
            return Status::IoError("dictionary image: extent-free span");
          }
          continue;
        }
        if (chunk_idx >= sl.chunks.size() || s.len > s.cap ||
            uint64_t{offset} + s.cap > sl.chunks[chunk_idx].used) {
          return Status::IoError("dictionary image: span out of chunk");
        }
        s.ptr = sl.chunks[chunk_idx].data.get() + offset;
      }
      sl.refs.resize(num_spans);
      for (uint64_t i = 0; i < num_spans; ++i) {
        DSKG_RETURN_NOT_OK(in->ReadU64(&sl.refs[i]));
      }
      const auto read_ids = [&](std::vector<TermId>* ids) {
        uint64_t n = 0;
        DSKG_RETURN_NOT_OK(in->ReadU64(&n));
        if (n > num_spans) {
          return Status::IoError("dictionary image: id list overflow");
        }
        ids->reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          TermId id = kInvalidTermId;
          DSKG_RETURN_NOT_OK(in->ReadU64(&id));
          if (id >= num_spans) {
            return Status::IoError("dictionary image: local id out of range");
          }
          ids->push_back(id);
        }
        return Status::OK();
      };
      DSKG_RETURN_NOT_OK(read_ids(&sl.free_local));
      DSKG_RETURN_NOT_OK(read_ids(&sl.zombies_stage1));
      DSKG_RETURN_NOT_OK(read_ids(&sl.zombies_stage2));
      DSKG_RETURN_NOT_OK(in->ReadU64(&sl.bytes));
      // Rebuild the probe index from the live ids (physical slot layout
      // differs from the original's — growth/tombstone history is gone —
      // but lookup results and future id assignment are identical).
      std::vector<bool> live(num_spans, true);
      for (const TermId id : sl.free_local) live[id] = false;
      for (const TermId id : sl.zombies_stage2) live[id] = false;
      size_t live_count = 0;
      for (uint64_t i = 0; i < num_spans; ++i) live_count += live[i];
      size_t want_slots = 16;
      while ((live_count + 1) * 10 > want_slots * 7) want_slots *= 2;
      Rehash(&sl, want_slots);
      for (uint64_t i = 0; i < num_spans; ++i) {
        if (!live[i]) continue;
        InsertSlot(&sl, static_cast<TermId>(i),
                   HashTerm(TextOf(sl.spans[i])));
      }
    }
    return Status::OK();
  }

 private:
  /// One term's extent in the arena. `ptr` aims straight at chunk storage
  /// so readers never touch the chunk table; `cap` is the extent's full
  /// size — a recycled id whose new text fits `cap` reuses the bytes in
  /// place.
  struct Span {
    char* ptr = nullptr;
    uint32_t len = 0;
    uint32_t cap = 0;
  };

  struct Chunk {
    std::unique_ptr<char[]> data;
    uint32_t cap = 0;
    uint32_t used = 0;
  };

  /// Published probe index: a power-of-two table of *local* ids. Replaced
  /// wholesale on growth (readers keep probing whichever table they
  /// loaded; superseded tables die after the epoch drain).
  struct SlotTable {
    explicit SlotTable(size_t n) : slots(new std::atomic<TermId>[n]), size(n) {
      for (size_t i = 0; i < n; ++i) {
        slots[i].store(kInvalidTermId, std::memory_order_relaxed);
      }
    }
    std::unique_ptr<std::atomic<TermId>[]> slots;
    size_t size;
  };

  /// Slot value marking a deferred-mode deletion: probes continue past it
  /// (unlike `kInvalidTermId`), and inserts never reuse it — the slot is
  /// compacted away by the next growth rehash.
  static constexpr TermId kTombstone = kInvalidTermId - 1;

  static constexpr uint32_t kChunkSize = 1 << 16;

  /// One share-nothing hash slice. All non-atomic state is single-writer.
  struct Slice {
    std::vector<Chunk> chunks;          ///< arena; chunk storage never moves
    StableVector<Span> spans;           ///< per-local-id text extent
    std::vector<uint64_t> refs;         ///< usage count per local id
    std::vector<TermId> free_local;     ///< recycled local ids, LIFO
    std::atomic<SlotTable*> table{nullptr};  ///< published probe index
    size_t occupied = 0;                ///< live + tombstoned slots
    uint64_t bytes = 0;                 ///< live text bytes
    uint64_t arena_bytes = 0;           ///< allocated chunk bytes
    std::vector<TermId> zombies_stage1;  ///< released, pre-drain
    std::vector<TermId> zombies_stage2;  ///< tombstoned, text still pinned
    std::vector<std::unique_ptr<SlotTable>> retired_tables;
  };

  Slice& SliceOf(TermId id) { return slices_[id % slices_.size()]; }
  const Slice& SliceOf(TermId id) const { return slices_[id % slices_.size()]; }
  TermId ToLocal(TermId id) const {
    return id / static_cast<TermId>(slices_.size());
  }
  TermId ToGlobal(const Slice& sl, TermId local) const {
    return local * static_cast<TermId>(slices_.size()) +
           static_cast<TermId>(&sl - slices_.data());
  }

  std::string_view TextOf(const Span& s) const {
    // Zero-length spans (the empty term, or a freed id awaiting reuse)
    // may reference no chunk at all — never dereference through them.
    if (s.len == 0) return {};
    return {s.ptr, s.len};
  }

  /// FNV-1a; self-contained so the probe order is platform-independent.
  static uint64_t HashTerm(std::string_view s) {
    uint64_t h = 1469598103934665603ULL;
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return h;
  }

  /// Appends a chunk able to hold at least `min(need, ~4 GiB)` more
  /// bytes. Extents are 32-bit-sized, so one chunk cannot exceed 4 GiB —
  /// a `Reserve` hint beyond that gets the largest possible chunk and
  /// the remainder grows incrementally (never a silently tiny chunk).
  void ReserveArena(Slice* sl, uint64_t need) {
    const uint32_t cap = static_cast<uint32_t>(std::min<uint64_t>(
        std::max<uint64_t>(kChunkSize, need), 0xFFFFFFFFull));
    sl->chunks.push_back({std::make_unique<char[]>(cap), cap, 0});
    sl->arena_bytes += cap;
  }

  /// Places `term`'s bytes: in the span's existing extent when it fits
  /// (the recycle path), else in fresh arena space. The span is only
  /// published to readers afterwards (release store of its slot).
  void WriteSpan(Slice* sl, Span* s, std::string_view term) {
    const uint32_t len = static_cast<uint32_t>(term.size());
    if (len == 0) {
      s->len = 0;  // the empty term needs no extent (see TextOf)
      return;
    }
    if (len > s->cap) {
      if (sl->chunks.empty() ||
          sl->chunks.back().cap - sl->chunks.back().used < len) {
        ReserveArena(sl, len);
      }
      Chunk& c = sl->chunks.back();
      s->ptr = c.data.get() + c.used;
      s->cap = len;
      c.used += len;
    }
    s->len = len;
    std::copy(term.begin(), term.end(), s->ptr);
  }

  // ---- open-addressing forward index (linear probing) ---------------------

  TermId FindLocal(const Slice& sl, std::string_view term,
                   uint64_t hash) const {
    const SlotTable* t = sl.table.load(std::memory_order_acquire);
    if (t == nullptr) return kInvalidTermId;
    const size_t mask = t->size - 1;
    size_t i = hash & mask;
    for (;;) {
      const TermId local = t->slots[i].load(std::memory_order_acquire);
      if (local == kInvalidTermId) return kInvalidTermId;
      if (local != kTombstone && TextOf(sl.spans[local]) == term) return local;
      i = (i + 1) & mask;
    }
  }

  /// Builds and publishes a fresh table of `new_size` slots (compacting
  /// tombstones away). The superseded table stays probe-safe for readers
  /// that already loaded it: retired under deferred reclamation, deleted
  /// immediately offline (no concurrent readers exist there).
  void Rehash(Slice* sl, size_t new_size) {
    SlotTable* old = sl->table.load(std::memory_order_relaxed);
    auto fresh = std::make_unique<SlotTable>(new_size);
    size_t live = 0;
    if (old != nullptr) {
      const size_t mask = new_size - 1;
      for (size_t i = 0; i < old->size; ++i) {
        const TermId local = old->slots[i].load(std::memory_order_relaxed);
        if (local == kInvalidTermId || local == kTombstone) continue;
        size_t j = HashTerm(TextOf(sl->spans[local])) & mask;
        while (fresh->slots[j].load(std::memory_order_relaxed) !=
               kInvalidTermId) {
          j = (j + 1) & mask;
        }
        fresh->slots[j].store(local, std::memory_order_relaxed);
        ++live;
      }
    }
    sl->occupied = live;
    sl->table.store(fresh.release(), std::memory_order_release);
    if (old != nullptr) {
      if (deferred_) {
        sl->retired_tables.emplace_back(old);
      } else {
        delete old;
      }
    }
  }

  void InsertSlot(Slice* sl, TermId local, uint64_t hash) {
    SlotTable* t = sl->table.load(std::memory_order_relaxed);
    if (t == nullptr || (sl->occupied + 1) * 10 > t->size * 7) {
      Rehash(sl, t == nullptr ? 16 : t->size * 2);
      t = sl->table.load(std::memory_order_relaxed);
    }
    const size_t mask = t->size - 1;
    size_t i = hash & mask;
    // Never reuse a tombstone: readers mid-probe rely on the slot's value
    // only ever going live -> tombstone until the next table swap.
    while (t->slots[i].load(std::memory_order_relaxed) != kInvalidTermId) {
      i = (i + 1) & mask;
    }
    t->slots[i].store(local, std::memory_order_release);
    ++sl->occupied;
  }

  /// Backward-shift deletion (offline mode only): no tombstones, so the
  /// load factor only counts live entries and probe chains stay short
  /// under churn. Unsafe against concurrent readers — deferred mode uses
  /// `TombstoneSlot` instead.
  void EraseSlot(Slice* sl, TermId local, uint64_t hash) {
    SlotTable* t = sl->table.load(std::memory_order_relaxed);
    if (t == nullptr) return;
    const size_t mask = t->size - 1;
    const auto at = [&](size_t i) {
      return t->slots[i].load(std::memory_order_relaxed);
    };
    size_t i = hash & mask;
    while (at(i) != local) {
      if (at(i) == kInvalidTermId) return;  // not indexed (defensive)
      i = (i + 1) & mask;
    }
    size_t hole = i;
    size_t j = (i + 1) & mask;
    while (at(j) != kInvalidTermId) {
      const size_t ideal = HashTerm(TextOf(sl->spans[at(j)])) & mask;
      // slots[j] may fill the hole iff its probe path [ideal, j) passes
      // through the hole (cyclically).
      const bool reaches = ideal <= j ? (ideal <= hole && hole < j)
                                      : (hole >= ideal || hole < j);
      if (reaches) {
        t->slots[hole].store(at(j), std::memory_order_relaxed);
        hole = j;
      }
      j = (j + 1) & mask;
    }
    t->slots[hole].store(kInvalidTermId, std::memory_order_relaxed);
    --sl->occupied;
  }

  /// Deferred-mode deletion: marks the slot dead without disturbing the
  /// probe chains concurrent readers are walking. The slot stays counted
  /// in `occupied` until a growth rehash compacts it away.
  void TombstoneSlot(Slice* sl, TermId local, uint64_t hash) {
    SlotTable* t = sl->table.load(std::memory_order_relaxed);
    if (t == nullptr) return;
    const size_t mask = t->size - 1;
    size_t i = hash & mask;
    for (;;) {
      const TermId cur = t->slots[i].load(std::memory_order_relaxed);
      if (cur == local) break;
      if (cur == kInvalidTermId) return;  // not indexed (defensive)
      i = (i + 1) & mask;
    }
    t->slots[i].store(kTombstone, std::memory_order_release);
  }

  std::vector<Slice> slices_;
  bool deferred_ = false;
};

}  // namespace dskg::rdf

#endif  // DSKG_RDF_DICTIONARY_H_
