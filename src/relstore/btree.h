#ifndef DSKG_RELSTORE_BTREE_H_
#define DSKG_RELSTORE_BTREE_H_

/// \file btree.h
/// In-memory B+-tree used for the relational store's secondary indexes.
///
/// The tree stores fixed-width composite keys (permuted triples) in sorted
/// order in its leaves — the classic RDBMS secondary-index layout.
/// Operations:
///
///   * `Insert(key)`    — O(log n), duplicates ignored (set semantics)
///   * `Erase(key)`     — O(log n), full delete with underflow handling:
///                        an underfull node borrows from a sibling when it
///                        can and merges with one otherwise, so the tree
///                        stays balanced under sustained deletion (the
///                        online-update subsystem deletes continuously)
///   * `LowerBound(key)`— O(log n) descent, then an iterator that walks
///                        leaves left to right via a parent stack
///
/// Memory layout — *pool-allocated fixed-capacity nodes*: nodes are flat
/// structs with inline `Key[kMaxKeys + 1]` arrays (the +1 is overflow
/// slack so a split runs after the insert), addressed by `uint32_t` node
/// ids instead of `unique_ptr`s. Leaves and inner nodes live in two
/// per-tree chunked slabs (`StableVector`) whose element addresses never
/// move, so concurrent snapshot readers can traverse nodes while the
/// writer allocates; the id's top bit tags which pool it points into.
/// Nodes freed by merges are recycled through per-pool LIFO free lists,
/// so sustained churn at constant size allocates nothing at all.
///
/// Copy-on-write snapshots (the online store's read path): with
/// `SetCopyOnWrite(true)`, every mutation first clones the root-to-leaf
/// path it touches into fresh pool nodes (`BeginCowBatch` bounds what
/// counts as already-owned), leaving every node reachable from a
/// previously published root byte-for-byte intact. The writer publishes
/// the new `root()` per batch; superseded nodes park on a pending-reclaim
/// list until `ReclaimRetired()` — called only after
/// `EpochManager::WaitUntilDrained` proves no reader can still be
/// traversing them — returns their slots to the free lists. Readers
/// therefore traverse an immutable tree for the price of one root id, and
/// the store keeps ONE copy of the data plus per-batch path deltas
/// (O(batch · height) nodes) instead of a full second replica. Offline
/// (the default), mutations edit nodes in place exactly as before — same
/// pool growth, same free-list order, same bytes.
///
/// Read entry points come in root-parameterized form (`ContainsAt`,
/// `LowerBoundAt`, `BeginAt`) used by snapshot readers,
/// with the classic forms reading the live root.
///
/// Split heuristic: a leaf split normally divides keys evenly, but when
/// the overflowing insert landed at the leaf's first or last slot — an
/// ascending or descending run, the dominant pattern when a permutation
/// index ingests a generated or sorted dataset — the split leaves the run
/// side nearly empty and the other side full. Sequential loads therefore
/// pack leaves to ~100% instead of 50%, roughly halving slab bytes; a
/// run-boundary leaf can sit below the half-full occupancy bound until a
/// deletion touches it, which `Erase`'s borrow/merge already handles.
///
/// Invalidation: live-root `Iterator`s are only stable across const
/// operations. Snapshot-root iterators stay valid until `ReclaimRetired`
/// recycles that snapshot's nodes (the epoch protocol's job to prevent).
///
/// The node fan-out is deliberately page-like (`kMaxKeys` = 64) so that a
/// root-to-leaf descent has realistic depth for the cost model's
/// `kIndexProbe` weight to represent.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/stable_vector.h"
#include "common/status.h"

namespace dskg::relstore {

/// A B+-tree over keys of type `Key` ordered by `operator<`.
/// `Key` must be copyable and totally ordered.
template <typename Key>
class BPlusTree {
 public:
  static constexpr int kMaxKeys = 64;
  static constexpr int kMinKeys = kMaxKeys / 2;

  /// Pool-tagged node handle: the top bit selects the leaf pool, the rest
  /// indexes into it. Exposed so snapshot owners can hold a published
  /// root; treat as opaque.
  using NodeId = uint32_t;
  static constexpr NodeId kNoNode = 0xFFFFFFFFu;

 private:
  static constexpr NodeId kLeafBit = 0x80000000u;
  /// Deepest descent the iterator stack supports; fan-out 65 makes even
  /// 2^32 keys fit in 6 levels.
  static constexpr int kMaxDepth = 16;

  struct LeafNode {
    uint16_t num_keys = 0;
    /// One slot of overflow slack: an insert may briefly hold
    /// kMaxKeys + 1 keys before the split restores the bound.
    Key keys[kMaxKeys + 1];
  };

  struct InnerNode {
    uint16_t num_keys = 0;
    Key keys[kMaxKeys + 1];
    NodeId children[kMaxKeys + 2];
  };

 public:
  BPlusTree() { root_ = AllocLeaf(); }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) = delete;
  BPlusTree& operator=(BPlusTree&&) = delete;

  /// Pre-sizes the leaf pool for roughly `num_keys` keys at ~2/3
  /// occupancy (inner nodes are two orders of magnitude fewer and grow
  /// on demand). Purely an allocation hint for bulk loads; never shrinks.
  void Reserve(size_t num_keys) {
    leaves_.reserve(num_keys / (kMaxKeys * 2 / 3) + 4);
  }

  // ---- copy-on-write control (single writer) ------------------------------

  /// Switches mutation mode. Offline (false, the default) mutations edit
  /// nodes in place. Online (true) every mutation clones the path it
  /// touches, preserving all nodes reachable from previously published
  /// roots. Toggle only while no snapshot is outstanding.
  void SetCopyOnWrite(bool on) { cow_ = on; }

  /// Starts a new copy-on-write batch: nodes cloned or allocated from now
  /// on are owned by this batch and may be edited in place; everything
  /// older is cloned on first touch. Publish `root()` when the batch is
  /// done.
  void BeginCowBatch() { fresh_.clear(); }

  /// Returns every pending-reclaim node slot to the free lists. Call only
  /// after the epoch protocol proves no reader still traverses a root
  /// that references them. Returns the number of slots recycled.
  size_t ReclaimRetired() {
    const size_t n = retired_.size();
    for (const NodeId id : retired_) {
      if (IsLeaf(id)) {
        free_leaves_.push_back(id);
      } else {
        free_inners_.push_back(id);
      }
    }
    retired_.clear();
    return n;
  }

  /// The current root handle. A published root plus the immutability
  /// guarantee of copy-on-write mode is a consistent snapshot of the
  /// whole tree.
  NodeId root() const { return root_; }

  /// Builds the tree from strictly ascending `sorted_keys` at full leaf
  /// occupancy, bottom-up, replacing the current (empty) contents — the
  /// fresh-load path. Versus inserting one by one, packed leaves roughly
  /// halve slab bytes and the build is one pass with O(#nodes) work; a
  /// later insert into a packed leaf simply splits it, and the rightmost
  /// leaf/tail inner may hold fewer than `kMinKeys` entries until a
  /// deletion touches them (same as a split-heuristic run boundary).
  /// Requires `empty()`, `sorted_keys` strictly increasing, and no
  /// outstanding snapshot (bulk loads precede online publication).
  void BulkBuild(const std::vector<Key>& sorted_keys) {
    assert(empty());
    assert(retired_.empty());
    leaves_.clear();
    inners_.clear();
    free_leaves_.clear();
    free_inners_.clear();
    fresh_.clear();
    height_ = 1;
    if (sorted_keys.empty()) {
      root_ = AllocLeaf();
      return;
    }
    const size_t n = sorted_keys.size();
    // Level 0: packed leaves, left to right.
    leaves_.reserve((n + kMaxKeys - 1) / kMaxKeys);
    std::vector<NodeId> level;       // current level's nodes
    std::vector<Key> level_first;    // first key of each node's subtree
    for (size_t i = 0; i < n; i += kMaxKeys) {
      const size_t cnt = std::min<size_t>(kMaxKeys, n - i);
      const NodeId id = AllocLeaf();
      LeafNode& leaf = Leaf(id);
      leaf.num_keys = static_cast<uint16_t>(cnt);
      std::copy(sorted_keys.begin() + static_cast<ptrdiff_t>(i),
                sorted_keys.begin() + static_cast<ptrdiff_t>(i + cnt),
                leaf.keys);
      level.push_back(id);
      level_first.push_back(sorted_keys[i]);
    }
    // Upper levels: pack kMaxKeys + 1 children per inner node; separators
    // are the first keys of the right subtrees.
    while (level.size() > 1) {
      std::vector<NodeId> up;
      std::vector<Key> up_first;
      for (size_t i = 0; i < level.size();) {
        size_t cnt = std::min<size_t>(kMaxKeys + 1, level.size() - i);
        if (level.size() - i - cnt == 1) --cnt;  // no 1-child tail node
        const NodeId id = AllocInner();
        InnerNode& node = Inner(id);
        node.num_keys = static_cast<uint16_t>(cnt - 1);
        for (size_t c = 0; c < cnt; ++c) {
          node.children[c] = level[i + c];
          if (c > 0) node.keys[c - 1] = level_first[i + c];
        }
        up.push_back(id);
        up_first.push_back(level_first[i]);
        i += cnt;
      }
      level = std::move(up);
      level_first = std::move(up_first);
      ++height_;
    }
    root_ = level[0];
    size_ = n;
  }

  /// Inserts `key`. Returns true if inserted, false if already present.
  bool Insert(const Key& key) {
    root_ = EnsureOwned(root_);
    InsertResult r = InsertRec(root_, key);
    if (!r.inserted) return false;
    if (r.split_right != kNoNode) {
      // Root split: grow the tree by one level.
      const NodeId new_root = AllocInner();
      InnerNode& nr = Inner(new_root);
      nr.num_keys = 1;
      nr.keys[0] = r.split_key;
      nr.children[0] = root_;
      nr.children[1] = r.split_right;
      root_ = new_root;
      ++height_;
    }
    ++size_;
    return true;
  }

  /// Removes `key`. Returns true if it was present.
  /// A node left under-full (fewer than `kMinKeys` keys) borrows one key
  /// from an adjacent sibling when that sibling can spare it and merges
  /// with the sibling otherwise, keeping deletion-touched nodes at least
  /// half full — the occupancy bound the cost model's `kIndexProbe` depth
  /// assumes. Nodes
  /// emptied by merges return to their pool's free list (offline) or park
  /// on the pending-reclaim list (copy-on-write).
  bool Erase(const Key& key) {
    root_ = EnsureOwned(root_);
    if (!EraseRec(root_, key)) return false;
    if (!IsLeaf(root_) && Inner(root_).num_keys == 0) {
      // Root collapse: shrink the tree by one level.
      const NodeId old_root = root_;
      root_ = Inner(root_).children[0];
      DiscardNode(old_root);
      --height_;
    }
    --size_;
    return true;
  }

  /// True if `key` is present (live root).
  bool Contains(const Key& key) const { return ContainsAt(root_, key); }

  /// True if `key` is present under snapshot root `root`.
  bool ContainsAt(NodeId root, const Key& key) const {
    const LeafNode& leaf = Leaf(Descend(root, key));
    const Key* end = leaf.keys + leaf.num_keys;
    const Key* it = std::lower_bound(leaf.keys, end, key);
    return it != end && !(key < *it) && !(*it < key);
  }

  /// Forward iterator over keys in sorted order. Holds the root-to-leaf
  /// descent path inline, advancing across leaves through the deepest
  /// ancestor with an unvisited child — no leaf links, so a snapshot
  /// reader touches only nodes reachable from its root. Stable while the
  /// nodes under its root are not edited or reclaimed: for the live root
  /// that means across const operations only; for a published
  /// copy-on-write root, until the snapshot is drained and reclaimed.
  class Iterator {
   public:
    Iterator() = default;

    bool AtEnd() const { return tree_ == nullptr; }

    const Key& operator*() const {
      assert(!AtEnd());
      const Frame& f = path_[depth_ - 1];
      return tree_->Leaf(f.id).keys[f.idx];
    }

    Iterator& operator++() {
      assert(!AtEnd());
      Frame& f = path_[depth_ - 1];
      ++f.idx;
      if (f.idx >= tree_->Leaf(f.id).num_keys) NextLeaf();
      return *this;
    }

   private:
    friend class BPlusTree;
    struct Frame {
      NodeId id = kNoNode;
      uint16_t idx = 0;  ///< child index (inner frames) / key slot (leaf)
    };

    /// Positions at the first key >= `*lower` (or the first key overall
    /// when `lower` is null) under `root`.
    Iterator(const BPlusTree* tree, NodeId root, const Key* lower)
        : tree_(tree) {
      NodeId id = root;
      while (!IsLeaf(id)) {
        const InnerNode& node = tree_->Inner(id);
        const uint16_t ci =
            lower == nullptr
                ? uint16_t{0}
                : static_cast<uint16_t>(ChildIndex(node, *lower));
        assert(depth_ < kMaxDepth);
        path_[depth_++] = {id, ci};
        id = node.children[ci];
      }
      const LeafNode& leaf = tree_->Leaf(id);
      uint16_t slot = 0;
      if (lower != nullptr) {
        const Key* it =
            std::lower_bound(leaf.keys, leaf.keys + leaf.num_keys, *lower);
        slot = static_cast<uint16_t>(it - leaf.keys);
      }
      assert(depth_ < kMaxDepth);
      path_[depth_++] = {id, slot};
      if (slot >= leaf.num_keys) NextLeaf();
    }

    /// Abandons the current leaf and descends to the next one's first
    /// key; ends the iterator when no ancestor has an unvisited child.
    void NextLeaf() {
      --depth_;  // pop the leaf frame
      while (depth_ > 0) {
        Frame& f = path_[depth_ - 1];
        const InnerNode& node = tree_->Inner(f.id);
        if (f.idx < node.num_keys) {  // children run 0..num_keys
          ++f.idx;
          NodeId id = node.children[f.idx];
          while (!IsLeaf(id)) {
            assert(depth_ < kMaxDepth);
            path_[depth_++] = {id, 0};
            id = tree_->Inner(id).children[0];
          }
          assert(depth_ < kMaxDepth);
          path_[depth_++] = {id, 0};
          // Non-root leaves hold >= 1 key (occupancy invariant), so the
          // new position is valid.
          return;
        }
        --depth_;
      }
      tree_ = nullptr;
    }

    const BPlusTree* tree_ = nullptr;
    Frame path_[kMaxDepth];
    int depth_ = 0;
  };

  /// Iterator positioned at the first key >= `key` (live root).
  Iterator LowerBound(const Key& key) const { return LowerBoundAt(root_, key); }

  /// Iterator positioned at the first key >= `key` under `root`.
  Iterator LowerBoundAt(NodeId root, const Key& key) const {
    return Iterator(this, root, &key);
  }

  /// Iterator over the whole tree in sorted order (live root).
  Iterator Begin() const { return BeginAt(root_); }

  /// Iterator over the whole snapshot under `root`.
  Iterator BeginAt(NodeId root) const {
    return Iterator(this, root, nullptr);
  }

  /// Number of keys stored.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Height of the tree (1 = a single leaf). The cost model charges one
  /// `kIndexProbe` per descent regardless; height is exposed for tests.
  int height() const { return height_; }

  /// Nodes currently reachable from the live root (excludes free-listed
  /// slots and retired-but-undrained copy-on-write nodes).
  size_t live_nodes() const {
    return leaves_.size() + inners_.size() - free_leaves_.size() -
           free_inners_.size() - retired_.size();
  }

  /// Superseded copy-on-write nodes awaiting `ReclaimRetired` — still
  /// allocated (old snapshots may traverse them) but no longer reachable
  /// from the live root.
  size_t pending_nodes() const { return retired_.size(); }

  /// Nodes cloned by the copy-on-write gate since construction
  /// (monotone; batch deltas come from subtracting reads). Written only
  /// by the tree's single mutator thread.
  uint64_t cow_clones() const { return cow_clones_; }

  /// Pool slots ever allocated (live + pending-reclaim + free).
  size_t pool_nodes() const { return leaves_.size() + inners_.size(); }

  /// Free-listed node slots awaiting reuse (exposed for churn tests).
  size_t free_nodes() const {
    return free_leaves_.size() + free_inners_.size();
  }

  /// Bytes of the node slabs plus free-list and pending-reclaim
  /// bookkeeping. Deterministic for a given operation sequence (counts
  /// pool slots, not chunk capacity), which is what the bench baselines
  /// track as bytes/triple.
  uint64_t MemoryBytes() const {
    return static_cast<uint64_t>(leaves_.size()) * sizeof(LeafNode) +
           static_cast<uint64_t>(inners_.size()) * sizeof(InnerNode) +
           (free_leaves_.size() + free_inners_.size() + retired_.size()) *
               sizeof(NodeId);
  }

  // ---- persistence (the snapshot tier's slab codec) -------------------------

  /// Appends the whole tree — both node slabs, the free lists, root and
  /// shape — to `out` in the snapshot wire format: node ids are preserved
  /// verbatim so a restored tree is slot-for-slot identical (same ids,
  /// same free-list recycling order, hence the same behavior under every
  /// later mutation). Per slot only `num_keys` live keys are written, so
  /// the encoding is deterministic for a given operation history.
  /// Requires a quiescent tree: no pending-reclaim copy-on-write nodes
  /// (snapshot between batches, after `ReclaimRetired`).
  Status SerializeTo(std::string* out) const {
    static_assert(std::is_trivially_copyable_v<Key>,
                  "B+-tree snapshot codec stores keys as raw bytes");
    if (!retired_.empty()) {
      return Status::FailedPrecondition(
          "cannot serialize a B+-tree with pending-reclaim nodes");
    }
    PutU64(out, size_);
    PutU32(out, static_cast<uint32_t>(height_));
    PutU32(out, root_);
    PutU32(out, static_cast<uint32_t>(leaves_.size()));
    PutU32(out, static_cast<uint32_t>(inners_.size()));
    for (size_t i = 0; i < leaves_.size(); ++i) {
      const LeafNode& leaf = leaves_[i];
      PutU16(out, leaf.num_keys);
      PutBytes(out, leaf.keys, sizeof(Key) * leaf.num_keys);
    }
    for (size_t i = 0; i < inners_.size(); ++i) {
      const InnerNode& node = inners_[i];
      PutU16(out, node.num_keys);
      PutBytes(out, node.keys, sizeof(Key) * node.num_keys);
      for (uint16_t c = 0; c <= node.num_keys; ++c) {
        PutU32(out, node.children[c]);
      }
    }
    PutU32(out, static_cast<uint32_t>(free_leaves_.size()));
    for (const NodeId id : free_leaves_) PutU32(out, id);
    PutU32(out, static_cast<uint32_t>(free_inners_.size()));
    for (const NodeId id : free_inners_) PutU32(out, id);
    return Status::OK();
  }

  /// Replaces the tree's contents with a `SerializeTo` image. Validates
  /// node counts, key counts and id ranges (defense in depth behind the
  /// snapshot checksums) and leaves the tree in offline mode with no
  /// batch state — the restore path flips copy-on-write back on after
  /// every structure is rebuilt.
  Status DeserializeFrom(ByteReader* in) {
    static_assert(std::is_trivially_copyable_v<Key>,
                  "B+-tree snapshot codec stores keys as raw bytes");
    uint64_t size = 0;
    uint32_t height = 0, root = 0, num_leaves = 0, num_inners = 0;
    DSKG_RETURN_NOT_OK(in->ReadU64(&size));
    DSKG_RETURN_NOT_OK(in->ReadU32(&height));
    DSKG_RETURN_NOT_OK(in->ReadU32(&root));
    DSKG_RETURN_NOT_OK(in->ReadU32(&num_leaves));
    DSKG_RETURN_NOT_OK(in->ReadU32(&num_inners));
    if (height < 1 || height > static_cast<uint32_t>(kMaxDepth)) {
      return Status::IoError("b+-tree image: bad height " +
                             std::to_string(height));
    }
    const auto valid_id = [&](NodeId id) {
      return IsLeaf(id) ? (id & ~kLeafBit) < num_leaves : id < num_inners;
    };
    leaves_.clear();
    inners_.clear();
    free_leaves_.clear();
    free_inners_.clear();
    retired_.clear();
    fresh_.clear();
    leaves_.reserve(num_leaves);
    inners_.reserve(num_inners);
    for (uint32_t i = 0; i < num_leaves; ++i) {
      LeafNode& leaf = leaves_.emplace_back();
      uint16_t n = 0;
      DSKG_RETURN_NOT_OK(in->ReadU16(&n));
      if (n > kMaxKeys) {
        return Status::IoError("b+-tree image: leaf key count " +
                               std::to_string(n));
      }
      leaf.num_keys = n;
      DSKG_RETURN_NOT_OK(in->ReadBytes(leaf.keys, sizeof(Key) * n));
    }
    for (uint32_t i = 0; i < num_inners; ++i) {
      InnerNode& node = inners_.emplace_back();
      uint16_t n = 0;
      DSKG_RETURN_NOT_OK(in->ReadU16(&n));
      if (n > kMaxKeys) {
        return Status::IoError("b+-tree image: inner key count " +
                               std::to_string(n));
      }
      node.num_keys = n;
      DSKG_RETURN_NOT_OK(in->ReadBytes(node.keys, sizeof(Key) * n));
      for (uint16_t c = 0; c <= n; ++c) {
        DSKG_RETURN_NOT_OK(in->ReadU32(&node.children[c]));
      }
    }
    // Children of free-listed slots are stale but were valid ids when the
    // slot was live, and slabs never shrink — so every child must parse.
    for (uint32_t i = 0; i < num_inners; ++i) {
      const InnerNode& node = inners_[i];
      for (uint16_t c = 0; c <= node.num_keys; ++c) {
        if (!valid_id(node.children[c])) {
          return Status::IoError("b+-tree image: child id out of range");
        }
      }
    }
    if (!valid_id(root)) {
      return Status::IoError("b+-tree image: root id out of range");
    }
    const auto read_free = [&](std::vector<NodeId>* list, bool leaf_pool) {
      uint32_t n = 0;
      DSKG_RETURN_NOT_OK(in->ReadU32(&n));
      if (n > (leaf_pool ? num_leaves : num_inners)) {
        return Status::IoError("b+-tree image: free-list overflow");
      }
      list->reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        NodeId id = kNoNode;
        DSKG_RETURN_NOT_OK(in->ReadU32(&id));
        if (IsLeaf(id) != leaf_pool || !valid_id(id)) {
          return Status::IoError("b+-tree image: free-list id out of range");
        }
        list->push_back(id);
      }
      return Status::OK();
    };
    DSKG_RETURN_NOT_OK(read_free(&free_leaves_, /*leaf_pool=*/true));
    DSKG_RETURN_NOT_OK(read_free(&free_inners_, /*leaf_pool=*/false));
    root_ = root;
    size_ = size;
    height_ = static_cast<int>(height);
    cow_ = false;
    cow_clones_ = 0;
    return Status::OK();
  }

 private:
  struct InsertResult {
    bool inserted = false;
    Key split_key{};
    NodeId split_right = kNoNode;
  };

  static bool IsLeaf(NodeId id) { return (id & kLeafBit) != 0; }

  LeafNode& Leaf(NodeId id) { return leaves_[id & ~kLeafBit]; }
  const LeafNode& Leaf(NodeId id) const { return leaves_[id & ~kLeafBit]; }
  InnerNode& Inner(NodeId id) { return inners_[id]; }
  const InnerNode& Inner(NodeId id) const { return inners_[id]; }

  /// Root-to-leaf descent for `key` under `root`.
  NodeId Descend(NodeId root, const Key& key) const {
    NodeId id = root;
    while (!IsLeaf(id)) {
      const InnerNode& node = Inner(id);
      id = node.children[ChildIndex(node, key)];
    }
    return id;
  }

  /// Takes a slot from the pool's free list (LIFO) or grows the slab.
  /// Slabs are chunked and never move, so node references held across a
  /// call stay valid. In copy-on-write mode the new node is owned by the
  /// current batch.
  NodeId AllocLeaf() {
    NodeId id;
    if (!free_leaves_.empty()) {
      id = free_leaves_.back();
      free_leaves_.pop_back();
    } else {
      id = static_cast<NodeId>(leaves_.size()) | kLeafBit;
      leaves_.emplace_back();
    }
    LeafNode& leaf = Leaf(id);
    leaf.num_keys = 0;
    if (cow_) fresh_.insert(id);
    return id;
  }

  NodeId AllocInner() {
    NodeId id;
    if (!free_inners_.empty()) {
      id = free_inners_.back();
      free_inners_.pop_back();
    } else {
      id = static_cast<NodeId>(inners_.size());
      inners_.emplace_back();
    }
    Inner(id).num_keys = 0;
    if (cow_) fresh_.insert(id);
    return id;
  }

  /// Copy-on-write gate: a node the current batch does not own is cloned
  /// into a fresh slot and the original parks on the pending-reclaim
  /// list (readers of previously published roots may still traverse it).
  /// Offline, or for batch-owned nodes, the id passes through untouched.
  NodeId EnsureOwned(NodeId id) {
    if (!cow_ || fresh_.count(id) != 0) return id;
    ++cow_clones_;
    if (IsLeaf(id)) {
      const NodeId copy = AllocLeaf();
      Leaf(copy) = Leaf(id);
      retired_.push_back(id);
      return copy;
    }
    const NodeId copy = AllocInner();
    Inner(copy) = Inner(id);
    retired_.push_back(id);
    return copy;
  }

  /// Drops a node the tree no longer references: batch-owned (or
  /// offline) nodes return straight to the free list; published nodes
  /// park on the pending-reclaim list.
  void DiscardNode(NodeId id) {
    if (cow_ && fresh_.count(id) == 0) {
      retired_.push_back(id);
      return;
    }
    fresh_.erase(id);
    if (IsLeaf(id)) {
      free_leaves_.push_back(id);
    } else {
      free_inners_.push_back(id);
    }
  }

  /// Shifts `arr[pos, n)` right by one and writes `v` at `pos`.
  template <typename T>
  static void ArrInsert(T* arr, size_t n, size_t pos, const T& v) {
    std::copy_backward(arr + pos, arr + n, arr + n + 1);
    arr[pos] = v;
  }

  /// Removes `arr[pos]` from `arr[0, n)`, shifting the tail left.
  template <typename T>
  static void ArrRemove(T* arr, size_t n, size_t pos) {
    std::copy(arr + pos + 1, arr + n, arr + pos);
  }

  /// Index of the child subtree that may contain `key`.
  /// Inner node invariant: child i holds keys < keys[i]; the last child
  /// holds keys >= keys[num_keys - 1].
  static size_t ChildIndex(const InnerNode& node, const Key& key) {
    const Key* it =
        std::upper_bound(node.keys, node.keys + node.num_keys, key);
    return static_cast<size_t>(it - node.keys);
  }

  /// `id` is always batch-owned on entry (the caller cloned it), so its
  /// fields may be edited in place; children are cloned on first touch as
  /// the descent reaches them.
  InsertResult InsertRec(NodeId id, const Key& key) {
    if (IsLeaf(id)) {
      LeafNode& leaf = Leaf(id);
      Key* end = leaf.keys + leaf.num_keys;
      Key* it = std::lower_bound(leaf.keys, end, key);
      if (it != end && !(key < *it) && !(*it < key)) {
        return {};  // duplicate
      }
      const size_t slot = static_cast<size_t>(it - leaf.keys);
      ArrInsert(leaf.keys, leaf.num_keys, slot, key);
      ++leaf.num_keys;
      InsertResult r;
      r.inserted = true;
      if (leaf.num_keys > kMaxKeys) SplitLeaf(id, slot, &r);
      return r;
    }
    InnerNode& node = Inner(id);
    const size_t ci = ChildIndex(node, key);
    const NodeId child = EnsureOwned(node.children[ci]);
    node.children[ci] = child;
    InsertResult child_r = InsertRec(child, key);
    if (!child_r.inserted) return {};
    InsertResult r;
    r.inserted = true;
    if (child_r.split_right != kNoNode) {
      ArrInsert(node.keys, node.num_keys, ci, child_r.split_key);
      ArrInsert(node.children, node.num_keys + 1, ci + 1,
                child_r.split_right);
      ++node.num_keys;
      if (node.num_keys > kMaxKeys) SplitInner(id, &r);
    }
    return r;
  }

  /// `insert_slot` is where the overflowing key landed: a first/last-slot
  /// insert is an ascending/descending run, so the split leaves the run
  /// side nearly empty instead of halving (see the file comment).
  void SplitLeaf(NodeId id, size_t insert_slot, InsertResult* r) {
    const NodeId right_id = AllocLeaf();
    LeafNode& leaf = Leaf(id);
    LeafNode& right = Leaf(right_id);
    uint16_t mid;
    if (insert_slot == static_cast<size_t>(leaf.num_keys) - 1) {
      mid = leaf.num_keys - 1;  // ascending run: left stays full
    } else if (insert_slot == 0) {
      mid = 1;  // descending run: right stays full
    } else {
      mid = leaf.num_keys / 2;
    }
    right.num_keys = leaf.num_keys - mid;
    std::copy(leaf.keys + mid, leaf.keys + leaf.num_keys, right.keys);
    leaf.num_keys = mid;
    r->split_key = right.keys[0];
    r->split_right = right_id;
  }

  void SplitInner(NodeId id, InsertResult* r) {
    const NodeId right_id = AllocInner();
    InnerNode& node = Inner(id);
    InnerNode& right = Inner(right_id);
    // keys[mid] moves up; keys right of it and children right of mid+1
    // move to the new node.
    const uint16_t mid = node.num_keys / 2;
    r->split_key = node.keys[mid];
    right.num_keys = node.num_keys - mid - 1;
    std::copy(node.keys + mid + 1, node.keys + node.num_keys, right.keys);
    std::copy(node.children + mid + 1, node.children + node.num_keys + 1,
              right.children);
    node.num_keys = mid;
    r->split_right = right_id;
  }

  /// `id` is batch-owned on entry, like `InsertRec`.
  bool EraseRec(NodeId id, const Key& key) {
    if (IsLeaf(id)) {
      LeafNode& leaf = Leaf(id);
      Key* end = leaf.keys + leaf.num_keys;
      Key* it = std::lower_bound(leaf.keys, end, key);
      if (it == end || key < *it || *it < key) return false;
      ArrRemove(leaf.keys, leaf.num_keys, static_cast<size_t>(it - leaf.keys));
      --leaf.num_keys;
      return true;
    }
    InnerNode& node = Inner(id);
    const size_t ci = ChildIndex(node, key);
    const NodeId child = EnsureOwned(node.children[ci]);
    node.children[ci] = child;
    if (!EraseRec(child, key)) return false;
    if (KeyCount(child) < kMinKeys) Rebalance(id, ci);
    return true;
  }

  uint16_t KeyCount(NodeId id) const {
    return IsLeaf(id) ? Leaf(id).num_keys : Inner(id).num_keys;
  }

  /// Restores the occupancy invariant of child `ci` of `parent_id` after a
  /// deletion left it under-full: borrow from a sibling with spare keys,
  /// else merge with one. The parent itself may become under-full; the
  /// caller's recursion handles that one level up. Siblings a borrow or
  /// merge writes into are cloned first (copy-on-write mode); a sibling
  /// that is merely read and discarded is retired, never edited.
  void Rebalance(NodeId parent_id, size_t ci) {
    const InnerNode& parent = Inner(parent_id);
    const bool has_left = ci > 0;
    const bool has_right = ci + 1 < static_cast<size_t>(parent.num_keys) + 1;
    if (has_left && KeyCount(parent.children[ci - 1]) > kMinKeys) {
      BorrowFromLeft(parent_id, ci);
    } else if (has_right && KeyCount(parent.children[ci + 1]) > kMinKeys) {
      BorrowFromRight(parent_id, ci);
    } else if (has_left) {
      MergeChildren(parent_id, ci - 1);
    } else {
      MergeChildren(parent_id, ci);
    }
  }

  /// Moves one key (and, for inner nodes, one child) from the left sibling
  /// into child `ci`, rotating through the parent separator.
  void BorrowFromLeft(NodeId parent_id, size_t ci) {
    InnerNode& parent = Inner(parent_id);
    const NodeId child_id = parent.children[ci];
    const NodeId left_id = EnsureOwned(parent.children[ci - 1]);
    parent.children[ci - 1] = left_id;
    if (IsLeaf(child_id)) {
      LeafNode& child = Leaf(child_id);
      LeafNode& left = Leaf(left_id);
      ArrInsert(child.keys, child.num_keys, 0, left.keys[left.num_keys - 1]);
      ++child.num_keys;
      --left.num_keys;
      parent.keys[ci - 1] = child.keys[0];
    } else {
      InnerNode& child = Inner(child_id);
      InnerNode& left = Inner(left_id);
      const uint16_t ln = left.num_keys;
      ArrInsert(child.keys, child.num_keys, 0, parent.keys[ci - 1]);
      ++child.num_keys;
      parent.keys[ci - 1] = left.keys[ln - 1];
      // Child count is num_keys + 1; child.num_keys already grew by one.
      ArrInsert(child.children, child.num_keys, 0, left.children[ln]);
      left.num_keys = ln - 1;
    }
  }

  /// Mirror image of `BorrowFromLeft` for the right sibling.
  void BorrowFromRight(NodeId parent_id, size_t ci) {
    InnerNode& parent = Inner(parent_id);
    const NodeId child_id = parent.children[ci];
    const NodeId right_id = EnsureOwned(parent.children[ci + 1]);
    parent.children[ci + 1] = right_id;
    if (IsLeaf(child_id)) {
      LeafNode& child = Leaf(child_id);
      LeafNode& right = Leaf(right_id);
      child.keys[child.num_keys] = right.keys[0];
      ++child.num_keys;
      ArrRemove(right.keys, right.num_keys, 0);
      --right.num_keys;
      parent.keys[ci] = right.keys[0];
    } else {
      InnerNode& child = Inner(child_id);
      InnerNode& right = Inner(right_id);
      const uint16_t rn = right.num_keys;
      child.keys[child.num_keys] = parent.keys[ci];
      ++child.num_keys;
      parent.keys[ci] = right.keys[0];
      ArrRemove(right.keys, rn, 0);
      child.children[child.num_keys] = right.children[0];
      ArrRemove(right.children, static_cast<size_t>(rn) + 1, 0);
      right.num_keys = rn - 1;
    }
  }

  /// Merges child `li + 1` into child `li` of `parent_id`. Both are
  /// at-or-below minimum occupancy, so the merged node fits within
  /// `kMaxKeys`. The absorbed right node is only read, so it needs no
  /// clone; it is discarded (freed offline, retired under copy-on-write).
  void MergeChildren(NodeId parent_id, size_t li) {
    InnerNode& parent = Inner(parent_id);
    const NodeId left_id = EnsureOwned(parent.children[li]);
    parent.children[li] = left_id;
    const NodeId right_id = parent.children[li + 1];
    if (IsLeaf(left_id)) {
      LeafNode& left = Leaf(left_id);
      const LeafNode& right = Leaf(right_id);
      std::copy(right.keys, right.keys + right.num_keys,
                left.keys + left.num_keys);
      left.num_keys += right.num_keys;
    } else {
      InnerNode& left = Inner(left_id);
      const InnerNode& right = Inner(right_id);
      left.keys[left.num_keys] = parent.keys[li];
      std::copy(right.keys, right.keys + right.num_keys,
                left.keys + left.num_keys + 1);
      std::copy(right.children, right.children + right.num_keys + 1,
                left.children + left.num_keys + 1);
      left.num_keys += right.num_keys + 1;
    }
    ArrRemove(parent.keys, parent.num_keys, li);
    ArrRemove(parent.children, static_cast<size_t>(parent.num_keys) + 1,
              li + 1);
    --parent.num_keys;
    DiscardNode(right_id);
  }

  StableVector<LeafNode> leaves_;     ///< leaf slab, indexed by id sans tag
  StableVector<InnerNode> inners_;    ///< inner slab, indexed by id
  std::vector<NodeId> free_leaves_;   ///< recycled leaf slots, LIFO
  std::vector<NodeId> free_inners_;   ///< recycled inner slots, LIFO
  std::vector<NodeId> retired_;       ///< superseded COW nodes, undrained
  std::unordered_set<NodeId> fresh_;  ///< nodes owned by the current batch
  NodeId root_ = kNoNode;
  size_t size_ = 0;
  int height_ = 1;
  bool cow_ = false;
  uint64_t cow_clones_ = 0;  ///< lifetime copy-on-write gate clones
};

}  // namespace dskg::relstore

#endif  // DSKG_RELSTORE_BTREE_H_
