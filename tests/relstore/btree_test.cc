// B+-tree tests: structural invariants plus randomized differential
// testing against std::set.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "common/rng.h"
#include "relstore/btree.h"

namespace dskg::relstore {
namespace {

using Key = std::array<uint64_t, 3>;

TEST(BPlusTree, EmptyTree) {
  BPlusTree<Key> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Begin().AtEnd());
  EXPECT_FALSE(tree.Contains({1, 2, 3}));
}

TEST(BPlusTree, InsertAndContains) {
  BPlusTree<Key> tree;
  EXPECT_TRUE(tree.Insert({1, 2, 3}));
  EXPECT_FALSE(tree.Insert({1, 2, 3}));  // duplicate
  EXPECT_TRUE(tree.Contains({1, 2, 3}));
  EXPECT_FALSE(tree.Contains({1, 2, 4}));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTree, IterationIsSorted) {
  BPlusTree<Key> tree;
  for (uint64_t i = 100; i > 0; --i) tree.Insert({i, 0, 0});
  uint64_t prev = 0;
  size_t count = 0;
  for (auto it = tree.Begin(); !it.AtEnd(); ++it) {
    EXPECT_GT((*it)[0], prev);
    prev = (*it)[0];
    ++count;
  }
  EXPECT_EQ(count, 100u);
}

TEST(BPlusTree, SplitsGrowHeight) {
  BPlusTree<Key> tree;
  EXPECT_EQ(tree.height(), 1);
  for (uint64_t i = 0; i < 1000; ++i) tree.Insert({i, i, i});
  EXPECT_GT(tree.height(), 1);
  EXPECT_EQ(tree.size(), 1000u);
}

TEST(BPlusTree, LowerBoundFindsFirstNotLess) {
  BPlusTree<Key> tree;
  for (uint64_t i = 0; i < 100; i += 10) tree.Insert({i, 0, 0});
  auto it = tree.LowerBound({35, 0, 0});
  ASSERT_FALSE(it.AtEnd());
  EXPECT_EQ((*it)[0], 40u);
  it = tree.LowerBound({40, 0, 0});
  EXPECT_EQ((*it)[0], 40u);
  it = tree.LowerBound({95, 0, 0});
  EXPECT_TRUE(it.AtEnd());
}

TEST(BPlusTree, LowerBoundPrefixScan) {
  // The index usage pattern: all keys with a bound first component.
  BPlusTree<Key> tree;
  for (uint64_t s = 0; s < 20; ++s) {
    for (uint64_t o = 0; o < 5; ++o) tree.Insert({s, 7, o});
  }
  size_t count = 0;
  for (auto it = tree.LowerBound({13, 0, 0}); !it.AtEnd(); ++it) {
    if ((*it)[0] != 13) break;
    ++count;
  }
  EXPECT_EQ(count, 5u);
}

TEST(BPlusTree, EraseRemovesKeys) {
  BPlusTree<Key> tree;
  for (uint64_t i = 0; i < 200; ++i) tree.Insert({i, 0, 0});
  EXPECT_TRUE(tree.Erase({50, 0, 0}));
  EXPECT_FALSE(tree.Erase({50, 0, 0}));
  EXPECT_FALSE(tree.Contains({50, 0, 0}));
  EXPECT_EQ(tree.size(), 199u);
  // Iteration skips the erased key.
  for (auto it = tree.Begin(); !it.AtEnd(); ++it) {
    EXPECT_NE((*it)[0], 50u);
  }
}

class BTreeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeDifferentialTest, MatchesStdSetUnderRandomOps) {
  Rng rng(GetParam());
  BPlusTree<Key> tree;
  std::set<Key> reference;
  for (int op = 0; op < 5000; ++op) {
    Key k{rng.NextBounded(50), rng.NextBounded(10), rng.NextBounded(50)};
    if (rng.NextBool(0.8)) {
      EXPECT_EQ(tree.Insert(k), reference.insert(k).second);
    } else {
      EXPECT_EQ(tree.Erase(k), reference.erase(k) > 0);
    }
  }
  EXPECT_EQ(tree.size(), reference.size());
  // Full scan equals sorted reference.
  auto rit = reference.begin();
  for (auto it = tree.Begin(); !it.AtEnd(); ++it, ++rit) {
    ASSERT_NE(rit, reference.end());
    EXPECT_EQ(*it, *rit);
  }
  EXPECT_EQ(rit, reference.end());
  // Random lower-bound probes agree.
  for (int probe = 0; probe < 200; ++probe) {
    Key k{rng.NextBounded(55), rng.NextBounded(11), rng.NextBounded(55)};
    auto it = tree.LowerBound(k);
    auto ref = reference.lower_bound(k);
    if (ref == reference.end()) {
      EXPECT_TRUE(it.AtEnd());
    } else {
      ASSERT_FALSE(it.AtEnd());
      EXPECT_EQ(*it, *ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

// ---- targeted erase/underflow coverage ------------------------------------

TEST(BPlusTree, EraseDrainsLeafThroughUnderflow) {
  // One split (65 keys -> two leaves), then drain one side far below
  // kMinKeys: every key must stay reachable by Contains, iteration and
  // LowerBound while borrow/merge rebalancing runs underneath.
  BPlusTree<Key> tree;
  const uint64_t n = BPlusTree<Key>::kMaxKeys + 1;
  for (uint64_t i = 0; i < n; ++i) tree.Insert({i, 0, 0});
  EXPECT_EQ(tree.height(), 2);
  for (uint64_t i = 0; i < n; i += 2) {
    ASSERT_TRUE(tree.Erase({i, 0, 0})) << i;
  }
  EXPECT_EQ(tree.size(), n / 2);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(tree.Contains({i, 0, 0}), i % 2 == 1) << i;
  }
  size_t count = 0;
  for (auto it = tree.Begin(); !it.AtEnd(); ++it) ++count;
  EXPECT_EQ(count, n / 2);
}

TEST(BPlusTree, EraseMergesBackToSingleLeaf) {
  // Deleting all but one key must collapse every level: the tree ends as
  // a single near-empty root leaf, not a chain of hollow inner nodes.
  BPlusTree<Key> tree;
  for (uint64_t i = 0; i < 1000; ++i) tree.Insert({i, i, i});
  const int grown_height = tree.height();
  EXPECT_GT(grown_height, 1);
  for (uint64_t i = 0; i < 999; ++i) {
    ASSERT_TRUE(tree.Erase({i, i, i})) << i;
  }
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.Contains({999, 999, 999}));
  EXPECT_TRUE(tree.Erase({999, 999, 999}));
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Begin().AtEnd());
}

TEST(BPlusTree, BorrowKeepsLeafChainScansExact) {
  // Interleaved deletes force both borrow directions and leaf merges;
  // the linked-leaf scan from any lower bound must stay gap-free and
  // sorted (this is the range-scan path queries use).
  BPlusTree<Key> tree;
  std::set<Key> reference;
  const uint64_t n = 500;
  for (uint64_t i = 0; i < n; ++i) {
    tree.Insert({i, 1, 2});
    reference.insert({i, 1, 2});
  }
  Rng rng(21);
  for (int round = 0; round < 400; ++round) {
    Key k{rng.NextBounded(n), 1, 2};
    tree.Erase(k);
    reference.erase(k);
    const Key lo{rng.NextBounded(n), 0, 0};
    auto it = tree.LowerBound(lo);
    for (auto ref = reference.lower_bound(lo); ref != reference.end();
         ++ref, ++it) {
      ASSERT_FALSE(it.AtEnd());
      ASSERT_EQ(*it, *ref);
    }
    EXPECT_TRUE(it.AtEnd());
  }
}

TEST(BPlusTree, DeleteThenReinsertCycles) {
  // The online workload's steady state: sustained churn at constant size.
  BPlusTree<Key> tree;
  std::set<Key> reference;
  Rng rng(77);
  for (uint64_t i = 0; i < 300; ++i) {
    Key k{rng.NextBounded(1000), 0, 0};
    tree.Insert(k);
    reference.insert(k);
  }
  for (int cycle = 0; cycle < 20; ++cycle) {
    // Delete ~half, then refill to the same size.
    std::vector<Key> doomed;
    for (const Key& k : reference) {
      if (rng.NextBool(0.5)) doomed.push_back(k);
    }
    for (const Key& k : doomed) {
      ASSERT_TRUE(tree.Erase(k));
      reference.erase(k);
    }
    while (reference.size() < 300) {
      Key k{rng.NextBounded(1000), rng.NextBounded(4), 0};
      EXPECT_EQ(tree.Insert(k), reference.insert(k).second);
    }
    ASSERT_EQ(tree.size(), reference.size());
  }
  auto rit = reference.begin();
  for (auto it = tree.Begin(); !it.AtEnd(); ++it, ++rit) {
    ASSERT_EQ(*it, *rit);
  }
}

// ---- pool / free-list coverage --------------------------------------------

TEST(BPlusTree, PoolRecyclesNodesThroughFreeList) {
  // Growing then draining must push merged-away nodes onto the free list;
  // regrowing must consume them before the slab grows again.
  BPlusTree<Key> tree;
  for (uint64_t i = 0; i < 5000; ++i) tree.Insert({i, 0, 0});
  const size_t grown_pool = tree.pool_nodes();
  EXPECT_EQ(tree.live_nodes() + tree.free_nodes(), grown_pool);
  for (uint64_t i = 0; i < 5000; ++i) ASSERT_TRUE(tree.Erase({i, 0, 0}));
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.live_nodes(), 1u);  // the root leaf
  EXPECT_EQ(tree.pool_nodes(), grown_pool);  // slab never shrinks...
  EXPECT_EQ(tree.free_nodes(), grown_pool - 1);
  for (uint64_t i = 0; i < 5000; ++i) tree.Insert({i, 1, 0});
  // ...and regrowth reuses the recycled slots instead of extending it.
  EXPECT_EQ(tree.pool_nodes(), grown_pool);
}

class BTreeChurnOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeChurnOracleTest, MatchesStdSetAcrossFreeListReuse) {
  // The arena-specific differential test: sustained churn cycles force
  // splits to consume free-listed node slots that merges produced, so a
  // stale-id or mislinked-recycled-node bug shows up as a divergence from
  // the std::set oracle in membership, full iteration, lower-bound probes
  // or prefix-range scans.
  Rng rng(GetParam());
  BPlusTree<Key> tree;
  std::set<Key> reference;
  size_t peak_pool = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    // Grow aggressively, then shrink aggressively (85% / 15% inserts).
    const bool growing = cycle % 2 == 0;
    for (int op = 0; op < 4000; ++op) {
      Key k{rng.NextBounded(40), rng.NextBounded(12), rng.NextBounded(40)};
      if (rng.NextBool(growing ? 0.85 : 0.15)) {
        ASSERT_EQ(tree.Insert(k), reference.insert(k).second);
      } else {
        ASSERT_EQ(tree.Erase(k), reference.erase(k) > 0);
      }
    }
    ASSERT_EQ(tree.size(), reference.size());
    ASSERT_EQ(tree.live_nodes() + tree.free_nodes(), tree.pool_nodes());
    peak_pool = std::max(peak_pool, tree.pool_nodes());
    // Full scan equals the sorted reference.
    auto rit = reference.begin();
    for (auto it = tree.Begin(); !it.AtEnd(); ++it, ++rit) {
      ASSERT_NE(rit, reference.end());
      ASSERT_EQ(*it, *rit);
    }
    ASSERT_EQ(rit, reference.end());
    // Random lower-bound probes agree.
    for (int probe = 0; probe < 100; ++probe) {
      Key k{rng.NextBounded(45), rng.NextBounded(13), rng.NextBounded(45)};
      auto it = tree.LowerBound(k);
      auto ref = reference.lower_bound(k);
      if (ref == reference.end()) {
        ASSERT_TRUE(it.AtEnd());
      } else {
        ASSERT_FALSE(it.AtEnd());
        ASSERT_EQ(*it, *ref);
      }
    }
    // A prefix-range scan covers the survivors of a random prefix exactly.
    const uint64_t p = rng.NextBounded(40);
    std::vector<Key> walked;
    for (auto it = tree.LowerBound({p, 0, 0}); !it.AtEnd() && (*it)[0] == p;
         ++it) {
      walked.push_back(*it);
    }
    std::vector<Key> expected;
    for (auto ref = reference.lower_bound(Key{p, 0, 0});
         ref != reference.end() && (*ref)[0] == p; ++ref) {
      expected.push_back(*ref);
    }
    ASSERT_EQ(walked, expected);
  }
  // The shrink cycles must actually have recycled slots (otherwise this
  // test exercised nothing arena-specific).
  EXPECT_GT(peak_pool, tree.live_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeChurnOracleTest,
                         ::testing::Values(7, 31, 2024));

// ---- packed bulk build ----------------------------------------------------

TEST(BPlusTree, BulkBuildMatchesIncrementalInsertion) {
  // Same key set, two construction paths: every read API must agree.
  std::vector<Key> keys;
  for (uint64_t i = 0; i < 10000; ++i) keys.push_back({i * 3, i % 17, i});
  std::sort(keys.begin(), keys.end());
  BPlusTree<Key> packed;
  packed.BulkBuild(keys);
  BPlusTree<Key> grown;
  for (const Key& k : keys) grown.Insert(k);
  ASSERT_EQ(packed.size(), grown.size());
  // Packed leaves: meaningfully fewer nodes than incremental growth.
  EXPECT_LT(packed.pool_nodes(), grown.pool_nodes());
  EXPECT_LE(packed.pool_nodes(), keys.size() / 64 + keys.size() / 1000 + 2);
  auto a = packed.Begin();
  auto b = grown.Begin();
  for (; !a.AtEnd(); ++a, ++b) {
    ASSERT_FALSE(b.AtEnd());
    ASSERT_EQ(*a, *b);
  }
  EXPECT_TRUE(b.AtEnd());
  Rng rng(3);
  for (int probe = 0; probe < 500; ++probe) {
    Key k{rng.NextBounded(31000), rng.NextBounded(18), rng.NextBounded(10001)};
    EXPECT_EQ(packed.Contains(k), grown.Contains(k));
    auto pa = packed.LowerBound(k);
    auto pb = grown.LowerBound(k);
    ASSERT_EQ(pa.AtEnd(), pb.AtEnd());
    if (!pa.AtEnd()) EXPECT_EQ(*pa, *pb);
  }
}

TEST(BPlusTree, BulkBuildEdgeSizes) {
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 64u * 65u, 64u * 65u + 1u}) {
    std::vector<Key> keys;
    for (uint64_t i = 0; i < n; ++i) keys.push_back({i, 0, 0});
    BPlusTree<Key> tree;
    tree.BulkBuild(keys);
    EXPECT_EQ(tree.size(), n);
    size_t count = 0;
    uint64_t prev = 0;
    for (auto it = tree.Begin(); !it.AtEnd(); ++it, ++count) {
      if (count > 0) EXPECT_GT((*it)[0], prev);
      prev = (*it)[0];
    }
    EXPECT_EQ(count, n);
    if (n > 0) {
      EXPECT_TRUE(tree.Contains({0, 0, 0}));
      EXPECT_TRUE(tree.Contains({n - 1, 0, 0}));
      EXPECT_FALSE(tree.Contains({n, 0, 0}));
    }
  }
}

TEST(BPlusTree, BulkBuiltTreeSurvivesChurn) {
  // Mutating a packed tree (splits of full leaves, underflow of the
  // sparse tail) must keep oracle equivalence.
  std::vector<Key> keys;
  for (uint64_t i = 0; i < 5000; ++i) keys.push_back({i * 2, 0, 0});
  BPlusTree<Key> tree;
  tree.BulkBuild(keys);
  std::set<Key> reference(keys.begin(), keys.end());
  Rng rng(11);
  for (int op = 0; op < 20000; ++op) {
    Key k{rng.NextBounded(10000), 0, 0};
    if (rng.NextBool(0.5)) {
      ASSERT_EQ(tree.Insert(k), reference.insert(k).second);
    } else {
      ASSERT_EQ(tree.Erase(k), reference.erase(k) > 0);
    }
  }
  ASSERT_EQ(tree.size(), reference.size());
  auto rit = reference.begin();
  for (auto it = tree.Begin(); !it.AtEnd(); ++it, ++rit) {
    ASSERT_NE(rit, reference.end());
    ASSERT_EQ(*it, *rit);
  }
  EXPECT_EQ(rit, reference.end());
}

TEST(BPlusTree, SplitHeuristicPacksSequentialRuns) {
  // Ascending and descending runs must fill leaves nearly completely
  // instead of the 50% an even split leaves behind.
  for (bool reverse : {false, true}) {
    BPlusTree<Key> tree;
    const uint64_t n = 6400;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t v = reverse ? n - 1 - i : i;
      tree.Insert({v, 0, 0});
    }
    // ~n/64 packed leaves plus inners; allow modest slack.
    EXPECT_LT(tree.pool_nodes(), n / 64 + n / 500 + 8) << reverse;
  }
}

TEST(BPlusTree, MemoryBytesTracksPool) {
  BPlusTree<Key> tree;
  const uint64_t empty_bytes = tree.MemoryBytes();
  EXPECT_GT(empty_bytes, 0u);
  for (uint64_t i = 0; i < 10000; ++i) tree.Insert({i, i, i});
  EXPECT_GT(tree.MemoryBytes(), empty_bytes);
  // ~64-key fan-out: 10k keys need a few hundred nodes, not thousands.
  EXPECT_LT(tree.pool_nodes(), 500u);
}

TEST(BPlusTree, ReserveDoesNotChangeSemantics) {
  BPlusTree<Key> reserved;
  reserved.Reserve(2000);
  BPlusTree<Key> plain;
  for (uint64_t i = 0; i < 2000; ++i) {
    const Key k{i * 7919 % 2000, i % 13, i};
    EXPECT_EQ(reserved.Insert(k), plain.Insert(k));
  }
  EXPECT_EQ(reserved.size(), plain.size());
  EXPECT_EQ(reserved.height(), plain.height());
  EXPECT_EQ(reserved.pool_nodes(), plain.pool_nodes());
  auto a = reserved.Begin();
  auto b = plain.Begin();
  for (; !a.AtEnd(); ++a, ++b) {
    ASSERT_FALSE(b.AtEnd());
    ASSERT_EQ(*a, *b);
  }
  EXPECT_TRUE(b.AtEnd());
}

TEST(BPlusTree, SequentialAndReverseInsertions) {
  for (bool reverse : {false, true}) {
    BPlusTree<Key> tree;
    const uint64_t n = 2000;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t v = reverse ? n - 1 - i : i;
      tree.Insert({v, v % 7, v % 3});
    }
    EXPECT_EQ(tree.size(), n);
    uint64_t count = 0;
    for (auto it = tree.Begin(); !it.AtEnd(); ++it) ++count;
    EXPECT_EQ(count, n);
  }
}

TEST(BPlusTree, CopyOnWriteSnapshotsStayImmutable) {
  // A published root must keep serving the exact pre-batch contents while
  // the writer mutates through cloned paths, and the accounting must keep
  // retired-but-undrained nodes separate from both live and free.
  BPlusTree<Key> tree;
  for (uint64_t i = 0; i < 3000; ++i) tree.Insert({i, 0, 0});
  tree.SetCopyOnWrite(true);

  const auto snap = tree.root();
  const size_t live_before = tree.live_nodes();
  tree.BeginCowBatch();
  for (uint64_t i = 0; i < 200; ++i) tree.Insert({i, 5, 5});
  for (uint64_t i = 0; i < 200; ++i) ASSERT_TRUE(tree.Erase({i, 0, 0}));

  // The snapshot still sees exactly the old keys...
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(tree.ContainsAt(snap, {i, 0, 0}));
    EXPECT_FALSE(tree.ContainsAt(snap, {i, 5, 5}));
  }
  size_t snap_count = 0;
  for (auto it = tree.BeginAt(snap); !it.AtEnd(); ++it) ++snap_count;
  EXPECT_EQ(snap_count, 3000u);
  // ...while the live root sees the new state.
  EXPECT_TRUE(tree.Contains({0, 5, 5}));
  EXPECT_FALSE(tree.Contains({0, 0, 0}));
  EXPECT_EQ(tree.size(), 3000u);

  // Superseded path copies are pending, not free and not live.
  EXPECT_GT(tree.pending_nodes(), 0u);
  EXPECT_EQ(tree.live_nodes() + tree.free_nodes() + tree.pending_nodes(),
            tree.pool_nodes());

  // After the drain point the pending slots return to the free lists.
  const size_t pending = tree.pending_nodes();
  EXPECT_EQ(tree.ReclaimRetired(), pending);
  EXPECT_EQ(tree.pending_nodes(), 0u);
  EXPECT_EQ(tree.live_nodes() + tree.free_nodes(), tree.pool_nodes());
  EXPECT_LE(tree.live_nodes(), live_before + 8);  // one path delta, no copy
}

TEST(BPlusTree, CopyOnWriteChurnReturnsToSteadyState) {
  // Sustained batch churn with reclamation after every "drain" must not
  // grow the pool without bound: each batch's clones are fed by the slots
  // the previous batch retired.
  Rng rng(7);
  BPlusTree<Key> tree;
  std::set<Key> reference;
  for (uint64_t i = 0; i < 4000; ++i) {
    Key k{rng.NextBounded(50), rng.NextBounded(10), rng.NextBounded(50)};
    tree.Insert(k);
    reference.insert(k);
  }
  tree.SetCopyOnWrite(true);
  const size_t settled_pool_hint = tree.pool_nodes();
  size_t peak_pool = 0;
  for (int batch = 0; batch < 40; ++batch) {
    tree.BeginCowBatch();
    for (int op = 0; op < 100; ++op) {
      Key k{rng.NextBounded(50), rng.NextBounded(10), rng.NextBounded(50)};
      if (rng.NextBool(0.5)) {
        ASSERT_EQ(tree.Insert(k), reference.insert(k).second);
      } else {
        ASSERT_EQ(tree.Erase(k), reference.erase(k) > 0);
      }
    }
    ASSERT_EQ(tree.live_nodes() + tree.free_nodes() + tree.pending_nodes(),
              tree.pool_nodes());
    tree.ReclaimRetired();  // the post-WaitUntilDrained step
    ASSERT_EQ(tree.pending_nodes(), 0u);
    peak_pool = std::max(peak_pool, tree.pool_nodes());
  }
  // Steady state: the pool stays within one batch's path-copy overhead of
  // the offline pool for the same contents (batch of 100 ops, height 3).
  EXPECT_LT(peak_pool, settled_pool_hint + 400);
  // And the tree still matches the oracle exactly.
  ASSERT_EQ(tree.size(), reference.size());
  auto rit = reference.begin();
  for (auto it = tree.Begin(); !it.AtEnd(); ++it, ++rit) {
    ASSERT_EQ(*it, *rit);
  }
}

}  // namespace
}  // namespace dskg::relstore
