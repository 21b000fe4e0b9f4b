// Property graph tests: partition import/evict, capacity budget,
// adjacency access, the single-edge update paths, the edge walk, and
// chunk-level copy-on-write under snapshot readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "graphstore/property_graph.h"
#include "test_util.h"

namespace dskg::graphstore {
namespace {

using rdf::TermId;
using rdf::Triple;

std::vector<Triple> PartitionOf(const rdf::Dataset& ds,
                                const std::string& pred) {
  return ds.TriplesWithPredicate(ds.dict().Lookup(pred));
}

class PropertyGraphTest : public ::testing::Test {
 protected:
  void SetUp() override { ds_ = testing::SmallPeopleGraph(); }

  TermId Id(const std::string& s) { return ds_.dict().Lookup(s); }

  rdf::Dataset ds_;
  CostMeter meter_;
};

TEST_F(PropertyGraphTest, ImportMakesPredicateResident) {
  PropertyGraph g;
  ASSERT_TRUE(
      g.ImportPartition(Id("bornIn"), PartitionOf(ds_, "bornIn"), &meter_)
          .ok());
  EXPECT_TRUE(g.HasPredicate(Id("bornIn")));
  EXPECT_FALSE(g.HasPredicate(Id("likes")));
  EXPECT_EQ(g.used_triples(), 4u);
  EXPECT_EQ(g.PartitionTriples(Id("bornIn")), 4u);
  EXPECT_EQ(meter_.count(Op::kImportTriple), 4u);
}

TEST_F(PropertyGraphTest, DoubleImportRejected) {
  PropertyGraph g;
  ASSERT_TRUE(
      g.ImportPartition(Id("bornIn"), PartitionOf(ds_, "bornIn"), &meter_)
          .ok());
  EXPECT_TRUE(
      g.ImportPartition(Id("bornIn"), PartitionOf(ds_, "bornIn"), &meter_)
          .IsAlreadyExists());
}

TEST_F(PropertyGraphTest, WrongPredicateInPartitionRejected) {
  PropertyGraph g;
  EXPECT_TRUE(
      g.ImportPartition(Id("likes"), PartitionOf(ds_, "bornIn"), &meter_)
          .IsInvalidArgument());
}

TEST_F(PropertyGraphTest, CapacityEnforced) {
  PropertyGraph g(/*capacity_triples=*/5);
  ASSERT_TRUE(
      g.ImportPartition(Id("bornIn"), PartitionOf(ds_, "bornIn"), &meter_)
          .ok());  // 4 triples
  EXPECT_EQ(g.FreeTriples(), 1u);
  // likes has 4 triples; does not fit.
  EXPECT_TRUE(
      g.ImportPartition(Id("likes"), PartitionOf(ds_, "likes"), &meter_)
          .IsCapacityExceeded());
  // genre has 2 triples; still does not fit (1 free).
  EXPECT_TRUE(
      g.ImportPartition(Id("genre"), PartitionOf(ds_, "genre"), &meter_)
          .IsCapacityExceeded());
}

TEST_F(PropertyGraphTest, EvictFreesCapacity) {
  PropertyGraph g(/*capacity_triples=*/6);
  ASSERT_TRUE(
      g.ImportPartition(Id("bornIn"), PartitionOf(ds_, "bornIn"), &meter_)
          .ok());
  ASSERT_TRUE(g.EvictPartition(Id("bornIn"), &meter_).ok());
  EXPECT_FALSE(g.HasPredicate(Id("bornIn")));
  EXPECT_EQ(g.used_triples(), 0u);
  EXPECT_EQ(meter_.count(Op::kEvictTriple), 4u);
  EXPECT_TRUE(g.EvictPartition(Id("bornIn"), &meter_).IsNotFound());
  // Now likes fits.
  EXPECT_TRUE(
      g.ImportPartition(Id("likes"), PartitionOf(ds_, "likes"), &meter_)
          .ok());
}

TEST_F(PropertyGraphTest, AdjacencyBothDirections) {
  PropertyGraph g;
  ASSERT_TRUE(
      g.ImportPartition(Id("advisor"), PartitionOf(ds_, "advisor"), &meter_)
          .ok());
  const auto out = g.OutNeighbors(Id("bob"), Id("advisor"));
  EXPECT_EQ(std::vector<TermId>(out.begin(), out.end()),
            std::vector<TermId>{Id("alice")});
  const auto in = g.InNeighbors(Id("alice"), Id("advisor"));
  ASSERT_EQ(in.size(), 2u);  // bob, carol
  EXPECT_LT(in[0], in[1]);   // lists are sorted
  EXPECT_TRUE(g.OutNeighbors(Id("alice"), Id("advisor")).empty());
  EXPECT_TRUE(g.OutNeighbors(Id("bob"), Id("likes")).empty());  // not loaded
}

TEST_F(PropertyGraphTest, PartitionTriplesMatchesPartition) {
  PropertyGraph g;
  ASSERT_TRUE(
      g.ImportPartition(Id("likes"), PartitionOf(ds_, "likes"), &meter_)
          .ok());
  EXPECT_EQ(g.PartitionTriples(Id("likes")), 4u);
  EXPECT_EQ(g.PartitionTriples(Id("bornIn")), 0u);  // not loaded
}

TEST_F(PropertyGraphTest, LoadedPredicatesSortedAscending) {
  PropertyGraph g;
  ASSERT_TRUE(
      g.ImportPartition(Id("likes"), PartitionOf(ds_, "likes"), &meter_).ok());
  ASSERT_TRUE(
      g.ImportPartition(Id("bornIn"), PartitionOf(ds_, "bornIn"), &meter_)
          .ok());
  auto loaded = g.LoadedPredicates();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_LT(loaded[0], loaded[1]);
}

TEST_F(PropertyGraphTest, InsertTripleExtendsLoadedPartition) {
  PropertyGraph g;
  ASSERT_TRUE(
      g.ImportPartition(Id("likes"), PartitionOf(ds_, "likes"), &meter_).ok());
  rdf::Triple t{Id("alice"), Id("likes"), Id("film2")};
  ASSERT_TRUE(g.InsertTriple(t, &meter_).ok());
  EXPECT_EQ(g.PartitionTriples(Id("likes")), 5u);
  EXPECT_EQ(g.OutNeighbors(Id("alice"), Id("likes")).size(), 2u);
}

TEST_F(PropertyGraphTest, InsertIntoAbsentPartitionRejected) {
  PropertyGraph g;
  rdf::Triple t{Id("alice"), Id("likes"), Id("film2")};
  EXPECT_TRUE(g.InsertTriple(t, &meter_).IsNotFound());
}

TEST_F(PropertyGraphTest, InsertRespectsCapacity) {
  PropertyGraph g(/*capacity_triples=*/4);
  ASSERT_TRUE(
      g.ImportPartition(Id("likes"), PartitionOf(ds_, "likes"), &meter_).ok());
  rdf::Triple t{Id("alice"), Id("likes"), Id("film2")};
  EXPECT_TRUE(g.InsertTriple(t, &meter_).IsCapacityExceeded());
}

TEST_F(PropertyGraphTest, UnlimitedCapacityReportsMaxFree) {
  PropertyGraph g;
  EXPECT_EQ(g.capacity_triples(), 0u);
  EXPECT_GT(g.FreeTriples(), 1ULL << 60);
}

// ---- the chunked layout and its copy-on-write ------------------------------

constexpr TermId kPred = 7;
using Edge = std::pair<TermId, TermId>;  // (subject, object)

/// Edges of `kPred` in the import order `MigratePartition` uses: the POS
/// scan, i.e. sorted by (object, subject).
std::vector<Triple> PosOrder(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.second, a.first) < std::tie(b.second, b.first);
  });
  std::vector<Triple> out;
  for (const auto& [s, o] : edges) out.push_back(Triple{s, kPred, o});
  return out;
}

/// Everything a traversal can read of `kPred`'s partition through the
/// calling thread's current read source: every out- and in-list of the
/// vertices below `max_vertex`, and the whole seed walk.
struct View {
  std::vector<std::vector<TermId>> out;
  std::vector<std::vector<TermId>> in;
  std::vector<Edge> walk;
  bool operator==(const View&) const = default;
};

View Capture(const PropertyGraph& g, TermId max_vertex) {
  View v;
  for (TermId x = 0; x < max_vertex; ++x) {
    const auto o = g.OutNeighbors(x, kPred);
    v.out.emplace_back(o.begin(), o.end());
    const auto i = g.InNeighbors(x, kPred);
    v.in.emplace_back(i.begin(), i.end());
  }
  PropertyGraph::EdgeWalk walk = g.WalkEdges(kPred, 0);
  for (uint64_t k = 0; k < g.PartitionTriples(kPred); ++k) {
    Edge e;
    walk.Next(&e.first, &e.second);
    v.walk.push_back(e);
  }
  return v;
}

/// The view a partition holding exactly `edges` must present: sorted
/// lists, and the walk in (object, subject) order.
View Expected(const std::multiset<Edge>& edges, TermId max_vertex) {
  View v;
  v.out.resize(max_vertex);
  v.in.resize(max_vertex);
  for (const auto& [s, o] : edges) {
    if (s < max_vertex) v.out[s].push_back(o);
    if (o < max_vertex) v.in[o].push_back(s);
  }
  for (auto& l : v.out) std::sort(l.begin(), l.end());
  for (auto& l : v.in) std::sort(l.begin(), l.end());
  for (const Triple& t : PosOrder({edges.begin(), edges.end()})) {
    v.walk.emplace_back(t.subject, t.object);
  }
  return v;
}

/// A partition over three 64-id chunks: vertex 5 is a hub every subject
/// of chunk 1 points at; chunk 0 holds a sparse cross-linked block.
std::vector<Edge> BaseEdges() {
  std::vector<Edge> edges;
  for (TermId s = 64; s < 128; s += 3) edges.emplace_back(s, 5);
  for (TermId s = 0; s < 40; s += 4) edges.emplace_back(s, (s * 7) % 60);
  edges.emplace_back(130, 2);
  edges.emplace_back(130, 140);
  return edges;
}

constexpr TermId kMaxVertex = 260;

class PropertyGraphCowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<Edge> base = BaseEdges();
    live_.insert(base.begin(), base.end());
    ASSERT_TRUE(g_.ImportPartition(kPred, PosOrder(base), &meter_).ok());
    g_.SetDeferredReclaim(true);
    snap_ = g_.MakeSnapshot();
    before_ = Expected(live_, kMaxVertex);
    ASSERT_EQ(Capture(g_, kMaxVertex), before_);
    g_.BeginShardBatch(0);
  }

  void Insert(TermId s, TermId o) {
    ASSERT_TRUE(g_.InsertTriple(Triple{s, kPred, o}, &meter_).ok());
    live_.emplace(s, o);
  }
  void Remove(TermId s, TermId o) {
    ASSERT_TRUE(g_.RemoveTriple(Triple{s, kPred, o}, &meter_).ok());
    live_.erase(live_.find(Edge{s, o}));
  }

  /// The pre-batch snapshot still reads the pre-batch partition, and the
  /// live graph reads the batch's result.
  void ExpectSnapshotIsolated() {
    {
      PropertyGraph::ReadScope scope(&snap_);
      EXPECT_EQ(Capture(g_, kMaxVertex), before_);
      EXPECT_EQ(g_.PartitionTriples(kPred), BaseEdges().size());
    }
    EXPECT_EQ(Capture(g_, kMaxVertex), Expected(live_, kMaxVertex));
    EXPECT_EQ(g_.PartitionTriples(kPred), live_.size());
    EXPECT_EQ(g_.used_triples(), live_.size());
  }

  PropertyGraph g_;
  CostMeter meter_;
  std::multiset<Edge> live_;
  PropertyGraph::Snapshot snap_;
  View before_;
};

TEST_F(PropertyGraphCowTest, InsertsAndDeletesInOneChunk) {
  Insert(1, 3);
  Insert(2, 3);
  Remove(8, 56);
  Remove(0, 0);
  ExpectSnapshotIsolated();
  // Chunk 0 of each direction, copied once each despite four ops.
  EXPECT_EQ(g_.CowChunksClonedOf(0), 2u);
}

TEST_F(PropertyGraphCowTest, GrowsAHubInList) {
  for (TermId s = 65; s < 128; s += 3) Insert(s, 5);
  ExpectSnapshotIsolated();
  EXPECT_EQ(Capture(g_, kMaxVertex).in[5].size(), 43u);
  // Out chunk 1 and in chunk 0.
  EXPECT_EQ(g_.CowChunksClonedOf(0), 2u);
}

TEST_F(PropertyGraphCowTest, InsertsBeyondTheDirectoryEnd) {
  Insert(250, 199);  // chunk 3: one past the end of both directories
  Insert(1000, 2);   // a subject chunk far past the out-directory's end
  ExpectSnapshotIsolated();
  EXPECT_EQ(g_.OutNeighbors(1000, kPred).size(), 1u);
  {
    PropertyGraph::ReadScope scope(&snap_);
    EXPECT_TRUE(g_.OutNeighbors(1000, kPred).empty());
  }
  // New chunks are made, not copied; only in chunk 0 (object 2) is.
  EXPECT_EQ(g_.CowChunksClonedOf(0), 1u);
}

TEST_F(PropertyGraphCowTest, ReclaimKeepsLiveStateAndFreesRetiredCopies) {
  Insert(1, 3);
  Remove(130, 140);  // empties a copied chunk: it is freed at once
  Insert(100, 5);
  const uint64_t cloned = g_.CowChunksClonedOf(0);
  // out 0, in 0; out 2, in 2; out 1 (in 0 again is the batch's copy).
  EXPECT_EQ(cloned, 5u);
  // The retired partition object plus one original per copied chunk.
  EXPECT_EQ(g_.PendingRetired(), 1u + cloned);
  EXPECT_EQ(g_.ReclaimShard(0), 1u + cloned);
  EXPECT_EQ(g_.PendingRetired(), 0u);
  EXPECT_EQ(Capture(g_, kMaxVertex), Expected(live_, kMaxVertex));
  // A second batch copies again what a new snapshot may read.
  snap_ = g_.MakeSnapshot();
  g_.BeginShardBatch(0);
  Remove(1, 3);
  EXPECT_EQ(g_.CowChunksClonedOf(0), cloned + 2);
  EXPECT_EQ(Capture(g_, kMaxVertex), Expected(live_, kMaxVertex));
}

TEST_F(PropertyGraphCowTest, RemovingAnAbsentEdgeIsNotFoundAndChangesNothing) {
  const uint64_t bytes = g_.MemoryBytes();
  EXPECT_TRUE(g_.RemoveTriple(Triple{1, kPred, 3}, &meter_).IsNotFound());
  EXPECT_TRUE(g_.RemoveTriple(Triple{5000, kPred, 3}, &meter_).IsNotFound());
  EXPECT_TRUE(g_.RemoveTriple(Triple{64, kPred, 6}, &meter_).IsNotFound());
  EXPECT_EQ(meter_.count(Op::kEvictTriple), 0u);
  EXPECT_EQ(g_.PartitionTriples(kPred), live_.size());
  EXPECT_EQ(g_.used_triples(), live_.size());
  EXPECT_EQ(g_.MemoryBytes(), bytes);
  EXPECT_EQ(g_.CowChunksClonedOf(0), 0u);
  EXPECT_EQ(g_.PendingRetired(), 0u);
  ExpectSnapshotIsolated();
}

TEST(PropertyGraphLayoutTest, SeedWalkOfAPosImportIsTheImportOrder) {
  const std::vector<Triple> imported = PosOrder(BaseEdges());
  PropertyGraph g;
  CostMeter meter;
  ASSERT_TRUE(g.ImportPartition(kPred, imported, &meter).ok());
  PropertyGraph::EdgeWalk walk = g.WalkEdges(kPred, 0);
  for (const Triple& t : imported) {
    Edge e;
    walk.Next(&e.first, &e.second);
    EXPECT_EQ(e, (Edge{t.subject, t.object}));
  }
  // A walk positioned mid-way resumes at that edge.
  for (size_t start = 0; start < imported.size(); start += 5) {
    PropertyGraph::EdgeWalk from = g.WalkEdges(kPred, start);
    Edge e;
    from.Next(&e.first, &e.second);
    EXPECT_EQ(e, (Edge{imported[start].subject, imported[start].object}));
  }
}

TEST(PropertyGraphLayoutTest, OfflineUpdatesMutateInPlace) {
  PropertyGraph g;
  CostMeter meter;
  ASSERT_TRUE(g.ImportPartition(kPred, PosOrder(BaseEdges()), &meter).ok());
  const PropertyGraph::Snapshot snap = g.MakeSnapshot();
  ASSERT_TRUE(g.InsertTriple(Triple{1, kPred, 3}, &meter).ok());
  ASSERT_TRUE(g.RemoveTriple(Triple{64, kPred, 5}, &meter).ok());
  ASSERT_TRUE(g.RemoveTriple(Triple{130, kPred, 140}, &meter).ok());
  EXPECT_EQ(g.CowChunksClonedOf(0), 0u);
  EXPECT_EQ(g.PendingRetired(), 0u);
  // No copy was made, so even a snapshot taken before reads the change.
  PropertyGraph::ReadScope scope(&snap);
  EXPECT_EQ(g.OutNeighbors(1, kPred).size(), 1u);
  EXPECT_TRUE(g.OutNeighbors(64, kPred).empty());
  EXPECT_TRUE(g.InNeighbors(140, kPred).empty());
}

TEST(PropertyGraphLayoutTest, MemoryBytesFollowsTheLiveChunks) {
  PropertyGraph g;
  CostMeter meter;
  EXPECT_EQ(g.MemoryBytes(), 0u);
  ASSERT_TRUE(g.ImportPartition(kPred, PosOrder(BaseEdges()), &meter).ok());
  const uint64_t imported = g.MemoryBytes();
  // Both directions hold every edge once.
  EXPECT_GE(imported, 2 * BaseEdges().size() * sizeof(TermId));
  ASSERT_TRUE(g.InsertTriple(Triple{1000, kPred, 1001}, &meter).ok());
  EXPECT_GT(g.MemoryBytes(), imported);
  ASSERT_TRUE(g.RemoveTriple(Triple{1000, kPred, 1001}, &meter).ok());
  ASSERT_TRUE(g.EvictPartition(kPred, &meter).ok());
  EXPECT_EQ(g.MemoryBytes(), 0u);
}

// Readers traverse the pre-batch snapshot from other threads while the
// writer runs several batches over the same chunks; reclamation waits
// for the readers, as the epoch drain makes it in the online store.
TEST(PropertyGraphConcurrencyTest, SnapshotReadersRaceTheWriter) {
  std::vector<Edge> base = BaseEdges();
  std::multiset<Edge> live(base.begin(), base.end());
  PropertyGraph g;
  CostMeter meter;
  ASSERT_TRUE(g.ImportPartition(kPred, PosOrder(base), &meter).ok());
  g.SetDeferredReclaim(true);
  const PropertyGraph::Snapshot snap = g.MakeSnapshot();
  const View want = Expected(live, kMaxVertex);

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      PropertyGraph::ReadScope scope(&snap);
      while (!stop.load(std::memory_order_acquire)) {
        if (!(Capture(g, kMaxVertex) == want)) ++mismatches;
        ++reads;
      }
    });
  }
  for (int batch = 0; batch < 20; ++batch) {
    g.BeginShardBatch(0);
    const TermId s = static_cast<TermId>(batch * 7 % 150);
    const TermId o = static_cast<TermId>(5 + batch % 3);
    ASSERT_TRUE(g.InsertTriple(Triple{s, kPred, o}, &meter).ok());
    live.emplace(s, o);
    const Edge gone = *live.begin();
    ASSERT_TRUE(
        g.RemoveTriple(Triple{gone.first, kPred, gone.second}, &meter).ok());
    live.erase(live.begin());
    while (reads.load() < batch) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(g.PendingRetired(), 0u);
  g.ReclaimShard(0);
  EXPECT_EQ(g.PendingRetired(), 0u);
  EXPECT_EQ(Capture(g, kMaxVertex), Expected(live, kMaxVertex));
}

}  // namespace
}  // namespace dskg::graphstore
