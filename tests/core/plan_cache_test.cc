// SharedPlanCache tests: one compilation per (text, plan_epoch) across
// callers, monotone-epoch invalidation under online updates, parse
// reuse across epoch moves, LRU bounding, and concurrent callers.

#include "core/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dual_store.h"
#include "core/online_store.h"
#include "core/update.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace dskg::core {
namespace {

constexpr const char* kFlagship =
    "SELECT ?p WHERE { ?p bornIn berlin . "
    "?p advisor ?a . ?a bornIn berlin . }";
constexpr const char* kScan = "SELECT ?p ?c WHERE { ?p bornIn ?c . }";

TEST(SharedPlanCacheTest, OnePrepareAcrossCallers) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;

  auto first = cache.GetOrPrepare(kFlagship, store);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrPrepare(kFlagship, store);
  ASSERT_TRUE(second.ok());
  // Same epoch, same text: the very same plan object is served.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().parses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedPlanCacheTest, CallerSuppliedParseSkipsParsing) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;

  auto parsed = sparql::Parser::Parse(kFlagship);
  ASSERT_TRUE(parsed.ok());
  auto plan = cache.GetOrPrepare(kFlagship, store, &*parsed);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(cache.stats().parses, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SharedPlanCacheTest, ParseErrorSurfaces) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;
  auto r = cache.GetOrPrepare("SELEC nope", store);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedPlanCacheTest, EpochMoveInvalidatesButReusesParse) {
  rdf::Dataset initial = testing::SmallPeopleGraph();
  OnlineStore store(initial, {});
  SharedPlanCache cache;

  std::shared_ptr<const PreparedPlan> plan_before;
  uint64_t epoch_before = 0;
  {
    auto guard = store.Read();
    auto before = cache.GetOrPrepare(kFlagship, guard.store());
    ASSERT_TRUE(before.ok());
    plan_before = *before;
    epoch_before = plan_before->plan_epoch;
  }  // drop the pin so the applier can reclaim

  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert("eve", "bornIn", "berlin"));
  batch.ops.push_back(UpdateOp::Insert("eve", "advisor", "alice"));
  ASSERT_TRUE(store.ApplyUpdates(batch).ok());

  auto guard2 = store.Read();
  ASSERT_GT(guard2.store().plan_epoch(), epoch_before);
  auto after = cache.GetOrPrepare(kFlagship, guard2.store());
  ASSERT_TRUE(after.ok());
  EXPECT_GT((*after)->plan_epoch, epoch_before);
  EXPECT_NE(plan_before.get(), after->get());

  const SharedPlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.invalidations, 1u);
  // The epoch move re-planned without re-parsing.
  EXPECT_EQ(s.parses, 1u);
  // The caller's old shared_ptr stays valid after replacement.
  EXPECT_EQ(plan_before->plan_epoch, epoch_before);
}

TEST(SharedPlanCacheTest, LruBoundEvictsOldestText) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache(/*capacity=*/2);

  ASSERT_TRUE(cache.GetOrPrepare(kFlagship, store).ok());
  ASSERT_TRUE(cache.GetOrPrepare(kScan, store).ok());
  // Touch the flagship so the scan is the LRU victim.
  ASSERT_TRUE(cache.GetOrPrepare(kFlagship, store).ok());
  ASSERT_TRUE(
      cache.GetOrPrepare("SELECT ?a WHERE { ?p advisor ?a . }", store).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted scan re-prepares (a miss), the retained flagship hits.
  const uint64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(cache.GetOrPrepare(kFlagship, store).ok());
  EXPECT_EQ(cache.stats().misses, misses_before);
  ASSERT_TRUE(cache.GetOrPrepare(kScan, store).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(SharedPlanCacheTest, ConcurrentCallersAllGetValidPlans) {
  rdf::Dataset ds = testing::SmallPeopleGraph();
  DualStore store(&ds, {});
  SharedPlanCache cache;

  constexpr int kThreads = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const char* text = (t % 2 == 0) ? kFlagship : kScan;
      for (int i = 0; i < 50; ++i) {
        auto plan = cache.GetOrPrepare(text, store);
        if (plan.ok() && (*plan)->plan_epoch == store.plan_epoch()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), kThreads * 50);
  const SharedPlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<uint64_t>(kThreads) * 50);
  // Lost prepare races cost duplicate work, never a wrong answer.
  EXPECT_GE(s.misses, 2u);
}

}  // namespace
}  // namespace dskg::core
