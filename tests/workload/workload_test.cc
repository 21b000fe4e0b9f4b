// Workload construction tests: generators' macro statistics, template
// instantiation/mutations, bound query forms, ordered vs random versions,
// batch splitting.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/identifier.h"
#include "sparql/parser.h"
#include "workload/generators.h"
#include "workload/templates.h"
#include "workload/update_stream.h"
#include "workload/workload.h"

namespace dskg::workload {
namespace {

TEST(Generators, YagoMatchesPaperPredicateCount) {
  YagoConfig cfg;
  cfg.target_triples = 30000;
  rdf::Dataset ds = GenerateYago(cfg);
  EXPECT_EQ(ds.num_predicates(), 39u);  // Table 3: #-P = 39
  EXPECT_NEAR(static_cast<double>(ds.num_triples()), 30000.0, 30000.0 * 0.25);
}

TEST(Generators, WatDivMatchesPaperPredicateCount) {
  WatDivConfig cfg;
  cfg.target_triples = 30000;
  rdf::Dataset ds = GenerateWatDiv(cfg);
  EXPECT_EQ(ds.num_predicates(), 86u);  // Table 3: #-P = 86
}

TEST(Generators, Bio2RdfMatchesPaperPredicateCount) {
  Bio2RdfConfig cfg;
  cfg.target_triples = 40000;
  rdf::Dataset ds = GenerateBio2Rdf(cfg);
  EXPECT_EQ(ds.num_predicates(), 161u);  // Table 3: #-P = 161
}

TEST(Generators, DeterministicForEqualConfig) {
  YagoConfig cfg;
  cfg.target_triples = 5000;
  rdf::Dataset a = GenerateYago(cfg);
  rdf::Dataset b = GenerateYago(cfg);
  ASSERT_EQ(a.num_triples(), b.num_triples());
  EXPECT_EQ(a.triples(), b.triples());
}

TEST(Generators, SeedChangesContent) {
  YagoConfig a_cfg, b_cfg;
  a_cfg.target_triples = b_cfg.target_triples = 5000;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  rdf::Dataset a = GenerateYago(a_cfg);
  rdf::Dataset b = GenerateYago(b_cfg);
  EXPECT_NE(a.triples(), b.triples());
}

TEST(Generators, FlagshipQueryHasAnswers) {
  // The advisor-born-same-city correlation must produce matches.
  YagoConfig cfg;
  cfg.target_triples = 20000;
  rdf::Dataset ds = GenerateYago(cfg);
  const rdf::TermId born = ds.dict().Lookup("y:wasBornIn");
  const rdf::TermId advisor = ds.dict().Lookup("y:hasAcademicAdvisor");
  ASSERT_NE(born, rdf::kInvalidTermId);
  ASSERT_NE(advisor, rdf::kInvalidTermId);
  EXPECT_GT(ds.PartitionOf(born)->num_triples, 1000u);
  EXPECT_GT(ds.PartitionOf(advisor)->num_triples, 300u);
}

TEST(Generators, ScalesWithTarget) {
  YagoConfig small, large;
  small.target_triples = 5000;
  large.target_triples = 50000;
  EXPECT_GT(GenerateYago(large).num_triples(),
            5 * GenerateYago(small).num_triples());
}

class TemplateCatalogTest
    : public ::testing::TestWithParam<
          std::pair<const char*, std::vector<QueryTemplate> (*)()>> {};

TEST_P(TemplateCatalogTest, TemplatesParseAndSlotsAreValid) {
  const auto& [name, factory] = GetParam();
  (void)name;
  for (const QueryTemplate& t : factory()) {
    auto q = sparql::Parser::Parse(t.text);
    ASSERT_TRUE(q.ok()) << t.name << ": " << q.status();
    const std::vector<std::string> params = q->Parameters();
    // Canonical catalogs mark every slot as a $param (so runners prepare
    // each template once and re-bind per mutation), and every skeleton
    // parameter has a sampling slot.
    for (const auto& slot : t.slots) {
      EXPECT_TRUE(std::find(params.begin(), params.end(), slot.variable) !=
                  params.end())
          << t.name << " slot $" << slot.variable << " is not a parameter";
      for (const auto& sv : q->select_vars) {
        EXPECT_NE(sv, slot.variable) << t.name << " projects a slot var";
      }
    }
    for (const auto& p : params) {
      EXPECT_TRUE(std::any_of(
          t.slots.begin(), t.slots.end(),
          [&](const QueryTemplate::Slot& s) { return s.variable == p; }))
          << t.name << " parameter $" << p << " has no slot";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalogs, TemplateCatalogTest,
    ::testing::Values(
        std::make_pair("yago", &YagoTemplates),
        std::make_pair("watdiv_l", &WatDivLinearTemplates),
        std::make_pair("watdiv_s", &WatDivStarTemplates),
        std::make_pair("watdiv_f", &WatDivSnowflakeTemplates),
        std::make_pair("watdiv_c", &WatDivComplexTemplates),
        std::make_pair("bio2rdf", &Bio2RdfTemplates)),
    [](const auto& info) { return std::string(info.param.first); });

TEST(TemplateCatalog, PaperWorkloadSizes) {
  EXPECT_EQ(YagoTemplates().size(), 4u);           // x5 = 20 queries
  EXPECT_EQ(WatDivLinearTemplates().size(), 7u);   // x5 = 35
  EXPECT_EQ(WatDivStarTemplates().size(), 5u);     // x5 = 25
  EXPECT_EQ(WatDivSnowflakeTemplates().size(), 5u);// x5 = 25
  EXPECT_EQ(WatDivComplexTemplates().size(), 3u);  // x5 = 15
  EXPECT_EQ(Bio2RdfTemplates().size(), 5u);        // x5 = 25
}

class WorkloadBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    YagoConfig cfg;
    cfg.target_triples = 10000;
    ds_ = GenerateYago(cfg);
  }
  rdf::Dataset ds_;
};

TEST_F(WorkloadBuilderTest, BuildsTemplatesTimesFiveQueries) {
  WorkloadBuilder builder(&ds_);
  auto w = builder.Build("yago", YagoTemplates(), WorkloadOptions{});
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->queries.size(), 20u);
  EXPECT_EQ(w->name, "yago");
}

TEST_F(WorkloadBuilderTest, OrderedClustersTemplates) {
  WorkloadBuilder builder(&ds_);
  WorkloadOptions opt;
  opt.ordered = true;
  auto w = builder.Build("yago", YagoTemplates(), opt);
  ASSERT_TRUE(w.ok());
  for (size_t i = 0; i < w->queries.size(); ++i) {
    EXPECT_EQ(w->queries[i].template_index, static_cast<int>(i / 5));
  }
}

TEST_F(WorkloadBuilderTest, RandomShufflesButKeepsMultiset) {
  WorkloadBuilder builder(&ds_);
  WorkloadOptions ordered, random;
  ordered.ordered = true;
  random.ordered = false;
  auto wo = builder.Build("o", YagoTemplates(), ordered);
  auto wr = builder.Build("r", YagoTemplates(), random);
  ASSERT_TRUE(wo.ok() && wr.ok());
  std::multiset<int> to, tr;
  for (const auto& q : wo->queries) to.insert(q.template_index);
  for (const auto& q : wr->queries) tr.insert(q.template_index);
  EXPECT_EQ(to, tr);
  // The random version is (astronomically likely) a different order.
  bool same_order = true;
  for (size_t i = 0; i < wo->queries.size(); ++i) {
    if (wo->queries[i].template_index != wr->queries[i].template_index) {
      same_order = false;
      break;
    }
  }
  EXPECT_FALSE(same_order);
}

TEST_F(WorkloadBuilderTest, MutationsChangeConstantsNotStructure) {
  WorkloadBuilder builder(&ds_);
  WorkloadOptions opt;
  opt.ordered = true;
  auto w = builder.Build("yago", YagoTemplates(), opt);
  ASSERT_TRUE(w.ok());
  // All versions of template 0 share their text, pattern count and
  // predicates; only the bound constant moves.
  auto base = BoundQuery(w->queries[0]);
  ASSERT_TRUE(base.ok()) << base.status();
  std::set<std::string> constants_seen;
  for (int v = 0; v < 5; ++v) {
    const WorkloadQuery& wq = w->queries[static_cast<size_t>(v)];
    EXPECT_EQ(wq.prepared_text, w->queries[0].prepared_text);
    EXPECT_EQ(wq.mutation, v);
    auto q = BoundQuery(wq);
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_EQ(q->patterns.size(), base->patterns.size());
    EXPECT_EQ(q->ConstantPredicates(), base->ConstantPredicates());
    // The slot constant is the prize in the last pattern.
    constants_seen.insert(q->patterns.back().object.text);
  }
  EXPECT_GT(constants_seen.size(), 1u);  // mutations vary the constant
}

TEST_F(WorkloadBuilderTest, EveryYagoQueryHasComplexSubquery) {
  WorkloadBuilder builder(&ds_);
  auto w = builder.Build("yago", YagoTemplates(), WorkloadOptions{});
  ASSERT_TRUE(w.ok());
  for (const auto& wq : w->queries) {
    auto q = BoundQuery(wq);
    ASSERT_TRUE(q.ok()) << q.status();
    auto split = core::ComplexSubqueryIdentifier::Identify(*q);
    EXPECT_TRUE(split.HasComplexSubquery()) << q->ToString();
  }
}

TEST_F(WorkloadBuilderTest, RejectsUnknownPredicate) {
  WorkloadBuilder builder(&ds_);
  QueryTemplate bad{"bad",
                    "SELECT ?a WHERE { ?a nosuch:pred $b . ?a q ?c . }",
                    {{"b", "nosuch:pred", true}}};
  EXPECT_TRUE(builder.Build("x", {bad}, WorkloadOptions{})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(WorkloadBuilderTest, RejectsSlotThatIsNotAParameter) {
  WorkloadBuilder builder(&ds_);
  // A projected variable, an unprojected variable, and a name the
  // skeleton does not mention: slots fill `$params` only.
  for (const char* text : {"SELECT ?b WHERE { ?a y:wasBornIn ?b . }",
                           "SELECT ?a WHERE { ?a y:wasBornIn ?b . }",
                           "SELECT ?a WHERE { ?a y:wasBornIn ?c . }"}) {
    QueryTemplate bad{"bad", text, {{"b", "y:wasBornIn", true}}};
    EXPECT_TRUE(builder.Build("x", {bad}, WorkloadOptions{})
                    .status()
                    .IsInvalidArgument())
        << text;
  }
}

TEST_F(WorkloadBuilderTest, RejectsParameterWithoutSlot) {
  WorkloadBuilder builder(&ds_);
  QueryTemplate bad{"bad", "SELECT ?a WHERE { ?a y:wasBornIn $city . }", {}};
  EXPECT_TRUE(builder.Build("x", {bad}, WorkloadOptions{})
                  .status()
                  .IsInvalidArgument());
}

TEST(BoundQueryTest, SubstitutesEveryParameterOccurrence) {
  WorkloadQuery wq;
  wq.prepared_text =
      "SELECT ?p WHERE { ?p bornIn $c . ?p advisor ?a . ?a bornIn $c . }";
  wq.bindings = {{"c", "berlin"}};
  auto q = BoundQuery(wq);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->Parameters().empty());
  EXPECT_EQ(q->ToString(),
            "SELECT ?p WHERE { ?p bornIn berlin . ?p advisor ?a . "
            "?a bornIn berlin . }");
}

TEST(BoundQueryTest, MissingBindingAndBadTextFail) {
  WorkloadQuery unbound;
  unbound.prepared_text = "SELECT ?p WHERE { ?p bornIn $c . }";
  EXPECT_TRUE(BoundQuery(unbound).status().IsInvalidArgument());
  WorkloadQuery garbled;
  garbled.prepared_text = "SELEC ?p WHERE { }";
  EXPECT_TRUE(BoundQuery(garbled).status().IsParseError());
}

// Every built query's bound form prints as text that parses back to the
// same query: the runner re-executes a query whose bound term updates
// deleted as exactly that text.
TEST_P(TemplateCatalogTest, BoundQueriesRoundTripThroughText) {
  const auto& [name, factory] = GetParam();
  rdf::Dataset ds;
  const std::string catalog = name;
  if (catalog == "yago") {
    YagoConfig cfg;
    cfg.target_triples = 12000;
    ds = GenerateYago(cfg);
  } else if (catalog == "bio2rdf") {
    Bio2RdfConfig cfg;
    cfg.target_triples = 14000;
    ds = GenerateBio2Rdf(cfg);
  } else {
    WatDivConfig cfg;
    cfg.target_triples = 12000;
    ds = GenerateWatDiv(cfg);
  }
  WorkloadBuilder builder(&ds);
  auto w = builder.Build(name, factory(), WorkloadOptions{});
  ASSERT_TRUE(w.ok()) << w.status();
  for (const WorkloadQuery& wq : w->queries) {
    auto q = BoundQuery(wq);
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_TRUE(q->Parameters().empty()) << q->ToString();
    auto reparsed = sparql::Parser::Parse(q->ToString());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << q->ToString();
    EXPECT_EQ(*reparsed, *q) << q->ToString();
  }
}

TEST(WorkloadSplit, BatchesCoverAllQueriesInOrder) {
  Workload w;
  w.name = "t";
  for (int i = 0; i < 23; ++i) {
    WorkloadQuery q;
    q.template_index = i;
    w.queries.push_back(q);
  }
  auto batches = w.BatchRanges(5);
  ASSERT_EQ(batches.size(), 5u);
  EXPECT_EQ(batches[0].second - batches[0].first, 5u);  // 23 = 5+5+5+4+4
  EXPECT_EQ(batches[3].second - batches[3].first, 4u);
  int expect = 0;
  for (const auto& [begin, end] : batches) {
    EXPECT_EQ(begin, static_cast<size_t>(expect));  // contiguous
    for (size_t i = begin; i < end; ++i) {
      EXPECT_EQ(w.queries[i].template_index, expect++);
    }
  }
  EXPECT_EQ(expect, 23);
}

// Split mode: for every shard count, the per-shard streams are an exact,
// order-preserving partition of the unsharded stream — batch by batch,
// with no op lost, duplicated, or misrouted.
TEST(UpdateStreamSplit, PerShardStreamsPartitionTheFullStream) {
  YagoConfig gen;
  gen.target_triples = 5000;
  rdf::Dataset ds = GenerateYago(gen);

  UpdateStreamConfig base;
  base.seed = 17;
  base.num_batches = 3;
  base.ops_per_batch = 200;
  const core::UpdateLog full = GenerateUpdateStream(ds, base);
  ASSERT_EQ(full.size(), 3u);

  auto op_key = [](const core::UpdateOp& op) {
    return std::string(op.kind == core::UpdateOp::Kind::kInsert ? "+" : "-") +
           op.subject + '\x1f' + op.predicate + '\x1f' + op.object;
  };

  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE(shards);
    std::vector<core::UpdateLog> slices;
    for (int s = 0; s < shards; ++s) {
      UpdateStreamConfig cfg = base;
      cfg.num_shards = shards;
      cfg.shard_index = s;
      slices.push_back(GenerateUpdateStream(ds, cfg));
      ASSERT_EQ(slices.back().size(), full.size());
    }
    for (uint64_t b = 0; b < full.size(); ++b) {
      // Every op of every slice belongs to its shard; merging the slices
      // by walking the full batch reproduces it exactly.
      std::vector<size_t> cursor(static_cast<size_t>(shards), 0);
      for (const core::UpdateOp& op : full.at(b).ops) {
        const uint32_t s = UpdateStreamShardOf(op.predicate, shards);
        const core::UpdateBatch& slice = slices[s].at(b);
        ASSERT_LT(cursor[s], slice.ops.size())
            << "batch " << b << ": shard " << s << " ran out of ops";
        EXPECT_EQ(op_key(slice.ops[cursor[s]]), op_key(op));
        ++cursor[s];
      }
      size_t merged = 0;
      for (int s = 0; s < shards; ++s) {
        EXPECT_EQ(cursor[static_cast<size_t>(s)],
                  slices[s].at(b).ops.size())
            << "batch " << b << ": shard " << s << " has extra ops";
        merged += slices[s].at(b).ops.size();
      }
      EXPECT_EQ(merged, full.at(b).ops.size());
    }
  }
}

TEST(WorkloadSplit, DegenerateCases) {
  Workload w;
  EXPECT_TRUE(w.BatchRanges(0).empty());
  auto batches = w.BatchRanges(3);
  ASSERT_EQ(batches.size(), 3u);
  for (const auto& [begin, end] : batches) EXPECT_EQ(begin, end);
}

}  // namespace
}  // namespace dskg::workload
