#include <gtest/gtest.h>

#include <set>

#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

class PrecompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = Testbed::Create();
    ASSERT_TRUE(tb.ok());
    tb_ = std::move(*tb);
    ASSERT_TRUE(tb_->Consult(workload::AncestorRules() +
                             "parent(a, b).\nparent(b, c).\nparent(b, d).\n")
                    .ok());
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(PrecompileTest, SecondQueryHitsCache) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  auto first = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->report.from_cache);
  auto second = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->report.from_cache);
  EXPECT_EQ(second->report.compile.total_us(), 0);
  EXPECT_EQ(AnswerSet(first->result), AnswerSet(second->result));
  EXPECT_EQ(tb_->query_cache().stats().hits, 1);
  EXPECT_EQ(tb_->query_cache().stats().misses, 1);
}

TEST_F(PrecompileTest, DifferentGoalsAndOptionsMiss) {
  QueryOptions plain = QueryOptions::SemiNaive().WithCache();
  QueryOptions magic = QueryOptions::Magic().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", plain).ok());
  auto other_goal = tb_->Query("?- ancestor(b, W).", plain);
  ASSERT_TRUE(other_goal.ok());
  EXPECT_FALSE(other_goal->report.from_cache);
  auto other_opts = tb_->Query("?- ancestor(a, W).", magic);
  ASSERT_TRUE(other_opts.ok());
  EXPECT_FALSE(other_opts->report.from_cache);
}

TEST_F(PrecompileTest, CacheDisabledByDefault) {
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).").ok());
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).").ok());
  EXPECT_EQ(tb_->query_cache().stats().hits, 0);
  EXPECT_EQ(tb_->query_cache().size(), 0u);
}

TEST_F(PrecompileTest, AddRuleInvalidatesDependentEntries) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  ASSERT_EQ(tb_->query_cache().size(), 1u);
  // New ancestor rule: the cached program is stale and must recompile.
  ASSERT_TRUE(tb_->Consult("ancestor(X, Y) :- step(X, Y).\n"
                           "step(a, z).\n")
                  .ok());
  EXPECT_EQ(tb_->query_cache().size(), 0u);
  EXPECT_EQ(tb_->query_cache().stats().invalidated, 1);
  auto after = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->report.from_cache);
  EXPECT_EQ(AnswerSet(after->result),
            (std::set<std::string>{"b|", "c|", "d|", "z|"}));
}

TEST_F(PrecompileTest, UnrelatedRuleKeepsEntry) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  ASSERT_TRUE(tb_->AddRule("unrelated(X, Y) :- parent(X, Y).").ok());
  EXPECT_EQ(tb_->query_cache().size(), 1u);
  auto again = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->report.from_cache);
}

TEST_F(PrecompileTest, InvalidationOnBodyPredicateDependency) {
  // A cached program depending on `parent` must drop when a rule defining
  // `parent`-reachable predicates it uses changes. Here: add a rule whose
  // head is `parent` itself (now derived+base is illegal, so use a derived
  // wrapper instead).
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Consult("fam(X, Y) :- parent(X, Y).\n"
                           "closure(X, Y) :- fam(X, Y).\n"
                           "closure(X, Y) :- fam(X, Z), closure(Z, Y).\n")
                  .ok());
  ASSERT_TRUE(tb_->Query("?- closure(a, W).", opts).ok());
  ASSERT_EQ(tb_->query_cache().size(), 1u);
  // fam is a body dependency of closure's program.
  ASSERT_TRUE(tb_->AddRule("fam(X, Y) :- spouse(X, Y).").ok());
  EXPECT_EQ(tb_->query_cache().size(), 0u);
}

TEST_F(PrecompileTest, ClearWorkspaceClearsCache) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  tb_->ClearWorkspace();
  EXPECT_EQ(tb_->query_cache().size(), 0u);
}

TEST_F(PrecompileTest, ClearWorkspaceKeepsStoredOnlyPrograms) {
  // Commit ancestor to the Stored DKB, together with a stored rule for
  // reach; the workspace then holds only a rule that widens reach.
  ASSERT_TRUE(tb_->Consult("reach(X, Y) :- parent(X, Y).\n"
                           "friend(a, z).\n")
                  .ok());
  ASSERT_TRUE(tb_->UpdateStoredDkb().ok());
  tb_->ClearWorkspace();
  ASSERT_TRUE(tb_->AddRule("reach(X, Y) :- friend(X, Y).").ok());

  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  auto widened = tb_->Query("?- reach(a, W).", opts);
  ASSERT_TRUE(widened.ok()) << widened.status().ToString();
  EXPECT_EQ(AnswerSet(widened->result),
            (std::set<std::string>{"b|", "z|"}));
  ASSERT_EQ(tb_->query_cache().size(), 2u);

  tb_->ClearWorkspace();
  // The program over stored rules only survives, as a cache hit.
  auto stored_only = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(stored_only.ok()) << stored_only.status().ToString();
  EXPECT_TRUE(stored_only->report.from_cache);
  EXPECT_EQ(AnswerSet(stored_only->result),
            (std::set<std::string>{"b|", "c|", "d|"}));
  // The program that used the workspace rule recompiles without it.
  auto narrowed = tb_->Query("?- reach(a, W).", opts);
  ASSERT_TRUE(narrowed.ok()) << narrowed.status().ToString();
  EXPECT_FALSE(narrowed->report.from_cache);
  EXPECT_EQ(AnswerSet(narrowed->result), (std::set<std::string>{"b|"}));
}

TEST_F(PrecompileTest, FactsDoNotInvalidate) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  ASSERT_TRUE(tb_->AddFacts("parent", {{Value("d"), Value("e")}}).ok());
  auto after = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->report.from_cache);
  // New facts visible despite the cached program.
  EXPECT_EQ(AnswerSet(after->result),
            (std::set<std::string>{"b|", "c|", "d|", "e|"}));
}

// ---------------------------------------------------------------------------
// Adaptive optimization decision
// ---------------------------------------------------------------------------

class AdaptiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = Testbed::Create();
    ASSERT_TRUE(tb.ok());
    tb_ = std::move(*tb);
    ASSERT_TRUE(tb_->Consult(workload::AncestorRules()).ok());
    ASSERT_TRUE(
        tb_->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
            .ok());
    auto tree = workload::MakeFullBinaryTrees(1, 9);
    ASSERT_TRUE(tb_->AddFacts("parent", tree.ToTuples()).ok());
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(AdaptiveTest, LowSelectivityQueryGetsMagic) {
  QueryOptions opts = QueryOptions::Adaptive();
  // Deep sub-tree: a tiny fraction of the data is relevant.
  auto outcome =
      tb_->Query("?- ancestor('" + workload::TreeNodeName(0, 255) + "', W).",
                 opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->report.compile.magic_applied);
  EXPECT_GE(outcome->report.compile.estimated_selectivity, 0.0);
  EXPECT_LT(outcome->report.compile.estimated_selectivity, 0.1);
}

TEST_F(AdaptiveTest, HighSelectivityQuerySkipsMagic) {
  QueryOptions opts = QueryOptions::Adaptive();
  // Root query: everything is relevant.
  auto outcome = tb_->Query(
      "?- ancestor('" + workload::TreeNodeName(0, 0) + "', W).", opts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->report.compile.magic_applied);
  EXPECT_GE(outcome->report.compile.estimated_selectivity, 0.6);
}

TEST_F(AdaptiveTest, AllFreeQuerySkipsMagic) {
  QueryOptions opts = QueryOptions::Adaptive();
  auto outcome = tb_->Query("?- ancestor(X, Y).", opts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->report.compile.magic_applied);
  EXPECT_EQ(outcome->report.compile.estimated_selectivity, 1.0);
}

TEST_F(AdaptiveTest, AdaptiveMatchesExplicitResults) {
  QueryOptions adaptive = QueryOptions::Adaptive();
  QueryOptions magic = QueryOptions::Magic();
  std::string goal =
      "?- ancestor('" + workload::TreeNodeName(0, 31) + "', W).";
  auto a = tb_->Query(goal, adaptive);
  auto m = tb_->Query(goal, magic);
  ASSERT_TRUE(a.ok() && m.ok());
  EXPECT_EQ(AnswerSet(a->result), AnswerSet(m->result));
}

TEST_F(AdaptiveTest, EstimatorCountsTowardOptimizationTime) {
  QueryOptions opts = QueryOptions::Adaptive();
  auto outcome = tb_->Query(
      "?- ancestor('" + workload::TreeNodeName(0, 127) + "', W).", opts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->report.compile.t_opt_us, 0);
}

}  // namespace
}  // namespace dkb::testbed
