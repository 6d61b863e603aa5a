// kb_churn: one client works over a large synthetic stored rule base
// (workload::MakeRuleBase: ~1,200 non-recursive bridge rules in chain
// families, a few facts per base predicate). It issues goals across the
// families with the precompiled query cache on and, once per round, a
// single-rule update: a new base relation with its facts plus one rule that
// extends an existing family, committed to the Stored DKB with compiled
// rule storage, then retracted from the workspace. The update invalidates
// the cached programs that depend on the extended predicate.

#include <memory>
#include <set>

#include "oracle.h"
#include "probes.h"
#include "testbed/testbed.h"
#include "workload/rule_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dkb::testbed::QueryOptions;
using dkb::testbed::Testbed;

constexpr int kRules = 1200;
constexpr int kRelevantRules = 24;  // family size: 24 rules over 8 preds
constexpr int kRulesPerPred = 3;
constexpr int kFactsPerBase = 2;
constexpr int kConstants = 40;
constexpr size_t kHotGoals = 256;
constexpr int kGoalsPerRound = 16;

struct ChurnInputs {
  dkb::workload::GeneratedRuleBase rulebase;
  /// Derived predicates of each family, chain order (p0 first).
  std::vector<std::vector<std::string>> families;
  std::vector<std::pair<std::string, std::pair<std::string, std::string>>>
      facts;
  std::string program;  // rules and facts, as consulted
};

std::string Constant(int64_t i) { return "k" + std::to_string(i); }

ChurnInputs MakeInputs(uint64_t seed) {
  ChurnInputs in;
  in.rulebase =
      dkb::workload::MakeRuleBase(kRules, kRelevantRules, kRulesPerPred);
  std::map<std::string, size_t> family_of;
  for (const auto& rule : in.rulebase.rules) {
    const std::string& head = rule.head.predicate;
    const std::string prefix = head.substr(0, head.find("_p"));
    auto [it, inserted] = family_of.emplace(prefix, in.families.size());
    if (inserted) in.families.emplace_back();
    auto& preds = in.families[it->second];
    if (preds.empty() || preds.back() != head) preds.push_back(head);
    in.program += rule.ToString() + "\n";
  }
  Draw draw(seed);
  for (const std::string& base : in.rulebase.base_preds) {
    for (int i = 0; i < kFactsPerBase; ++i) {
      auto fact = std::make_pair(Constant(draw.Below(kConstants)),
                                 Constant(draw.Below(kConstants)));
      in.program += base + "(" + fact.first + ", " + fact.second + ").\n";
      in.facts.emplace_back(base, fact);
    }
  }
  return in;
}

std::unique_ptr<Testbed> SetUp(const Args& args, const std::string& dir,
                               ChurnInputs* inputs) {
  *inputs = MakeInputs(args.seed);
  auto tb = Take(Testbed::Create(WalOptions(dir, /*group_commit=*/false)), "Testbed::Create");
  Check(tb->Consult(inputs->program), "Consult rule base");
  Take(tb->UpdateStoredDkb(), "UpdateStoredDkb");
  tb->ClearWorkspace();
  return tb;
}

struct ChurnGoal {
  Goal goal;
  std::string pred;
  std::string bound;  // empty = free
};

/// The hot goal set has a fixed make-up: goal i sits in family i mod F at
/// chain position (i / F) mod P, alternating free/bound and semi-naive/
/// magic, so every seed asks the same shapes; the seed draws the bound
/// constants and (in the loop) the order goals are asked in.
std::vector<ChurnGoal> HotGoals(uint64_t seed, const ChurnInputs& in) {
  Draw draw(seed ^ 0x5bd1e995);
  const size_t families = in.families.size();
  std::vector<ChurnGoal> goals;
  for (size_t i = 0; i < kHotGoals; ++i) {
    ChurnGoal g;
    const auto& family = in.families[i % families];
    g.pred = family[(i / families) % family.size()];
    if (i % 2 == 1) g.bound = Constant(draw.Below(kConstants));
    g.goal.options = (i / 2) % 2 == 0 ? QueryOptions::SemiNaive().WithCache()
                                      : QueryOptions::Magic().WithCache();
    g.goal.text = g.pred + "(" + (g.bound.empty() ? "X" : g.bound) + ", Y)";
    goals.push_back(std::move(g));
  }
  return goals;
}

}  // namespace

RunOutput RunKbChurn(const Args& args, TraceLog* log) {
  RunOutput out;
  ChurnInputs inputs;
  std::unique_ptr<Testbed> tb;
  std::string dir;
  TimeSetups(
      args, "kb_churn", kSetups,
      [&](const std::string& d) { return SetUp(args, d, &inputs); }, &tb,
      &dir, &out);

  RuleReach oracle;
  for (const auto& rule : inputs.rulebase.rules) {
    oracle.AddRule(rule.head.predicate, rule.body[0].predicate);
  }
  for (const auto& [pred, fact] : inputs.facts) {
    oracle.AddFact(pred, fact.first, fact.second);
  }
  const std::vector<ChurnGoal> hot = HotGoals(args.seed, inputs);

  struct Record {
    size_t goal;
    int64_t version;
    Digest got;
  };
  std::vector<Record> records;
  Draw draw(args.seed * 7 + 3);
  SpanBuffer* spans = log->NewBuffer();
  const std::string wal = dir + "/dkb.wal";
  const LoopCounters before = ReadLoopCounters(tb.get(), wal);
  int64_t op = 0;
  int64_t version = 0;  // stored-DKB updates committed so far

  const int64_t start = out.loop_start_ns = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds) * 1000000000;
  while (NowNs() < end) {
    for (int q = 0; q < kGoalsPerRound; ++q, ++op) {
      const size_t gi = static_cast<size_t>(draw.Below(kHotGoals));
      const Goal& goal = hot[gi].goal;
      ++out.ops["query"].attempted;
      ScopedSpan span(spans, "op.query", op);
      int s = spans->Begin("testbed.query", op, span.index());
      const int64_t t0 = NowNs();
      auto result = tb->Query(goal.text, goal.options);
      RecordLatency(&out.query_ms, t0);
      spans->End(s);
      if (!result.ok()) {
        out.Fail("query", goal.text + ": " + result.status().ToString());
        continue;
      }
      records.push_back({gi, version, DigestRows(result.value().result.rows)});
    }

    // One update: a new base relation u<n> with its facts and a rule that
    // extends a random family predicate, committed to the Stored DKB.
    const auto& family = inputs.families[static_cast<size_t>(
        draw.Below(static_cast<int64_t>(inputs.families.size())))];
    const std::string head = family[static_cast<size_t>(
        draw.Below(static_cast<int64_t>(family.size())))];
    const std::string base = "u" + std::to_string(version);
    std::string text;
    std::vector<std::pair<std::string, std::string>> facts;
    for (int i = 0; i < kFactsPerBase; ++i) {
      facts.emplace_back(Constant(draw.Below(kConstants)),
                         Constant(draw.Below(kConstants)));
      text += base + "(" + facts.back().first + ", " + facts.back().second +
              ").\n";
      out.user_bytes += static_cast<int64_t>(facts.back().first.size() +
                                             facts.back().second.size());
    }
    const std::string rule = head + "(X, Y) :- " + base + "(X, Y).";
    text += rule + "\n";
    out.user_bytes += static_cast<int64_t>(rule.size());

    ++out.ops["update"].attempted;
    ScopedSpan span(spans, "op.update", op);
    const int64_t t0 = NowNs();
    int s = spans->Begin("storage.commit", op, span.index());
    dkb::Status st = tb->Consult(text);
    spans->End(s);
    if (st.ok()) {
      s = spans->Begin("km.update", op, span.index());
      st = tb->UpdateStoredDkb().status();
      spans->End(s);
    }
    // The committed rule leaves the workspace again (it now lives in the
    // Stored DKB); retracting it invalidates only its own dependents.
    s = spans->Begin("testbed.retract_rule", op, span.index());
    if (st.ok()) st = tb->RetractRule(rule);
    spans->End(s);
    RecordLatency(&out.update_ms, t0);
    ++op;
    if (!st.ok()) {
      out.Fail("update", rule + ": " + st.ToString());
      continue;
    }
    ++version;
    oracle.AddRule(head, base, version);
    for (const auto& [a, b] : facts) oracle.AddFact(base, a, b);
  }
  LoopLayerMetrics(before, ReadLoopCounters(tb.get(), wal), &out);

  for (const Record& r : records) {
    const ChurnGoal& g = hot[r.goal];
    if (!(r.got == oracle.Answer(g.pred, g.bound, r.version))) {
      out.Fail("query", "wrong answer to " + g.goal.text + " after " +
                            std::to_string(r.version) + " updates");
    }
  }

  if (log->enabled()) {
    ProbeConfig probes;
    for (const ChurnGoal& g : hot) probes.goals.push_back(g.goal);
    probes.budget_seconds = std::max(1.0, args.seconds * 0.25);
    ProbeLayers(tb.get(), probes, log, &out);
  }
  tb.reset();
  RemoveTree(dir);
  return out;
}

}  // namespace perfbench
