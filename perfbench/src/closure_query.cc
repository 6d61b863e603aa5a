// closure_query: one client runs a seeded stream of recursive goals --
// linear ancestor and same-generation, bound and free -- over a full binary
// tree, a layered DAG and a cyclic graph, under the semi-naive, magic and
// native strategies. The query cache is off, so every goal is compiled and
// evaluated. Every three goals end with one small durable commit that
// records them in a log relation no goal reads. The commits exist because
// every run reports every gated end-to-end metric, update latency and log
// volume included; they take under 1% of the loop's time and touch none of
// the relations the LFP reads.

#include <map>
#include <memory>
#include <set>

#include "oracle.h"
#include "probes.h"
#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dkb::testbed::QueryOptions;
using dkb::testbed::Testbed;

constexpr int kTreeDepth = 7;  // 127 nodes, 126 edges
constexpr int kDagLevels = 6;
constexpr int kDagWidth = 16;
constexpr int kDagFanIn = 2;
constexpr int kCycLevels = 6;
constexpr int kCycWidth = 12;
constexpr int kCycFanIn = 2;
constexpr int kCycles = 3;
constexpr int kCycleLength = 3;
constexpr int kGoalsPerCommit = 3;  // one log commit per three goals
/// A set-up takes about 2 ms, mostly testbed creation and the WAL
/// directory, so the run times many: the median of 9 spread by 0.24 of
/// itself over ten seeds.
constexpr int kClosureSetups = 41;

struct GraphInput {
  std::string prefix;  // relation prefix: t (tree), d (DAG), c (cyclic)
  dkb::workload::EdgeSet edges;
};

struct ClosureInputs {
  std::vector<GraphInput> graphs;
};

/// The graphs' shapes are fixed and the run seed draws the goals: drawn
/// per seed, the DAG and the cyclic graph's back edges doubled the
/// seed-to-seed spread of ops_per_s (0.15 of the median against 0.07).
constexpr uint64_t kGraphSeed = 1;

ClosureInputs MakeInputs() {
  ClosureInputs in;
  in.graphs.push_back(
      {"t", dkb::workload::MakeFullBinaryTrees(1, kTreeDepth)});
  in.graphs.push_back({"d", dkb::workload::MakeDag(kDagLevels, kDagWidth,
                                                   kDagFanIn, kGraphSeed)});
  in.graphs.push_back(
      {"c", dkb::workload::MakeCyclicGraph(kCycLevels, kCycWidth, kCycFanIn,
                                           kCycles, kCycleLength,
                                           kGraphSeed)});
  return in;
}

std::string Rules(const std::string& g) {
  return g + "anc(X, Y) :- " + g + "par(X, Y).\n" + g + "anc(X, Y) :- " + g +
         "par(X, Z), " + g + "anc(Z, Y).\n" + g + "sg(X, Y) :- " + g +
         "flat(X, Y).\n" + g + "sg(X, Y) :- " + g + "up(X, U), " + g +
         "sg(U, V), " + g + "dn(V, Y).\n";
}

std::unique_ptr<Testbed> SetUp(const std::string& dir, ClosureInputs* inputs) {
  *inputs = MakeInputs();
  auto tb = Take(Testbed::Create(WalOptions(dir, /*group_commit=*/false)), "Testbed::Create");
  const std::vector<dkb::DataType> pair = {dkb::DataType::kVarchar,
                                           dkb::DataType::kVarchar};
  std::string rules;
  for (const GraphInput& g : inputs->graphs) {
    rules += Rules(g.prefix);
    std::vector<dkb::Tuple> par, up, flat;
    for (const auto& [src, dst] : g.edges.edges) {
      par.push_back({dkb::Value(src), dkb::Value(dst)});
      up.push_back({dkb::Value(dst), dkb::Value(src)});
    }
    for (const std::string& r : g.edges.roots) {
      flat.push_back({dkb::Value(r), dkb::Value(r)});
    }
    for (const char* rel : {"par", "up", "dn", "flat"}) {
      Check(tb->DefineBase(g.prefix + rel, pair), "DefineBase");
    }
    Check(tb->AddFacts(g.prefix + "par", par), "AddFacts par");
    Check(tb->AddFacts(g.prefix + "dn", par), "AddFacts dn");
    Check(tb->AddFacts(g.prefix + "up", up), "AddFacts up");
    Check(tb->AddFacts(g.prefix + "flat", flat), "AddFacts flat");
  }
  Check(tb->DefineBase("qlog", pair), "DefineBase qlog");
  Check(tb->Consult(rules), "Consult rules");
  return tb;
}

/// One goal of the stream, with what the oracle needs to check it.
struct ClosureGoal {
  Goal goal;
  int graph = 0;
  bool sg = false;
  std::string bound;  // empty = free
};

/// Rounds of goals with a fixed make-up, so every seed runs the same mix:
/// per graph, two bound ancestor, two bound same-generation, one free
/// ancestor and one free same-generation goal. Bound goals rotate through
/// semi-naive, magic and native; free goals through semi-naive and native
/// (magic leaves a free goal unchanged). Only the bound nodes are drawn.
class GoalStream {
 public:
  GoalStream(uint64_t seed, const ClosureInputs& in) : draw_(seed), in_(in) {}
  std::vector<ClosureGoal> NextRound() {
    std::vector<ClosureGoal> round;
    for (int graph = 0; graph < static_cast<int>(in_.graphs.size()); ++graph) {
      const auto& edges = in_.graphs[graph].edges.edges;
      for (int slot = 0; slot < 6; ++slot) {
        ClosureGoal g;
        g.graph = graph;
        g.sg = slot % 2 == 1;
        const bool bound = slot < 4;
        if (bound) {
          const auto& e = edges[static_cast<size_t>(
              draw_.Below(static_cast<int64_t>(edges.size())))];
          g.bound = draw_.Chance(1, 2) ? e.first : e.second;
          g.goal.options = kBoundOptions[turn_ % 3];
        } else {
          g.goal.options = kBoundOptions[2 * (turn_ % 2)];
        }
        ++turn_;
        const std::string pred =
            in_.graphs[graph].prefix + (g.sg ? "sg" : "anc");
        g.goal.text = pred + "(" + (bound ? g.bound : "X") + ", Y)";
        round.push_back(std::move(g));
      }
    }
    return round;
  }

 private:
  static inline const QueryOptions kBoundOptions[3] = {
      QueryOptions::SemiNaive(), QueryOptions::Magic(),
      QueryOptions::SemiNaive().WithStrategy(dkb::lfp::LfpStrategy::kNative)};
  Draw draw_;
  const ClosureInputs& in_;
  int64_t turn_ = 0;
};

/// Static oracles: BFS closure and naive same-generation per graph.
class ClosureOracle {
 public:
  explicit ClosureOracle(const ClosureInputs& in) {
    for (const GraphInput& g : in.graphs) {
      VersionedGraph vg;
      std::vector<std::pair<int, int>> up, dn, flat;
      for (const auto& [src, dst] : g.edges.edges) {
        vg.AddEdge(src, dst);
        dn.emplace_back(vg.Find(src), vg.Find(dst));
        up.emplace_back(vg.Find(dst), vg.Find(src));
      }
      for (const std::string& r : g.edges.roots) {
        int id = vg.Node(r);
        flat.emplace_back(id, id);
      }
      sg_.push_back(SameGeneration(up, dn, flat));
      graphs_.push_back(std::move(vg));
    }
  }

  Digest Expected(const ClosureGoal& g) {
    const std::string key =
        std::to_string(g.graph) + (g.sg ? "s" : "a") + g.bound;
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const VersionedGraph& vg = graphs_[g.graph];
    const int bound = g.bound.empty() ? -1 : vg.Find(g.bound);
    Digest d;
    if (!g.sg) {
      d = vg.AncestorDigest(bound, 0);
    } else {
      for (const auto& [x, y] : sg_[g.graph]) {
        if (bound < 0) {
          d.AddRow({vg.Name(x), vg.Name(y)});
        } else if (x == bound) {
          d.AddRow({vg.Name(y)});
        }
      }
    }
    memo_.emplace(key, d);
    return d;
  }

 private:
  std::vector<VersionedGraph> graphs_;
  std::vector<std::set<std::pair<int, int>>> sg_;
  std::map<std::string, Digest> memo_;
};

}  // namespace

RunOutput RunClosureQuery(const Args& args, TraceLog* log) {
  RunOutput out;
  ClosureInputs inputs;
  std::unique_ptr<Testbed> tb;
  std::string dir;
  TimeSetups(
      args, "closure_query", kClosureSetups,
      [&](const std::string& d) { return SetUp(d, &inputs); }, &tb, &dir,
      &out);
  ClosureOracle oracle(inputs);

  struct Record {
    ClosureGoal goal;
    Digest got;
  };
  std::vector<Record> records;
  std::vector<dkb::Tuple> logged;
  GoalStream stream(args.seed, inputs);
  SpanBuffer* spans = log->NewBuffer();
  const std::string wal = dir + "/dkb.wal";
  const LoopCounters before = ReadLoopCounters(tb.get(), wal);
  int64_t op = 0;

  const int64_t start = out.loop_start_ns = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds) * 1000000000;
  for (int64_t round = 0; NowNs() < end; ++round) {
    const std::vector<ClosureGoal> goals = stream.NextRound();
    for (size_t i = 0; i < goals.size(); i += kGoalsPerCommit) {
      std::vector<dkb::Tuple> rows;
      for (size_t j = i; j < i + kGoalsPerCommit; ++j, ++op) {
        const ClosureGoal& g = goals[j];
        ++out.ops["query"].attempted;
        ScopedSpan span(spans, "op.query", op);
        int s = spans->Begin("testbed.query", op, span.index());
        const int64_t t0 = NowNs();
        auto result = tb->Query(g.goal.text, g.goal.options);
        RecordLatency(&out.query_ms, t0);
        spans->End(s);
        if (!result.ok()) {
          out.Fail("query", g.goal.text + ": " + result.status().ToString());
          continue;
        }
        records.push_back({g, DigestRows(result.value().result.rows)});
        rows.push_back({dkb::Value("r" + std::to_string(round)),
                        dkb::Value("q" + std::to_string(op))});
      }
      for (const dkb::Tuple& r : rows) {
        out.user_bytes += static_cast<int64_t>(r[0].as_string().size() +
                                               r[1].as_string().size());
      }
      ++out.ops["update"].attempted;
      ScopedSpan span(spans, "op.update", op);
      int s = spans->Begin("storage.commit", op, span.index());
      const int64_t t0 = NowNs();
      dkb::Status st = tb->AddFacts("qlog", rows);
      RecordLatency(&out.update_ms, t0);
      spans->End(s);
      ++op;
      if (!st.ok()) {
        out.Fail("update", st.ToString());
      } else {
        logged.insert(logged.end(), rows.begin(), rows.end());
      }
    }
  }
  LoopLayerMetrics(before, ReadLoopCounters(tb.get(), wal), &out);

  // Every answer against its oracle; every acknowledged commit readable.
  for (const Record& r : records) {
    if (!(r.got == oracle.Expected(r.goal))) {
      out.Fail("query", "wrong answer to " + r.goal.goal.text + " (" +
                            dkb::lfp::StrategyName(r.goal.goal.options.strategy) +
                            ")");
    }
  }
  auto all = Take(tb->Query("qlog(X, Y)"), "read qlog");
  if (!(DigestRows(all.result.rows) == DigestRows(logged))) {
    out.Fail("update", "qlog does not hold every acknowledged commit");
  }

  if (log->enabled()) {
    ProbeConfig probes;
    GoalStream replay(args.seed, inputs);
    for (int i = 0; i < 10; ++i) {
      for (const ClosureGoal& g : replay.NextRound()) {
        probes.goals.push_back(g.goal);
      }
    }
    probes.budget_seconds = std::max(1.0, args.seconds * 0.25);
    probes.update_probe_body = "tpar";
    ProbeLayers(tb.get(), probes, log, &out);
  }
  tb.reset();
  RemoveTree(dir);
  return out;
}

}  // namespace perfbench
