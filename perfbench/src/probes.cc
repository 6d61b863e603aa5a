#include "probes.h"

#include <memory>
#include <set>

#include "client/in_process_client.h"
#include "client/remote_client.h"
#include "common/metrics.h"
#include "datalog/parser.h"
#include "lfp/evaluator.h"
#include "magic/magic_sets.h"
#include "testbed/session.h"

namespace perfbench {

namespace {

int64_t SumBytesOut(const dkb::net::Server& server, int64_t* queries) {
  int64_t bytes = 0;
  *queries = 0;
  for (const auto& c : server.Connections()) {
    bytes += c.bytes_out;
    *queries += c.queries;
  }
  return bytes;
}

}  // namespace

void ProbeLayers(dkb::testbed::Testbed* tb, const ProbeConfig& config,
                 TraceLog* log, RunOutput* out) {
  SpanBuffer* spans = log->NewBuffer();
  dkb::net::Server own_server;
  dkb::net::Server* server = config.server;
  if (server == nullptr) {
    Check(own_server.Start(tb), "probe server start");
    server = &own_server;
  }
  auto remote = Take(
      dkb::RemoteClient::Connect("127.0.0.1:" + std::to_string(server->port())),
      "probe connect");
  dkb::InProcessClient local(tb);

  int64_t probed = 0;
  double iterations = 0, derived = 0, answers = 0, statements = 0,
         scanned = 0, join_rows = 0, overhead_us = 0, net_us = 0;
  int64_t bytes_before_q = 0;
  const int64_t bytes_before = SumBytesOut(*server, &bytes_before_q);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.budget_seconds * 1e9);
  const int64_t op_base = int64_t{1} << 40;  // probe ops after loop ops

  for (const Goal& goal : config.goals) {
    if (probed > 0 && NowNs() > deadline) break;
    const int64_t op = op_base + probed;
    ScopedSpan root(spans, "probe", op);
    ++out->ops["probe"].attempted;

    int s = spans->Begin("datalog.parse", op, root.index());
    auto atom = Take(dkb::datalog::ParseQuery(goal.text), "probe parse");
    spans->End(s);

    // The whole query first, so the split calls below never run colder
    // than the call they are subtracted from.
    s = spans->Begin("testbed.query", op, root.index());
    auto outcome = Take(tb->Query(atom, goal.options), "probe query");
    const int64_t query_ns = spans->End(s);

    dkb::km::CompilationStats cstats;
    s = spans->Begin("km.compile", op, root.index());
    auto compiled =
        Take(tb->CompileOnly(atom, goal.options, &cstats), "probe compile");
    const int64_t compile_ns = spans->End(s);

    std::set<std::string> derived_preds;
    for (const auto& rule : compiled.relevant_rules) {
      derived_preds.insert(rule.head.predicate);
    }
    s = spans->Begin("magic.rewrite", op, root.index());
    Take(dkb::magic::ApplyGeneralizedMagicSets(
             compiled.relevant_rules, atom, derived_preds,
             goal.options.supplementary
                 ? dkb::magic::MagicVariant::kSupplementary
                 : dkb::magic::MagicVariant::kGeneralized),
         "probe magic rewrite");
    spans->End(s);

    dkb::lfp::EvalOptions eopts;
    eopts.strategy = goal.options.strategy;
    eopts.parallelism = goal.options.EffectivePolicy().lfp_parallelism;
    dkb::lfp::ExecutionStats estats;
    const auto before = dkb::exec::ExecStatsSnapshot::Take(tb->db().stats());
    s = spans->Begin("lfp.execute", op, root.index());
    auto executed = Take(dkb::lfp::ExecuteProgram(&tb->db(), compiled.program,
                                                  eopts, &estats),
                         "probe execute");
    const int64_t execute_ns = spans->End(s);
    const auto delta =
        dkb::exec::ExecStatsSnapshot::Take(tb->db().stats()) - before;
    iterations += static_cast<double>(estats.iterations);
    answers += static_cast<double>(estats.answer_tuples);
    for (const auto& node : estats.nodes) derived += static_cast<double>(node.tuples);
    statements += static_cast<double>(delta.statements);
    scanned += static_cast<double>(delta.rows_scanned);
    join_rows += static_cast<double>(delta.join_output_rows);

    overhead_us += static_cast<double>(
                       query_ns - (outcome.report.from_cache ? 0 : compile_ns) -
                       execute_ns) /
                   1000.0;

    // One untimed call over the wire first: the server-side session has a
    // query cache of its own, and both timed calls below must find the goal
    // in the same cache state (Testbed::Query above warmed the testbed's).
    Take(remote->Query(goal.text, goal.options, dkb::net::kReportNone),
         "probe remote warm-up");
    s = spans->Begin("client.query", op, root.index());
    auto in_proc = Take(local.Query(goal.text, goal.options,
                                     dkb::net::kReportNone),
                         "probe local");
    const int64_t local_ns = spans->End(s);
    s = spans->Begin("net.query", op, root.index());
    auto over_net = Take(remote->Query(goal.text, goal.options,
                                        dkb::net::kReportNone),
                          "probe remote");
    const int64_t remote_ns = spans->End(s);
    net_us += static_cast<double>(remote_ns - local_ns) / 1000.0;

    s = spans->Begin("testbed.session_open", op, root.index());
    Take(tb->OpenSession(), "probe session open");
    spans->End(s);

    const Digest want = DigestRows(outcome.result.rows);
    if (!(DigestRows(executed.rows) == want) ||
        !(DigestRows(in_proc.rows) == want) ||
        !(DigestRows(over_net.rows) == want)) {
      out->Fail("probe", "layers disagree on " + goal.text);
    }
    ++probed;
  }
  int64_t bytes_after_q = 0;
  const int64_t bytes_after = SumBytesOut(*server, &bytes_after_q);
  remote.reset();

  int64_t updates = 0;
  log->MeanUs("km.update", &updates);
  if (updates == 0 && !config.update_probe_body.empty()) {
    // The loop committed no rules: measure the stored-DKB update path on
    // this workload's state with a few single-rule commits.
    for (int i = 0; i < 20; ++i) {
      const int64_t op = op_base + probed + i;
      ScopedSpan root(spans, "probe", op);
      Check(tb->AddRule("perfbench_probe" + std::to_string(i) + "(X, Y) :- " +
                        config.update_probe_body + "(X, Y)."),
            "probe add rule");
      int s = spans->Begin("km.update", op, root.index());
      Take(tb->UpdateStoredDkb(), "probe update");
      spans->End(s);
      tb->ClearWorkspace();
    }
  }
  int64_t commits = 0;
  log->MeanUs("storage.commit", &commits);
  if (commits == 0) {
    // The loop committed no facts in-process: time single-row AddFacts
    // commits to a relation of the probe's own.
    const std::vector<dkb::DataType> pair = {dkb::DataType::kVarchar,
                                             dkb::DataType::kVarchar};
    Check(tb->DefineBase("perfbench_probe_commit", pair), "probe define");
    for (int i = 0; i < 20; ++i) {
      const int64_t op = op_base + probed + 20 + i;
      ScopedSpan root(spans, "probe", op);
      const std::vector<dkb::Tuple> row = {
          {dkb::Value("probe"), dkb::Value("c" + std::to_string(i))}};
      int s = spans->Begin("storage.commit", op, root.index());
      Check(tb->AddFacts("perfbench_probe_commit", row), "probe commit");
      spans->End(s);
    }
  }
  if (server == &own_server) own_server.Stop();

  const double n = static_cast<double>(probed);
  auto& L = out->layers;
  L["datalog.parse_us"] = log->MeanUs("datalog.parse");
  L["km.compile_us"] = log->MeanUs("km.compile");
  L["km.update_us"] = log->MeanUs("km.update");
  L["magic.rewrite_us"] = log->MeanUs("magic.rewrite");
  L["lfp.execute_us"] = log->MeanUs("lfp.execute");
  L["lfp.iterations"] = iterations / n;
  L["lfp.derived_tuples"] = derived / n;
  L["lfp.answer_share"] = derived > 0 ? answers / derived : 0.0;
  L["rdbms.statements"] = statements / n;
  L["exec.rows_scanned"] = scanned / n;
  L["exec.join_output_rows"] = join_rows / n;
  L["testbed.query_overhead_us"] = overhead_us / n;
  L["testbed.session_open_us"] = log->MeanUs("testbed.session_open");
  L["net.roundtrip_overhead_us"] = net_us / n;
  const int64_t dq = bytes_after_q - bytes_before_q;
  L["net.response_bytes"] =
      dq > 0 ? static_cast<double>(bytes_after - bytes_before) / dq : 0.0;
  out->details["probe_goals"] = n;
}

LoopCounters ReadLoopCounters(dkb::testbed::Testbed* tb,
                              const std::string& wal_path) {
  const dkb::metrics::Histogram& batches =
      dkb::metrics::GlobalMetrics().histogram("dkb.wal.group_batch");
  const auto cache = tb->query_cache().stats();
  LoopCounters c;
  c.wal_appends = tb->WalSnapshot().appends;
  c.wal_bytes = FileBytes(wal_path);
  c.flushes = batches.count();
  c.flushed_records = batches.sum();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  return c;
}

void LoopLayerMetrics(const LoopCounters& before, const LoopCounters& after,
                      RunOutput* out) {
  auto delta = [&](int64_t LoopCounters::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  out->log_bytes = after.wal_bytes - before.wal_bytes;
  const double appends = delta(&LoopCounters::wal_appends);
  const double flushes = delta(&LoopCounters::flushes);
  const double hits = delta(&LoopCounters::cache_hits);
  const double lookups = hits + delta(&LoopCounters::cache_misses);
  // Records not covered by a group-commit batch were written one by one.
  const double writes =
      flushes + appends - delta(&LoopCounters::flushed_records);
  auto& L = out->layers;
  L["storage.commits_per_fsync"] = writes > 0 ? appends / writes : 0.0;
  L["storage.log_bytes_per_commit"] =
      appends > 0 ? static_cast<double>(out->log_bytes) / appends : 0.0;
  L["testbed.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
}

}  // namespace perfbench
