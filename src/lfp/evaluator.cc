#include "lfp/evaluator.h"

#include <map>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "lfp/eval_context.h"
#include "lfp/naive.h"
#include "lfp/native_lfp.h"
#include "lfp/seminaive.h"

namespace dkb::lfp {

namespace {

/// Evaluates a non-recursive node: one INSERT-new per rule (or the
/// binding-table pipeline for rules with negated atoms).
Status EvaluateFlatNode(EvalContext* ctx, const km::QueryProgram& program,
                        const km::ProgramNode& node, size_t node_index) {
  for (size_t i = 0; i < node.exit_rules.size(); ++i) {
    const km::CompiledRule& cr = node.exit_rules[i];
    DKB_RETURN_IF_ERROR(ctx->EvalExitRule(
        program, cr, program.bindings.at(cr.rule.head.predicate).table,
        "#n" + std::to_string(node_index) + "flat" + std::to_string(i)));
  }
  return Status::OK();
}

/// Predicates defined by a node, comma-joined (NodeStats label and trace
/// span names).
std::string NodeLabel(const km::ProgramNode& node) {
  std::string label;
  for (const std::string& p : node.predicates) {
    if (!label.empty()) label += ",";
    label += p;
  }
  return label;
}

/// Evaluates one node end to end, appending its NodeStats to ctx's stats.
/// `node_span` (may be null) becomes the node's trace span: the clique
/// evaluators hang per-iteration children off it via ctx->span().
Status RunOneNode(EvalContext* ctx, const km::QueryProgram& program,
                  const km::ProgramNode& node, size_t node_index,
                  LfpStrategy strategy, trace::TraceSpan* node_span) {
  WallTimer node_timer;
  ctx->set_span(node_span);
  ctx->delta_sizes().clear();
  int64_t iterations = 0;
  if (!node.is_clique) {
    DKB_RETURN_IF_ERROR(EvaluateFlatNode(ctx, program, node, node_index));
  } else if (strategy == LfpStrategy::kNaive) {
    DKB_ASSIGN_OR_RETURN(
        iterations, EvaluateCliqueNaive(ctx, program, node, node_index));
  } else {
    DKB_ASSIGN_OR_RETURN(
        iterations, EvaluateCliqueSemiNaive(ctx, program, node, node_index));
  }
  NodeStats ns;
  ns.label = NodeLabel(node);
  ns.is_clique = node.is_clique;
  ns.iterations = iterations;
  ns.delta_sizes = std::move(ctx->delta_sizes());
  ctx->delta_sizes().clear();
  ctx->set_span(nullptr);
  for (const std::string& p : node.predicates) {
    DKB_ASSIGN_OR_RETURN(int64_t n,
                         ctx->Count(program.bindings.at(p).table));
    ns.tuples += n;
  }
  ns.t_us = node_timer.ElapsedMicros();
  if (node_span != nullptr) {
    node_span->Tag("iterations", iterations);
    node_span->Tag("tuples", ns.tuples);
    node_span->End();
  }
  ctx->stats()->nodes.push_back(std::move(ns));
  ctx->stats()->iterations += iterations;
  return Status::OK();
}

Status RunNodes(EvalContext* ctx, const km::QueryProgram& program,
                LfpStrategy strategy, trace::TraceSpan* parent) {
  for (size_t i = 0; i < program.nodes.size(); ++i) {
    trace::TraceSpan* node_span =
        trace::StartSpan(parent, "node:" + NodeLabel(program.nodes[i]));
    DKB_RETURN_IF_ERROR(
        RunOneNode(ctx, program, program.nodes[i], i, strategy, node_span));
  }
  return Status::OK();
}

/// Topological-wavefront scheduler: node j waits on node i iff a rule of j
/// mentions a predicate i defines. Independent nodes of a wave evaluate
/// concurrently — they touch disjoint IDB/temp tables, and the shared
/// DBMS plumbing (catalog map, statement cache, counters) is thread-safe.
/// Per-node stats accumulate into private ExecutionStats and merge in
/// program order, so the reported breakdown is deterministic.
Status RunNodesParallel(Database* db, const km::QueryProgram& program,
                        LfpStrategy strategy, ThreadPool* pool,
                        ExecutionStats* stats, trace::TraceSpan* parent) {
  const size_t n = program.nodes.size();
  std::map<std::string, size_t> defined_by;
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& p : program.nodes[i].predicates) {
      defined_by[p] = i;
    }
  }
  std::vector<std::vector<size_t>> deps(n);
  for (size_t i = 0; i < n; ++i) {
    auto add_dep = [&](const std::string& pred) {
      auto it = defined_by.find(pred);
      if (it != defined_by.end() && it->second != i) {
        deps[i].push_back(it->second);
      }
    };
    for (const km::CompiledRule& cr : program.nodes[i].exit_rules) {
      for (const datalog::Atom& atom : cr.rule.body) {
        add_dep(atom.predicate);
      }
    }
    for (const datalog::Rule& rule : program.nodes[i].recursive_rules) {
      for (const datalog::Atom& atom : rule.body) {
        add_dep(atom.predicate);
      }
    }
  }

  std::vector<ExecutionStats> locals(n);
  // Per-node spans are detached from the shared context (each pool thread
  // writes only its own slot) and adopted into `parent` in program order
  // below, so the span tree is identical run to run.
  std::vector<std::unique_ptr<trace::TraceSpan>> node_spans(n);
  std::vector<Status> results(n, Status::OK());
  std::vector<bool> done(n, false);
  size_t completed = 0;
  while (completed < n) {
    std::vector<size_t> wave;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      bool ready = true;
      for (size_t d : deps[i]) {
        if (!done[d]) {
          ready = false;
          break;
        }
      }
      if (ready) wave.push_back(i);
    }
    if (wave.empty()) {
      return Status::Internal("cyclic dependency between program nodes");
    }
    pool->ParallelFor(0, wave.size(), [&](size_t w) {
      size_t i = wave[w];
      EvalContext node_ctx(db, &locals[i]);
      if (parent != nullptr) {
        node_spans[i] = parent->context()->Detach(
            "node:" + NodeLabel(program.nodes[i]));
      }
      results[i] = RunOneNode(&node_ctx, program, program.nodes[i], i,
                              strategy, node_spans[i].get());
    });
    for (size_t i : wave) {
      done[i] = true;
      ++completed;
    }
    for (size_t i : wave) {
      if (!results[i].ok()) return results[i];
    }
  }

  for (size_t i = 0; i < n; ++i) {
    stats->t_temp_ns += locals[i].t_temp_ns;
    stats->t_rhs_ns += locals[i].t_rhs_ns;
    stats->t_term_ns += locals[i].t_term_ns;
    stats->iterations += locals[i].iterations;
    for (NodeStats& ns : locals[i].nodes) {
      stats->nodes.push_back(std::move(ns));
    }
    if (parent != nullptr && node_spans[i] != nullptr) {
      parent->Adopt(std::move(node_spans[i]));
    }
  }
  return Status::OK();
}

}  // namespace

const char* StrategyName(LfpStrategy strategy) {
  switch (strategy) {
    case LfpStrategy::kNaive:
      return "naive";
    case LfpStrategy::kSemiNaive:
      return "semi-naive";
    case LfpStrategy::kNative:
      return "native-lfp";
    case LfpStrategy::kNativeTc:
      return "native-lfp+tc";
  }
  return "unknown";
}

Result<QueryResult> ExecuteProgram(Database* db,
                                   const km::QueryProgram& program,
                                   const EvalOptions& options,
                                   ExecutionStats* stats) {
  ExecutionStats local;
  if (stats == nullptr) stats = &local;
  *stats = ExecutionStats{};
  stats->query_id = options.query_id;
  RoundPhasesOnExit<ExecutionStats> round_phases(stats);

  if (options.strategy == LfpStrategy::kNative ||
      options.strategy == LfpStrategy::kNativeTc) {
    return ExecuteProgramNative(db, program, stats,
                                options.strategy == LfpStrategy::kNativeTc,
                                options.span);
  }

  // Resolve the parallelism knob to a wavefront worker count.
  size_t workers = 1;
  if (options.parallelism == 0) {
    workers = GlobalThreadPool().num_threads() + 1;
  } else if (options.parallelism > 1) {
    workers = static_cast<size_t>(options.parallelism);
  }
  const bool parallel = workers > 1 && program.nodes.size() > 1;

  WallTimer total;
  EvalContext ctx(db, stats);
  {
    trace::ScopedSpan temp_span(options.span, "temp");
    for (const std::string& sql : program.drop_statements) {
      DKB_RETURN_IF_ERROR(ctx.Temp(sql));
    }
    for (const std::string& sql : program.create_statements) {
      DKB_RETURN_IF_ERROR(ctx.Temp(sql));
    }
  }

  Status status;
  if (parallel && options.parallelism == 0) {
    status = RunNodesParallel(db, program, options.strategy,
                              &GlobalThreadPool(), stats, options.span);
  } else if (parallel) {
    ThreadPool wave_pool(workers - 1);
    status = RunNodesParallel(db, program, options.strategy, &wave_pool,
                              stats, options.span);
  } else {
    status = RunNodes(&ctx, program, options.strategy, options.span);
  }

  Result<QueryResult> answer = Status::Internal("unreachable");
  if (status.ok()) {
    ScopedAccumulator acc(&stats->t_final_ns);
    trace::ScopedSpan final_span(options.span, "final");
    answer = db->Execute(program.final_select);
  } else {
    answer = status;
  }

  // Cleanup, win or lose: leftover idb_/temp tables would break the next
  // query's CREATE statements.
  {
    trace::ScopedSpan cleanup_span(options.span, "cleanup");
    for (const std::string& sql : program.drop_statements) {
      Status drop = ctx.Temp(sql);
      (void)drop;
    }
  }
  if (answer.ok()) {
    stats->answer_tuples = static_cast<int64_t>(answer->rows.size());
  }
  stats->t_total_us = total.ElapsedMicros();
  return answer;
}

Result<QueryResult> ExecuteProgram(Database* db,
                                   const km::QueryProgram& program,
                                   LfpStrategy strategy,
                                   ExecutionStats* stats) {
  EvalOptions options;
  options.strategy = strategy;
  return ExecuteProgram(db, program, options, stats);
}

}  // namespace dkb::lfp
