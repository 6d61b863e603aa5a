#ifndef DKB_LFP_EVAL_CONTEXT_H_
#define DKB_LFP_EVAL_CONTEXT_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "common/trace.h"
#include "km/codegen.h"
#include "lfp/evaluator.h"
#include "rdbms/database.h"
#include "storage/table.h"

namespace dkb::lfp {

/// Hash and equality over the rows of one Table shard addressed by RowId,
/// transparent to `const Tuple&` so a candidate row is probed without being
/// copied into a key.
struct ShardRowKey {
  using is_transparent = void;
  const Table* shard;

  const Tuple& Row(RowId rid) const { return shard->Get(rid); }
  const Tuple& Row(const Tuple& t) const { return t; }
  size_t operator()(const auto& key) const { return HashTuple(Row(key)); }
  bool operator()(const auto& a, const auto& b) const {
    return Row(a) == Row(b);
  }
};

/// The distinct rows of one shard of a full IDB table, held as RowIds.
using RowIdSet = std::unordered_set<RowId, ShardRowKey, ShardRowKey>;

/// Semi-naive dedup state of one clique member: one RowIdSet per shard of
/// its full IDB table. It lives for the whole clique evaluation, so the
/// termination step never rescans the accumulated relation.
using DedupSet = std::vector<RowIdSet>;

/// Shared machinery for the SQL-driven evaluators: executes statements
/// against the DBMS and attributes wall-clock time to the paper's cost
/// buckets (temp-table management / RHS evaluation / termination check).
class EvalContext {
 public:
  EvalContext(Database* db, ExecutionStats* stats)
      : db_(db), stats_(stats) {}

  ExecutionStats* stats() { return stats_; }

  /// Trace span of the node currently being evaluated; the clique
  /// evaluators hang per-iteration spans off it. Null = tracing off.
  trace::TraceSpan* span() const { return span_; }
  void set_span(trace::TraceSpan* span) { span_ = span; }

  /// Per-iteration new-tuple counts recorded by the clique evaluators,
  /// harvested into NodeStats::delta_sizes after each node.
  std::vector<int64_t>& delta_sizes() { return delta_sizes_; }

  /// Temp-table management: CREATE/DROP/DELETE-all and table copies.
  Status Temp(const std::string& sql);

  /// Rule-body (or differential) evaluation.
  Status Rhs(const std::string& sql);

  /// Termination-check work (set differences and counts).
  Status Term(const std::string& sql);
  Result<int64_t> TermCount(const std::string& count_sql);

  /// CREATE TABLE `name` with the column layout of `binding`.
  Status CreateLike(const std::string& name,
                    const km::PredicateBinding& binding);

  /// CREATE TABLE `name` with an explicit schema (binding-table pipeline).
  Status CreateWithSchema(const std::string& name, const Schema& schema);

  /// Evaluates one rule into `target` through the run time library: plain
  /// rules become a single INSERT-new statement; rules with negated atoms
  /// run the binding-table pipeline of RuleToSqlProgram. `bind_prefix`
  /// makes the pipeline's temp names unique per call site.
  Status EvalRuleInto(const datalog::Rule& rule,
                      const km::BindingResolver& resolver,
                      const std::string& target,
                      const std::string& bind_prefix);

  /// Evaluates exit (or non-recursive) rule `cr` into `target`: a seed
  /// INSERT ... VALUES for an empty body, the precompiled select as an
  /// INSERT-new, or else the binding-table pipeline over the program's
  /// relations, whose temps `bind_prefix` names.
  Status EvalExitRule(const km::QueryProgram& program,
                      const km::CompiledRule& cr, const std::string& target,
                      const std::string& bind_prefix);

  /// DELETE FROM `name` (attributed to temp management).
  Status Clear(const std::string& name);

  /// INSERT INTO `dst` SELECT * FROM `src` (a full table copy).
  Status Copy(const std::string& dst, const std::string& src);

  /// Batch-native variant of Clear: truncates the table directly without a
  /// SQL round-trip (temp-management bucket).
  Status ClearTable(const std::string& name);

  /// Batch-native variant of Copy: appends `src` to `dst` with
  /// Table::ScanBatch/AppendBatch (temp-management bucket).
  Status CopyTable(const std::string& dst, const std::string& src);

  /// Resets `dedup` to the distinct rows of `full`, one set per shard
  /// (termination bucket). Runs once per clique, after the exit rules.
  Status SeedDedup(const std::string& full, DedupSet* dedup);

  /// Semi-naive termination step: every row of `new_table` not yet in
  /// `dedup` is appended to `full` and to `delta` and recorded in `dedup`;
  /// returns how many were. Costs O(|new| + |appended|), independent of
  /// |full| — the replacement for the
  /// `INSERT INTO diff (SELECT * FROM new) EXCEPT (SELECT * FROM full)`
  /// + COUNT(*) statement pair followed by `full += diff` (termination
  /// bucket). Aligned layouts merge shard by shard in parallel.
  Result<int64_t> MergeNew(const std::string& new_table,
                           const std::string& full, const std::string& delta,
                           DedupSet* dedup);

  Status Drop(const std::string& name);

  /// COUNT(*) of a table (not attributed; diagnostics).
  Result<int64_t> Count(const std::string& name);

 private:
  Database* db_;
  ExecutionStats* stats_;
  trace::TraceSpan* span_ = nullptr;
  std::vector<int64_t> delta_sizes_;
};

}  // namespace dkb::lfp

#endif  // DKB_LFP_EVAL_CONTEXT_H_
