#include "lfp/seminaive.h"

#include <map>
#include <set>

#include "km/naming.h"
#include "km/rule_sql.h"

namespace dkb::lfp {

Result<int64_t> EvaluateCliqueSemiNaive(EvalContext* ctx,
                                        const km::QueryProgram& program,
                                        const km::ProgramNode& node,
                                        size_t node_index) {
  const std::set<std::string> members(node.predicates.begin(),
                                      node.predicates.end());
  const std::string np = "#n" + std::to_string(node_index);

  // Non-negated member positions of each recursive rule. Only a variant
  // whose delta occurrence has a later member atom reads prev, so cliques
  // whose rules are all linear never create it.
  std::vector<std::vector<size_t>> member_positions;
  bool need_prev = false;
  for (const datalog::Rule& rule : node.recursive_rules) {
    std::vector<size_t>& positions = member_positions.emplace_back();
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!rule.body[i].negated &&
          members.count(rule.body[i].predicate) > 0) {
        positions.push_back(i);
      }
    }
    need_prev = need_prev || positions.size() > 1;
  }

  // Temp tables per member: delta, new (variant union), and prev (the full
  // relation before the current delta was merged) when some variant reads
  // it.
  for (const std::string& p : node.predicates) {
    const km::PredicateBinding& b = program.bindings.at(p);
    DKB_RETURN_IF_ERROR(ctx->CreateLike(km::DeltaTableName(p), b));
    if (need_prev) {
      DKB_RETURN_IF_ERROR(ctx->CreateLike(km::PrevTableName(p), b));
    }
    DKB_RETURN_IF_ERROR(ctx->CreateLike(km::NewTableName(p), b));
  }

  // p^(0): exit rules.
  for (size_t i = 0; i < node.exit_rules.size(); ++i) {
    const km::CompiledRule& cr = node.exit_rules[i];
    DKB_RETURN_IF_ERROR(ctx->EvalExitRule(
        program, cr, program.bindings.at(cr.rule.head.predicate).table,
        np + "sx" + std::to_string(i)));
  }
  // delta^(0) = p^(0); prev = p^(-1) = empty; the dedup set holds p^(0).
  // full = prev ∪ delta holds at the top of every iteration, and full grows
  // only through MergeNew.
  std::map<std::string, DedupSet> dedup;
  for (const std::string& p : node.predicates) {
    const std::string& full = program.bindings.at(p).table;
    DKB_RETURN_IF_ERROR(ctx->CopyTable(km::DeltaTableName(p), full));
    DKB_RETURN_IF_ERROR(ctx->SeedDedup(full, &dedup[p]));
  }

  // Resolver of the differential variant whose member occurrence
  // `delta_pos` reads delta.
  auto variant_resolver = [&](size_t delta_pos) -> km::BindingResolver {
    return [&program, &members, delta_pos](
               const datalog::Atom& atom,
               size_t body_index) -> Result<km::RelationBinding> {
      auto it = program.bindings.find(atom.predicate);
      if (it == program.bindings.end()) {
        return Status::Internal("no binding for " + atom.predicate);
      }
      km::RelationBinding binding = it->second.AsRelation();
      if (members.count(atom.predicate) == 0) return binding;
      if (body_index == delta_pos) {
        binding.table = km::DeltaTableName(atom.predicate);
      } else if (body_index > delta_pos) {
        binding.table = km::PrevTableName(atom.predicate);
      }
      // body_index < delta_pos keeps the current full relation.
      return binding;
    };
  };

  int64_t iterations = 0;
  while (true) {
    ++iterations;
    trace::ScopedSpan iter_span(ctx->span(), "iteration");
    iter_span.Tag("iter", iterations);
    {
      trace::ScopedSpan rhs_span(iter_span.get(), "rhs");
      for (const std::string& p : node.predicates) {
        DKB_RETURN_IF_ERROR(ctx->ClearTable(km::NewTableName(p)));
      }
      // Negated atoms are never clique members (stratification), so they
      // are unaffected by the delta substitution.
      for (size_t ri = 0; ri < node.recursive_rules.size(); ++ri) {
        const datalog::Rule& rule = node.recursive_rules[ri];
        for (size_t delta_pos : member_positions[ri]) {
          DKB_RETURN_IF_ERROR(ctx->EvalRuleInto(
              rule, variant_resolver(delta_pos),
              km::NewTableName(rule.head.predicate),
              np + "sr" + std::to_string(ri + 1) + "_" +
                  std::to_string(delta_pos)));
        }
      }
    }

    // The variants have consumed delta. prev += delta now keeps
    // full = prev ∪ delta once the merge below refills delta.
    if (need_prev) {
      trace::ScopedSpan prev_span(iter_span.get(), "prev");
      for (const std::string& p : node.predicates) {
        DKB_RETURN_IF_ERROR(
            ctx->CopyTable(km::PrevTableName(p), km::DeltaTableName(p)));
      }
    }

    // Termination: the rows of new that full lacks join full and become
    // the next delta in one pass.
    bool changed = false;
    int64_t delta_total = 0;
    {
      trace::ScopedSpan diff_span(iter_span.get(), "diff");
      for (const std::string& p : node.predicates) {
        DKB_RETURN_IF_ERROR(ctx->ClearTable(km::DeltaTableName(p)));
        DKB_ASSIGN_OR_RETURN(
            int64_t cnt,
            ctx->MergeNew(km::NewTableName(p), program.bindings.at(p).table,
                          km::DeltaTableName(p), &dedup[p]));
        if (cnt > 0) changed = true;
        delta_total += cnt;
      }
    }
    ctx->delta_sizes().push_back(delta_total);
    iter_span.Tag("delta", delta_total);
    if (!changed) break;
  }

  for (const std::string& p : node.predicates) {
    DKB_RETURN_IF_ERROR(ctx->Drop(km::DeltaTableName(p)));
    if (need_prev) DKB_RETURN_IF_ERROR(ctx->Drop(km::PrevTableName(p)));
    DKB_RETURN_IF_ERROR(ctx->Drop(km::NewTableName(p)));
  }
  return iterations;
}

}  // namespace dkb::lfp
