#ifndef DKB_LFP_SEMINAIVE_H_
#define DKB_LFP_SEMINAIVE_H_

#include "km/codegen.h"
#include "lfp/eval_context.h"

namespace dkb::lfp {

/// Semi-naive LFP evaluation of one clique using the differential approach
/// (paper §3.3/§4(i)): each iteration evaluates, for every recursive rule
/// and every occurrence i of a clique predicate in its body, the variant
///
///   prefix(j < i) -> current full relation
///   occurrence i  -> last delta
///   suffix(j > i) -> previous full relation
///
/// unions the variants, subtracts the accumulated relation to obtain the
/// new delta, and terminates when all deltas are empty.
///
/// Bookkeeping after the exit rules costs O(|new| + |delta|) per iteration:
/// a dedup set of RowIds into the full relation lives for the whole clique,
/// so the termination step scans only the variant union and appends each
/// new row to full and to the (consumed, cleared) delta table in the same
/// pass; and prev, kept as prev += delta so that full = prev ∪ delta,
/// exists only when some rule has two or more member atoms.
///
/// Returns the number of iterations. `node_index` namespaces the binding
/// pipeline's temp tables so independent nodes can evaluate concurrently.
Result<int64_t> EvaluateCliqueSemiNaive(EvalContext* ctx,
                                        const km::QueryProgram& program,
                                        const km::ProgramNode& node,
                                        size_t node_index = 0);

}  // namespace dkb::lfp

#endif  // DKB_LFP_SEMINAIVE_H_
