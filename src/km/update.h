#ifndef DKB_KM_UPDATE_H_
#define DKB_KM_UPDATE_H_

#include <cstdint>

#include "common/status.h"
#include "common/timer.h"
#include "km/stored_dkb.h"
#include "km/workspace.h"

namespace dkb::km {

/// Per-update timing breakdown (paper §5.3.2, Table 8).
struct UpdateStats {
  int64_t t_extract_us = 0;    // extract rules relevant to the update
  int64_t t_tc_us = 0;         // incremental transitive closure of the PCG
  int64_t t_typecheck_us = 0;  // semantic/type check of the composite
  int64_t t_dict_us = 0;       // idbrel / idbcol / reachablepreds updates
  int64_t t_store_us = 0;      // rulesource inserts (source form)

  int64_t rules_stored = 0;    // new rulesource rows
  int64_t closure_edges = 0;   // |TC| of the composite PCG (the paper's R_c)
  int64_t composite_rules = 0;

  /// Nanosecond sums behind the t_* fields above. ScopedAccumulator adds
  /// here, so sub-microsecond phases count; RoundPhases() writes the `_us`
  /// fields once per update.
  int64_t t_extract_ns = 0;
  int64_t t_tc_ns = 0;
  int64_t t_typecheck_ns = 0;
  int64_t t_dict_ns = 0;
  int64_t t_store_ns = 0;

  int64_t total_us() const {
    return t_extract_us + t_tc_us + t_typecheck_us + t_dict_us + t_store_us;
  }

  void RoundPhases() {
    t_extract_us = NanosToMicros(t_extract_ns);
    t_tc_us = NanosToMicros(t_tc_ns);
    t_typecheck_us = NanosToMicros(t_typecheck_ns);
    t_dict_us = NanosToMicros(t_dict_ns);
    t_store_us = NanosToMicros(t_store_ns);
  }
};

/// Stored D/KB update processor (paper §4.3): commits the Workspace rules
/// into the Stored DKB, incrementally maintaining the compiled rule-storage
/// structures.
///
/// With compiled_rule_storage enabled, the transitive closure is recomputed
/// only over the *composite* PCG (workspace rules plus the stored rules
/// relevant to them) — not over the whole stored rule base. Without it,
/// only the source form is stored (the fast-update configuration of
/// Fig 15).
class UpdateProcessor {
 public:
  explicit UpdateProcessor(StoredDkb* stored) : stored_(stored) {}

  Result<UpdateStats> Update(const Workspace& workspace);

 private:
  StoredDkb* stored_;
};

}  // namespace dkb::km

#endif  // DKB_KM_UPDATE_H_
