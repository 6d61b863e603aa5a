// The traced run's layer split. After the measured loop, a sample of the
// workload's own goals is replayed through each layer's public entry point
// in turn, with the benchmark's clock around every call:
//
//   datalog.parse      datalog::ParseQuery
//   km.compile         Testbed::CompileOnly (the km::QueryCompiler path)
//   magic.rewrite      magic::ApplyGeneralizedMagicSets on the relevant rules
//   lfp.execute        lfp::ExecuteProgram on Testbed::db()
//   testbed.query      Testbed::Query (minus compile and execute = overhead)
//   client.query       InProcessClient::Query
//   net.query          RemoteClient::Query (minus client.query = net cost),
//                      after one untimed call that warms the server-side
//                      session's query cache
//   testbed.session_open  Testbed::OpenSession
//
// Counts come from the structs those calls return (ExecutionStats,
// ExecStatsSnapshot). The testbed must be quiet while probes run.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "harness.h"
#include "net/server.h"
#include "testbed/testbed.h"

namespace perfbench {

struct Goal {
  std::string text;
  dkb::testbed::QueryOptions options;
};

struct ProbeConfig {
  /// Goals to replay, in order, until the time budget runs out (at least
  /// one is always probed).
  std::vector<Goal> goals;
  double budget_seconds = 2.0;
  /// A running server over the same testbed; when null the probes start
  /// their own on a kernel-assigned loopback port.
  dkb::net::Server* server = nullptr;
  /// Body predicate for rule-update probes, which run only when the loop
  /// itself performed no stored-DKB update.
  std::string update_probe_body;
};

/// Runs the probes and fills out->layers with every per-layer metric the
/// probes own; span names above go into `log`. When the loop recorded no
/// in-process storage.commit span, 20 single-row AddFacts commits to a
/// probe relation are timed as well.
void ProbeLayers(dkb::testbed::Testbed* tb, const ProbeConfig& config,
                 TraceLog* log, RunOutput* out);

/// Counters read before and after the measured loop.
struct LoopCounters {
  int64_t wal_appends = 0;    // Testbed::WalSnapshot().appends
  int64_t wal_bytes = 0;      // size of the WAL file
  int64_t flushes = 0;  // group-commit batches written (dkb.wal.group_batch)
  int64_t flushed_records = 0;
  int64_t cache_hits = 0;     // testbed QueryCache::stats()
  int64_t cache_misses = 0;
};
LoopCounters ReadLoopCounters(dkb::testbed::Testbed* tb,
                              const std::string& wal_path);

/// Loop-side per-layer metrics every workload reports the same way, and
/// the run's WAL growth (out->log_bytes): commits per log write (what one
/// fsync covers when syncing is on), log bytes per commit, and the testbed
/// query cache's hit ratio.
void LoopLayerMetrics(const LoopCounters& before, const LoopCounters& after,
                      RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
