// The three workloads. Each builds its inputs from Args::seed, sets up
// several times (TimeSetups: timing each, keeping the last), runs whole
// rounds of its
// operations until Args::seconds have passed, then checks every recorded
// answer against the oracles in oracle.h. Traced runs add spans around
// every operation and finish with the layer probes of probes.h.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <random>
#include <string>

#include "harness.h"
#include "testbed/options.h"

namespace perfbench {

constexpr int kSetups = 9;

/// Sets up `count` times, each from a fresh scratch directory
/// <work_dir>/<name>-<i>, and appends each set-up's time to
/// out->setup_seconds. `*kept` and `*dir` receive the last set-up and its
/// directory; earlier ones are torn down and removed first.
template <typename T, typename SetUpFn>
void TimeSetups(const Args& args, const std::string& name, int count,
                SetUpFn set_up, std::unique_ptr<T>* kept, std::string* dir,
                RunOutput* out) {
  for (int i = 0; i < count; ++i) {
    kept->reset();
    RemoveTree(*dir);
    *dir = FreshDir(args.work_dir, name + "-" + std::to_string(i));
    const int64_t t0 = NowNs();
    *kept = set_up(*dir);
    out->setup_seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
}

RunOutput RunClosureQuery(const Args& args, TraceLog* log);
RunOutput RunKbChurn(const Args& args, TraceLog* log);
RunOutput RunConcurrentMixed(const Args& args, TraceLog* log);

/// Testbed configuration of every workload: each write is logged to a WAL
/// in a fresh directory. fdatasync is off: on a shared virtual disk its
/// latency moves update percentiles by more than any bound the benchmark
/// could hold (see README.md, "Flush policy"). Group commit is on only
/// where several clients share the testbed; a single writer gains nothing
/// from the flusher hand-off and its scheduling delays set the update tail.
inline dkb::testbed::TestbedOptions WalOptions(const std::string& wal_dir,
                                               bool group_commit) {
  return dkb::testbed::TestbedOptions{}
      .WithWalDir(wal_dir)
      .WithWalFsync(false)
      .WithWalGroupCommit(group_commit);
}

/// Seeded draws. std::mt19937_64 is fully specified, so the same seed gives
/// the same stream on every platform; the helpers avoid the
/// implementation-defined std distributions.
class Draw {
 public:
  explicit Draw(uint64_t seed) : gen_(seed) {}
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(gen_() % static_cast<uint64_t>(n));
  }
  /// True with probability num/den.
  bool Chance(int num, int den) { return Below(den) < num; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
