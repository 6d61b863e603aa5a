// dkb_perfbench: runs one workload and prints every metric by name with its
// unit, the operations attempted and failed per type, and, as the last line
// of standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write their spans to
// <trace-dir>/<workload>-seed<seed>.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: dkb_perfbench --workload closure_query|kb_churn|"
               "concurrent_mixed --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number for " + flag).c_str());
  }
  if (args.seconds < 1) Usage("--seconds must be >= 1");
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.9g", v);
    s += (i ? ", " : "") + ("\"" + metrics[i].name + "\": {\"value\": ") +
         buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics and their units, in report order.
constexpr std::pair<const char*, const char*> kLayerUnits[] = {
    {"datalog.parse_us", "us/query"},
    {"km.compile_us", "us/compile"},
    {"km.update_us", "us/update"},
    {"magic.rewrite_us", "us/compile"},
    {"testbed.cache_hit_ratio", "ratio"},
    {"testbed.query_overhead_us", "us/query"},
    {"testbed.session_open_us", "us"},
    {"lfp.execute_us", "us/query"},
    {"lfp.iterations", "count/query"},
    {"lfp.derived_tuples", "count/query"},
    {"lfp.answer_share", "ratio"},
    {"rdbms.statements", "count/query"},
    {"exec.rows_scanned", "count/query"},
    {"exec.join_output_rows", "count/query"},
    {"storage.commit_us", "us/commit"},
    {"storage.commits_per_fsync", "ratio"},
    {"storage.log_bytes_per_commit", "bytes"},
    {"net.roundtrip_overhead_us", "us/query"},
    {"net.response_bytes", "bytes/query"},
};

/// The measured loop is cut into kWindows equal windows; each end-to-end
/// rate and percentile is computed per window and the run reports the
/// median over windows, so one disturbed window cannot move the result.
constexpr int kWindows = 10;

/// The query tail is the 95th percentile, not the 99th: in kb_churn about
/// 1% of queries are 10-60 ms outliers (statement-cache flushes and compiles
/// against the grown stored rule base) above a body whose p95 is 3-4 ms, so
/// a p99 lands on the edge between the two and reads either from run to
/// run. The outliers still show in ops_per_s. Updates keep the highest
/// percentile with ten samples beyond it.
constexpr double kQueryTail = 0.95;

struct Windowed {
  double ops_per_s, query_p50, query_p95, update_p50, update_p99;
  double queries, updates;        // median samples per window
  double query_tail, update_tail;  // percentile the tails were taken at
};

Windowed MeasureWindows(const RunOutput& out, int seconds) {
  const int64_t len = static_cast<int64_t>(seconds) * 1000000000 / kWindows;
  std::vector<double> rate, q50, q95, u50, u99, nq, nu, qt, ut;
  for (int w = 0; w < kWindows; ++w) {
    const int64_t lo = out.loop_start_ns + w * len;
    int64_t first = lo + len, last = lo;
    auto slice = [&](const std::vector<Sample>& all) {
      std::vector<double> v;
      for (const Sample& s : all) {
        if (s.end_ns < lo || s.end_ns >= lo + len) continue;
        v.push_back(s.ms);
        first = std::min(first, s.end_ns);
        last = std::max(last, s.end_ns);
      }
      return v;
    };
    const std::vector<double> q = slice(out.query_ms);
    const std::vector<double> u = slice(out.update_ms);
    // Completions per second between the window's first and last
    // completion, so the rate is measured, not a count over a fixed span.
    const size_t n = q.size() + u.size();
    rate.push_back(n > 1 ? static_cast<double>(n - 1) * 1e9 /
                               static_cast<double>(last - first)
                         : 0.0);
    double used = 0;
    q50.push_back(Median(q));
    q95.push_back(TailPercentile(q, kQueryTail, &used));
    qt.push_back(used);
    u50.push_back(Median(u));
    u99.push_back(TailPercentile(u, 0.99, &used));
    ut.push_back(used);
    nq.push_back(static_cast<double>(q.size()));
    nu.push_back(static_cast<double>(u.size()));
  }
  return {Median(rate), Median(q50), Median(q95), Median(u50), Median(u99),
          Median(nq), Median(nu), Median(qt), Median(ut)};
}

double MeanMs(const std::vector<Sample>& samples) {
  double sum = 0;
  for (const Sample& s : samples) sum += s.ms;
  return Ratio(sum, static_cast<double>(samples.size()));
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  TraceLog log(args.trace);
  RunOutput out;
  if (args.workload == "closure_query") {
    out = RunClosureQuery(args, &log);
  } else if (args.workload == "kb_churn") {
    out = RunKbChurn(args, &log);
  } else if (args.workload == "concurrent_mixed") {
    out = RunConcurrentMixed(args, &log);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  std::printf("workload %s seed %llu seconds %d trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  int64_t attempted = 0, failed = 0;
  for (const auto& [type, tally] : out.ops) {
    std::printf("ops %-8s attempted %lld failed %lld\n", type.c_str(),
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.failed));
    attempted += tally.attempted;
    failed += tally.failed;
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Windowed w = MeasureWindows(out, args.seconds);
    metrics = {
        {"setup_s", Median(out.setup_seconds), "s"},
        {"ops_per_s", w.ops_per_s, "ops/s"},
        {"query_p50_ms", w.query_p50, "ms"},
        {"query_p95_ms", w.query_p95, "ms"},
        {"update_p50_ms", w.update_p50, "ms"},
        {"update_p99_ms", w.update_p99, "ms"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
        {"log_bytes_per_user_byte",
         Ratio(static_cast<double>(out.log_bytes),
               static_cast<double>(out.user_bytes)),
         "ratio"},
    };
    std::printf("windows %d of %.1f s; per window: queries %.0f (tail at "
                "p%.2f), updates %.0f (tail at p%.2f); setups %zu\n",
                kWindows, args.seconds / static_cast<double>(kWindows),
                w.queries, w.query_tail * 100, w.updates,
                w.update_tail * 100, out.setup_seconds.size());
    out.details["query_mean_ms"] = MeanMs(out.query_ms);
    out.details["update_mean_ms"] = MeanMs(out.update_ms);
  } else {
    out.layers["storage.commit_us"] = log.MeanUs("storage.commit");
    for (const auto& [name, unit] : kLayerUnits) {
      auto it = out.layers.find(name);
      if (it == out.layers.end()) {
        std::fprintf(stderr, "perfbench: layer metric %s not measured\n",
                     name);
        return 2;
      }
      metrics.push_back({name, it->second, unit});
    }
    out.details["ops_per_s"] = MeasureWindows(out, args.seconds).ops_per_s;
    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!log.Write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("trace %s (%lld spans)\n", path.c_str(),
                static_cast<long long>(log.SpanCount()));
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, value] : out.details) {
    std::printf("detail %-30s %14.6f\n", name.c_str(), value);
  }
  std::printf("%s\n", Json(metrics, failed == 0, attempted, failed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
