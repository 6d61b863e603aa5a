// Shared plumbing of the benchmark program: command-line arguments, the
// nanosecond clock, in-memory span recording, latency samples, answer
// digests, and the per-run result every workload fills in.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/tuple.h"

namespace perfbench {

/// Monotonic nanoseconds. Every time the benchmark reports is taken from
/// this clock around calls into the testbed's public API, never from the
/// program's own phase fields (those are truncated to whole microseconds).
int64_t NowNs();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch root inside the checkout; each set-up gets a fresh
  /// subdirectory (WAL, checkpoint) that is removed when the run ends.
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its span file.
  std::string trace_dir = ".bench_build/traces";
};

/// Aborts the run (exit code 2, no result line) when set-up fails: a
/// benchmark that cannot build its inputs has nothing to report.
void Check(const dkb::Status& status, const std::string& what);
template <typename T>
T Take(dkb::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent; the spans of one operation share an id.

struct Span {
  const char* name;
  int64_t op_id;
  int32_t parent;  // index into the same buffer, -1 for an operation root
  int64_t start_ns;
  int64_t end_ns;
};

/// One thread's span list. Disabled buffers record nothing, so untraced
/// runs pay one branch per instrumented call.
class SpanBuffer {
 public:
  SpanBuffer(int thread, bool enabled) : thread_(thread), enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int thread() const { return thread_; }
  int Begin(const char* name, int64_t op_id, int parent = -1);
  /// Ends span `index` and returns its duration in ns (0 when disabled).
  int64_t End(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  bool enabled_;
  std::vector<Span> spans_;
};

/// All span buffers of a run; written out once, after measurement.
class TraceLog {
 public:
  explicit TraceLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  SpanBuffer* NewBuffer();
  /// Mean duration in microseconds and count of spans named `name`.
  double MeanUs(const std::string& name, int64_t* count = nullptr) const;
  int64_t SpanCount() const;
  /// Writes {"spans": [...]} as JSON; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// RAII span; a no-op on a disabled buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, int64_t op_id,
             int parent = -1)
      : buf_(buf), index_(buf->Begin(name, op_id, parent)) {}
  ~ScopedSpan() { buf_->End(index_); }
  int index() const { return index_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  int index_;
};

// ---------------------------------------------------------------------------
// Results.

/// Order-independent digest of a set of answer rows: sum of mixed per-row
/// hashes plus the row count. Equal sets give equal digests whatever order
/// the engine returns them in.
struct Digest {
  uint64_t sum = 0;
  uint64_t count = 0;
  void AddRow(const std::vector<std::string>& row);
  bool operator==(const Digest& o) const {
    return sum == o.sum && count == o.count;
  }
};
Digest DigestRows(const std::vector<dkb::Tuple>& rows);

/// One operation's client-observed latency, stamped with its end time so
/// the run can be cut into windows.
struct Sample {
  int64_t end_ns;
  double ms;
};
/// Appends the latency of an operation that started at `start_ns`.
void RecordLatency(std::vector<Sample>* samples, int64_t start_ns);

struct OpTally {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// What one workload run produces; main.cc turns it into metrics.
struct RunOutput {
  std::map<std::string, OpTally> ops;  // per operation type
  std::vector<Sample> query_ms;        // client-observed latencies
  std::vector<Sample> update_ms;
  int64_t loop_start_ns = 0;           // when the measured loop began
  std::vector<double> setup_seconds;   // one entry per set-up performed
  int64_t log_bytes = 0;               // WAL growth during the loop
  int64_t user_bytes = 0;              // bytes of user values committed
  std::vector<std::string> errors;     // first mismatches, for stderr
  std::map<std::string, double> layers;   // per-layer metrics (traced)
  std::map<std::string, double> details;  // extra figures for steady.py

  void Fail(const std::string& op, const std::string& why);
};

/// Highest-percentile rule: `p` (e.g. 0.99) is reported only when at least
/// ten samples lie beyond it; otherwise the highest percentile that has ten
/// beyond it, and the median below forty samples. `*used` receives the
/// percentile actually taken.
double TailPercentile(std::vector<double> samples, double p, double* used);
double Median(std::vector<double> samples);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Size of a file in bytes (0 when absent).
int64_t FileBytes(const std::string& path);

/// Fresh, empty directory under `root` (created, or emptied if present).
std::string FreshDir(const std::string& root, const std::string& name);
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
