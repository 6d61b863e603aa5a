#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Check(const dkb::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

int SpanBuffer::Begin(const char* name, int64_t op_id, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, op_id, parent, NowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

int64_t SpanBuffer::End(int index) {
  if (index < 0) return 0;
  Span& s = spans_[static_cast<size_t>(index)];
  s.end_ns = NowNs();
  return s.end_ns - s.start_ns;
}

SpanBuffer* TraceLog::NewBuffer() {
  buffers_.push_back(std::make_unique<SpanBuffer>(
      static_cast<int>(buffers_.size()), enabled_));
  return buffers_.back().get();
}

double TraceLog::MeanUs(const std::string& name, int64_t* count) const {
  int64_t n = 0;
  int64_t total_ns = 0;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans()) {
      if (name == s.name) {
        ++n;
        total_ns += s.end_ns - s.start_ns;
      }
    }
  }
  if (count != nullptr) *count = n;
  return n == 0 ? 0.0 : static_cast<double>(total_ns) / 1000.0 / n;
}

int64_t TraceLog::SpanCount() const {
  int64_t n = 0;
  for (const auto& buf : buffers_) n += static_cast<int64_t>(buf->spans().size());
  return n;
}

bool TraceLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  bool first = true;
  for (const auto& buf : buffers_) {
    for (size_t i = 0; i < buf->spans().size(); ++i) {
      const Span& s = buf->spans()[i];
      out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"op\": " << s.op_id << ", \"thread\": " << buf->thread()
          << ", \"id\": " << i << ", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Fnv(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void Digest::AddRow(const std::vector<std::string>& row) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& v : row) h = Fnv(v, h) ^ 0x1f;
  sum += Mix(h);
  ++count;
}

Digest DigestRows(const std::vector<dkb::Tuple>& rows) {
  Digest d;
  std::vector<std::string> row;
  for (const dkb::Tuple& t : rows) {
    row.clear();
    for (const dkb::Value& v : t) row.push_back(v.ToString());
    d.AddRow(row);
  }
  return d;
}

void RecordLatency(std::vector<Sample>* samples, int64_t start_ns) {
  const int64_t now = NowNs();
  samples->push_back({now, static_cast<double>(now - start_ns) / 1e6});
}

void RunOutput::Fail(const std::string& op, const std::string& why) {
  ++ops[op].failed;
  if (errors.size() < 5) errors.push_back(op + ": " + why);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double TailPercentile(std::vector<double> samples, double p, double* used) {
  const double n = static_cast<double>(samples.size());
  if (n < 40) {
    *used = 0.5;
    return Median(std::move(samples));
  }
  // Ten samples must lie beyond the reported rank.
  double q = std::min(p, 1.0 - 10.0 / n);
  *used = q;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(std::ceil(q * n)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(n);
}

std::string FreshDir(const std::string& root, const std::string& name) {
  std::filesystem::path p = std::filesystem::path(root) / name;
  std::error_code ec;
  std::filesystem::remove_all(p, ec);
  std::filesystem::create_directories(p, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 p.string().c_str(), ec.message().c_str());
    std::exit(2);
  }
  return p.string();
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
