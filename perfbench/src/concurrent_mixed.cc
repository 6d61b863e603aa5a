// concurrent_mixed: four clients connect over loopback to an in-process
// dkb::net::Server whose testbed logs to a WAL with group commit.
// Three readers issue short bound ancestor goals; the fourth client commits
// small AddFacts batches (new leaves) to the parent relation those goals
// read, pausing briefly between commits. Reads run in server-side sessions
// (MVCC epochs) while the writer commits.
//
// Oracle: every answer must equal the closure over the base graph plus some
// prefix of the writer's commits, and that prefix must include every commit
// acknowledged before the query was sent. After the run, a testbed reopened
// from the same WAL directory must hold every acknowledged insert.

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "client/remote_client.h"
#include "net/server.h"
#include "oracle.h"
#include "probes.h"
#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dkb::testbed::QueryOptions;
using dkb::testbed::Testbed;

constexpr int kTrees = 16;
constexpr int kTreeDepth = 10;  // 1023 nodes per tree
constexpr int kMinGoalLevel = 4;  // bound nodes at level >= 4: <= 63 answers
constexpr int kReaders = 3;
constexpr int kReaderRound = 4;  // queries per reader round
constexpr int kEdgesPerCommit = 1;
constexpr int kWriterPauseUs = 4000;

struct Cluster {
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<dkb::net::Server> server;
  std::vector<std::unique_ptr<dkb::RemoteClient>> clients;  // readers, writer

  ~Cluster() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    tb.reset();
  }
};

std::unique_ptr<Cluster> SetUp(const std::string& dir,
                               dkb::workload::EdgeSet* edges) {
  *edges = dkb::workload::MakeFullBinaryTrees(kTrees, kTreeDepth);
  auto c = std::make_unique<Cluster>();
  c->tb = Take(Testbed::Create(WalOptions(dir, /*group_commit=*/true)), "Testbed::Create");
  Check(c->tb->Consult("anc(X, Y) :- par(X, Y).\n"
                       "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"),
        "Consult rules");
  Check(c->tb->DefineBase("par", {dkb::DataType::kVarchar,
                                  dkb::DataType::kVarchar}),
        "DefineBase par");
  Check(c->tb->AddFacts("par", edges->ToTuples()), "AddFacts par");
  c->server = std::make_unique<dkb::net::Server>();
  Check(c->server->Start(c->tb.get()), "server start");
  const std::string addr = "127.0.0.1:" + std::to_string(c->server->port());
  for (int i = 0; i <= kReaders; ++i) {
    c->clients.push_back(Take(dkb::RemoteClient::Connect(addr), "connect"));
  }
  return c;
}

/// Reader goal stream: a bound ancestor goal on a node at level >= 4 of a
/// random tree, under magic sets with semi-naive evaluation.
class ReaderStream {
 public:
  explicit ReaderStream(uint64_t seed) : draw_(seed) {}
  std::pair<std::string, Goal> Next() {
    const int tree = static_cast<int>(draw_.Below(kTrees));
    const int level = kMinGoalLevel +
                      static_cast<int>(draw_.Below(kTreeDepth - kMinGoalLevel));
    const int64_t index =
        ((int64_t{1} << level) - 1) + draw_.Below(int64_t{1} << level);
    const std::string node = dkb::workload::TreeNodeName(tree, index);
    Goal g;
    g.text = "anc(" + node + ", Y)";
    g.options = QueryOptions::Magic();
    return {node, g};
  }

 private:
  Draw draw_;
};

struct ReadRecord {
  std::string node;
  int64_t k_min;  // commits acknowledged before the query was sent
  int64_t k_max;  // commits started before the answer arrived
  Digest got;
};

struct ThreadResult {
  std::vector<ReadRecord> reads;
  std::vector<Sample> latency_ms;
  OpTally tally;
  std::vector<std::string> errors;
};

}  // namespace

RunOutput RunConcurrentMixed(const Args& args, TraceLog* log) {
  RunOutput out;
  dkb::workload::EdgeSet base;
  std::unique_ptr<Cluster> cluster;
  std::string dir;
  TimeSetups(
      args, "concurrent_mixed", kSetups,
      [&](const std::string& d) { return SetUp(d, &base); }, &cluster, &dir,
      &out);
  Testbed* tb = cluster->tb.get();

  // Writer state shared with readers: commit counters only. The commit log
  // itself is owned by the writer thread and read after the join.
  std::atomic<int64_t> started{0};
  std::atomic<int64_t> acked{0};
  std::vector<std::vector<std::pair<std::string, std::string>>> commits;
  ThreadResult writer_result;
  std::vector<ThreadResult> reader_results(kReaders);
  std::vector<SpanBuffer*> spans;
  for (int i = 0; i <= kReaders; ++i) spans.push_back(log->NewBuffer());

  const std::string wal = dir + "/dkb.wal";
  const LoopCounters before = ReadLoopCounters(tb, wal);
  const int64_t start = out.loop_start_ns = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds) * 1000000000;

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r]() {
      ThreadResult& res = reader_results[r];
      dkb::RemoteClient* client = cluster->clients[r].get();
      SpanBuffer* buf = spans[r];
      ReaderStream stream(args.seed * 1000 + r);
      int64_t op = (int64_t{r} + 1) << 32;
      while (NowNs() < end) {
        for (int q = 0; q < kReaderRound; ++q, ++op) {
          auto [node, goal] = stream.Next();
          ++res.tally.attempted;
          ScopedSpan span(buf, "op.query", op);
          int s = buf->Begin("net.query", op, span.index());
          const int64_t k_min = acked.load(std::memory_order_acquire);
          const int64_t t0 = NowNs();
          auto rs = client->Query(goal.text, goal.options,
                                  dkb::net::kReportNone);
          RecordLatency(&res.latency_ms, t0);
          const int64_t k_max = started.load(std::memory_order_acquire);
          buf->End(s);
          if (!rs.ok()) {
            ++res.tally.failed;
            if (res.errors.size() < 3) {
              res.errors.push_back(goal.text + ": " + rs.status().ToString());
            }
            continue;
          }
          res.reads.push_back({node, k_min, k_max, DigestRows(rs->rows)});
        }
      }
    });
  }
  threads.emplace_back([&]() {
    ThreadResult& res = writer_result;
    dkb::RemoteClient* client = cluster->clients[kReaders].get();
    SpanBuffer* buf = spans[kReaders];
    Draw draw(args.seed * 1000 + 999);
    int64_t op = int64_t{kReaders + 1} << 32;
    while (NowNs() < end) {
      const int64_t k = static_cast<int64_t>(commits.size());
      std::vector<std::pair<std::string, std::string>> batch;
      std::vector<dkb::Tuple> rows;
      for (int e = 0; e < kEdgesPerCommit; ++e) {
        const int tree = static_cast<int>(draw.Below(kTrees));
        const int64_t parent = draw.Below((int64_t{1} << kTreeDepth) - 1);
        batch.emplace_back(dkb::workload::TreeNodeName(tree, parent),
                           "w" + std::to_string(k) + "_" + std::to_string(e));
        rows.push_back({dkb::Value(batch.back().first),
                        dkb::Value(batch.back().second)});
      }
      commits.push_back(batch);
      ++res.tally.attempted;
      ScopedSpan span(buf, "op.update", op);
      int s = buf->Begin("net.commit", op, span.index());
      started.store(k + 1, std::memory_order_release);
      const int64_t t0 = NowNs();
      dkb::Status st = client->AddFacts("par", rows);
      RecordLatency(&res.latency_ms, t0);
      buf->End(s);
      ++op;
      if (!st.ok()) {
        // A failed commit may or may not have applied; stop writing so the
        // prefix oracle stays well defined.
        ++res.tally.failed;
        res.errors.push_back("commit " + std::to_string(k) + ": " +
                             st.ToString());
        break;
      }
      acked.store(k + 1, std::memory_order_release);
      for (const auto& [a, b] : batch) {
        out.user_bytes += static_cast<int64_t>(a.size() + b.size());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kWriterPauseUs));
    }
  });
  for (std::thread& t : threads) t.join();
  LoopLayerMetrics(before, ReadLoopCounters(tb, wal), &out);

  // Gather tallies and latencies.
  out.ops["update"] = writer_result.tally;
  out.update_ms = writer_result.latency_ms;
  for (const std::string& e : writer_result.errors) out.errors.push_back(e);
  for (const ThreadResult& r : reader_results) {
    out.ops["query"].attempted += r.tally.attempted;
    out.ops["query"].failed += r.tally.failed;
    out.query_ms.insert(out.query_ms.end(), r.latency_ms.begin(),
                        r.latency_ms.end());
    for (const std::string& e : r.errors) out.errors.push_back(e);
  }

  // Prefix oracle over the versioned graph: commit k's edges carry
  // version k + 1, so "the first k commits" is version k.
  VersionedGraph graph;
  for (const auto& [a, b] : base.edges) graph.AddEdge(a, b);
  const int64_t acked_total = acked.load();
  for (int64_t k = 0; k < static_cast<int64_t>(commits.size()); ++k) {
    for (const auto& [a, b] : commits[k]) graph.AddEdge(a, b, k + 1);
  }
  for (const ThreadResult& r : reader_results) {
    for (const ReadRecord& rec : r.reads) {
      const int node = graph.Find(rec.node);
      bool matched = false;
      for (int64_t k = rec.k_min; k <= rec.k_max && !matched; ++k) {
        matched = graph.AncestorDigest(node, k) == rec.got;
      }
      if (!matched) {
        out.Fail("query", "anc(" + rec.node + ", Y) matches no commit prefix in [" +
                              std::to_string(rec.k_min) + ", " +
                              std::to_string(rec.k_max) + "]");
      }
    }
  }

  if (log->enabled()) {
    ProbeConfig probes;
    ReaderStream replay(args.seed * 1000);
    for (int i = 0; i < 400; ++i) probes.goals.push_back(replay.Next().second);
    probes.budget_seconds = std::max(1.0, args.seconds * 0.25);
    probes.server = cluster->server.get();
    probes.update_probe_body = "par";
    ProbeLayers(tb, probes, log, &out);
  }

  // Durability: reopen from the same WAL directory and look for every
  // acknowledged edge.
  cluster.reset();
  ++out.ops["recovery"].attempted;
  auto reopened = Take(Testbed::Create(WalOptions(dir, /*group_commit=*/true)), "reopen");
  auto all = Take(reopened->Query("par(X, Y)"), "read recovered par");
  std::set<std::pair<std::string, std::string>> present;
  for (const dkb::Tuple& row : all.result.rows) {
    present.emplace(row[0].ToString(), row[1].ToString());
  }
  int64_t missing = 0;
  for (int64_t k = 0; k < acked_total; ++k) {
    for (const auto& edge : commits[k]) missing += present.count(edge) == 0;
  }
  for (const auto& edge : base.edges) missing += present.count(edge) == 0;
  if (missing > 0) {
    out.Fail("recovery", std::to_string(missing) +
                             " acknowledged edges missing after reopen");
  }
  reopened.reset();
  RemoveTree(dir);
  return out;
}

}  // namespace perfbench
