#include "oracle.h"

#include <deque>

namespace perfbench {

int VersionedGraph::Node(const std::string& name) {
  auto [it, inserted] = ids_.emplace(name, static_cast<int>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    out_.emplace_back();
  }
  return it->second;
}

int VersionedGraph::Find(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? -1 : it->second;
}

void VersionedGraph::AddEdge(const std::string& src, const std::string& dst,
                             int64_t version) {
  int s = Node(src);
  int d = Node(dst);
  out_[s].emplace_back(d, version);
}

std::vector<int> VersionedGraph::Reach(int src, int64_t v) const {
  std::vector<char> seen(names_.size(), 0);
  std::vector<int> reached;
  std::deque<int> frontier = {src};
  while (!frontier.empty()) {
    int n = frontier.front();
    frontier.pop_front();
    for (const auto& [dst, ver] : out_[n]) {
      if (ver > v || seen[dst]) continue;
      seen[dst] = 1;
      reached.push_back(dst);
      frontier.push_back(dst);
    }
  }
  return reached;
}

Digest VersionedGraph::AncestorDigest(int src, int64_t v) const {
  Digest d;
  if (src >= 0) {
    for (int y : Reach(src, v)) d.AddRow({names_[y]});
    return d;
  }
  for (size_t x = 0; x < names_.size(); ++x) {
    for (int y : Reach(static_cast<int>(x), v)) {
      d.AddRow({names_[x], names_[y]});
    }
  }
  return d;
}

std::set<std::pair<int, int>> SameGeneration(
    const std::vector<std::pair<int, int>>& up,
    const std::vector<std::pair<int, int>>& dn,
    const std::vector<std::pair<int, int>>& flat) {
  std::map<int, std::vector<int>> up_into;  // U -> {X : up(X, U)}
  for (const auto& [x, u] : up) up_into[u].push_back(x);
  std::map<int, std::vector<int>> down;  // V -> {Y : dn(V, Y)}
  for (const auto& [v, y] : dn) down[v].push_back(y);

  std::set<std::pair<int, int>> sg(flat.begin(), flat.end());
  while (true) {
    // Naive: re-derive from the whole relation every round.
    std::set<std::pair<int, int>> next = sg;
    for (const auto& [u, v] : sg) {
      auto xs = up_into.find(u);
      auto ys = down.find(v);
      if (xs == up_into.end() || ys == down.end()) continue;
      for (int x : xs->second) {
        for (int y : ys->second) next.emplace(x, y);
      }
    }
    if (next.size() == sg.size()) return sg;
    sg = std::move(next);
  }
}

void RuleReach::AddRule(const std::string& head, const std::string& body,
                        int64_t version) {
  rules_[head].emplace_back(body, version);
}

void RuleReach::AddFact(const std::string& pred, const std::string& a,
                        const std::string& b) {
  facts_[pred].emplace_back(a, b);
}

Digest RuleReach::Answer(const std::string& pred, const std::string& bound,
                         int64_t v) const {
  std::set<std::string> seen = {pred};
  std::vector<std::string> stack = {pred};
  std::set<std::pair<std::string, std::string>> rows;
  while (!stack.empty()) {
    std::string p = stack.back();
    stack.pop_back();
    auto f = facts_.find(p);
    if (f != facts_.end()) rows.insert(f->second.begin(), f->second.end());
    auto r = rules_.find(p);
    if (r == rules_.end()) continue;
    for (const auto& [body, ver] : r->second) {
      if (ver > v || !seen.insert(body).second) continue;
      stack.push_back(body);
    }
  }
  Digest d;
  for (const auto& [a, b] : rows) {
    if (bound.empty()) {
      d.AddRow({a, b});
    } else if (a == bound) {
      d.AddRow({b});
    }
  }
  return d;
}

}  // namespace perfbench
