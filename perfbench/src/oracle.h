// Answers computed apart from the testbed: breadth-first closure for
// ancestor goals, a naive fixpoint for same-generation goals, and
// reachability over rule heads and bodies for the stored rule base. None of
// this code calls into the program under test.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

/// A directed graph whose edges carry the version (commit count) at which
/// they appeared; queries ask for the graph as of a version.
class VersionedGraph {
 public:
  int Node(const std::string& name);  // interns, creating on first use
  int Find(const std::string& name) const;  // -1 when unknown
  const std::string& Name(int id) const { return names_[id]; }
  size_t size() const { return names_.size(); }
  /// Edge src -> dst present in every version >= `version`.
  void AddEdge(const std::string& src, const std::string& dst,
               int64_t version = 0);

  /// Nodes reachable from `src` over one or more edges of version <= v.
  std::vector<int> Reach(int src, int64_t v) const;
  /// Digest of the answer to ancestor(src, W) (rows [W]) or, with src < 0,
  /// of ancestor(X, Y) (rows [X, Y]), as of version v.
  Digest AncestorDigest(int src, int64_t v) const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  std::vector<std::vector<std::pair<int, int64_t>>> out_;
};

/// sg(X,Y) :- flat(X,Y).  sg(X,Y) :- up(X,U), sg(U,V), dn(V,Y).
/// Computed by naive iteration to a fixpoint over node ids.
std::set<std::pair<int, int>> SameGeneration(
    const std::vector<std::pair<int, int>>& up,
    const std::vector<std::pair<int, int>>& dn,
    const std::vector<std::pair<int, int>>& flat);

/// Stored rule base as a graph of single-atom bridge rules head :- body
/// (every generated rule has that shape), plus the facts of each base
/// predicate. Rules carry the version at which they were added.
class RuleReach {
 public:
  void AddRule(const std::string& head, const std::string& body,
               int64_t version = 0);
  void AddFact(const std::string& pred, const std::string& a,
               const std::string& b);
  /// Digest of `pred(bound, Y)` (rows [Y]) or, with an empty `bound`, of
  /// `pred(X, Y)` (rows [X, Y]) as of version v.
  Digest Answer(const std::string& pred, const std::string& bound,
                int64_t v) const;

 private:
  std::map<std::string, std::vector<std::pair<std::string, int64_t>>> rules_;
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      facts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
