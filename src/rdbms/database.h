#ifndef DKB_RDBMS_DATABASE_H_
#define DKB_RDBMS_DATABASE_H_

#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/sync.h"
#include "exec/executor.h"

namespace dkb {

using exec::ExecStats;
using exec::QueryResult;

class Database;

/// Bindable, repeatedly executable statement handle returned by
/// Database::Prepare — the embedded-SQL preprocessor of the paper's DBMS,
/// done right: parse once, then Bind/Execute each LFP iteration instead of
/// sprintf'ing constants into statement text.
///
/// Parameter indexes are 0-based in textual order of the `?` placeholders.
/// Every parameter must be bound before Execute; bindings persist across
/// executions until rebound or ClearBindings.
///
/// The handle shares ownership of the parsed statement, so it stays valid
/// even if the Database evicts its statement cache. A handle is tied to the
/// Database that prepared it and must not outlive it.
class PreparedStatement {
 public:
  PreparedStatement() = default;  // invalid; assign from Database::Prepare

  bool valid() const { return stmt_ != nullptr; }
  size_t param_count() const;

  /// Binds parameter `index` (0-based) to `value`.
  Status Bind(size_t index, Value value);

  /// Forgets all bindings (parameters must be re-bound before Execute).
  void ClearBindings();

  /// Plans and runs the statement with the current bindings. Planning is
  /// fresh per call, so bound values drive access-path selection like
  /// literals and DDL needs no invalidation.
  Result<QueryResult> Execute();

 private:
  friend class Database;
  PreparedStatement(Database* db,
                    std::shared_ptr<const sql::Statement> stmt);

  Database* db_ = nullptr;
  std::shared_ptr<const sql::Statement> stmt_;
  std::vector<Value> params_;
  std::vector<bool> bound_;
};

/// The relational DBMS layer of the testbed.
///
/// Stands in for the commercial SQL DBMS of the paper: it stores both the
/// extensional database (fact relations) and the intensional database
/// (rule-storage relations), and executes the SQL programs produced by the
/// Knowledge Manager. `Prepare` returns an explicit PreparedStatement handle;
/// the string-SQL `Execute` entry point is a thin wrapper over it that models
/// the per-statement overhead the paper measures.
///
/// Thread safety: Prepare/Execute may be called from concurrent readers (the
/// parsed-statement cache is mutex-guarded and hands out shared ownership);
/// statements that write table data must be serialized externally — the
/// session layer's reader-writer protocol does exactly that.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses `sql` (one statement, `?` placeholders allowed) into a bindable
  /// handle. Parsed forms are cached by text, so preparing the same text
  /// repeatedly is cheap.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// Parses and executes a single parameterless SQL statement.
  Result<QueryResult> Execute(const std::string& sql);

  /// Disables/enables the parsed-statement cache (ablations).
  void set_statement_cache_enabled(bool enabled);
  bool statement_cache_enabled() const;

  /// Executes a ';'-separated script, stopping at the first error.
  Status ExecuteAll(const std::string& script);

  /// Convenience wrappers for the embedded-SQL idioms the run time library
  /// uses constantly.
  Result<int64_t> QueryCount(const std::string& sql);
  Result<std::vector<Tuple>> QueryRows(const std::string& sql);
  /// Single-value convenience: first column of first row; error if empty.
  Result<Value> QueryScalar(const std::string& sql);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  ExecStats& stats() { return stats_; }

 private:
  friend class PreparedStatement;

  /// Returns the parsed form of `sql`, from cache when possible.
  Result<std::shared_ptr<const sql::Statement>> ParseCached(
      const std::string& sql);

  /// Runs a parsed statement with optional bound parameter values.
  Result<QueryResult> ExecuteParsed(const sql::Statement& stmt,
                                    const std::vector<Value>* params,
                                    const std::string& text);

  /// Parsed-statement cache that evicts the least recently used text. The
  /// enabled flag and the entries change together (disabling clears them),
  /// so both live under one Guarded lock; the cached statements themselves
  /// are immutable and handed out by shared_ptr, so they need no lock once
  /// returned, and eviction never invalidates a PreparedStatement.
  struct StatementCache {
    /// Rule programs reuse a modest set of texts, but bulk INSERT VALUES
    /// strings are one-shot: past this many texts the least recently used
    /// one goes, so a text in steady use survives any stream of one-shot
    /// texts.
    static constexpr size_t kCapacity = 4096;

    using Entry = std::pair<std::string, std::shared_ptr<const sql::Statement>>;

    /// The cached statement for `sql`, marked most recently used; null on a
    /// miss.
    std::shared_ptr<const sql::Statement> Find(const std::string& sql);
    /// Caches `stmt` under `sql` (a no-op if present), evicting the least
    /// recently used text when full.
    void Insert(const std::string& sql,
                std::shared_ptr<const sql::Statement> stmt);
    void Clear();

    bool enabled = true;
    /// Most recently used first. List nodes never move, so `index` keys
    /// are views into them.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
  };

  Catalog catalog_;
  ExecStats stats_;
  mutable Guarded<StatementCache> cache_;
};

}  // namespace dkb

#endif  // DKB_RDBMS_DATABASE_H_
