#include "lfp/eval_context.h"

#include "common/thread_pool.h"
#include "common/timer.h"

namespace dkb::lfp {

namespace {

/// True when two sources have identical sharding layouts: same shard count
/// and same partition column. Because ShardOf is a pure function of the key
/// value, aligned sources place identical tuples in the same shard index —
/// which makes per-shard set operations (merge, copy) exact with no
/// cross-shard exchange.
bool Aligned(const ScanSource& a, const ScanSource& b) {
  return a.shard_count() == b.shard_count() &&
         a.partition_column() == b.partition_column();
}

/// Seed-fact INSERT ... VALUES text for an empty-body rule.
std::string SeedInsertSql(const datalog::Rule& seed, const std::string& table) {
  std::string sql = "INSERT INTO " + table + " VALUES (";
  for (size_t i = 0; i < seed.head.args.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += seed.head.args[i].value.ToSqlLiteral();
  }
  sql += ")";
  return sql;
}

/// INSERT the (distinct) result of `select` into `table`, skipping rows
/// already present: INSERT INTO t (select) EXCEPT (SELECT * FROM t).
std::string InsertNewSql(const std::string& table, const std::string& select) {
  return "INSERT INTO " + table + " (" + select + ") EXCEPT (SELECT * FROM " +
         table + ")";
}

}  // namespace

Status EvalContext::Temp(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_temp_ns);
  return db_->Execute(sql).status();
}

Status EvalContext::Rhs(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_rhs_ns);
  return db_->Execute(sql).status();
}

Status EvalContext::Term(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_term_ns);
  return db_->Execute(sql).status();
}

Result<int64_t> EvalContext::TermCount(const std::string& count_sql) {
  ScopedAccumulator acc(&stats_->t_term_ns);
  return db_->QueryCount(count_sql);
}

Status EvalContext::CreateLike(const std::string& name,
                               const km::PredicateBinding& binding) {
  // A failed earlier run may have leaked the temp table; recreate cleanly.
  DKB_RETURN_IF_ERROR(Drop(name));
  std::string ddl = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < binding.columns.size(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += binding.columns[i];
    ddl += binding.types[i] == DataType::kInteger ? " INT" : " VARCHAR";
  }
  ddl += ")";
  return Temp(ddl);
}

Status EvalContext::CreateWithSchema(const std::string& name,
                                     const Schema& schema) {
  DKB_RETURN_IF_ERROR(Drop(name));
  std::string ddl = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += schema.column(i).name;
    ddl += schema.column(i).type == DataType::kInteger ? " INT" : " VARCHAR";
  }
  ddl += ")";
  return Temp(ddl);
}

Status EvalContext::EvalRuleInto(const datalog::Rule& rule,
                                 const km::BindingResolver& resolver,
                                 const std::string& target,
                                 const std::string& bind_prefix) {
  DKB_ASSIGN_OR_RETURN(
      km::RuleSqlProgram program,
      km::RuleToSqlProgram(rule, resolver, target, bind_prefix));
  for (const auto& bind : program.bind_tables) {
    DKB_RETURN_IF_ERROR(CreateWithSchema(bind.name, bind.schema));
  }
  Status status = Status::OK();
  for (const std::string& sql : program.statements) {
    status = Rhs(sql);
    if (!status.ok()) break;
  }
  for (const auto& bind : program.bind_tables) {
    Status drop = Drop(bind.name);
    if (status.ok()) status = drop;
  }
  return status;
}

Status EvalContext::EvalExitRule(const km::QueryProgram& program,
                                 const km::CompiledRule& cr,
                                 const std::string& target,
                                 const std::string& bind_prefix) {
  if (cr.rule.body.empty()) return Rhs(SeedInsertSql(cr.rule, target));
  if (!cr.select_sql.empty()) return Rhs(InsertNewSql(target, cr.select_sql));
  return EvalRuleInto(cr.rule, km::CanonicalResolver(program), target,
                      bind_prefix);
}

Status EvalContext::Clear(const std::string& name) {
  return Temp("DELETE FROM " + name);
}

Status EvalContext::Copy(const std::string& dst, const std::string& src) {
  return Temp("INSERT INTO " + dst + " SELECT * FROM " + src);
}

Status EvalContext::ClearTable(const std::string& name) {
  ScopedAccumulator acc(&stats_->t_temp_ns);
  DKB_ASSIGN_OR_RETURN(ScanSource * table, db_->catalog().GetSource(name));
  table->Clear();
  return Status::OK();
}

Status EvalContext::CopyTable(const std::string& dst, const std::string& src) {
  ScopedAccumulator acc(&stats_->t_temp_ns);
  DKB_ASSIGN_OR_RETURN(ScanSource * d, db_->catalog().GetSource(dst));
  DKB_ASSIGN_OR_RETURN(ScanSource * s, db_->catalog().GetSource(src));
  // Sessions read base tables at their pinned epoch; temps are unversioned
  // (visible at every epoch), so one epoch covers both source kinds.
  const Epoch at = db_->catalog().read_epoch();

  ThreadPool& pool = GlobalThreadPool();
  if (Aligned(*d, *s) && d->shard_count() > 1 && pool.num_threads() > 0) {
    // Aligned sources: shard i of src holds exactly the rows that belong in
    // shard i of dst, so shards copy independently — no routing, no locks
    // (distinct shards are mutable by distinct threads).
    std::vector<Status> statuses(d->shard_count());
    pool.ParallelFor(0, d->shard_count(), [&](size_t sh) {
      Table& to = d->shard(sh);
      const Table& from = s->shard(sh);
      RowBatch batch;
      RowId cursor = 0;
      while (true) {
        cursor = from.ScanBatch(cursor, &batch, at);
        if (batch.empty()) break;
        statuses[sh] = to.AppendBatch(batch);
        if (!statuses[sh].ok()) break;
      }
    });
    for (const Status& st : statuses) DKB_RETURN_IF_ERROR(st);
    return Status::OK();
  }

  // Serial / unaligned fallback: scan shard-major and let the destination's
  // AppendBatch hash-repartition rows to their home shards.
  RowBatch batch;
  for (size_t sh = 0; sh < s->shard_count(); ++sh) {
    RowId cursor = 0;
    while (true) {
      cursor = s->ScanBatch(sh, cursor, &batch, at);
      if (batch.empty()) break;
      DKB_RETURN_IF_ERROR(d->AppendBatch(batch));
    }
  }
  return Status::OK();
}

Status EvalContext::SeedDedup(const std::string& full, DedupSet* dedup) {
  ScopedAccumulator acc(&stats_->t_term_ns);
  DKB_ASSIGN_OR_RETURN(ScanSource * f, db_->catalog().GetSource(full));
  const Epoch at = db_->catalog().read_epoch();
  dedup->clear();
  for (size_t sh = 0; sh < f->shard_count(); ++sh) {
    const Table& shard = f->shard(sh);
    const ShardRowKey key{&shard};
    RowIdSet& seen = dedup->emplace_back(shard.num_tuples(), key, key);
    shard.Scan([&](RowId rid, const Tuple&) { seen.insert(rid); }, at);
  }
  return Status::OK();
}

Result<int64_t> EvalContext::MergeNew(const std::string& new_table,
                                      const std::string& full,
                                      const std::string& delta,
                                      DedupSet* dedup) {
  ScopedAccumulator acc(&stats_->t_term_ns);
  DKB_ASSIGN_OR_RETURN(ScanSource * n, db_->catalog().GetSource(new_table));
  DKB_ASSIGN_OR_RETURN(ScanSource * f, db_->catalog().GetSource(full));
  DKB_ASSIGN_OR_RETURN(ScanSource * d, db_->catalog().GetSource(delta));
  const Epoch at = db_->catalog().read_epoch();

  // Appends `t` to shard `home` of full and to `delta_shard` unless that
  // full shard already holds it. The set is probed with the row itself and
  // stores only the RowId the append returns.
  auto merge = [&](const Tuple& t, size_t home, Table& delta_shard) {
    RowIdSet& seen = (*dedup)[home];
    if (seen.find(t) != seen.end()) return false;
    seen.insert(f->shard(home).InsertUnchecked(t));
    delta_shard.InsertUnchecked(t);
    return true;
  };

  const size_t nshards = f->shard_count();
  if (Aligned(*f, *n) && Aligned(*f, *d)) {
    // Aligned layouts place identical tuples in the same shard index
    // everywhere, so each shard merges on its own: distinct shards are
    // mutable by distinct threads.
    std::vector<int64_t> counts(nshards, 0);
    auto merge_shard = [&](size_t sh) {
      Table& delta_shard = d->shard(sh);
      n->shard(sh).Scan(
          [&](RowId, const Tuple& t) {
            counts[sh] += merge(t, sh, delta_shard);
          },
          at);
    };
    ThreadPool& pool = GlobalThreadPool();
    if (nshards > 1 && pool.num_threads() > 0) {
      pool.ParallelFor(0, nshards, merge_shard);
    } else {
      for (size_t sh = 0; sh < nshards; ++sh) merge_shard(sh);
    }
    int64_t appended = 0;
    for (int64_t c : counts) appended += c;
    return appended;
  }

  // Unaligned fallback: route each row to its home shard of full and of
  // delta.
  int64_t appended = 0;
  n->Scan(
      [&](RowId, const Tuple& t) {
        appended += merge(t, f->ShardOf(t), d->shard(d->ShardOf(t)));
      },
      at);
  return appended;
}

Status EvalContext::Drop(const std::string& name) {
  return Temp("DROP TABLE IF EXISTS " + name);
}

Result<int64_t> EvalContext::Count(const std::string& name) {
  return db_->QueryCount("SELECT COUNT(*) FROM " + name);
}

}  // namespace dkb::lfp
