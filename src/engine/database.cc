#include "engine/database.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "engine/exec.h"

namespace sirep::engine {

using sql::Statement;
using sql::StatementKind;
using sql::Value;
using storage::TransactionPtr;

Result<std::shared_ptr<const Statement>> Database::Prepare(
    const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    auto it = prepared_.find(sql);
    if (it != prepared_.end()) return it->second;
  }
  auto parsed = sql::Parse(sql);
  if (!parsed.ok()) return parsed.status();
  auto stmt = std::make_shared<const Statement>(std::move(parsed).value());
  std::lock_guard<std::mutex> lock(prepared_mu_);
  if (prepared_.size() >= kMaxPreparedStatements) prepared_.clear();
  prepared_.emplace(sql, stmt);
  return stmt;
}

Result<QueryResult> Database::Execute(const TransactionPtr& txn,
                                      const std::string& sql,
                                      const std::vector<Value>& params) {
  auto stmt = Prepare(sql);
  if (!stmt.ok()) return stmt.status();
  return Execute(txn, *stmt.value(), params);
}

Result<QueryResult> Database::Execute(const TransactionPtr& txn,
                                      const Statement& stmt,
                                      const std::vector<Value>& params) {
  if (statement_cost_hook_) statement_cost_hook_(stmt);
  obs::ScopedLatency stmt_timer(h_stmt_us_);
  switch (stmt.kind) {
    case StatementKind::kCreateTable:
      return ExecCreateTable(*stmt.create_table);
    case StatementKind::kCreateIndex:
      return ExecCreateIndex(*stmt.create_index);
    case StatementKind::kInsert:
      return ExecInsert(txn, *stmt.insert, params);
    case StatementKind::kSelect:
      return ExecSelect(txn, *stmt.select, params);
    case StatementKind::kUpdate:
      return ExecUpdate(txn, *stmt.update, params);
    case StatementKind::kDelete:
      return ExecDelete(txn, *stmt.delete_, params);
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
      return Status::InvalidArgument(
          "transaction control statements are handled by the session");
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Database::ExecuteAutoCommit(
    const std::string& sql, const std::vector<Value>& params) {
  auto txn = Begin();
  auto result = Execute(txn, sql, params);
  if (!result.ok()) {
    Abort(txn);
    return result;
  }
  Status st = Commit(txn);
  if (!st.ok()) return st;
  return result;
}

Result<QueryResult> Database::ExecCreateTable(
    const sql::CreateTableStmt& stmt) {
  std::vector<size_t> key_indexes;
  for (const auto& key_col : stmt.key_columns) {
    bool found = false;
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      if (stmt.columns[i].name == key_col) {
        key_indexes.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("PRIMARY KEY column '" + key_col +
                                     "' is not a table column");
    }
  }
  sql::Schema schema(stmt.columns, std::move(key_indexes));
  SIREP_RETURN_IF_ERROR(engine_.CreateTable(stmt.table, std::move(schema)));
  return QueryResult{};
}

Result<QueryResult> Database::ExecCreateIndex(
    const sql::CreateIndexStmt& stmt) {
  SIREP_RETURN_IF_ERROR(engine_.CreateIndex(stmt.table, stmt.column));
  return QueryResult{};
}

Result<QueryResult> Database::ExecInsert(const TransactionPtr& txn,
                                         const sql::InsertStmt& stmt,
                                         const std::vector<Value>& params) {
  storage::MvccTable* table = engine_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("no table '" + stmt.table + "'");
  }
  const sql::Schema& schema = table->schema();

  std::vector<Value> values;
  values.reserve(stmt.values.size());
  for (const auto& expr : stmt.values) {
    auto v = Eval(*expr, nullptr, nullptr, params);
    if (!v.ok()) return v.status();
    values.push_back(std::move(v).value());
  }

  sql::Row row(schema.num_columns(), Value::Null());
  if (stmt.columns.empty()) {
    if (values.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "INSERT has " + std::to_string(values.size()) + " values, table '" +
          stmt.table + "' has " + std::to_string(schema.num_columns()) +
          " columns");
    }
    row = std::move(values);
  } else {
    if (values.size() != stmt.columns.size()) {
      return Status::InvalidArgument("INSERT column/value count mismatch");
    }
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      const int idx = schema.FindColumn(stmt.columns[i]);
      if (idx < 0) {
        return Status::InvalidArgument("unknown column '" + stmt.columns[i] +
                                       "'");
      }
      row[idx] = std::move(values[i]);
    }
  }

  SIREP_RETURN_IF_ERROR(engine_.Insert(txn, stmt.table, std::move(row)));
  QueryResult result;
  result.rows_affected = 1;
  return result;
}

namespace {

/// An equality conjunct on an indexed column, usable as an access path.
struct IndexProbe {
  std::string raw_column;
  Value value;
};

/// Walks the AND-tree for `col = constant` where `col` has a secondary
/// index. `raw_names[i]` maps schema position i back to the table's real
/// column name (identical to the schema names except in bound/aliased
/// select schemas).
std::optional<IndexProbe> FindIndexProbe(
    storage::StorageEngine& engine, const std::string& table_name,
    const sql::Schema& schema, const std::vector<std::string>& raw_names,
    const sql::Expr* expr, const std::vector<Value>& params) {
  if (expr == nullptr) return std::nullopt;
  if (expr->kind != sql::ExprKind::kBinary) return std::nullopt;
  if (expr->bin_op == sql::BinOp::kAnd) {
    auto left = FindIndexProbe(engine, table_name, schema, raw_names,
                               expr->left.get(), params);
    if (left.has_value()) return left;
    return FindIndexProbe(engine, table_name, schema, raw_names,
                          expr->right.get(), params);
  }
  if (expr->bin_op != sql::BinOp::kEq) return std::nullopt;
  const sql::Expr* col = nullptr;
  const sql::Expr* val = nullptr;
  if (expr->left->kind == sql::ExprKind::kColumnRef) {
    col = expr->left.get();
    val = expr->right.get();
  } else if (expr->right->kind == sql::ExprKind::kColumnRef) {
    col = expr->right.get();
    val = expr->left.get();
  } else {
    return std::nullopt;
  }
  Value constant;
  if (val->kind == sql::ExprKind::kLiteral) {
    constant = val->literal;
  } else if (val->kind == sql::ExprKind::kParam) {
    if (val->param_index < 0 ||
        static_cast<size_t>(val->param_index) >= params.size()) {
      return std::nullopt;
    }
    constant = params[val->param_index];
  } else {
    return std::nullopt;
  }
  const int idx = schema.FindColumn(col->column);
  if (idx < 0) return std::nullopt;
  const std::string& raw = raw_names[static_cast<size_t>(idx)];
  storage::MvccTable* table = engine.GetTable(table_name);
  if (table == nullptr || !table->HasIndex(raw)) return std::nullopt;
  return IndexProbe{raw, std::move(constant)};
}

/// Gathers (key, row) pairs matching the WHERE clause, using a primary-key
/// point lookup or a secondary-index probe when the predicate allows it.
Status CollectMatches(storage::StorageEngine& engine,
                      const storage::TransactionPtr& txn,
                      const std::string& table_name,
                      const sql::Schema& schema, const sql::Expr* where,
                      const std::vector<Value>& params,
                      std::vector<std::pair<sql::Key, sql::Row>>* out) {
  auto key = TryExtractKeyLookup(schema, where, params);
  if (key.has_value()) {
    auto row = engine.Read(txn, table_name, *key);
    if (!row.ok()) return row.status();
    if (row.value().has_value()) {
      auto match = Matches(where, schema, *row.value(), params);
      if (!match.ok()) return match.status();
      if (match.value()) out->emplace_back(*key, *std::move(row).value());
    }
    return Status::OK();
  }
  std::vector<std::string> raw_names;
  for (const auto& col : schema.columns()) raw_names.push_back(col.name);
  Status match_status;
  auto visit = [&](const sql::Key& k, const sql::Row& row) {
    if (!match_status.ok()) return;
    auto match = Matches(where, schema, row, params);
    if (!match.ok()) {
      match_status = match.status();
      return;
    }
    if (match.value()) out->emplace_back(k, row);
  };
  auto probe =
      FindIndexProbe(engine, table_name, schema, raw_names, where, params);
  Status scan_status =
      probe.has_value()
          ? engine.LookupByIndex(txn, table_name, probe->raw_column,
                                 probe->value, visit)
          : engine.Scan(txn, table_name, visit);
  SIREP_RETURN_IF_ERROR(scan_status);
  return match_status;
}

}  // namespace

namespace {

/// A relation bound for execution: columns renamed "alias.col" so
/// qualified and plain references resolve via Schema::FindColumn.
struct BoundRelation {
  sql::Schema schema;
  std::vector<std::string> raw_names;  ///< plain names, for SELECT * output
  std::vector<sql::Row> rows;
};

/// True if every column reference in `expr` resolves in `schema`.
bool ExprResolves(const sql::Expr& expr, const sql::Schema& schema) {
  switch (expr.kind) {
    case sql::ExprKind::kColumnRef:
      return schema.FindColumn(expr.column) >= 0;
    case sql::ExprKind::kUnary:
      return ExprResolves(*expr.left, schema);
    case sql::ExprKind::kBinary:
      return ExprResolves(*expr.left, schema) &&
             ExprResolves(*expr.right, schema);
    default:
      return true;
  }
}

/// Flattens the AND-tree of `where` into conjuncts.
void CollectConjuncts(const sql::Expr* where,
                      std::vector<const sql::Expr*>* out) {
  if (where == nullptr) return;
  if (where->kind == sql::ExprKind::kBinary &&
      where->bin_op == sql::BinOp::kAnd) {
    CollectConjuncts(where->left.get(), out);
    CollectConjuncts(where->right.get(), out);
    return;
  }
  out->push_back(where);
}

sql::Schema BindSchema(const sql::Schema& raw, const std::string& alias) {
  std::vector<sql::Column> columns = raw.columns();
  for (auto& col : columns) col.name = alias + "." + col.name;
  return sql::Schema(std::move(columns), raw.key_indexes());
}

/// Concatenates two bound relations' schemas.
sql::Schema ConcatSchemas(const sql::Schema& a, const sql::Schema& b) {
  std::vector<sql::Column> columns = a.columns();
  for (const auto& col : b.columns()) columns.push_back(col);
  return sql::Schema(std::move(columns), {});
}

}  // namespace

Result<QueryResult> Database::ExecSelect(const TransactionPtr& txn,
                                         const sql::SelectStmt& stmt,
                                         const std::vector<Value>& params) {
  // ---- bind the FROM list ----
  std::vector<const storage::MvccTable*> tables;
  for (const auto& ref : stmt.tables) {
    storage::MvccTable* table = engine_.GetTable(ref.table);
    if (table == nullptr) {
      return Status::NotFound("no table '" + ref.table + "'");
    }
    tables.push_back(table);
  }

  std::vector<const sql::Expr*> conjuncts;
  CollectConjuncts(stmt.where.get(), &conjuncts);

  // ---- produce the (joined) working relation ----
  BoundRelation rel;
  if (stmt.tables.size() == 1) {
    rel.schema = BindSchema(tables[0]->schema(), stmt.tables[0].alias);
    for (const auto& col : tables[0]->schema().columns()) {
      rel.raw_names.push_back(col.name);
    }
    // Point lookup when the predicate pins the primary key; otherwise a
    // secondary-index probe if an indexed column is pinned; else a scan.
    auto key = TryExtractKeyLookup(rel.schema, stmt.where.get(), params);
    if (key.has_value()) {
      auto row = engine_.Read(txn, stmt.tables[0].table, *key);
      if (!row.ok()) return row.status();
      if (row.value().has_value()) rel.rows.push_back(*std::move(row).value());
    } else {
      auto collect = [&](const sql::Key&, const sql::Row& row) {
        rel.rows.push_back(row);
      };
      auto probe = FindIndexProbe(engine_, stmt.tables[0].table, rel.schema,
                                  rel.raw_names, stmt.where.get(), params);
      Status scan =
          probe.has_value()
              ? engine_.LookupByIndex(txn, stmt.tables[0].table,
                                      probe->raw_column, probe->value,
                                      collect)
              : engine_.Scan(txn, stmt.tables[0].table, collect);
      SIREP_RETURN_IF_ERROR(scan);
    }
  } else {
    // Iterative inner join: scan each table (pushing down the conjuncts
    // that resolve within it), then fold with a hash join on an equi-
    // conjunct where possible, falling back to a bounded nested loop.
    std::vector<BoundRelation> inputs;
    for (size_t t = 0; t < stmt.tables.size(); ++t) {
      BoundRelation input;
      input.schema = BindSchema(tables[t]->schema(), stmt.tables[t].alias);
      for (const auto& col : tables[t]->schema().columns()) {
        input.raw_names.push_back(col.name);
      }
      std::vector<const sql::Expr*> local;
      for (const auto* c : conjuncts) {
        if (ExprResolves(*c, input.schema)) local.push_back(c);
      }
      Status filter_status;
      Status scan = engine_.Scan(
          txn, stmt.tables[t].table,
          [&](const sql::Key&, const sql::Row& row) {
            if (!filter_status.ok()) return;
            for (const auto* c : local) {
              auto m = Matches(c, input.schema, row, params);
              if (!m.ok()) {
                filter_status = m.status();
                return;
              }
              if (!m.value()) return;
            }
            input.rows.push_back(row);
          });
      SIREP_RETURN_IF_ERROR(scan);
      SIREP_RETURN_IF_ERROR(filter_status);
      inputs.push_back(std::move(input));
    }

    rel = std::move(inputs[0]);
    for (size_t t = 1; t < inputs.size(); ++t) {
      BoundRelation& right = inputs[t];
      BoundRelation joined;
      joined.schema = ConcatSchemas(rel.schema, right.schema);
      joined.raw_names = rel.raw_names;
      joined.raw_names.insert(joined.raw_names.end(),
                              right.raw_names.begin(),
                              right.raw_names.end());

      // Find an equi-join conjunct col_left = col_right across the two
      // sides.
      int left_idx = -1, right_idx = -1;
      for (const auto* c : conjuncts) {
        if (c->kind != sql::ExprKind::kBinary ||
            c->bin_op != sql::BinOp::kEq) {
          continue;
        }
        if (c->left->kind != sql::ExprKind::kColumnRef ||
            c->right->kind != sql::ExprKind::kColumnRef) {
          continue;
        }
        const int l_in_acc = rel.schema.FindColumn(c->left->column);
        const int r_in_new = right.schema.FindColumn(c->right->column);
        if (l_in_acc >= 0 && r_in_new >= 0) {
          left_idx = l_in_acc;
          right_idx = r_in_new;
          break;
        }
        const int r_in_acc = rel.schema.FindColumn(c->right->column);
        const int l_in_new = right.schema.FindColumn(c->left->column);
        if (r_in_acc >= 0 && l_in_new >= 0) {
          left_idx = r_in_acc;
          right_idx = l_in_new;
          break;
        }
      }

      if (left_idx >= 0) {
        // Hash join: build on the right side, probe with the left.
        std::unordered_multimap<size_t, const sql::Row*> build;
        build.reserve(right.rows.size());
        for (const auto& row : right.rows) {
          build.emplace(row[right_idx].Hash(), &row);
        }
        for (const auto& lrow : rel.rows) {
          auto [lo, hi] = build.equal_range(lrow[left_idx].Hash());
          for (auto it = lo; it != hi; ++it) {
            if (lrow[left_idx].Compare((*it->second)[right_idx]) != 0) {
              continue;
            }
            sql::Row combined = lrow;
            combined.insert(combined.end(), it->second->begin(),
                            it->second->end());
            joined.rows.push_back(std::move(combined));
          }
        }
      } else {
        constexpr size_t kNestedLoopCap = 5'000'000;
        if (rel.rows.size() * right.rows.size() > kNestedLoopCap) {
          return Status::NotSupported(
              "join without an equality condition is too large (" +
              std::to_string(rel.rows.size()) + " x " +
              std::to_string(right.rows.size()) + " rows)");
        }
        for (const auto& lrow : rel.rows) {
          for (const auto& rrow : right.rows) {
            sql::Row combined = lrow;
            combined.insert(combined.end(), rrow.begin(), rrow.end());
            joined.rows.push_back(std::move(combined));
          }
        }
      }
      rel = std::move(joined);
    }
  }

  // ---- filter by the full WHERE ----
  std::vector<sql::Row> filtered;
  filtered.reserve(rel.rows.size());
  for (auto& row : rel.rows) {
    auto m = Matches(stmt.where.get(), rel.schema, row, params);
    if (!m.ok()) return m.status();
    if (m.value()) filtered.push_back(std::move(row));
  }

  QueryResult result;

  // ---- SELECT * (no grouping allowed) ----
  if (stmt.star) {
    if (!stmt.group_by.empty()) {
      return Status::NotSupported("SELECT * with GROUP BY");
    }
    result.columns = stmt.tables.size() == 1
                         ? rel.raw_names
                         : std::vector<std::string>();
    if (stmt.tables.size() != 1) {
      for (const auto& col : rel.schema.columns()) {
        result.columns.push_back(col.name);
      }
    }
    // ORDER BY before projection-free output.
    if (stmt.order_by.has_value() || stmt.order_by_position > 0) {
      int idx;
      if (stmt.order_by_position > 0) {
        idx = static_cast<int>(stmt.order_by_position) - 1;
        if (idx >= static_cast<int>(rel.schema.num_columns())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
      } else {
        idx = rel.schema.FindColumn(*stmt.order_by);
        if (idx < 0) {
          return Status::InvalidArgument("unknown ORDER BY column '" +
                                         *stmt.order_by + "'");
        }
      }
      std::stable_sort(filtered.begin(), filtered.end(),
                       [&](const sql::Row& a, const sql::Row& b) {
                         const int c = a[idx].Compare(b[idx]);
                         return stmt.order_desc ? c > 0 : c < 0;
                       });
    }
    if (stmt.limit >= 0 &&
        filtered.size() > static_cast<size_t>(stmt.limit)) {
      filtered.resize(static_cast<size_t>(stmt.limit));
    }
    result.rows = std::move(filtered);
    return result;
  }

  // ---- resolve output items ----
  struct OutItem {
    sql::AggFunc agg;
    int idx;  // column index in rel.schema; -1 for COUNT(*)
    std::string label;
  };
  std::vector<OutItem> out_items;
  const bool has_agg =
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const sql::SelectItem& i) {
                    return i.agg != sql::AggFunc::kNone;
                  });
  const bool grouped = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    OutItem out;
    out.agg = item.agg;
    out.idx = -1;
    if (!item.star && !item.column.empty()) {
      out.idx = rel.schema.FindColumn(item.column);
      if (out.idx < 0) {
        return Status::InvalidArgument("unknown column '" + item.column +
                                       "'");
      }
    }
    switch (item.agg) {
      case sql::AggFunc::kNone:
        out.label = item.column;
        break;
      case sql::AggFunc::kCount:
        out.label = item.star ? "count(*)" : "count(" + item.column + ")";
        break;
      case sql::AggFunc::kSum:
        out.label = "sum(" + item.column + ")";
        break;
      case sql::AggFunc::kAvg:
        out.label = "avg(" + item.column + ")";
        break;
      case sql::AggFunc::kMin:
        out.label = "min(" + item.column + ")";
        break;
      case sql::AggFunc::kMax:
        out.label = "max(" + item.column + ")";
        break;
    }
    result.columns.push_back(out.label);
    out_items.push_back(out);
  }

  if (has_agg || grouped) {
    // Resolve GROUP BY columns; plain output items must be among them.
    std::vector<int> group_idx;
    for (const auto& g : stmt.group_by) {
      const int idx = rel.schema.FindColumn(g);
      if (idx < 0) {
        return Status::InvalidArgument("unknown GROUP BY column '" + g +
                                       "'");
      }
      group_idx.push_back(idx);
    }
    for (size_t i = 0; i < out_items.size(); ++i) {
      if (out_items[i].agg != sql::AggFunc::kNone) continue;
      if (std::find(group_idx.begin(), group_idx.end(), out_items[i].idx) ==
          group_idx.end()) {
        return Status::InvalidArgument(
            "column '" + result.columns[i] +
            "' must appear in GROUP BY or be aggregated");
      }
    }

    // Partition rows by group key (one implicit group when no GROUP BY).
    std::map<sql::Key, std::vector<const sql::Row*>> groups;
    if (grouped) {
      for (const auto& row : filtered) {
        sql::Key key;
        for (int idx : group_idx) key.parts.push_back(row[idx]);
        groups[key].push_back(&row);
      }
    } else {
      auto& all = groups[sql::Key{}];
      for (const auto& row : filtered) all.push_back(&row);
    }

    for (const auto& [gkey, rows] : groups) {
      sql::Row out_row;
      for (const auto& item : out_items) {
        switch (item.agg) {
          case sql::AggFunc::kNone:
            out_row.push_back((*rows.front())[item.idx]);
            break;
          case sql::AggFunc::kCount: {
            int64_t count = 0;
            for (const auto* row : rows) {
              if (item.idx < 0 || !(*row)[item.idx].is_null()) ++count;
            }
            out_row.push_back(Value::Int(count));
            break;
          }
          case sql::AggFunc::kSum:
          case sql::AggFunc::kAvg: {
            double sum = 0.0;
            int64_t isum = 0;
            int64_t n = 0;
            bool any_double = false;
            for (const auto* row : rows) {
              const Value& v = (*row)[item.idx];
              if (v.is_null()) continue;
              if (!v.IsNumeric()) {
                return Status::InvalidArgument(
                    "SUM/AVG on non-numeric column");
              }
              if (v.type() == sql::ValueType::kDouble) any_double = true;
              sum += v.AsDouble();
              if (v.type() == sql::ValueType::kInt) isum += v.AsInt();
              ++n;
            }
            if (n == 0) {
              out_row.push_back(Value::Null());
            } else if (item.agg == sql::AggFunc::kSum) {
              out_row.push_back(any_double ? Value::Double(sum)
                                           : Value::Int(isum));
            } else {
              out_row.push_back(
                  Value::Double(sum / static_cast<double>(n)));
            }
            break;
          }
          case sql::AggFunc::kMin:
          case sql::AggFunc::kMax: {
            Value best;
            bool first = true;
            for (const auto* row : rows) {
              const Value& v = (*row)[item.idx];
              if (v.is_null()) continue;
              if (first) {
                best = v;
                first = false;
                continue;
              }
              const int c = v.Compare(best);
              if ((item.agg == sql::AggFunc::kMin && c < 0) ||
                  (item.agg == sql::AggFunc::kMax && c > 0)) {
                best = v;
              }
            }
            out_row.push_back(best);
            break;
          }
        }
      }
      result.rows.push_back(std::move(out_row));
    }
  } else {
    // Plain projection.
    result.rows.reserve(filtered.size());
    // ORDER BY a non-output schema column must sort before projection.
    if (stmt.order_by.has_value()) {
      bool is_output = std::find(result.columns.begin(),
                                 result.columns.end(),
                                 *stmt.order_by) != result.columns.end();
      if (!is_output) {
        const int idx = rel.schema.FindColumn(*stmt.order_by);
        if (idx < 0) {
          return Status::InvalidArgument("unknown ORDER BY column '" +
                                         *stmt.order_by + "'");
        }
        std::stable_sort(filtered.begin(), filtered.end(),
                         [&](const sql::Row& a, const sql::Row& b) {
                           const int c = a[idx].Compare(b[idx]);
                           return stmt.order_desc ? c > 0 : c < 0;
                         });
      }
    }
    for (const auto& row : filtered) {
      sql::Row out_row;
      out_row.reserve(out_items.size());
      for (const auto& item : out_items) out_row.push_back(row[item.idx]);
      result.rows.push_back(std::move(out_row));
    }
  }

  // ---- ORDER BY on the output (position, or an output column label) ----
  int sort_idx = -1;
  if (stmt.order_by_position > 0) {
    if (stmt.order_by_position > static_cast<int64_t>(result.columns.size())) {
      return Status::InvalidArgument("ORDER BY position out of range");
    }
    sort_idx = static_cast<int>(stmt.order_by_position) - 1;
  } else if (stmt.order_by.has_value()) {
    auto it = std::find(result.columns.begin(), result.columns.end(),
                        *stmt.order_by);
    if (it != result.columns.end()) {
      sort_idx = static_cast<int>(it - result.columns.begin());
    } else if (has_agg || grouped) {
      return Status::InvalidArgument(
          "ORDER BY of a grouped query must name an output column or "
          "position");
    }
  }
  if (sort_idx >= 0) {
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const sql::Row& a, const sql::Row& b) {
                       const int c = a[sort_idx].Compare(b[sort_idx]);
                       return stmt.order_desc ? c > 0 : c < 0;
                     });
  }
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(static_cast<size_t>(stmt.limit));
  }
  return result;
}

Result<QueryResult> Database::ExecUpdate(const TransactionPtr& txn,
                                         const sql::UpdateStmt& stmt,
                                         const std::vector<Value>& params) {
  storage::MvccTable* table = engine_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("no table '" + stmt.table + "'");
  }
  const sql::Schema& schema = table->schema();

  // Resolve assignment targets once.
  std::vector<std::pair<int, const sql::Expr*>> sets;
  for (const auto& [col, expr] : stmt.assignments) {
    const int idx = schema.FindColumn(col);
    if (idx < 0) {
      return Status::InvalidArgument("unknown column '" + col + "'");
    }
    if (schema.IsKeyColumn(static_cast<size_t>(idx))) {
      return Status::NotSupported(
          "updating primary key column '" + col +
          "' (tuple identity must be stable for replication)");
    }
    sets.emplace_back(idx, expr.get());
  }

  std::vector<std::pair<sql::Key, sql::Row>> matches;
  SIREP_RETURN_IF_ERROR(CollectMatches(engine_, txn, stmt.table, schema,
                                       stmt.where.get(), params, &matches));

  int64_t affected = 0;
  for (auto& [key, row] : matches) {
    sql::Row new_row = row;
    for (const auto& [idx, expr] : sets) {
      auto v = Eval(*expr, &schema, &row, params);
      if (!v.ok()) return v.status();
      new_row[idx] = std::move(v).value();
    }
    Status st = engine_.Update(txn, stmt.table, std::move(new_row));
    if (st.code() == StatusCode::kNotFound) continue;  // raced: 0 rows
    SIREP_RETURN_IF_ERROR(st);
    ++affected;
  }
  QueryResult result;
  result.rows_affected = affected;
  return result;
}

Result<QueryResult> Database::ExecDelete(const TransactionPtr& txn,
                                         const sql::DeleteStmt& stmt,
                                         const std::vector<Value>& params) {
  storage::MvccTable* table = engine_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("no table '" + stmt.table + "'");
  }
  const sql::Schema& schema = table->schema();

  std::vector<std::pair<sql::Key, sql::Row>> matches;
  SIREP_RETURN_IF_ERROR(CollectMatches(engine_, txn, stmt.table, schema,
                                       stmt.where.get(), params, &matches));

  int64_t affected = 0;
  for (const auto& [key, row] : matches) {
    Status st = engine_.Delete(txn, stmt.table, key);
    if (st.code() == StatusCode::kNotFound) continue;
    SIREP_RETURN_IF_ERROR(st);
    ++affected;
  }
  QueryResult result;
  result.rows_affected = affected;
  return result;
}

}  // namespace sirep::engine
