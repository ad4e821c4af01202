#include "engine/database.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>

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

  BoundExprs exprs({});  // no row: a column reference does not bind
  std::vector<Value> values;
  values.reserve(stmt.values.size());
  for (const auto& expr : stmt.values) {
    auto id = exprs.Bind(*expr);
    if (!id.ok()) return id.status();
    auto v = exprs.Eval(id.value(), nullptr, params);
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

/// Row pointers, one per FROM input (Slot::input indexes them).
using Tuple = const sql::Row* const*;

/// Largest cross product (input rows times rows joined so far) a join
/// step without an equality condition may build.
constexpr size_t kNestedLoopCap = 5'000'000;

/// Reads input `input` alone.
bool IsLocal(const Conjunct& c, uint32_t input) {
  return c.inputs == uint64_t{1} << input;
}

/// Checked once inputs 0..`step` are joined: reads two or more inputs,
/// the last being `step`, and no join key enforced it.
bool IsResidualAt(const Conjunct& c, uint32_t step) {
  return !c.enforced && std::popcount(c.inputs) >= 2 &&
         63 - std::countl_zero(c.inputs) == static_cast<int>(step);
}

/// Mixes Value::Hash values (which agree for Compare-equal INT and
/// DOUBLE values) for power-of-two tables.
size_t HashValues(size_t n, const auto& value_at) {
  size_t h = 0x345678;
  for (size_t i = 0; i < n; ++i) h = h * 1000003 ^ value_at(i).Hash();
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

bool AnyNull(size_t n, const auto& value_at) {
  for (size_t i = 0; i < n; ++i) {
    if (value_at(i).is_null()) return true;
  }
  return false;
}

/// Reads input `input` into `rows`, in key order, through the cheapest
/// access path its local conjuncts allow: a primary-key point read when
/// they pin every key column, else a secondary-index probe on the first
/// pinned indexed column, else a snapshot scan. The conjuncts the path
/// enforces are marked so; a row must pass the other local ones, in WHERE
/// order. A pin to NULL matches no row.
Status ReadInput(storage::StorageEngine& engine, const TransactionPtr& txn,
                 const storage::MvccTable& table, uint32_t input,
                 const BoundExprs& exprs, const std::vector<Value>& params,
                 std::vector<Conjunct>* conjuncts,
                 std::vector<sql::Row>* rows) {
  Status filter_status;
  const sql::Row* tuple[kMaxInputs] = {};
  auto passes = [&](const sql::Row& row) {
    if (!filter_status.ok()) return false;
    tuple[input] = &row;
    for (const Conjunct& c : *conjuncts) {
      if (c.enforced || !IsLocal(c, input)) continue;
      auto match = exprs.Test(c.id, tuple, params);
      if (!match.ok()) filter_status = match.status();
      if (!match.ok() || !match.value()) return false;
    }
    return true;
  };
  auto visit = [&](const sql::Key&, const sql::Row& row) {
    if (passes(row)) rows->push_back(row);
  };

  if (auto key = PinKey(exprs, input, table.schema(), params, conjuncts)) {
    for (const Value& part : key->parts) {
      if (part.is_null()) return Status::OK();
    }
    auto row = engine.Read(txn, table.name(), *key);
    if (!row.ok()) return row.status();
    if (row.value().has_value() && passes(*row.value())) {
      rows->push_back(*std::move(row).value());
    }
    return filter_status;
  }
  for (Conjunct& c : *conjuncts) {
    if (!IsLocal(c, input)) continue;
    auto pin = exprs.AsPin(c.id, params);
    if (!pin.has_value()) continue;
    const std::string& column = table.schema().columns()[pin->slot.column].name;
    if (!table.HasIndex(column)) continue;
    c.enforced = true;
    if (pin->value->is_null()) return Status::OK();
    SIREP_RETURN_IF_ERROR(
        engine.LookupByIndex(txn, table.name(), column, *pin->value, visit));
    return filter_status;
  }
  SIREP_RETURN_IF_ERROR(engine.Scan(txn, table.name(), visit));
  return filter_status;
}

/// Joined tuples, flat: `width` row pointers each.
struct Tuples {
  size_t width = 1;
  std::vector<const sql::Row*> rows;

  size_t size() const { return rows.size() / width; }
  Tuple at(size_t i) const { return rows.data() + i * width; }
};

/// Extends each tuple of `acc` (inputs 0..t-1) with every row of input t
/// it joins, keeping nested-loop order (acc order, then `right` order).
/// The conjuncts `column = column` linking t to an earlier input are the
/// hash key and are marked enforced; a NULL key never matches. Without
/// one, a nested loop up to kNestedLoopCap pairs.
Status JoinInput(uint32_t t, const std::vector<sql::Row>& right,
                 const BoundExprs& exprs, std::vector<Conjunct>* conjuncts,
                 Tuples* acc) {
  std::vector<std::pair<Slot, uint32_t>> keys;  // acc slot, column of t
  for (Conjunct& c : *conjuncts) {
    if (!IsResidualAt(c, t) || std::popcount(c.inputs) != 2) continue;
    auto eq = exprs.AsColumnEquality(c.id);
    if (!eq.has_value()) continue;
    auto [left, mine] = *eq;
    if (left.input == t) std::swap(left, mine);
    keys.emplace_back(left, mine.column);
    c.enforced = true;
  }

  const size_t n = acc->size();
  Tuples out;
  out.width = acc->width + 1;
  auto emit = [&](size_t i, const sql::Row& row) {
    out.rows.insert(out.rows.end(), acc->at(i), acc->at(i) + acc->width);
    out.rows.push_back(&row);
  };
  if (keys.empty()) {
    if (n * right.size() > kNestedLoopCap) {
      return Status::NotSupported(
          "join without an equality condition is too large (" +
          std::to_string(n) + " x " + std::to_string(right.size()) +
          " rows)");
    }
    out.rows.reserve(n * right.size() * out.width);
    for (size_t i = 0; i < n; ++i) {
      for (const sql::Row& row : right) emit(i, row);
    }
    *acc = std::move(out);
    return Status::OK();
  }

  // Build on input t: chains of row indexes per bucket, in row order.
  size_t buckets = 1;
  while (buckets < 2 * right.size()) buckets <<= 1;
  std::vector<int32_t> head(buckets, -1), next(right.size(), -1);
  for (size_t r = right.size(); r-- > 0;) {
    auto right_key = [&](size_t k) -> const Value& {
      return right[r][keys[k].second];
    };
    if (AnyNull(keys.size(), right_key)) continue;
    const size_t b = HashValues(keys.size(), right_key) & (buckets - 1);
    next[r] = head[b];
    head[b] = static_cast<int32_t>(r);
  }
  // Probe with the tuples joined so far.
  out.rows.reserve(n * out.width);
  for (size_t i = 0; i < n; ++i) {
    const Tuple tuple = acc->at(i);
    auto left_key = [&](size_t k) -> const Value& {
      return (*tuple[keys[k].first.input])[keys[k].first.column];
    };
    if (AnyNull(keys.size(), left_key)) continue;
    const size_t b = HashValues(keys.size(), left_key) & (buckets - 1);
    for (int32_t r = head[b]; r >= 0; r = next[r]) {
      const sql::Row& row = right[r];
      bool equal = true;
      for (size_t k = 0; k < keys.size() && equal; ++k) {
        equal = left_key(k).Compare(row[keys[k].second]) == 0;
      }
      if (equal) emit(i, row);
    }
  }
  *acc = std::move(out);
  return Status::OK();
}

/// Drops the tuples of `acc` that fail a conjunct due at join step
/// `step` (IsResidualAt), checked in WHERE order.
Status FilterResiduals(uint32_t step, const BoundExprs& exprs,
                       const std::vector<Conjunct>& conjuncts,
                       const std::vector<Value>& params, Tuples* acc) {
  if (std::none_of(conjuncts.begin(), conjuncts.end(),
                   [&](const Conjunct& c) { return IsResidualAt(c, step); })) {
    return Status::OK();
  }
  size_t kept = 0;
  for (size_t i = 0; i < acc->size(); ++i) {
    bool pass = true;
    for (const Conjunct& c : conjuncts) {
      if (!IsResidualAt(c, step)) continue;
      auto match = exprs.Test(c.id, acc->at(i), params);
      if (!match.ok()) return match.status();
      if (!(pass = match.value())) break;
    }
    if (!pass) continue;
    std::copy(acc->at(i), acc->at(i) + acc->width,
              acc->rows.begin() + kept * acc->width);
    ++kept;
  }
  acc->rows.resize(kept * acc->width);
  return Status::OK();
}

/// One output column: a column (`agg` kNone) or an aggregate over one
/// (or COUNT(*), `star`).
struct OutputItem {
  sql::AggFunc agg = sql::AggFunc::kNone;
  bool star = false;
  Slot slot;
  size_t group_key = 0;  ///< grouped kNone: its position in the group key
};

/// A SELECT's output, bound before any row is read.
struct OutputPlan {
  std::vector<std::string> labels;
  std::vector<OutputItem> items;
  bool grouped = false;  ///< GROUP BY or an aggregate
  std::vector<Slot> group_key;
  /// Grouped: the output column ORDER BY names (-1: by group key only).
  int sort_column = -1;
  /// Ungrouped: the column ORDER BY names, if any.
  std::optional<Slot> sort_slot;
};

std::string AggLabel(const sql::SelectItem& item) {
  switch (item.agg) {
    case sql::AggFunc::kNone:
      return item.column;
    case sql::AggFunc::kCount:
      return item.star ? "count(*)" : "count(" + item.column + ")";
    case sql::AggFunc::kSum:
      return "sum(" + item.column + ")";
    case sql::AggFunc::kAvg:
      return "avg(" + item.column + ")";
    case sql::AggFunc::kMin:
      return "min(" + item.column + ")";
    case sql::AggFunc::kMax:
      return "max(" + item.column + ")";
  }
  return item.column;
}

Result<OutputPlan> BindOutput(const sql::SelectStmt& stmt,
                              std::span<const ScopeInput> scope) {
  OutputPlan plan;
  plan.labels.reserve(stmt.items.size());
  plan.items.reserve(stmt.items.size());
  if (stmt.star) {
    if (!stmt.group_by.empty()) {
      return Status::NotSupported("SELECT * with GROUP BY");
    }
    // One input: its column names; a join: "alias.col".
    for (uint32_t i = 0; i < scope.size(); ++i) {
      const auto& columns = scope[i].schema->columns();
      for (uint32_t c = 0; c < columns.size(); ++c) {
        plan.labels.push_back(scope.size() == 1 ? columns[c].name
                                                : std::string(scope[i].alias) +
                                                      "." + columns[c].name);
        plan.items.push_back(OutputItem{sql::AggFunc::kNone, false, {i, c}});
      }
    }
  } else {
    for (const auto& item : stmt.items) {
      OutputItem out{item.agg, item.star, {}};
      if (!item.star) {
        auto slot = ResolveColumn(scope, item.column);
        if (!slot.ok()) return slot.status();
        out.slot = slot.value();
      }
      plan.grouped |= item.agg != sql::AggFunc::kNone;
      plan.labels.push_back(AggLabel(item));
      plan.items.push_back(out);
    }
  }
  plan.grouped |= !stmt.group_by.empty();
  for (const auto& name : stmt.group_by) {
    auto slot = ResolveColumn(scope, name);
    if (!slot.ok()) return slot.status();
    plan.group_key.push_back(slot.value());
  }
  if (plan.grouped) {
    for (size_t i = 0; i < plan.items.size(); ++i) {
      OutputItem& item = plan.items[i];
      if (item.agg != sql::AggFunc::kNone) continue;
      auto it =
          std::find(plan.group_key.begin(), plan.group_key.end(), item.slot);
      if (it == plan.group_key.end()) {
        return Status::InvalidArgument(
            "column '" + plan.labels[i] +
            "' must appear in GROUP BY or be aggregated");
      }
      item.group_key = static_cast<size_t>(it - plan.group_key.begin());
    }
  }

  // ORDER BY: an output position, an output label, or (ungrouped) any
  // column in scope.
  int column = -1;
  if (stmt.order_by_position > 0) {
    if (stmt.order_by_position > static_cast<int64_t>(plan.items.size())) {
      return Status::InvalidArgument("ORDER BY position out of range");
    }
    column = static_cast<int>(stmt.order_by_position) - 1;
  } else if (stmt.order_by.has_value()) {
    auto it = std::find(plan.labels.begin(), plan.labels.end(), *stmt.order_by);
    if (it != plan.labels.end()) {
      column = static_cast<int>(it - plan.labels.begin());
    } else if (plan.grouped) {
      return Status::InvalidArgument(
          "ORDER BY of a grouped query must name an output column or "
          "position");
    } else {
      auto slot = ResolveColumn(scope, *stmt.order_by);
      if (!slot.ok()) return slot.status();
      plan.sort_slot = slot.value();
    }
  }
  if (plan.grouped) {
    plan.sort_column = column;
  } else if (column >= 0) {
    plan.sort_slot = plan.items[static_cast<size_t>(column)].slot;
  }
  return plan;
}

/// Sorts `order` by `less`, a strict order; with `limit` >= 0 only its
/// first `limit` elements (partial_sort), dropping the rest.
void SortTopK(std::vector<uint32_t>* order, int64_t limit, const auto& less) {
  if (limit >= 0 && static_cast<size_t>(limit) < order->size()) {
    std::partial_sort(order->begin(), order->begin() + limit, order->end(),
                      less);
    order->resize(static_cast<size_t>(limit));
  } else {
    std::sort(order->begin(), order->end(), less);
  }
}

/// Ungrouped output: one row per tuple, stably ordered by ORDER BY's
/// column (ties keep join order), then LIMIT.
QueryResult Project(const sql::SelectStmt& stmt, OutputPlan plan,
                    const Tuples& tuples) {
  QueryResult result;
  result.columns = std::move(plan.labels);
  const size_t n = tuples.size();
  size_t count = n;
  if (stmt.limit >= 0) count = std::min(count, static_cast<size_t>(stmt.limit));
  std::vector<uint32_t> order;
  if (plan.sort_slot.has_value()) {
    const Slot slot = *plan.sort_slot;
    auto value = [&](uint32_t i) -> const Value& {
      return (*tuples.at(i)[slot.input])[slot.column];
    };
    order.resize(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    SortTopK(&order, stmt.limit, [&](uint32_t a, uint32_t b) {
      const int c = value(a).Compare(value(b));
      if (c != 0) return stmt.order_desc ? c > 0 : c < 0;
      return a < b;
    });
  }
  result.rows.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const Tuple tuple = tuples.at(order.empty() ? k : order[k]);
    sql::Row row;
    row.reserve(plan.items.size());
    for (const OutputItem& item : plan.items) {
      row.push_back((*tuple[item.slot.input])[item.slot.column]);
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

/// A running aggregate over one group's values.
struct Accumulator {
  int64_t count = 0;  ///< COUNT: rows counted; SUM/AVG: values summed
  int64_t isum = 0;
  double sum = 0.0;
  bool any_double = false;
  Value best;  ///< MIN/MAX; NULL until the first non-NULL value

  Status Add(const OutputItem& item, Tuple tuple) {
    if (item.star) {
      ++count;
      return Status::OK();
    }
    const Value& v = (*tuple[item.slot.input])[item.slot.column];
    if (v.is_null()) return Status::OK();
    switch (item.agg) {
      case sql::AggFunc::kCount:
        ++count;
        break;
      case sql::AggFunc::kSum:
      case sql::AggFunc::kAvg:
        if (!v.IsNumeric()) {
          return Status::InvalidArgument("SUM/AVG on non-numeric column");
        }
        if (v.type() == sql::ValueType::kDouble) any_double = true;
        sum += v.AsDouble();
        if (v.type() == sql::ValueType::kInt) isum += v.AsInt();
        ++count;
        break;
      case sql::AggFunc::kMin:
      case sql::AggFunc::kMax: {
        const int c = best.is_null() ? 0 : v.Compare(best);
        if (best.is_null() || (item.agg == sql::AggFunc::kMin && c < 0) ||
            (item.agg == sql::AggFunc::kMax && c > 0)) {
          best = v;
        }
        break;
      }
      case sql::AggFunc::kNone:
        break;
    }
    return Status::OK();
  }

  Value Finish(sql::AggFunc agg) const {
    switch (agg) {
      case sql::AggFunc::kCount:
        return Value::Int(count);
      case sql::AggFunc::kSum:
        if (count == 0) return Value::Null();
        return any_double ? Value::Double(sum) : Value::Int(isum);
      case sql::AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum / static_cast<double>(count));
      default:
        return best;
    }
  }
};

/// Grouped output: a hash table of groups (one implicit group without
/// GROUP BY, even over no rows) with one running Accumulator per output
/// column, then groups in (ORDER BY value, group key) order — the top
/// LIMIT by partial_sort.
Result<QueryResult> Aggregate(const sql::SelectStmt& stmt, OutputPlan plan,
                              const Tuples& tuples) {
  const size_t nk = plan.group_key.size();
  const size_t ni = plan.items.size();
  std::vector<Value> keys;          // nk per group
  std::vector<size_t> hashes;       // per group
  std::vector<Accumulator> accs;    // ni per group (kNone ones unused)
  std::vector<uint32_t> table(16);  // open addressing: group + 1, 0 free
  auto add_group = [&](Tuple tuple, size_t hash) {
    for (const Slot& slot : plan.group_key) {
      keys.push_back((*tuple[slot.input])[slot.column]);
    }
    hashes.push_back(hash);
    accs.resize(accs.size() + ni);
    return static_cast<uint32_t>(hashes.size() - 1);
  };
  auto insert = [&](uint32_t g) {
    const size_t mask = table.size() - 1;
    size_t p = hashes[g] & mask;
    while (table[p] != 0) p = (p + 1) & mask;
    table[p] = g + 1;
  };
  auto find_or_add = [&](Tuple tuple) {
    auto key_value = [&](size_t k) -> const Value& {
      return (*tuple[plan.group_key[k].input])[plan.group_key[k].column];
    };
    const size_t hash = HashValues(nk, key_value);
    const size_t mask = table.size() - 1;
    for (size_t p = hash & mask; table[p] != 0; p = (p + 1) & mask) {
      const uint32_t g = table[p] - 1;
      bool equal = hashes[g] == hash;
      for (size_t k = 0; k < nk && equal; ++k) {
        equal = keys[g * nk + k].Compare(key_value(k)) == 0;
      }
      if (equal) return g;
    }
    const uint32_t g = add_group(tuple, hash);
    if (2 * hashes.size() > table.size()) {
      table.assign(2 * table.size(), 0);
      for (uint32_t h = 0; h < hashes.size(); ++h) insert(h);
    } else {
      insert(g);
    }
    return g;
  };

  if (nk == 0) add_group(nullptr, 0);
  for (size_t i = 0; i < tuples.size(); ++i) {
    const Tuple tuple = tuples.at(i);
    const uint32_t g = nk == 0 ? 0 : find_or_add(tuple);
    for (size_t j = 0; j < ni; ++j) {
      if (plan.items[j].agg == sql::AggFunc::kNone) continue;
      SIREP_RETURN_IF_ERROR(accs[g * ni + j].Add(plan.items[j], tuple));
    }
  }

  auto output = [&](uint32_t g, size_t j) -> Value {
    const OutputItem& item = plan.items[j];
    if (item.agg == sql::AggFunc::kNone) return keys[g * nk + item.group_key];
    return accs[g * ni + j].Finish(item.agg);
  };
  auto key_less = [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < nk; ++k) {
      const int c = keys[a * nk + k].Compare(keys[b * nk + k]);
      if (c != 0) return c < 0;
    }
    return false;
  };
  std::vector<uint32_t> order(hashes.size());
  for (uint32_t g = 0; g < order.size(); ++g) order[g] = g;
  if (plan.sort_column >= 0) {
    std::vector<Value> sort_values;
    sort_values.reserve(order.size());
    for (uint32_t g : order) {
      sort_values.push_back(output(g, static_cast<size_t>(plan.sort_column)));
    }
    SortTopK(&order, stmt.limit, [&](uint32_t a, uint32_t b) {
      const int c = sort_values[a].Compare(sort_values[b]);
      if (c != 0) return stmt.order_desc ? c > 0 : c < 0;
      return key_less(a, b);
    });
  } else {
    SortTopK(&order, stmt.limit, key_less);
  }

  QueryResult result;
  result.columns = std::move(plan.labels);
  result.rows.reserve(order.size());
  for (uint32_t g : order) {
    sql::Row row;
    row.reserve(ni);
    for (size_t j = 0; j < ni; ++j) row.push_back(output(g, j));
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace

Result<QueryResult> Database::ExecSelect(const TransactionPtr& txn,
                                         const sql::SelectStmt& stmt,
                                         const std::vector<Value>& params) {
  const size_t n = stmt.tables.size();
  if (n > kMaxInputs) {
    return Status::NotSupported("more than " + std::to_string(kMaxInputs) +
                                " tables in FROM");
  }
  // Each FROM input's table and, once read, the rows tuples point into.
  struct Input {
    const storage::MvccTable* table;
    std::vector<sql::Row> rows;
  };
  std::vector<Input> inputs;
  std::vector<ScopeInput> scope;
  inputs.reserve(n);
  scope.reserve(n);
  for (const auto& ref : stmt.tables) {
    const storage::MvccTable* table = engine_.GetTable(ref.table);
    if (table == nullptr) {
      return Status::NotFound("no table '" + ref.table + "'");
    }
    inputs.push_back(Input{table, {}});
    scope.push_back(ScopeInput{ref.alias, &table->schema()});
  }

  // ---- bind every column reference, before any row is read ----
  BoundExprs exprs(scope);
  std::vector<Conjunct> conjuncts;
  SIREP_RETURN_IF_ERROR(BindConjuncts(stmt.where.get(), &exprs, &conjuncts));
  auto plan = BindOutput(stmt, scope);
  if (!plan.ok()) return plan.status();

  // ---- read each input, then join left to right on row references ----
  for (uint32_t t = 0; t < n; ++t) {
    SIREP_RETURN_IF_ERROR(ReadInput(engine_, txn, *inputs[t].table, t, exprs,
                                    params, &conjuncts, &inputs[t].rows));
  }
  Tuples tuples;
  tuples.rows.reserve(inputs[0].rows.size());
  for (const sql::Row& row : inputs[0].rows) tuples.rows.push_back(&row);
  for (uint32_t t = 1; t < n; ++t) {
    SIREP_RETURN_IF_ERROR(
        JoinInput(t, inputs[t].rows, exprs, &conjuncts, &tuples));
    SIREP_RETURN_IF_ERROR(
        FilterResiduals(t, exprs, conjuncts, params, &tuples));
  }

  if (plan.value().grouped) {
    return Aggregate(stmt, std::move(plan).value(), tuples);
  }
  return Project(stmt, std::move(plan).value(), tuples);
}

Result<QueryResult> Database::ExecUpdate(const TransactionPtr& txn,
                                         const sql::UpdateStmt& stmt,
                                         const std::vector<Value>& params) {
  storage::MvccTable* table = engine_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("no table '" + stmt.table + "'");
  }
  const sql::Schema& schema = table->schema();
  const ScopeInput input{stmt.table, &schema};
  BoundExprs exprs(std::span<const ScopeInput>(&input, 1));

  // Resolve assignment targets and bind their expressions once.
  std::vector<std::pair<size_t, uint32_t>> sets;
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
    auto id = exprs.Bind(*expr);
    if (!id.ok()) return id.status();
    sets.emplace_back(static_cast<size_t>(idx), id.value());
  }
  std::vector<Conjunct> conjuncts;
  SIREP_RETURN_IF_ERROR(BindConjuncts(stmt.where.get(), &exprs, &conjuncts));

  std::vector<sql::Row> matches;
  SIREP_RETURN_IF_ERROR(ReadInput(engine_, txn, *table, 0, exprs, params,
                                  &conjuncts, &matches));
  int64_t affected = 0;
  for (const sql::Row& row : matches) {
    const sql::Row* tuple = &row;
    sql::Row new_row = row;
    for (const auto& [idx, id] : sets) {
      auto v = exprs.Eval(id, &tuple, params);
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
  const ScopeInput input{stmt.table, &table->schema()};
  BoundExprs exprs(std::span<const ScopeInput>(&input, 1));
  std::vector<Conjunct> conjuncts;
  SIREP_RETURN_IF_ERROR(BindConjuncts(stmt.where.get(), &exprs, &conjuncts));

  std::vector<sql::Row> matches;
  SIREP_RETURN_IF_ERROR(ReadInput(engine_, txn, *table, 0, exprs, params,
                                  &conjuncts, &matches));
  int64_t affected = 0;
  for (const sql::Row& row : matches) {
    Status st = engine_.Delete(txn, stmt.table, table->schema().KeyOf(row));
    if (st.code() == StatusCode::kNotFound) continue;
    SIREP_RETURN_IF_ERROR(st);
    ++affected;
  }
  QueryResult result;
  result.rows_affected = affected;
  return result;
}

}  // namespace sirep::engine
