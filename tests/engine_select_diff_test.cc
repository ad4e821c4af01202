// Differential test of the SELECT executor: every query runs through
// Database::Execute and through a brute-force reference written here —
// a nested loop over every combination of input rows (each input read
// in key order straight from the storage engine), the full WHERE
// through Matches, std::map grouping and stable sorts — on seeded
// random tables with NULLs, duplicate join keys, INT/DOUBLE-mixed join
// keys and a transaction's own uncommitted writes. Results must agree
// row for row, in order and value type.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/exec.h"
#include "sql/parser.h"

namespace sirep::engine {
namespace {

using sql::Value;

std::string AggLabel(const sql::SelectItem& item) {
  static const char* const kNames[] = {"", "count", "sum", "avg", "min",
                                       "max"};
  if (item.agg == sql::AggFunc::kNone) return item.column;
  return std::string(kNames[static_cast<int>(item.agg)]) + "(" +
         (item.star ? "*" : item.column) + ")";
}

void StableSortBy(std::vector<sql::Row>* rows, size_t column, bool desc) {
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const sql::Row& a, const sql::Row& b) {
                     const int c = a[column].Compare(b[column]);
                     return desc ? c > 0 : c < 0;
                   });
}

/// One aggregate over `rows` (COUNT(*) when `column` < 0).
Value AggregateOf(sql::AggFunc agg, int column,
                  const std::vector<const sql::Row*>& rows) {
  int64_t count = 0, isum = 0;
  double sum = 0;
  bool any_double = false;
  Value best;
  for (const sql::Row* row : rows) {
    if (column < 0) {
      ++count;
      continue;
    }
    const Value& v = (*row)[column];
    if (v.is_null()) continue;
    ++count;
    if (v.type() == sql::ValueType::kDouble) any_double = true;
    if (agg == sql::AggFunc::kSum || agg == sql::AggFunc::kAvg) {
      sum += v.AsDouble();
      if (v.type() == sql::ValueType::kInt) isum += v.AsInt();
    }
    if (best.is_null() || (agg == sql::AggFunc::kMin && v < best) ||
        (agg == sql::AggFunc::kMax && best < v)) {
      best = v;
    }
  }
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

/// The brute-force reference. Queries name columns by their plain,
/// FROM-wide unique names, so one concatenated schema resolves them.
QueryResult Reference(Database& db, const storage::TransactionPtr& txn,
                      const std::string& text,
                      const std::vector<Value>& params) {
  auto parsed = sql::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  const sql::SelectStmt& stmt = *parsed.value().select;

  std::vector<sql::Column> columns;
  std::vector<std::string> star_labels;
  std::vector<std::vector<sql::Row>> inputs;
  for (const auto& ref : stmt.tables) {
    const auto* table = db.engine().GetTable(ref.table);
    for (const auto& col : table->schema().columns()) {
      columns.push_back(col);
      star_labels.push_back(stmt.tables.size() == 1 ? col.name
                                                    : ref.alias + "." +
                                                          col.name);
    }
    inputs.emplace_back();
    EXPECT_TRUE(db.engine()
                    .Scan(txn, ref.table,
                          [&](const sql::Key&, const sql::Row& row) {
                            inputs.back().push_back(row);
                          })
                    .ok());
  }
  const sql::Schema schema(columns, {});
  auto col = [&](const std::string& name) {
    const int idx = schema.FindColumn(name);
    EXPECT_GE(idx, 0) << name;
    return idx;
  };

  std::vector<sql::Row> joined;
  std::function<void(size_t, sql::Row)> combine = [&](size_t t,
                                                       sql::Row prefix) {
    if (t == inputs.size()) {
      auto match = Matches(stmt.where.get(), schema, prefix, params);
      EXPECT_TRUE(match.ok()) << text << ": " << match.status();
      if (match.ok() && match.value()) joined.push_back(std::move(prefix));
      return;
    }
    for (const sql::Row& row : inputs[t]) {
      sql::Row next = prefix;
      next.insert(next.end(), row.begin(), row.end());
      combine(t + 1, std::move(next));
    }
  };
  combine(0, {});

  QueryResult result;
  int sort_column = -1;  // in the output
  auto find_label = [&](const std::string& label) {
    auto it = std::find(result.columns.begin(), result.columns.end(), label);
    return it == result.columns.end()
               ? -1
               : static_cast<int>(it - result.columns.begin());
  };
  if (stmt.star) {
    result.columns = star_labels;
    result.rows = std::move(joined);
  } else {
    for (const auto& item : stmt.items) {
      result.columns.push_back(AggLabel(item));
    }
    const bool grouped =
        !stmt.group_by.empty() ||
        std::any_of(stmt.items.begin(), stmt.items.end(),
                    [](const sql::SelectItem& i) {
                      return i.agg != sql::AggFunc::kNone;
                    });
    if (grouped) {
      std::map<sql::Key, std::vector<const sql::Row*>> groups;
      if (stmt.group_by.empty()) groups[sql::Key{}];
      for (const sql::Row& row : joined) {
        sql::Key key;
        for (const auto& g : stmt.group_by) key.parts.push_back(row[col(g)]);
        groups[key].push_back(&row);
      }
      for (const auto& [key, rows] : groups) {
        sql::Row out;
        for (const auto& item : stmt.items) {
          const int c = item.star ? -1 : col(item.column);
          out.push_back(item.agg == sql::AggFunc::kNone
                            ? (*rows.front())[c]
                            : AggregateOf(item.agg, c, rows));
        }
        result.rows.push_back(std::move(out));
      }
    } else {
      if (stmt.order_by.has_value() && find_label(*stmt.order_by) < 0) {
        StableSortBy(&joined, col(*stmt.order_by), stmt.order_desc);
      }
      for (const sql::Row& row : joined) {
        sql::Row out;
        for (const auto& item : stmt.items) {
          out.push_back(row[col(item.column)]);
        }
        result.rows.push_back(std::move(out));
      }
    }
  }
  if (stmt.order_by_position > 0) {
    sort_column = static_cast<int>(stmt.order_by_position) - 1;
  } else if (stmt.order_by.has_value()) {
    sort_column = find_label(*stmt.order_by);
    if (stmt.star) sort_column = col(*stmt.order_by);
  }
  if (sort_column >= 0) {
    StableSortBy(&result.rows, static_cast<size_t>(sort_column),
                 stmt.order_desc);
  }
  if (stmt.limit >= 0 && result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(static_cast<size_t>(stmt.limit));
  }
  return result;
}

/// Rows as text with each value's type (INT 3 and DOUBLE 3.0 differ)
/// and doubles to the last bit.
std::vector<std::string> Typed(const QueryResult& result) {
  std::vector<std::string> out;
  for (const auto& row : result.rows) {
    std::string line;
    for (const auto& v : row) {
      line += sql::ValueTypeToString(v.type());
      if (v.type() == sql::ValueType::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), ":%.17g ", v.AsDouble());
        line += buf;
      } else {
        line += ":" + v.ToString() + " ";
      }
    }
    out.push_back(std::move(line));
  }
  return out;
}

class SelectDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* ddl : {
             "CREATE TABLE a (a_id INT, a_k INT, a_g INT, a_v DOUBLE, "
             "a_s VARCHAR(8), PRIMARY KEY (a_id))",
             "CREATE TABLE b (b_id INT, b_k DOUBLE, b_g INT, b_v INT, "
             "PRIMARY KEY (b_id))",
             "CREATE TABLE c (c_id INT, c_k INT, c_v INT, PRIMARY KEY (c_id))",
             "CREATE INDEX a_g_idx ON a (a_g)",
             "CREATE INDEX c_k_idx ON c (c_k)",
         }) {
      ASSERT_TRUE(db_.ExecuteAutoCommit(ddl).ok()) << ddl;
    }
  }

  Value MaybeNull(std::mt19937_64& rng, Value v, int null_percent = 15) {
    return static_cast<int>(rng() % 100) < null_percent ? Value::Null() : v;
  }
  Value Small(std::mt19937_64& rng, int64_t n) {
    return Value::Int(static_cast<int64_t>(rng() % static_cast<uint64_t>(n)));
  }

  /// Committed random content, then a transaction with its own writes.
  storage::TransactionPtr Load(uint64_t seed) {
    std::mt19937_64 rng(seed);
    auto& engine = db_.engine();
    auto load = engine.Begin();
    for (int64_t i = 1; i <= 30; ++i) {
      const Value v = rng() % 2 == 0 ? Small(rng, 10)
                                     : Value::Double(static_cast<double>(
                                                         rng() % 10) +
                                                     0.5);
      EXPECT_TRUE(engine
                      .Insert(load, "a",
                              {Value::Int(i), MaybeNull(rng, Small(rng, 6)),
                               MaybeNull(rng, Small(rng, 4), 10),
                               MaybeNull(rng, v),
                               MaybeNull(rng, Value::String(
                                                  "s" + std::to_string(
                                                            rng() % 5)))})
                      .ok());
    }
    for (int64_t i = 1; i <= 25; ++i) {
      const int64_t k = static_cast<int64_t>(rng() % 6);
      const Value key = rng() % 3 == 0   ? Value::Int(k)
                        : rng() % 2 == 0 ? Value::Double(static_cast<double>(k))
                                         : Value::Double(k + 0.5);
      EXPECT_TRUE(engine
                      .Insert(load, "b",
                              {Value::Int(i), MaybeNull(rng, key),
                               MaybeNull(rng, Small(rng, 4), 10),
                               MaybeNull(rng, Small(rng, 10))})
                      .ok());
    }
    for (int64_t i = 1; i <= 15; ++i) {
      EXPECT_TRUE(engine
                      .Insert(load, "c",
                              {Value::Int(i), MaybeNull(rng, Small(rng, 6)),
                               Small(rng, 10)})
                      .ok());
    }
    EXPECT_TRUE(engine.Commit(load).ok());

    auto txn = engine.Begin();
    for (int i = 0; i < 3; ++i) {
      const int64_t id = 1 + static_cast<int64_t>(rng() % 30);
      EXPECT_TRUE(engine
                      .Update(txn, "a",
                              {Value::Int(id), Small(rng, 6), Small(rng, 4),
                               Value::Double(1.5), Value::String("s9")})
                      .ok());
    }
    EXPECT_TRUE(
        engine.Delete(txn, "b", sql::Key{{Value::Int(1 + rng() % 25)}}).ok());
    EXPECT_TRUE(engine
                    .Insert(txn, "c",
                            {Value::Int(99), Small(rng, 6), Small(rng, 10)})
                    .ok());
    return txn;
  }

  void ExpectSame(const storage::TransactionPtr& txn, const std::string& text,
                  const std::vector<Value>& params) {
    auto got = db_.Execute(txn, text, params);
    ASSERT_TRUE(got.ok()) << text << ": " << got.status();
    const QueryResult want = Reference(db_, txn, text, params);
    EXPECT_EQ(got.value().columns, want.columns) << text;
    EXPECT_EQ(Typed(got.value()), Typed(want)) << text;
  }

  Database db_;
};

TEST_F(SelectDiffTest, MatchesBruteForceReference) {
  const std::vector<std::string> queries = {
      // One input: access paths (key, index, scan) with pushed filters.
      "SELECT a_id, a_v FROM a WHERE a_g = ? ORDER BY a_v DESC",
      "SELECT a_id, a_s FROM a WHERE a_id = ? AND a_g < ?",
      "SELECT a_id, a_s FROM a WHERE a_g >= 0 AND a_id = ? AND a_id = 3",
      "SELECT a_id, a_s FROM a WHERE a_k = ? ORDER BY a_s LIMIT 4",
      "SELECT c_id, c_v FROM c WHERE c_k = ? AND c_v > ?",
      "SELECT COUNT(*), SUM(c_v), MAX(c_k) FROM c WHERE c_id = ?",
      // Two inputs, with and without an equi-conjunct.
      "SELECT a_id, b_id FROM a, b WHERE a_k = b_k",
      "SELECT a_id, b_id FROM a JOIN b ON b_k = a_k WHERE a_g = ?",
      "SELECT a_id, b_id FROM a, b WHERE a_g > ? AND b_v < ?",
      "SELECT a_id, b_id FROM a, b WHERE a_k = b_k AND a_g = b_g "
      "AND a_v < b_v",
      "SELECT a_id, b_id FROM a JOIN b ON a_k = b_k WHERE a_g = ? OR "
      "b_g = ?",
      "SELECT a_id, c_id FROM a, c WHERE a_k = c_k AND c_k = ?",
      "SELECT a_id FROM a JOIN b ON a_k = b_k ORDER BY b_v DESC LIMIT 5",
      "SELECT * FROM a JOIN c ON a_k = c_k ORDER BY 3",
      "SELECT * FROM c, b WHERE c_v = b_v ORDER BY b_g DESC LIMIT 7",
      // Three inputs.
      "SELECT a_id, b_id, c_id FROM a JOIN b ON a_k = b_k JOIN c ON "
      "b_g = c_k WHERE a_v > ?",
      "SELECT a_id, b_id, c_id FROM a, b, c WHERE a_g < b_v AND c_v > ? "
      "AND c_id < 6",
      "SELECT a_id, c_id, b_id FROM a, c, b WHERE a_k = c_k AND "
      "c_v = b_v AND a_g + c_v > b_g",
      // Grouping: multi-column keys, every aggregate, ORDER BY name and
      // position, ASC and DESC, ties, LIMIT.
      "SELECT a_g, b_g, COUNT(*), SUM(a_v), AVG(b_v), MIN(a_s), MAX(b_k), "
      "COUNT(a_v) FROM a JOIN b ON a_k = b_k GROUP BY a_g, b_g",
      "SELECT a_g, SUM(b_v) FROM a JOIN b ON a_k = b_k GROUP BY a_g "
      "ORDER BY 2 DESC LIMIT 3",
      "SELECT a_g, COUNT(*) FROM a, b WHERE a_k = b_k GROUP BY a_g "
      "ORDER BY count(*) LIMIT 2",
      "SELECT a_s, MIN(a_v), MAX(a_v), AVG(a_v) FROM a GROUP BY a_s "
      "ORDER BY a_s DESC",
      "SELECT b_g, SUM(b_k) FROM b WHERE b_k IS NOT NULL GROUP BY b_g "
      "ORDER BY sum(b_k) DESC LIMIT 2",
      "SELECT c_k FROM c GROUP BY c_k",
      "SELECT b_k, COUNT(*), MAX(b_id) FROM b GROUP BY b_k ORDER BY 2",
      "SELECT COUNT(*), SUM(a_v), MIN(b_v) FROM a JOIN b ON a_k = b_k "
      "WHERE a_g = ?",
  };
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto txn = Load(seed);
    std::mt19937_64 rng(seed * 7919);
    for (const auto& query : queries) {
      // Every query takes at most two parameters; unused ones are ignored.
      const std::vector<Value> params = {MaybeNull(rng, Small(rng, 5), 10),
                                         MaybeNull(rng, Small(rng, 8), 10)};
      ExpectSame(txn, query, params);
    }
    db_.Abort(txn);
    for (const char* table : {"a", "b", "c"}) {
      ASSERT_TRUE(db_.ExecuteAutoCommit(std::string("DELETE FROM ") + table)
                      .ok());
    }
  }
}

TEST_F(SelectDiffTest, NullKeysNeverJoin) {
  for (const char* sql : {"INSERT INTO a VALUES (1, NULL, 0, 1.0, 'x')",
                          "INSERT INTO a VALUES (2, 7, 0, 1.0, 'y')",
                          "INSERT INTO b VALUES (1, NULL, 0, 1)",
                          "INSERT INTO b VALUES (2, 7.0, 0, 1)",
                          "INSERT INTO c VALUES (1, NULL, 0)"}) {
    ASSERT_TRUE(db_.ExecuteAutoCommit(sql).ok()) << sql;
  }
  auto r =
      db_.ExecuteAutoCommit("SELECT a_id, b_id FROM a JOIN b ON a_k = b_k");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().NumRows(), 1u);  // 7 = 7.0; NULL = NULL is not true
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.value().rows[0][1].AsInt(), 2);
  auto three = db_.ExecuteAutoCommit(
      "SELECT COUNT(*) FROM a, b, c WHERE a_k = b_k AND b_k = c_k");
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three.value().rows[0][0].AsInt(), 0);
}

TEST_F(SelectDiffTest, GroupByWithoutOrderByKeepsGroupKeyOrder) {
  // Inserted in key order whose group values run backwards, so neither
  // insertion nor hash order is the group-key order.
  int64_t id = 1;
  for (const char* s : {"s9", "s3", "s7", "s1", "s5"}) {
    for (int copy = 0; copy < 2; ++copy) {
      ASSERT_TRUE(
          db_.ExecuteAutoCommit("INSERT INTO a VALUES (?, ?, ?, 1.0, ?)",
                                {Value::Int(id), Value::Int(id % 3),
                                 Value::Int(9 - id % 4), Value::String(s)})
              .ok());
      ++id;
    }
  }
  ASSERT_TRUE(
      db_.ExecuteAutoCommit("INSERT INTO a VALUES (99, NULL, NULL, NULL, NULL)")
          .ok());
  auto r = db_.ExecuteAutoCommit("SELECT a_s, COUNT(*) FROM a GROUP BY a_s");
  ASSERT_TRUE(r.ok());
  std::vector<std::string> order;
  for (const auto& row : r.value().rows) order.push_back(row[0].ToString());
  EXPECT_EQ(order, (std::vector<std::string>{"NULL", "'s1'", "'s3'", "'s5'",
                                             "'s7'", "'s9'"}));
  auto two = db_.ExecuteAutoCommit(
      "SELECT a_g, a_k, COUNT(*) FROM a WHERE a_id < 99 GROUP BY a_g, a_k");
  ASSERT_TRUE(two.ok());
  for (size_t i = 1; i < two.value().NumRows(); ++i) {
    const auto& prev = two.value().rows[i - 1];
    const auto& cur = two.value().rows[i];
    EXPECT_TRUE(prev[0] < cur[0] || (prev[0] == cur[0] && prev[1] < cur[1]))
        << "row " << i;
  }
}

TEST_F(SelectDiffTest, UnknownOrAmbiguousColumnFailsOnEmptyInputs) {
  // Every table is empty: no row is ever read, the statements must fail
  // at bind time all the same.
  for (const char* sql : {
           "SELECT a_id FROM a WHERE zz = 1",
           "SELECT a_id FROM a WHERE a_id = 1 AND zz = 1",
           "SELECT a_id FROM a JOIN b ON a_k = b_k WHERE b.a_k > 1",
           "SELECT x.a_id FROM a x, a y WHERE a_k = 1",
           "SELECT a_id FROM a x, a y",
           "SELECT a_id, COUNT(*) FROM a GROUP BY zz",
           "SELECT SUM(zz) FROM a",
           "SELECT a_id FROM a ORDER BY zz",
           "UPDATE a SET a_v = zz + 1 WHERE a_id = 1",
           "UPDATE a SET a_v = 1.0 WHERE zz = 1",
           "DELETE FROM a WHERE zz = 1",
       }) {
    auto r = db_.ExecuteAutoCommit(sql);
    EXPECT_FALSE(r.ok()) << sql;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    }
  }
}

}  // namespace
}  // namespace sirep::engine
