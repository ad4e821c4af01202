#ifndef SIREP_SQL_SCHEMA_H_
#define SIREP_SQL_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/value.h"

namespace sirep::sql {

struct Column {
  std::string name;
  ValueType type = ValueType::kInt;
};

/// Table schema: ordered columns plus the primary-key column indexes.
/// Every table must have a primary key — writesets identify tuples by
/// (table, primary key), as in the paper's writeset extraction.
class Schema {
 public:
  Schema() = default;
  Schema(std::vector<Column> columns, std::vector<size_t> key_indexes)
      : columns_(std::move(columns)), key_indexes_(std::move(key_indexes)) {}

  const std::vector<Column>& columns() const { return columns_; }
  const std::vector<size_t>& key_indexes() const { return key_indexes_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of the named column, or -1 if absent.
  int FindColumn(std::string_view name) const;

  /// Extracts the primary key from a full row.
  Key KeyOf(const Row& row) const;

  /// Checks arity and (loose) type compatibility of a row against the
  /// schema. Ints are accepted for double columns; NULL anywhere except
  /// key columns.
  Status ValidateRow(const Row& row) const;

  bool IsKeyColumn(size_t index) const;

 private:
  std::vector<Column> columns_;
  std::vector<size_t> key_indexes_;
};

}  // namespace sirep::sql

#endif  // SIREP_SQL_SCHEMA_H_
