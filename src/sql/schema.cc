#include "sql/schema.h"

#include <algorithm>

namespace sirep::sql {

int Schema::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Key Schema::KeyOf(const Row& row) const {
  Key key;
  key.parts.reserve(key_indexes_.size());
  for (size_t idx : key_indexes_) {
    key.parts.push_back(row[idx]);
  }
  return key;
}

bool Schema::IsKeyColumn(size_t index) const {
  return std::find(key_indexes_.begin(), key_indexes_.end(), index) !=
         key_indexes_.end();
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, table has " +
        std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (v.is_null()) {
      if (IsKeyColumn(i)) {
        return Status::InvalidArgument("NULL in primary key column '" +
                                       columns_[i].name + "'");
      }
      continue;
    }
    const ValueType want = columns_[i].type;
    const ValueType got = v.type();
    const bool ok =
        got == want ||
        (want == ValueType::kDouble && got == ValueType::kInt);
    if (!ok) {
      return Status::InvalidArgument(
          "type mismatch for column '" + columns_[i].name + "': expected " +
          ValueTypeToString(want) + ", got " + ValueTypeToString(got));
    }
  }
  return Status::OK();
}

}  // namespace sirep::sql
