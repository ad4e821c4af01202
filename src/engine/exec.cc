#include "engine/exec.h"

#include <utility>

namespace sirep::engine {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnOp;
using sql::Value;
using sql::ValueType;

namespace {

/// SQL LIKE matcher: '%' matches any run (incl. empty), '_' any single
/// character. Iterative with backtracking over the last '%'.
bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace

Result<Slot> ResolveColumn(std::span<const ScopeInput> scope,
                           const std::string& name) {
  const size_t dot = name.find('.');
  const bool qualified = dot != std::string::npos;
  const std::string_view whole(name);
  const std::string_view alias = qualified ? whole.substr(0, dot) : "";
  const std::string_view column = qualified ? whole.substr(dot + 1) : whole;
  std::optional<Slot> found;
  for (size_t i = 0; i < scope.size(); ++i) {
    if (qualified && scope[i].alias != alias) continue;
    const int c = scope[i].schema->FindColumn(column);
    if (c < 0) continue;
    if (found.has_value()) {
      return Status::InvalidArgument("ambiguous column '" + name + "'");
    }
    found = Slot{static_cast<uint32_t>(i), static_cast<uint32_t>(c)};
  }
  if (!found.has_value()) {
    return Status::InvalidArgument("unknown column '" + name + "'");
  }
  return *found;
}

Result<uint32_t> BoundExprs::Bind(const Expr& expr) {
  Node node;
  node.expr = &expr;
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      if (scope_.empty()) {
        return Status::InvalidArgument("column reference '" + expr.column +
                                       "' outside a row context");
      }
      auto slot = ResolveColumn(scope_, expr.column);
      if (!slot.ok()) return slot.status();
      node.slot = slot.value();
      node.inputs = uint64_t{1} << node.slot.input;
      break;
    }
    case ExprKind::kUnary:
    case ExprKind::kBinary: {
      auto left = Bind(*expr.left);
      if (!left.ok()) return left;
      node.left = left.value();
      node.inputs = nodes_[node.left].inputs;
      if (expr.kind == ExprKind::kBinary) {
        auto right = Bind(*expr.right);
        if (!right.ok()) return right;
        node.right = right.value();
        node.inputs |= nodes_[node.right].inputs;
      }
      break;
    }
    case ExprKind::kLiteral:
    case ExprKind::kParam:
      break;
  }
  nodes_.push_back(node);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

std::optional<Pin> BoundExprs::AsPin(uint32_t id,
                                     const std::vector<Value>& params) const {
  const Node& node = nodes_[id];
  if (node.expr->kind != ExprKind::kBinary ||
      node.expr->bin_op != BinOp::kEq) {
    return std::nullopt;
  }
  const Node* col = &nodes_[node.left];
  const Node* constant = &nodes_[node.right];
  if (col->expr->kind != ExprKind::kColumnRef) std::swap(col, constant);
  if (col->expr->kind != ExprKind::kColumnRef) return std::nullopt;
  const Expr& c = *constant->expr;
  if (c.kind == ExprKind::kLiteral) return Pin{col->slot, &c.literal};
  if (c.kind == ExprKind::kParam && c.param_index >= 0 &&
      static_cast<size_t>(c.param_index) < params.size()) {
    return Pin{col->slot, &params[c.param_index]};
  }
  return std::nullopt;
}

std::optional<std::pair<Slot, Slot>> BoundExprs::AsColumnEquality(
    uint32_t id) const {
  const Node& node = nodes_[id];
  if (node.expr->kind != ExprKind::kBinary ||
      node.expr->bin_op != BinOp::kEq) {
    return std::nullopt;
  }
  const Node& left = nodes_[node.left];
  const Node& right = nodes_[node.right];
  if (left.expr->kind != ExprKind::kColumnRef ||
      right.expr->kind != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  return std::make_pair(left.slot, right.slot);
}

Result<const Value*> BoundExprs::Ref(uint32_t id, const sql::Row* const* tuple,
                                     const std::vector<Value>& params,
                                     Value* scratch) const {
  const Node& node = nodes_[id];
  const Expr& expr = *node.expr;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return &expr.literal;
    case ExprKind::kParam:
      if (expr.param_index < 0 ||
          static_cast<size_t>(expr.param_index) >= params.size()) {
        return Status::InvalidArgument(
            "missing value for parameter ?" +
            std::to_string(expr.param_index + 1) + " (got " +
            std::to_string(params.size()) + " parameters)");
      }
      return &params[expr.param_index];
    case ExprKind::kColumnRef:
      return &(*tuple[node.slot.input])[node.slot.column];
    case ExprKind::kUnary:
    case ExprKind::kBinary: {
      auto value = expr.kind == ExprKind::kUnary
                       ? EvalUnary(node, tuple, params)
                       : EvalBinary(node, tuple, params);
      if (!value.ok()) return value.status();
      *scratch = std::move(value).value();
      return scratch;
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Value> BoundExprs::EvalUnary(const Node& node,
                                    const sql::Row* const* tuple,
                                    const std::vector<Value>& params) const {
  Value scratch;
  auto operand = Ref(node.left, tuple, params, &scratch);
  if (!operand.ok()) return operand.status();
  const Value& v = *operand.value();
  switch (node.expr->un_op) {
    case UnOp::kNot:
      if (v.type() != ValueType::kBool) {
        return Status::InvalidArgument("NOT operand is not boolean");
      }
      return Value::Bool(!v.AsBool());
    case UnOp::kNeg:
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInt) return Value::Int(-v.AsInt());
      if (v.type() == ValueType::kDouble) {
        return Value::Double(-v.AsDouble());
      }
      return Status::InvalidArgument("negation of non-numeric value");
    case UnOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Status::Internal("unhandled unary op");
}

Result<Value> BoundExprs::EvalBinary(const Node& node,
                                     const sql::Row* const* tuple,
                                     const std::vector<Value>& params) const {
  const BinOp op = node.expr->bin_op;
  Value left_scratch;
  auto left = Ref(node.left, tuple, params, &left_scratch);
  if (!left.ok()) return left.status();
  // AND/OR evaluate lazily to short-circuit.
  if (op == BinOp::kAnd || op == BinOp::kOr) {
    if (left.value()->type() != ValueType::kBool) {
      return Status::InvalidArgument("AND/OR operand is not boolean");
    }
    const bool lval = left.value()->AsBool();
    if (op == BinOp::kAnd && !lval) return Value::Bool(false);
    if (op == BinOp::kOr && lval) return Value::Bool(true);
  }
  Value right_scratch;
  auto right = Ref(node.right, tuple, params, &right_scratch);
  if (!right.ok()) return right.status();
  const Value& a = *left.value();
  const Value& b = *right.value();

  switch (op) {
    case BinOp::kAnd:
    case BinOp::kOr:
      if (b.type() != ValueType::kBool) {
        return Status::InvalidArgument("AND/OR operand is not boolean");
      }
      return Value::Bool(b.AsBool());
    case BinOp::kLike: {
      if (a.is_null() || b.is_null()) return Value::Bool(false);
      if (a.type() != ValueType::kString ||
          b.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE requires string operands");
      }
      return Value::Bool(LikeMatch(a.AsString(), b.AsString()));
    }
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      if (a.is_null() || b.is_null()) return Value::Bool(false);
      const int c = a.Compare(b);
      switch (op) {
        case BinOp::kEq:
          return Value::Bool(c == 0);
        case BinOp::kNe:
          return Value::Bool(c != 0);
        case BinOp::kLt:
          return Value::Bool(c < 0);
        case BinOp::kLe:
          return Value::Bool(c <= 0);
        case BinOp::kGt:
          return Value::Bool(c > 0);
        default:
          return Value::Bool(c >= 0);
      }
    }
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!a.IsNumeric() || !b.IsNumeric()) {
        return Status::InvalidArgument("arithmetic on non-numeric value");
      }
      const bool as_double = a.type() == ValueType::kDouble ||
                             b.type() == ValueType::kDouble;
      if (as_double) {
        const double x = a.AsDouble(), y = b.AsDouble();
        switch (op) {
          case BinOp::kAdd:
            return Value::Double(x + y);
          case BinOp::kSub:
            return Value::Double(x - y);
          case BinOp::kMul:
            return Value::Double(x * y);
          default:
            if (y == 0.0) return Status::InvalidArgument("division by zero");
            return Value::Double(x / y);
        }
      }
      const int64_t x = a.AsInt(), y = b.AsInt();
      switch (op) {
        case BinOp::kAdd:
          return Value::Int(x + y);
        case BinOp::kSub:
          return Value::Int(x - y);
        case BinOp::kMul:
          return Value::Int(x * y);
        default:
          if (y == 0) return Status::InvalidArgument("division by zero");
          return Value::Int(x / y);
      }
    }
  }
  return Status::Internal("unhandled binary op");
}

Result<Value> BoundExprs::Eval(uint32_t id, const sql::Row* const* tuple,
                               const std::vector<Value>& params) const {
  Value scratch;
  auto value = Ref(id, tuple, params, &scratch);
  if (!value.ok()) return value.status();
  if (value.value() == &scratch) return scratch;
  return *value.value();
}

Result<bool> BoundExprs::Test(uint32_t id, const sql::Row* const* tuple,
                              const std::vector<Value>& params) const {
  Value scratch;
  auto value = Ref(id, tuple, params, &scratch);
  if (!value.ok()) return value.status();
  if (value.value()->type() != ValueType::kBool) {
    return Status::InvalidArgument("WHERE clause is not boolean");
  }
  return value.value()->AsBool();
}

Status BindConjuncts(const Expr* where, BoundExprs* exprs,
                     std::vector<Conjunct>* out) {
  if (where == nullptr) return Status::OK();
  if (where->kind == ExprKind::kBinary && where->bin_op == BinOp::kAnd) {
    SIREP_RETURN_IF_ERROR(BindConjuncts(where->left.get(), exprs, out));
    return BindConjuncts(where->right.get(), exprs, out);
  }
  auto id = exprs->Bind(*where);
  if (!id.ok()) return id.status();
  // A constant conjunct is checked with input 0's rows.
  const uint64_t inputs = exprs->Inputs(id.value());
  out->push_back(Conjunct{id.value(), inputs == 0 ? 1 : inputs, false});
  return Status::OK();
}

std::optional<sql::Key> PinKey(const BoundExprs& exprs, uint32_t input,
                               const sql::Schema& schema,
                               const std::vector<Value>& params,
                               std::vector<Conjunct>* conjuncts) {
  const uint64_t local = uint64_t{1} << input;
  // The first conjunct pinning `column`; a later one pinning it again
  // stays unenforced, so the row read is re-checked against it.
  auto first_pin = [&](size_t column) -> std::pair<Conjunct*, const Value*> {
    for (Conjunct& c : *conjuncts) {
      if (c.inputs != local) continue;
      auto pin = exprs.AsPin(c.id, params);
      if (pin.has_value() && pin->slot.column == column) {
        return {&c, pin->value};
      }
    }
    return {nullptr, nullptr};
  };
  sql::Key key;
  key.parts.reserve(schema.key_indexes().size());
  for (size_t column : schema.key_indexes()) {
    const auto [conjunct, value] = first_pin(column);
    if (conjunct == nullptr) return std::nullopt;
    key.parts.push_back(*value);
  }
  for (size_t column : schema.key_indexes()) {
    first_pin(column).first->enforced = true;
  }
  return key;
}

Result<Value> Eval(const Expr& expr, const sql::Schema* schema,
                   const sql::Row* row, const std::vector<Value>& params) {
  const ScopeInput input{{}, schema};
  BoundExprs exprs(schema != nullptr && row != nullptr
                       ? std::span<const ScopeInput>(&input, 1)
                       : std::span<const ScopeInput>());
  auto id = exprs.Bind(expr);
  if (!id.ok()) return id.status();
  return exprs.Eval(id.value(), &row, params);
}

Result<bool> Matches(const Expr* where, const sql::Schema& schema,
                     const sql::Row& row, const std::vector<Value>& params) {
  if (where == nullptr) return true;
  const ScopeInput input{{}, &schema};
  BoundExprs exprs(std::span<const ScopeInput>(&input, 1));
  auto id = exprs.Bind(*where);
  if (!id.ok()) return id.status();
  const sql::Row* tuple = &row;
  return exprs.Test(id.value(), &tuple, params);
}

std::optional<sql::Key> TryExtractKeyLookup(
    const sql::Schema& schema, const Expr* where,
    const std::vector<Value>& params) {
  const ScopeInput input{{}, &schema};
  BoundExprs exprs(std::span<const ScopeInput>(&input, 1));
  std::vector<Conjunct> conjuncts;
  if (where == nullptr || !BindConjuncts(where, &exprs, &conjuncts).ok()) {
    return std::nullopt;
  }
  return PinKey(exprs, 0, schema, params, &conjuncts);
}

}  // namespace sirep::engine
