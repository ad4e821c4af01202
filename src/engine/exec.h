#ifndef SIREP_ENGINE_EXEC_H_
#define SIREP_ENGINE_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/schema.h"
#include "sql/value.h"

namespace sirep::engine {

/// Most FROM inputs one statement may name: a tuple is a fixed array of
/// row pointers and an expression's inputs are a 64-bit mask.
inline constexpr size_t kMaxInputs = 64;

/// A column of a FROM scope: column `column` of input `input` (FROM
/// order).
struct Slot {
  uint32_t input = 0;
  uint32_t column = 0;
  bool operator==(const Slot&) const = default;
};

/// One FROM input as column references see it. "alias.col" names a
/// column of the input with that alias; a plain name must match a column
/// of exactly one input.
struct ScopeInput {
  std::string_view alias;
  const sql::Schema* schema = nullptr;
};

/// Resolves a column name against `scope`. Unknown and ambiguous names
/// are kInvalidArgument.
Result<Slot> ResolveColumn(std::span<const ScopeInput> scope,
                           const std::string& name);

/// `column = constant`, the shape an access path can use.
struct Pin {
  Slot slot;
  const sql::Value* value = nullptr;
};

/// Expressions bound to one FROM scope. Bind resolves every column
/// reference once, to a Slot, so an unknown or ambiguous column fails
/// before any row is read and evaluation does no name lookups.
///
/// Evaluation takes a tuple: one row pointer per input, indexed by
/// Slot::input. Only the inputs an expression reads need to be set.
/// Semantics (deliberately small but consistent):
///  * arithmetic on INT stays INT; mixing with DOUBLE promotes to DOUBLE;
///    any NULL operand yields NULL; division by zero is an error.
///  * comparisons yield BOOL; a NULL operand yields FALSE (except via
///    IS NULL / IS NOT NULL).
///  * AND/OR/NOT require BOOL operands.
class BoundExprs {
 public:
  explicit BoundExprs(std::span<const ScopeInput> scope) : scope_(scope) {
    nodes_.reserve(kInlineNodes);
  }
  // nodes_ allocates from arena_, which lives in this object.
  BoundExprs(const BoundExprs&) = delete;
  BoundExprs& operator=(const BoundExprs&) = delete;

  /// Binds `expr`, which must outlive this object; returns its id.
  Result<uint32_t> Bind(const sql::Expr& expr);

  /// The inputs expression `id` reads, as a mask (bit i: input i).
  uint64_t Inputs(uint32_t id) const { return nodes_[id].inputs; }

  /// `id` as `column = literal` or `column = ?` (either side), when the
  /// parameter is supplied.
  std::optional<Pin> AsPin(uint32_t id,
                           const std::vector<sql::Value>& params) const;

  /// `id` as `column = column`.
  std::optional<std::pair<Slot, Slot>> AsColumnEquality(uint32_t id) const;

  Result<sql::Value> Eval(uint32_t id, const sql::Row* const* tuple,
                          const std::vector<sql::Value>& params) const;

  /// WHERE semantics: whether `id` is TRUE for `tuple`. A non-boolean
  /// result is an error.
  Result<bool> Test(uint32_t id, const sql::Row* const* tuple,
                    const std::vector<sql::Value>& params) const;

 private:
  struct Node {
    const sql::Expr* expr = nullptr;
    Slot slot;                       ///< kColumnRef
    uint32_t left = 0, right = 0;    ///< operands (kUnary: left only)
    uint64_t inputs = 0;
  };

  /// The value of node `id`: in place for column references, literals
  /// and parameters, else computed into `*scratch`.
  Result<const sql::Value*> Ref(uint32_t id, const sql::Row* const* tuple,
                                const std::vector<sql::Value>& params,
                                sql::Value* scratch) const;
  Result<sql::Value> EvalUnary(const Node& node, const sql::Row* const* tuple,
                               const std::vector<sql::Value>& params) const;
  Result<sql::Value> EvalBinary(const Node& node,
                                const sql::Row* const* tuple,
                                const std::vector<sql::Value>& params) const;

  /// Nodes a point predicate or an INSERT's values need: these bind
  /// without a heap allocation.
  static constexpr size_t kInlineNodes = 8;

  std::span<const ScopeInput> scope_;
  alignas(Node) std::byte inline_nodes_[kInlineNodes * sizeof(Node)];
  std::pmr::monotonic_buffer_resource arena_{inline_nodes_,
                                             sizeof(inline_nodes_)};
  std::pmr::vector<Node> nodes_{&arena_};
};

/// One bound WHERE conjunct.
struct Conjunct {
  uint32_t id = 0;        ///< in the BoundExprs that bound it
  uint64_t inputs = 0;    ///< BoundExprs::Inputs(id); input 0 if none
  bool enforced = false;  ///< an access path or join key guarantees it
};

/// Splits `where` (may be null) at its top-level ANDs and binds each
/// conjunct, in WHERE order.
Status BindConjuncts(const sql::Expr* where, BoundExprs* exprs,
                     std::vector<Conjunct>* out);

/// The primary key of input `input` when the conjuncts that read only it
/// pin every key column (`key column = constant`, first pin per column);
/// marks those conjuncts enforced. nullopt, marking nothing, otherwise.
std::optional<sql::Key> PinKey(const BoundExprs& exprs, uint32_t input,
                               const sql::Schema& schema,
                               const std::vector<sql::Value>& params,
                               std::vector<Conjunct>* conjuncts);

/// Binds `expr` against `schema` (no alias) and evaluates it on `row`.
/// Without a schema or row, a column reference is an error.
Result<sql::Value> Eval(const sql::Expr& expr, const sql::Schema* schema,
                        const sql::Row* row,
                        const std::vector<sql::Value>& params);

/// True if `where` (may be null => always true) accepts the row.
/// Binding and evaluation errors propagate.
Result<bool> Matches(const sql::Expr* where, const sql::Schema& schema,
                     const sql::Row& row,
                     const std::vector<sql::Value>& params);

/// PinKey over `where` on one table: the primary key its conjuncts pin,
/// enabling a point lookup instead of a scan, or nullopt (also when a
/// column does not bind).
std::optional<sql::Key> TryExtractKeyLookup(
    const sql::Schema& schema, const sql::Expr* where,
    const std::vector<sql::Value>& params);

}  // namespace sirep::engine

#endif  // SIREP_ENGINE_EXEC_H_
