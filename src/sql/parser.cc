#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "sql/lexer.h"

namespace sirep::sql {

namespace {

/// Recursive-descent parser over the token stream. Precedence (low→high):
/// OR < AND < NOT < comparison < add/sub < mul/div < unary minus < primary.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    const Token& tok = Peek();
    if (tok.type != TokenType::kKeyword) {
      return Error("expected a statement keyword");
    }
    Status st;
    if (tok.text == "CREATE") {
      if (Peek(1).type == TokenType::kKeyword && Peek(1).text == "INDEX") {
        stmt.kind = StatementKind::kCreateIndex;
        stmt.create_index = std::make_unique<CreateIndexStmt>();
        st = ParseCreateIndex(stmt.create_index.get());
      } else {
        stmt.kind = StatementKind::kCreateTable;
        stmt.create_table = std::make_unique<CreateTableStmt>();
        st = ParseCreateTable(stmt.create_table.get());
      }
    } else if (tok.text == "INSERT") {
      stmt.kind = StatementKind::kInsert;
      stmt.insert = std::make_unique<InsertStmt>();
      st = ParseInsert(stmt.insert.get());
    } else if (tok.text == "SELECT") {
      stmt.kind = StatementKind::kSelect;
      stmt.select = std::make_unique<SelectStmt>();
      st = ParseSelect(stmt.select.get());
    } else if (tok.text == "UPDATE") {
      stmt.kind = StatementKind::kUpdate;
      stmt.update = std::make_unique<UpdateStmt>();
      st = ParseUpdate(stmt.update.get());
    } else if (tok.text == "DELETE") {
      stmt.kind = StatementKind::kDelete;
      stmt.delete_ = std::make_unique<DeleteStmt>();
      st = ParseDelete(stmt.delete_.get());
    } else if (tok.text == "BEGIN") {
      stmt.kind = StatementKind::kBegin;
      Advance();
      st = Status::OK();
    } else if (tok.text == "COMMIT") {
      stmt.kind = StatementKind::kCommit;
      Advance();
      st = Status::OK();
    } else if (tok.text == "ROLLBACK" || tok.text == "ABORT") {
      stmt.kind = StatementKind::kRollback;
      Advance();
      st = Status::OK();
    } else {
      return Error("unsupported statement '" + tok.text + "'");
    }
    if (!st.ok()) return st;
    // Optional trailing semicolon, then end of input.
    if (Peek().type == TokenType::kSemicolon) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool MatchKeyword(const std::string& kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!MatchKeyword(kw)) return Error("expected " + kw);
    return Status::OK();
  }

  Status Expect(TokenType type, const std::string& what) {
    if (Peek().type != type) return Error("expected " + what);
    Advance();
    return Status::OK();
  }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("parse error at offset " +
                                   std::to_string(Peek().position) + ": " +
                                   msg);
  }

  Result<std::string> ParseIdentifier(const std::string& what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected " + what);
    }
    return Advance().text;
  }

  /// Parses `ident` or `ident.ident` into a single (possibly qualified)
  /// column name.
  Result<std::string> ParseColumnName(const std::string& what) {
    auto name = ParseIdentifier(what);
    if (!name.ok()) return name;
    std::string full = name.value();
    if (Peek().type == TokenType::kDot) {
      Advance();
      auto rest = ParseIdentifier("column name after '.'");
      if (!rest.ok()) return rest;
      full += ".";
      full += rest.value();
    }
    return full;
  }

  Status ParseCreateIndex(CreateIndexStmt* out) {
    Advance();  // CREATE
    SIREP_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
    auto name = ParseIdentifier("index name");
    if (!name.ok()) return name.status();
    out->index = name.value();
    SIREP_RETURN_IF_ERROR(ExpectKeyword("ON"));
    auto table = ParseIdentifier("table name");
    if (!table.ok()) return table.status();
    out->table = table.value();
    SIREP_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    auto col = ParseIdentifier("column name");
    if (!col.ok()) return col.status();
    out->column = col.value();
    SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return Status::OK();
  }

  Status ParseCreateTable(CreateTableStmt* out) {
    Advance();  // CREATE
    SIREP_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto name = ParseIdentifier("table name");
    if (!name.ok()) return name.status();
    out->table = name.value();
    SIREP_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    bool first = true;
    while (true) {
      if (!first) {
        if (Peek().type == TokenType::kComma) {
          Advance();
        } else {
          break;
        }
      }
      first = false;
      if (MatchKeyword("PRIMARY")) {
        SIREP_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        SIREP_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        while (true) {
          auto col = ParseIdentifier("key column");
          if (!col.ok()) return col.status();
          out->key_columns.push_back(col.value());
          if (Peek().type == TokenType::kComma) {
            Advance();
            continue;
          }
          break;
        }
        SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        continue;
      }
      auto col = ParseIdentifier("column name");
      if (!col.ok()) return col.status();
      Column column;
      column.name = col.value();
      if (Peek().type != TokenType::kKeyword) {
        return Error("expected column type");
      }
      const std::string type = Advance().text;
      if (type == "INT" || type == "BIGINT") {
        column.type = ValueType::kInt;
      } else if (type == "DOUBLE" || type == "FLOAT") {
        column.type = ValueType::kDouble;
      } else if (type == "VARCHAR" || type == "TEXT" || type == "STRING") {
        column.type = ValueType::kString;
        // Optional VARCHAR(n): length is parsed and ignored.
        if (Peek().type == TokenType::kLParen) {
          Advance();
          SIREP_RETURN_IF_ERROR(
              Expect(TokenType::kIntLiteral, "varchar length"));
          SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        }
      } else if (type == "BOOL" || type == "BOOLEAN") {
        column.type = ValueType::kBool;
      } else {
        return Error("unknown column type '" + type + "'");
      }
      out->columns.push_back(std::move(column));
    }
    SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    if (out->columns.empty()) return Error("table needs at least one column");
    if (out->key_columns.empty()) {
      return Error("table '" + out->table +
                   "' needs a PRIMARY KEY (writesets identify tuples by key)");
    }
    return Status::OK();
  }

  Status ParseInsert(InsertStmt* out) {
    Advance();  // INSERT
    SIREP_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    auto name = ParseIdentifier("table name");
    if (!name.ok()) return name.status();
    out->table = name.value();
    if (Peek().type == TokenType::kLParen) {
      Advance();
      while (true) {
        auto col = ParseIdentifier("column name");
        if (!col.ok()) return col.status();
        out->columns.push_back(col.value());
        if (Peek().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
      SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    SIREP_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    SIREP_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    while (true) {
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      out->values.push_back(std::move(expr).value());
      if (Peek().type == TokenType::kComma) {
        Advance();
        continue;
      }
      break;
    }
    SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return Status::OK();
  }

  Status ParseSelect(SelectStmt* out) {
    Advance();  // SELECT
    if (Peek().type == TokenType::kStar) {
      Advance();
      out->star = true;
    } else {
      while (true) {
        SelectItem item;
        if (Peek().type == TokenType::kKeyword &&
            (Peek().text == "COUNT" || Peek().text == "SUM" ||
             Peek().text == "AVG" || Peek().text == "MIN" ||
             Peek().text == "MAX")) {
          const std::string fn = Advance().text;
          if (fn == "COUNT") item.agg = AggFunc::kCount;
          else if (fn == "SUM") item.agg = AggFunc::kSum;
          else if (fn == "AVG") item.agg = AggFunc::kAvg;
          else if (fn == "MIN") item.agg = AggFunc::kMin;
          else item.agg = AggFunc::kMax;
          SIREP_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
          if (Peek().type == TokenType::kStar) {
            if (item.agg != AggFunc::kCount) {
              return Error("'*' only allowed in COUNT(*)");
            }
            Advance();
            item.star = true;
          } else {
            auto col = ParseColumnName("column name");
            if (!col.ok()) return col.status();
            item.column = col.value();
          }
          SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        } else {
          auto col = ParseColumnName("column name");
          if (!col.ok()) return col.status();
          item.column = col.value();
        }
        out->items.push_back(std::move(item));
        if (Peek().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }
    SIREP_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    SIREP_RETURN_IF_ERROR(ParseTableRef(out));
    // Comma joins and JOIN .. ON (inner joins only).
    while (true) {
      if (Peek().type == TokenType::kComma) {
        Advance();
        SIREP_RETURN_IF_ERROR(ParseTableRef(out));
        continue;
      }
      if (MatchKeyword("JOIN")) {
        SIREP_RETURN_IF_ERROR(ParseTableRef(out));
        if (MatchKeyword("ON")) {
          auto on = ParseExpr();
          if (!on.ok()) return on.status();
          // Fold the ON predicate into the WHERE tree.
          if (out->where == nullptr) {
            out->where = std::move(on).value();
          } else {
            out->where = MakeBinary(BinOp::kAnd, std::move(out->where),
                                    std::move(on).value());
          }
        }
        continue;
      }
      break;
    }
    if (MatchKeyword("WHERE")) {
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      if (out->where == nullptr) {
        out->where = std::move(expr).value();
      } else {
        out->where = MakeBinary(BinOp::kAnd, std::move(out->where),
                                std::move(expr).value());
      }
    }
    if (MatchKeyword("GROUP")) {
      SIREP_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        auto col = ParseColumnName("GROUP BY column");
        if (!col.ok()) return col.status();
        out->group_by.push_back(col.value());
        if (Peek().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (MatchKeyword("ORDER")) {
      SIREP_RETURN_IF_ERROR(ExpectKeyword("BY"));
      if (Peek().type == TokenType::kIntLiteral) {
        out->order_by_position = Advance().int_value;
        if (out->order_by_position <= 0) {
          return Error("ORDER BY position must be >= 1");
        }
      } else if (Peek().type == TokenType::kKeyword &&
                 (Peek().text == "COUNT" || Peek().text == "SUM" ||
                  Peek().text == "AVG" || Peek().text == "MIN" ||
                  Peek().text == "MAX")) {
        // ORDER BY an aggregate: normalize to the output label
        // ("sum(col)" / "count(*)") the executor produces.
        std::string fn = Advance().text;
        for (auto& c : fn) c = static_cast<char>(std::tolower(c));
        SIREP_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        std::string arg;
        if (Peek().type == TokenType::kStar) {
          Advance();
          arg = "*";
        } else {
          auto col = ParseColumnName("column name");
          if (!col.ok()) return col.status();
          arg = col.value();
        }
        SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        out->order_by = fn + "(" + arg + ")";
      } else {
        auto col = ParseColumnName("column name");
        if (!col.ok()) return col.status();
        out->order_by = col.value();
      }
      if (MatchKeyword("DESC")) {
        out->order_desc = true;
      } else {
        MatchKeyword("ASC");
      }
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Error("expected LIMIT count");
      }
      out->limit = Advance().int_value;
    }
    return Status::OK();
  }

  /// Parses `table [AS] [alias]` and appends it to the FROM list.
  Status ParseTableRef(SelectStmt* out) {
    auto name = ParseIdentifier("table name");
    if (!name.ok()) return name.status();
    TableRef ref;
    ref.table = name.value();
    ref.alias = ref.table;
    if (MatchKeyword("AS")) {
      auto alias = ParseIdentifier("alias");
      if (!alias.ok()) return alias.status();
      ref.alias = alias.value();
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    }
    out->tables.push_back(std::move(ref));
    return Status::OK();
  }

  Status ParseUpdate(UpdateStmt* out) {
    Advance();  // UPDATE
    auto name = ParseIdentifier("table name");
    if (!name.ok()) return name.status();
    out->table = name.value();
    SIREP_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      auto col = ParseIdentifier("column name");
      if (!col.ok()) return col.status();
      SIREP_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      out->assignments.emplace_back(col.value(), std::move(expr).value());
      if (Peek().type == TokenType::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (MatchKeyword("WHERE")) {
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      out->where = std::move(expr).value();
    }
    return Status::OK();
  }

  Status ParseDelete(DeleteStmt* out) {
    Advance();  // DELETE
    SIREP_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    auto name = ParseIdentifier("table name");
    if (!name.ok()) return name.status();
    out->table = name.value();
    if (MatchKeyword("WHERE")) {
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      out->where = std::move(expr).value();
    }
    return Status::OK();
  }

  // ---- expressions ----

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    auto left = ParseAnd();
    if (!left.ok()) return left;
    ExprPtr node = std::move(left).value();
    while (MatchKeyword("OR")) {
      auto right = ParseAnd();
      if (!right.ok()) return right;
      node = MakeBinary(BinOp::kOr, std::move(node), std::move(right).value());
    }
    return node;
  }

  Result<ExprPtr> ParseAnd() {
    auto left = ParseNot();
    if (!left.ok()) return left;
    ExprPtr node = std::move(left).value();
    while (MatchKeyword("AND")) {
      auto right = ParseNot();
      if (!right.ok()) return right;
      node = MakeBinary(BinOp::kAnd, std::move(node), std::move(right).value());
    }
    return node;
  }

  Result<ExprPtr> ParseNot() {
    if (MatchKeyword("NOT")) {
      auto operand = ParseNot();
      if (!operand.ok()) return operand;
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kUnary;
      node->un_op = UnOp::kNot;
      node->left = std::move(operand).value();
      return node;
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    auto left = ParseAddSub();
    if (!left.ok()) return left;
    ExprPtr node = std::move(left).value();
    // expr [NOT] IN (v, ...)  — sugar for an OR-chain of equalities.
    // expr [NOT] BETWEEN a AND b — sugar for expr >= a AND expr <= b.
    // expr [NOT] LIKE pattern.
    bool negated = false;
    const bool saw_not = Peek().type == TokenType::kKeyword &&
                         Peek().text == "NOT" &&
                         Peek(1).type == TokenType::kKeyword &&
                         (Peek(1).text == "IN" || Peek(1).text == "BETWEEN" ||
                          Peek(1).text == "LIKE");
    if (saw_not) {
      Advance();
      negated = true;
    }
    if (MatchKeyword("IN")) {
      SIREP_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      ExprPtr chain;
      while (true) {
        auto value = ParseAddSub();
        if (!value.ok()) return value;
        auto eq = MakeBinary(BinOp::kEq, CloneExpr(*node),
                             std::move(value).value());
        chain = chain == nullptr
                    ? std::move(eq)
                    : MakeBinary(BinOp::kOr, std::move(chain), std::move(eq));
        if (Peek().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
      SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return MaybeNegate(std::move(chain), negated);
    }
    if (MatchKeyword("BETWEEN")) {
      auto lo = ParseAddSub();
      if (!lo.ok()) return lo;
      SIREP_RETURN_IF_ERROR(ExpectKeyword("AND"));
      auto hi = ParseAddSub();
      if (!hi.ok()) return hi;
      auto ge = MakeBinary(BinOp::kGe, CloneExpr(*node), std::move(lo).value());
      auto le = MakeBinary(BinOp::kLe, std::move(node), std::move(hi).value());
      return MaybeNegate(
          MakeBinary(BinOp::kAnd, std::move(ge), std::move(le)), negated);
    }
    if (MatchKeyword("LIKE")) {
      auto pattern = ParseAddSub();
      if (!pattern.ok()) return pattern;
      return MaybeNegate(MakeBinary(BinOp::kLike, std::move(node),
                                    std::move(pattern).value()),
                         negated);
    }
    if (negated) return Error("expected IN, BETWEEN or LIKE after NOT");
    // IS [NOT] NULL
    if (MatchKeyword("IS")) {
      bool negated = MatchKeyword("NOT");
      SIREP_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto unary = std::make_unique<Expr>();
      unary->kind = ExprKind::kUnary;
      unary->un_op = negated ? UnOp::kIsNotNull : UnOp::kIsNull;
      unary->left = std::move(node);
      return ExprPtr(std::move(unary));
    }
    BinOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = BinOp::kEq;
        break;
      case TokenType::kNe:
        op = BinOp::kNe;
        break;
      case TokenType::kLt:
        op = BinOp::kLt;
        break;
      case TokenType::kLe:
        op = BinOp::kLe;
        break;
      case TokenType::kGt:
        op = BinOp::kGt;
        break;
      case TokenType::kGe:
        op = BinOp::kGe;
        break;
      default:
        return node;
    }
    Advance();
    auto right = ParseAddSub();
    if (!right.ok()) return right;
    return MakeBinary(op, std::move(node), std::move(right).value());
  }

  Result<ExprPtr> ParseAddSub() {
    auto left = ParseMulDiv();
    if (!left.ok()) return left;
    ExprPtr node = std::move(left).value();
    while (true) {
      BinOp op;
      if (Peek().type == TokenType::kPlus) {
        op = BinOp::kAdd;
      } else if (Peek().type == TokenType::kMinus) {
        op = BinOp::kSub;
      } else {
        return node;
      }
      Advance();
      auto right = ParseMulDiv();
      if (!right.ok()) return right;
      node = MakeBinary(op, std::move(node), std::move(right).value());
    }
  }

  Result<ExprPtr> ParseMulDiv() {
    auto left = ParseUnary();
    if (!left.ok()) return left;
    ExprPtr node = std::move(left).value();
    while (true) {
      BinOp op;
      if (Peek().type == TokenType::kStar) {
        op = BinOp::kMul;
      } else if (Peek().type == TokenType::kSlash) {
        op = BinOp::kDiv;
      } else {
        return node;
      }
      Advance();
      auto right = ParseUnary();
      if (!right.ok()) return right;
      node = MakeBinary(op, std::move(node), std::move(right).value());
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().type == TokenType::kMinus) {
      Advance();
      auto operand = ParseUnary();
      if (!operand.ok()) return operand;
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kUnary;
      node->un_op = UnOp::kNeg;
      node->left = std::move(operand).value();
      return ExprPtr(std::move(node));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    auto node = std::make_unique<Expr>();
    switch (tok.type) {
      case TokenType::kIntLiteral:
        node->kind = ExprKind::kLiteral;
        node->literal = Value::Int(tok.int_value);
        Advance();
        return ExprPtr(std::move(node));
      case TokenType::kDoubleLiteral:
        node->kind = ExprKind::kLiteral;
        node->literal = Value::Double(tok.double_value);
        Advance();
        return ExprPtr(std::move(node));
      case TokenType::kStringLiteral:
        node->kind = ExprKind::kLiteral;
        node->literal = Value::String(tok.text);
        Advance();
        return ExprPtr(std::move(node));
      case TokenType::kParam:
        node->kind = ExprKind::kParam;
        node->param_index = next_param_++;
        Advance();
        return ExprPtr(std::move(node));
      case TokenType::kIdentifier: {
        node->kind = ExprKind::kColumnRef;
        node->column = tok.text;
        Advance();
        if (Peek().type == TokenType::kDot) {
          Advance();
          if (Peek().type != TokenType::kIdentifier) {
            return Error("expected column name after '.'");
          }
          node->column += ".";
          node->column += Advance().text;
        }
        return ExprPtr(std::move(node));
      }
      case TokenType::kKeyword:
        if (tok.text == "NULL") {
          node->kind = ExprKind::kLiteral;
          node->literal = Value::Null();
          Advance();
          return ExprPtr(std::move(node));
        }
        if (tok.text == "TRUE" || tok.text == "FALSE") {
          node->kind = ExprKind::kLiteral;
          node->literal = Value::Bool(tok.text == "TRUE");
          Advance();
          return ExprPtr(std::move(node));
        }
        return Error("unexpected keyword '" + tok.text + "' in expression");
      case TokenType::kLParen: {
        Advance();
        auto inner = ParseExpr();
        if (!inner.ok()) return inner;
        SIREP_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return inner;
      }
      default:
        return Error("unexpected token in expression");
    }
  }

  static ExprPtr CloneExpr(const Expr& expr) {
    auto node = std::make_unique<Expr>();
    node->kind = expr.kind;
    node->literal = expr.literal;
    node->column = expr.column;
    node->param_index = expr.param_index;
    node->bin_op = expr.bin_op;
    node->un_op = expr.un_op;
    if (expr.left != nullptr) node->left = CloneExpr(*expr.left);
    if (expr.right != nullptr) node->right = CloneExpr(*expr.right);
    return node;
  }

  static ExprPtr MaybeNegate(ExprPtr expr, bool negated) {
    if (!negated) return expr;
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kUnary;
    node->un_op = UnOp::kNot;
    node->left = std::move(expr);
    return node;
  }

  static ExprPtr MakeBinary(BinOp op, ExprPtr left, ExprPtr right) {
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kBinary;
    node->bin_op = op;
    node->left = std::move(left);
    node->right = std::move(right);
    return node;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int next_param_ = 0;
};

}  // namespace

Result<Statement> Parse(const std::string& sql) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseStatement();
}

bool IsTransactionControl(std::string_view sql) {
  size_t begin = 0;
  while (begin < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[begin]))) {
    ++begin;
  }
  size_t end = begin;
  while (end < sql.size() &&
         (std::isalnum(static_cast<unsigned char>(sql[end])) ||
          sql[end] == '_')) {
    ++end;
  }
  const std::string_view word = sql.substr(begin, end - begin);
  for (std::string_view keyword : {"BEGIN", "COMMIT", "ROLLBACK", "ABORT"}) {
    if (std::equal(word.begin(), word.end(), keyword.begin(), keyword.end(),
                   [](char c, char k) {
                     return std::toupper(static_cast<unsigned char>(c)) == k;
                   })) {
      return true;
    }
  }
  return false;
}

}  // namespace sirep::sql
