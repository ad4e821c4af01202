#ifndef SIREP_SQL_PARSER_H_
#define SIREP_SQL_PARSER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "sql/ast.h"

namespace sirep::sql {

/// Parses one SQL statement (a trailing semicolon is allowed).
///
/// Grammar (case-insensitive keywords):
///   CREATE TABLE t (col TYPE [, ...] [, PRIMARY KEY (col [, ...])])
///   INSERT INTO t [(col, ...)] VALUES (expr, ...)
///   SELECT * | item [, ...] FROM t [WHERE expr]
///       [ORDER BY col [ASC|DESC]] [LIMIT n]
///   UPDATE t SET col = expr [, ...] [WHERE expr]
///   DELETE FROM t [WHERE expr]
///   BEGIN | COMMIT | ROLLBACK | ABORT
///
/// `item` is a column name or an aggregate COUNT(*)/COUNT(c)/SUM(c)/AVG(c)/
/// MIN(c)/MAX(c). Expressions support literals, column refs, '?' parameters,
/// arithmetic, comparisons, IS [NOT] NULL, AND/OR/NOT and parentheses.
Result<Statement> Parse(const std::string& sql);

/// True if `sql` opens with BEGIN, COMMIT, ROLLBACK or ABORT, in any
/// case, the keywords of the transaction-control statements. Looks at
/// the first word only, without parsing: a session runs these
/// statements itself and hands every other text on unparsed.
bool IsTransactionControl(std::string_view sql);

}  // namespace sirep::sql

#endif  // SIREP_SQL_PARSER_H_
