"""Lexer and recursive-descent parser for the video query language.

Grammar (keywords case-insensitive; identifiers may contain ``-``)::

    query      := [EXPLAIN] SELECT ident (',' ident)*
                  FROM '(' process ')'
                  [WHERE expr [FOR AT LEAST integer FRAMES]]
    process    := PROCESS ident PRODUCE ident (',' ident)*
                  USING ident '(' ident (',' ident)* [';' ident] ')'
                  [WITH ident '=' number (',' ident '=' number)*]
    expr       := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | primary
    primary    := '(' expr ')' | count_cmp | exists | field_cmp
    count_cmp  := COUNT '(' count_args ')' cmp number
    exists     := EXISTS '(' count_args ')'
    count_args := '*' | string [',' CONF cmp number]
    field_cmp  := ident cmp number
    cmp        := '=' | '!=' | '<' | '<=' | '>' | '>='
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.query.ast import (
    Comparison,
    CountExpr,
    ExistsExpr,
    Expr,
    FieldRef,
    LogicalExpr,
    ProcessClause,
    Query,
)

__all__ = [
    "ParseError",
    "parse_query",
    "tokenize",
    "Token",
    "format_parse_error",
]


class ParseError(ValueError):
    """Raised on any lexical or syntactic error, with position context,
    and on well-formed text that is not a valid query, without.

    Attributes:
        message: The bare diagnostic (no position suffix).
        position: 0-based character offset of the offending token in the
            query text, or ``None`` when unknown.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        suffix = f" (at position {position})" if position is not None else ""
        super().__init__(f"{message}{suffix}")
        self.message = message
        self.position = position


def format_parse_error(error: ParseError, text: str) -> str:
    """Render a parse error with a caret under the offending character.

    Produces the multi-line diagnostic the CLI prints::

        error: expected FROM
          SELECT frameID FORM (...)
                         ^
    """
    lines = [f"error: {error.message}"]
    position = error.position
    if position is None:
        return lines[0]
    position = min(max(position, 0), len(text))
    line_start = text.rfind("\n", 0, position) + 1
    line_end = text.find("\n", position)
    if line_end == -1:
        line_end = len(text)
    line = text[line_start:line_end]
    column = position - line_start
    lines.append(f"  {line}")
    lines.append("  " + " " * column + "^")
    return "\n".join(lines)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # KEYWORD | IDENT | NUMBER | STRING | OP | EOF
    value: str
    position: int


_KEYWORDS = {
    "explain",
    "select",
    "from",
    "where",
    "process",
    "produce",
    "using",
    "with",
    "and",
    "or",
    "not",
    "count",
    "exists",
    "conf",
    "for",
    "at",
    "least",
    "frames",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|!=|[=<>(),;*])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\-]*)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Lex a query string into tokens.

    Raises:
        ParseError: On any unrecognized character.
    """
    tokens: list[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r}", position=position
            )
        if match.lastgroup == "ws":
            position = match.end()
            continue
        value = match.group()
        if match.lastgroup == "ident":
            lowered = value.lower()
            kind = "KEYWORD" if lowered in _KEYWORDS else "IDENT"
            tokens.append(Token(kind, value, position))
        elif match.lastgroup == "number":
            tokens.append(Token("NUMBER", value, position))
        elif match.lastgroup == "string":
            tokens.append(Token("STRING", value[1:-1], position))
        else:
            tokens.append(Token("OP", value, position))
        position = match.end()
    tokens.append(Token("EOF", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != "EOF":
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._current
        near = f", near {token.value!r}" if token.kind != "EOF" else " at end of input"
        return ParseError(f"{message}{near}", position=token.position)

    def _expect_keyword(self, word: str) -> Token:
        token = self._current
        if token.kind == "KEYWORD" and token.value.lower() == word:
            return self._advance()
        raise self._error(f"expected {word.upper()}")

    def _expect_op(self, op: str) -> Token:
        token = self._current
        if token.kind == "OP" and token.value == op:
            return self._advance()
        raise self._error(f"expected {op!r}")

    def _expect_ident(self) -> str:
        token = self._current
        if token.kind == "IDENT":
            return self._advance().value
        raise self._error("expected an identifier")

    def _expect_number(self) -> float:
        token = self._current
        if token.kind == "NUMBER":
            return float(self._advance().value)
        raise self._error("expected a number")

    def _expect_integer(self) -> int:
        token = self._current
        if token.kind == "NUMBER" and token.value.isdigit():
            return int(self._advance().value)
        raise self._error("expected a whole number")

    def _match_keyword(self, word: str) -> bool:
        token = self._current
        if token.kind == "KEYWORD" and token.value.lower() == word:
            self._advance()
            return True
        return False

    def _match_op(self, op: str) -> bool:
        token = self._current
        if token.kind == "OP" and token.value == op:
            self._advance()
            return True
        return False

    def _ident_list(self) -> list[str]:
        names = [self._expect_ident()]
        while self._match_op(","):
            names.append(self._expect_ident())
        return names

    # ---- grammar productions -------------------------------------------

    def parse(self) -> Query:
        explain = self._match_keyword("explain")
        self._expect_keyword("select")
        select = tuple(self._ident_list())
        self._expect_keyword("from")
        self._expect_op("(")
        process = self._process()
        self._expect_op(")")
        where: Expr | None = None
        min_duration = 1
        if self._match_keyword("where"):
            where = self._expr()
            # Temporal qualifier: FOR AT LEAST <n> FRAMES.
            if self._match_keyword("for"):
                self._expect_keyword("at")
                self._expect_keyword("least")
                min_duration = self._expect_integer()
                self._expect_keyword("frames")
        if self._current.kind != "EOF":
            raise self._error("unexpected trailing input")
        try:
            return Query(
                select=select,
                process=process,
                where=where,
                min_duration=min_duration,
                explain=explain,
            )
        except ValueError as exc:
            # A selected column the PROCESS clause does not produce, or a
            # zero FOR AT LEAST count: well-formed text, no single token.
            raise ParseError(str(exc)) from exc

    def _process(self) -> ProcessClause:
        self._expect_keyword("process")
        video = self._expect_ident()
        self._expect_keyword("produce")
        produce = tuple(self._ident_list())
        self._expect_keyword("using")
        algorithm = self._expect_ident()
        self._expect_op("(")
        models = [self._expect_ident()]
        while self._match_op(","):
            models.append(self._expect_ident())
        reference: str | None = None
        if self._match_op(";"):
            reference = self._expect_ident()
        self._expect_op(")")
        params = {}
        if self._match_keyword("with"):
            name = self._expect_ident()
            self._expect_op("=")
            params[name.lower()] = self._expect_number()
            while self._match_op(","):
                name = self._expect_ident()
                self._expect_op("=")
                params[name.lower()] = self._expect_number()
        return ProcessClause(
            video=video,
            produce=produce,
            algorithm=algorithm,
            models=tuple(models),
            reference=reference,
            params=params,
        )

    def _expr(self) -> Expr:
        left = self._and_expr()
        operands = [left]
        while self._match_keyword("or"):
            operands.append(self._and_expr())
        if len(operands) == 1:
            return left
        return LogicalExpr("or", tuple(operands))

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        operands = [left]
        while self._match_keyword("and"):
            operands.append(self._not_expr())
        if len(operands) == 1:
            return left
        return LogicalExpr("and", tuple(operands))

    def _not_expr(self) -> Expr:
        if self._match_keyword("not"):
            return LogicalExpr("not", (self._not_expr(),))
        return self._primary()

    def _comparison_op(self) -> str:
        token = self._current
        if token.kind == "OP" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            return self._advance().value
        raise self._error("expected a comparison operator")

    def _count_args(self) -> tuple[str | None, float]:
        """``'*'`` or ``'label' [, CONF cmp number]``; returns (label, floor)."""
        label: str | None = None
        if self._match_op("*"):
            label = None
        elif self._current.kind == "STRING":
            label = self._advance().value
        else:
            raise self._error("expected '*' or a quoted label")
        min_confidence = 0.0
        if self._match_op(","):
            self._expect_keyword("conf")
            op = self._comparison_op()
            if op not in (">", ">="):
                raise self._error("confidence floors use > or >=")
            min_confidence = self._expect_number()
        return label, min_confidence

    def _primary(self) -> Expr:
        if self._match_op("("):
            inner = self._expr()
            self._expect_op(")")
            return inner
        if self._match_keyword("count"):
            self._expect_op("(")
            label, floor = self._count_args()
            self._expect_op(")")
            op = self._comparison_op()
            value = self._expect_number()
            return Comparison(CountExpr(label, floor), op, value)
        if self._match_keyword("exists"):
            self._expect_op("(")
            label, floor = self._count_args()
            self._expect_op(")")
            return ExistsExpr(label, floor)
        if self._current.kind == "IDENT":
            field = self._expect_ident()
            op = self._comparison_op()
            value = self._expect_number()
            return Comparison(FieldRef(field), op, value)
        raise self._error("expected a predicate")


def parse_query(text: str) -> Query:
    """Parse a query string into a :class:`~repro.query.ast.Query`.

    Raises:
        ParseError: On lexical or syntactic errors, with position info,
            and on a query the AST rejects (a selected column that is not
            produced, ``FOR AT LEAST 0 FRAMES``), without.
    """
    return _Parser(tokenize(text)).parse()
