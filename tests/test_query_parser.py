"""Unit tests for the query lexer and parser."""

import pytest

from repro.query.ast import Comparison, CountExpr, ExistsExpr, FieldRef, LogicalExpr
from repro.query.parser import (
    ParseError,
    format_parse_error,
    parse_query,
    tokenize,
)


class TestTokenize:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT frameID FROM")
        kinds = [t.kind for t in tokens]
        assert kinds == ["KEYWORD", "IDENT", "KEYWORD", "EOF"]

    def test_string_literals(self):
        tokens = tokenize("'car' \"bus\"")
        assert tokens[0].value == "car"
        assert tokens[1].value == "bus"

    def test_numbers(self):
        tokens = tokenize("0.5 42")
        assert [t.value for t in tokens[:2]] == ["0.5", "42"]

    def test_operators(self):
        tokens = tokenize(">= <= != = < > ( ) , ; *")
        assert [t.value for t in tokens[:-1]] == [
            ">=", "<=", "!=", "=", "<", ">", "(", ")", ",", ";", "*",
        ]

    def test_hyphenated_identifiers(self):
        tokens = tokenize("SW-MES yolov7-tiny-night")
        assert tokens[0].value == "SW-MES"
        assert tokens[1].value == "yolov7-tiny-night"

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("SELECT @")


QUERY = """
SELECT frameID
FROM (PROCESS inputVideo PRODUCE frameID, Detections
      USING MES(OD1, OD2, OD3; REF) WITH gamma=5)
WHERE COUNT('car') >= 2
"""


class TestParseQuery:
    def test_full_query(self):
        query = parse_query(QUERY)
        assert query.select == ("frameID",)
        process = query.process
        assert process.video == "inputVideo"
        assert process.produce == ("frameID", "Detections")
        assert process.algorithm == "MES"
        assert process.models == ("OD1", "OD2", "OD3")
        assert process.reference == "REF"
        assert process.params == {"gamma": 5.0}
        assert isinstance(query.where, Comparison)

    def test_no_where(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1))"
        )
        assert query.where is None

    def test_no_reference(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING MES(m1, m2))"
        )
        assert query.process.reference is None

    def test_keywords_case_insensitive(self):
        query = parse_query(
            "select frameID from (process v produce frameID using mes(m1))"
        )
        assert query.process.algorithm == "mes"

    def test_count_star(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
            "WHERE COUNT(*) > 0"
        )
        assert isinstance(query.where, Comparison)
        assert query.where.left == CountExpr(None, 0.0)

    def test_count_with_confidence_floor(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
            "WHERE COUNT('car', conf > 0.5) >= 2"
        )
        assert query.where.left == CountExpr("car", 0.5)

    def test_exists(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
            "WHERE EXISTS('pedestrian', conf >= 0.3)"
        )
        assert query.where == ExistsExpr("pedestrian", 0.3)

    def test_logical_composition(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
            "WHERE COUNT('car') > 1 AND (EXISTS('bus') OR NOT EXISTS('truck'))"
        )
        where = query.where
        assert isinstance(where, LogicalExpr) and where.op == "and"
        inner = where.operands[1]
        assert isinstance(inner, LogicalExpr) and inner.op == "or"
        negation = inner.operands[1]
        assert isinstance(negation, LogicalExpr) and negation.op == "not"

    def test_field_comparison(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
            "WHERE frameID < 100"
        )
        assert query.where == Comparison(FieldRef("frameID"), "<", 100.0)

    def test_with_multiple_params(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID "
            "USING SW-MES(m1, m2) WITH window=50, gamma=3)"
        )
        assert query.process.params == {"window": 50.0, "gamma": 3.0}

    def test_select_must_be_produced(self):
        with pytest.raises(ParseError, match="not produced") as excinfo:
            parse_query(
                "SELECT score FROM (PROCESS v PRODUCE frameID USING BF(m1))"
            )
        assert excinfo.value.position is None  # no single offending token

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_query(
                "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) junk extra"
            )

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse_query("SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)")

    def test_empty_model_list_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF())")

    def test_confidence_floor_requires_gt(self):
        with pytest.raises(ParseError, match="floors"):
            parse_query(
                "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
                "WHERE COUNT('car', conf < 0.5) > 1"
            )


class TestExplainPrefix:
    def test_explain_flag_set(self):
        query = parse_query(
            "EXPLAIN SELECT frameID FROM "
            "(PROCESS v PRODUCE frameID USING BF(m1))"
        )
        assert query.explain is True

    def test_explain_defaults_false(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1))"
        )
        assert query.explain is False

    def test_explain_case_insensitive(self):
        query = parse_query(
            "explain select frameID from (process v produce frameID using bf(m1))"
        )
        assert query.explain is True


class TestErrorPositions:
    def test_unexpected_character_position(self):
        text = "SELECT @"
        with pytest.raises(ParseError) as info:
            tokenize(text)
        assert info.value.position == text.index("@")

    def test_syntax_error_carries_token_position(self):
        text = "SELECT frameID FORM (PROCESS v PRODUCE frameID USING BF(m1))"
        with pytest.raises(ParseError) as info:
            parse_query(text)
        assert info.value.position == text.index("FORM")
        assert "(at position" in str(info.value)

    def test_eof_error_position_is_end_of_text(self):
        text = "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)"
        with pytest.raises(ParseError) as info:
            parse_query(text)
        assert info.value.position is not None
        assert info.value.position >= len(text.rstrip()) - 1

    def test_message_attribute_has_no_position_suffix(self):
        with pytest.raises(ParseError) as info:
            parse_query("SELECT frameID FORM (PROCESS v PRODUCE frameID USING BF(m1))")
        assert "(at position" not in info.value.message


class TestFormatParseError:
    def test_caret_points_at_offending_token(self):
        text = "SELECT frameID FORM (PROCESS v PRODUCE frameID USING BF(m1))"
        with pytest.raises(ParseError) as info:
            parse_query(text)
        rendered = format_parse_error(info.value, text)
        lines = rendered.splitlines()
        assert lines[0].startswith("error: ")
        assert lines[1] == f"  {text}"
        assert lines[2].index("^") - 2 == text.index("FORM")

    def test_caret_on_correct_line_of_multiline_query(self):
        text = "SELECT frameID\nFORM (PROCESS v PRODUCE frameID USING BF(m1))"
        with pytest.raises(ParseError) as info:
            parse_query(text)
        rendered = format_parse_error(info.value, text)
        lines = rendered.splitlines()
        assert lines[1] == "  FORM (PROCESS v PRODUCE frameID USING BF(m1))"
        assert lines[2] == "  ^"

    def test_positionless_error_renders_message_only(self):
        error = ParseError("boom")
        assert format_parse_error(error, "whatever") == "error: boom"
