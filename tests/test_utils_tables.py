"""Tests for ASCII table/series formatting."""

import pytest

from repro.utils.tables import format_series, format_table


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(("a", "bb"), [(1, 2), (33, 4)])
        lines = text.splitlines()
        assert lines[0].strip().startswith("a")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        text = format_table(("x",), [(1,)], title="T")
        assert text.splitlines()[0] == "T"

    def test_float_formatting(self):
        text = format_table(("x",), [(1.23456,)], float_fmt=".1f")
        assert "1.2" in text
        assert "1.23" not in text

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_empty_rows_ok(self):
        text = format_table(("a",), [])
        assert "a" in text


class TestFormatSeries:
    def test_pairs(self):
        text = format_series("s", [2, 4], [1.0, 2.0])
        assert "2=1.000" in text and "4=2.000" in text

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("s", [1], [1.0, 2.0])

