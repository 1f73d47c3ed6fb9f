"""The repository gate's stdlib ast scans (``tools/check.py``)."""

import importlib.util
from pathlib import Path
from textwrap import dedent

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location(
        "repo_check", REPO / "tools" / "check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scan(check, tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(dedent(source))
    return check.unused_imports(path)


class TestUnusedImports:
    def test_flags_an_unused_import_and_keeps_a_used_one(self, check, tmp_path):
        found = scan(check, tmp_path, """
            import os
            import sys
            from json import dumps, loads

            print(sys.argv, dumps)
        """)
        assert found == [(2, "os"), (4, "loads")]

    def test_honours_dunder_all_and_explicit_reexports(self, check, tmp_path):
        assert scan(check, tmp_path, """
            from json import dumps
            from json import loads as loads

            __all__ = ["dumps"]
        """) == []

    def test_honours_type_checking_string_annotations_and_cast(
        self, check, tmp_path
    ):
        found = scan(check, tmp_path, """
            from typing import TYPE_CHECKING, cast

            if TYPE_CHECKING:
                from decimal import Decimal
                from fractions import Fraction
                from pathlib import Path
                from uuid import UUID

            def f(x: "Decimal") -> "list[Fraction]":
                return cast("Path", x)
        """)
        assert found == [(8, "UUID")]

    def test_honours_noqa_and_ignores_future_imports(self, check, tmp_path):
        assert scan(check, tmp_path, """
            from __future__ import annotations

            import os  # noqa: F401
            from json import (  # noqa: F401
                dumps,
            )
        """) == []

    def test_the_repository_is_clean(self, check):
        assert check.unused_import_check() == "ok"


def scan_locals(check, tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(dedent(source))
    return check.unused_locals(path)


class TestUnusedLocals:
    def test_flags_a_plain_store_never_read(self, check, tmp_path):
        found = scan_locals(check, tmp_path, """
            def f(grid):
                r = grid.radius
                lx = grid.shape[2]
                total: int = 0
                return lx
        """)
        assert found == [(3, "r"), (5, "total")]

    def test_exempts_tuples_loops_underscores_and_declared_names(
        self, check, tmp_path
    ):
        assert scan_locals(check, tmp_path, """
            counter = 0

            def f(pairs):
                global counter
                a, b = pairs[0]
                for x in pairs:
                    pass
                _unused = 1
                counter = 2
        """) == []

    def test_reads_in_closures_and_augmented_stores_count(self, check, tmp_path):
        assert scan_locals(check, tmp_path, """
            def outer():
                seen = []
                step = 1
                step += 1

                def inner():
                    return seen
                return inner
        """) == []

    def test_module_and_class_stores_are_not_locals(self, check, tmp_path):
        assert scan_locals(check, tmp_path, """
            CONSTANT = 1

            class C:
                attr = 2
        """) == []

    def test_the_repository_is_clean(self, check):
        assert check.unused_local_check() == "ok"


def plant(root, files):
    """Write ``{relative path: source}`` under ``root``; the check's
    non-test directories that are absent stay absent."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source))
    for top in ("src", "examples", "benchmarks", "bench", "tools"):
        (root / top).mkdir(exist_ok=True)
    return root


class TestTestOnlyDefinitions:
    def test_flags_planted_definitions_only_tests_use(self, check, tmp_path):
        root = plant(tmp_path, {
            "src/pkg/mod.py": """
                def helper():
                    return 1

                def oracle(n):
                    return oracle(n - 1) if n else 0

                class Report:
                    def __init__(self):
                        self.rows = []

                    def render(self):
                        return helper()

                    def primary(self):
                        return self.rows[0]

                def reached_by_name():
                    pass
            """,
            "tools/run.py": """
                from pkg.mod import Report

                print(Report().render())
                TARGET = "pkg.mod:reached_by_name"
            """,
            "tests/test_mod.py": """
                from pkg.mod import Report, oracle

                def test_it():
                    assert oracle(3) == 0
                    Report().primary()
            """,
        })
        # ``oracle`` calls itself, ``primary`` only the tests call; the
        # dunder, a call from tools and a "module:qualname" string count.
        assert check.test_only_definitions(root) == [
            ("src/pkg/mod.py", 5, "oracle"),
            ("src/pkg/mod.py", 15, "primary"),
        ]

    def test_prose_strings_do_not_count_as_uses(self, check, tmp_path):
        root = plant(tmp_path, {
            "src/pkg/mod.py": '''
                def schedule():
                    """Draw the schedule."""

                MESSAGE = "no schedule was drawn"
            ''',
        })
        assert check.test_only_definitions(root) == [
            ("src/pkg/mod.py", 2, "schedule"),
        ]

    def test_the_repository_is_clean(self, check):
        assert check.test_only_check() == "ok"
