"""The line splitter of tools/linecount.py."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("linecount", ROOT / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecount)

SYNTHETIC = '''"""Module docstring,

on three lines."""
import os  # a trailing comment leaves a code line

# a comment line


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """not a
        docstring"""
        return text
'''


def test_each_module_splits_into_its_line_count():
    report = linecount.count_package(ROOT / "src" / "stochmap")
    for name, counts in report["files"].items():
        lines = len((ROOT / "src" / "stochmap" / name).read_text().splitlines())
        assert counts["lines"] == lines, name
        assert counts["code"] + counts["docstring"] + counts["comment"] + counts["blank"] == lines, name
        assert counts["module_docstring"] <= counts["docstring"], name
    for kind in linecount.KINDS:
        assert report["total"][kind] == sum(counts[kind] for counts in report["files"].values())


def test_a_synthetic_module_splits_by_kind():
    assert linecount.split_source(SYNTHETIC) == {
        "code": 6, "docstring": 6, "comment": 1, "blank": 4, "lines": 17, "module_docstring": 3}
