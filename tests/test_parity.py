"""The comparer of tools/parity.py, on two small synthetic run trees."""
import importlib.util
import pickle
import shutil
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parent.parent / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def _tree(root: Path, value: float) -> Path:
    (root / "member_000").mkdir(parents=True)
    (root / "member_000" / "energy.csv").write_text(f"time,energy\n0.0,1.5\n0.001,{value!r}\n")
    (root / "rows.txt").write_text("StudyRow(metric='m', dt=0.01, value=2.5)\n")
    (root / "h_000000.fld").write_bytes(b"2\n2 2\n1.0 1.0\n" + np.arange(4.0).astype("<f8").tobytes())
    return root


def test_identical_trees_compare_identical(tmp_path):
    assert parity.compare_trees(_tree(tmp_path / "a", 0.1), _tree(tmp_path / "b", 0.1)) == "identical"


def test_a_one_ulp_change_in_a_csv_value_is_reported_with_its_size(tmp_path):
    value = 0.1
    bumped = float(np.nextafter(value, 1.0))
    report = parity.compare_trees(_tree(tmp_path / "a", value), _tree(tmp_path / "b", bumped))
    assert report == {"member_000/energy.csv": {"energy": {"max_abs": bumped - value,
                                                           "max_rel": (bumped - value) / bumped}}}


def test_a_missing_file_is_reported(tmp_path):
    a, b = _tree(tmp_path / "a", 0.1), _tree(tmp_path / "b", 0.1)
    shutil.rmtree(b / "member_000")
    (a / "rows.txt").unlink()
    assert parity.compare_trees(a, b) == {"member_000/energy.csv": "missing in second tree",
                                          "rows.txt": "missing in first tree"}


def test_a_pickled_dict_of_arrays_is_compared_per_key(tmp_path):
    arrays = {"2d scalar": np.array([0.5, 1.5]), "2d vector": np.arange(4.0).reshape(2, 2)}
    for name, bump in (("a", 0.0), ("b", 1.0)):
        (tmp_path / name).mkdir()
        value = dict(arrays, **{"2d vector": arrays["2d vector"] + np.array([[0.0, 0.0], [0.0, bump]])})
        (tmp_path / name / "sample_at.pkl").write_bytes(pickle.dumps(value))
    assert parity.compare_trees(tmp_path / "a", tmp_path / "b") == {
        "sample_at.pkl": {"2d vector": {"max_abs": 1.0, "max_rel": 0.25}}}
