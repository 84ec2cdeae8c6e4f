"""Compare this checkout's outputs with those of a parent commit.

    python3 tools/parity.py --parent HEAD~1

Run from the root of a source checkout.  The parent tree is extracted with
``git archive REV``.  Each output is made in a fresh subprocess with
``PYTHONPATH`` set to its own tree's ``src``, so neither side imports the
other's package, and the change side is made twice.  The outputs:

- every `run_study()` row (repr) and `vorticity_fixed_h_study()`;
- the run trees, without ``manifest.txt``, of ``configs/tsw.cfg`` with
  ``run.ensemble=4``, at 256^2 (``grid.points=256 256``, ``run.dt=6.25e-5``,
  ``run.n_steps=32``, ``run.snapshot_interval=16``), with
  ``noise.drift=salt`` and with ``run.nform_mode=pointwise``; of
  ``configs/advection.cfg``; and of the ``perturbation_only`` model of
  ``configs/verify.cfg`` with ``scalar.tensor_class`` set to ``zero_form``,
  ``n_form`` and ``n_vector``;
- a pickle of ``weak_advection_study(members=64, seed=9)``;
- a pickle of `calculus.sample_at` of seeded scalar and vector fields, one
  field and one batched over 3 members, at seeded points off the nodes in
  1D, 2D and 3D; each dimension's single-field point set spans more than
  one interpolation chunk;
- the text of ``stochmap verify configs/verify.cfg --fast``.

The last line of standard output is one JSON object.  Per output it says
``identical``, or gives per differing file the largest absolute and relative
difference of its numbers: per column of a CSV file, per line of a text
file, over all values of a ``.fld`` snapshot or a pickle (per key of a pickled
dict of arrays).  ``rerun_identical``
says whether the change side's second run was byte-identical to its first.
"""
import argparse
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def _study(expr: str, filename: str):
    """The command line that writes ``expr``, a str or bytes made from
    `stochmap.convergence`, to ``filename`` in the output directory."""
    code = ("import pickle, sys; from stochmap.convergence import *; result = " + expr + "; "
            f"open(sys.argv[1] + '/{filename}', 'wb' if isinstance(result, bytes) else 'w').write(result)")
    return lambda out: [sys.executable, "-c", code, out]


def _simulate(config: str, *settings: str):
    """The command line that runs ``config`` with each ``--set`` of
    ``settings``, writing its run tree to the output directory."""
    sets = [arg for setting in settings for arg in ("--set", setting)]
    return lambda out: [sys.executable, "-m", "stochmap.cli", "simulate", config, *sets,
                        "--set", f"output.directory={out}"]


# sample_at of a scalar and a vector field, one field and a 3-member batch, at
# off-node points in each dimension; 140 000 / 40 000 / 9000 points are more
# than one chunk (2^17 / 2^15 / 8192 points)
_SAMPLE_AT = """
import pickle, sys
import numpy as np
from stochmap.calculus import sample_at
from stochmap.grid import Grid, ScalarField, VectorField
rng = np.random.default_rng(24)
result = {}
for shape, extents, n in (((7,), (3.0,), 140_000), ((12, 9), (2.0, 5.0), 40_000),
                          ((6, 9, 5), (1.0, 2.5, 0.7), 9_000)):
    g = Grid(shape, extents)
    for members, points in (((), n), ((3,), 5_000)):
        pts = rng.uniform(-1.0, 2.0, members + (points, g.dim)) * np.asarray(extents)
        scalar = ScalarField(g, rng.standard_normal(members + shape))
        vector = VectorField.from_arrays(g, [rng.standard_normal(members + shape) for _ in range(g.dim)])
        for kind, field in (("scalar", scalar), ("vector", vector)):
            result[f"{g.dim}d {kind} {members}"] = sample_at(field, pts)
open(sys.argv[1] + "/sample_at.pkl", "wb").write(pickle.dumps(result))
"""

# output name -> its command line, given the directory the output goes to
OUTPUTS = {
    "run_study": _study("''.join(repr(row) + chr(10) for row in run_study())", "rows.txt"),
    "vorticity_fixed_h_study": _study("repr(vorticity_fixed_h_study())", "values.txt"),
    "weak_advection_study": _study("pickle.dumps(weak_advection_study(members=64, seed=9))", "weak.pkl"),
    "sample_at": lambda out: [sys.executable, "-c", _SAMPLE_AT, out],
    "tsw_ensemble_4": _simulate("configs/tsw.cfg", "run.ensemble=4"),
    "tsw_256": _simulate("configs/tsw.cfg", "grid.points=256 256", "run.dt=6.25e-5", "run.n_steps=32",
                         "run.snapshot_interval=16"),
    "tsw_salt": _simulate("configs/tsw.cfg", "noise.drift=salt"),
    "tsw_pointwise": _simulate("configs/tsw.cfg", "run.nform_mode=pointwise"),
    "advection": _simulate("configs/advection.cfg"),
    **{f"perturbation_only_{cls}": _simulate("configs/verify.cfg", f"scalar.tensor_class={cls}")
       for cls in ("zero_form", "n_form", "n_vector")},
    "verify_fast": lambda out: [sys.executable, "-m", "stochmap.cli", "verify", "configs/verify.cfg", "--fast"],
}
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def make_outputs(tree: Path, dest: Path) -> None:
    """Each output into ``dest / name``, with its standard output (the output
    directory's path replaced by OUT) and without ``manifest.txt``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **{var: "1" for var in THREADS}}
    for name, command in OUTPUTS.items():
        out = dest / name
        out.mkdir(parents=True)
        done = subprocess.run(command(str(out)), cwd=tree, env=env, capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"{name} failed in {tree} (exit {done.returncode}):\n{done.stderr}")
        (out / "stdout.txt").write_text(done.stdout.replace(str(out), "OUT"))
        (out / "manifest.txt").unlink(missing_ok=True)


def _numbers(path: Path) -> dict[str, list[float]]:
    """The file's numbers, by series: per CSV column, per line of text, all
    values of a .fld snapshot or a pickle."""
    data = path.read_bytes()
    if path.suffix == ".fld":
        header = data.split(b"\n", 3)
        return {"values": np.frombuffer(header[3], dtype="<f8").tolist()}
    if path.suffix == ".pkl":
        value = pickle.loads(data)
        if isinstance(value, dict) and all(isinstance(v, np.ndarray) for v in value.values()):
            return {key: v.ravel().tolist() for key, v in value.items()}
        return {"values": [float(x) for x in NUMBER.findall(repr(value))]}
    lines = data.decode().splitlines()
    if path.suffix == ".csv":
        columns = lines[0].split(",")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        return {c: [row[k] for row in rows] for k, c in enumerate(columns)}
    return {f"line {k + 1}": [float(x) for x in NUMBER.findall(line)] for k, line in enumerate(lines)}


def _difference(a: Path, b: Path) -> dict:
    try:
        na, nb = _numbers(a), _numbers(b)
    except (ValueError, UnicodeDecodeError, IndexError, pickle.UnpicklingError):
        return {"differs": "not numeric"}
    out = {}
    for series in sorted(set(na) | set(nb)):
        x, y = np.asarray(na.get(series, []), float), np.asarray(nb.get(series, []), float)
        if x.shape != y.shape:
            out[series] = {"differs": f"{x.size} values against {y.size}"}
        elif x.tobytes() != y.tobytes():
            with np.errstate(invalid="ignore"):     # inf - inf where both sides are inf
                gap = np.abs(x - y)
            scale = np.maximum(np.abs(x), np.abs(y))
            rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
            out[series] = {"max_abs": float(np.nanmax(gap)), "max_rel": float(np.nanmax(rel))}
    return out or {"differs": "in bytes only (text or layout)"}


def compare_trees(a: Path, b: Path) -> str | dict:
    """``identical``, or per differing file its difference: ``missing in``
    the side without it, or the largest differences of its numbers."""
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    report = {}
    for rel in files:
        pa, pb = a / rel, b / rel
        if not pa.is_file() or not pb.is_file():
            report[str(rel)] = f"missing in {'first' if not pa.is_file() else 'second'} tree"
        elif pa.read_bytes() != pb.read_bytes():
            report[str(rel)] = _difference(pa, pb)
    return report or "identical"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "parent_tree", filter="data")
        for side, tree in (("parent", tmp / "parent_tree"), ("change", ROOT), ("rerun", ROOT)):
            make_outputs(tree, tmp / side)
        outputs = {name: compare_trees(tmp / "parent" / name, tmp / "change" / name) for name in OUTPUTS}
        print(json.dumps({"parent": args.parent, "outputs": outputs,
                          "identical": all(v == "identical" for v in outputs.values()),
                          "rerun_identical": compare_trees(tmp / "change", tmp / "rerun") == "identical"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
