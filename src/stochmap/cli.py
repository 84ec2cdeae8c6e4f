"""Command-line entry points.

    stochmap simulate <config> [--set section.key=value ...]
    stochmap converge <config> --dts 1e-2,5e-3,2.5e-3,1.25e-3 [--metrics a,b]
    stochmap verify   <config> [--fast]
    stochmap inspect  <snapshot.fld>

Exit codes: 0 success, 1 configuration error, 2 runtime abort (a guard fired
or the state went non-finite), 3 verification failure.  The output
directory may be overridden with the STOCHMAP_OUTDIR environment variable.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .convergence import DEFAULT_DTS, STUDY_METRICS, rows_to_csv, run_study
from .fldio import describe_field
from .runner import RuntimeAbort, resolve_output_dir, run_simulation
from .verify import report_lines, verify_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stochmap", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured simulation")
    sim.add_argument("config", type=Path)
    sim.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="SECTION.KEY=VALUE", help="override a config key")

    conv = sub.add_parser("converge", help="order-of-accuracy study")
    conv.add_argument("config", type=Path)
    conv.add_argument("--set", dest="overrides", action="append", default=[])
    conv.add_argument("--dts", default=",".join(str(dt) for dt in DEFAULT_DTS),
                      help="comma-separated dt ladder (need at least 3)")
    conv.add_argument("--metrics", default=",".join(STUDY_METRICS),
                      help="comma-separated metric names")

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("config", type=Path)
    ver.add_argument("--set", dest="overrides", action="append", default=[])
    ver.add_argument("--fast", action="store_true",
                     help="skip the slow convergence/weak-limit checks")

    ins = sub.add_parser("inspect", help="describe a .fld snapshot")
    ins.add_argument("snapshot", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            print(describe_field(args.snapshot), end="")
            return EXIT_OK
        config = load_config(args.config, args.overrides)
    except (ConfigError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "simulate":
        try:
            result = run_simulation(config)
        except RuntimeAbort as err:
            print(f"runtime abort: {err}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"wrote {result.output_dir} ({result.n_steps} steps, "
              f"{len(result.diagnostics)} member(s))")
        return EXIT_OK

    if args.command == "converge":
        try:
            dts = [float(tok) for tok in args.dts.split(",") if tok.strip()]
            metrics = [tok.strip() for tok in args.metrics.split(",") if tok.strip()]
            unknown = set(metrics) - set(STUDY_METRICS)
            if unknown:
                raise ConfigError(f"unknown metrics {sorted(unknown)}; available: {STUDY_METRICS}")
            if len(dts) < 3:
                raise ConfigError("need at least 3 dt values for a slope fit")
        except (ConfigError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        rows = run_study(metrics=metrics, dts=dts, seed=config.seed)
        out_dir = resolve_output_dir(config)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "convergence.csv"
        csv_path.write_text(rows_to_csv(rows))
        seen = set()
        for row in rows:
            if row.metric not in seen:
                seen.add(row.metric)
                print(f"{row.metric:30s} slope = {row.slope:6.3f}")
        print(f"wrote {csv_path}")
        return EXIT_OK

    # verify
    checks = verify_suite(config, include_slow=not args.fast)
    for line in report_lines(checks):
        print(line)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
