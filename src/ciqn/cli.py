"""Command line front end.

Two subcommands:

    ciqn sweep    run one accelerator over the parameter grid and print
                  the mean-iterations table (optionally stream CSV)
    ciqn compare  run the same grid for several accelerators and print
                  the side-by-side summary

Grid values are comma-separated.  A JSON config file can prefill any
option; explicit flags win over the file.  The environment variable
CIQN_SEED sets the problem seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coupler import ACCELERATORS
from .harness import (SweepSpec, compare_accelerators, render_table,
                      run_sweep)
from .problems import PROBLEMS, RELAX_ON


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with option defaults")
    parser.add_argument("--problem", choices=PROBLEMS)
    parser.add_argument("--histories", type=_int_list,
                        help="comma-separated past-step counts")
    parser.add_argument("--ranking", type=_int_list,
                        help="comma-separated per-step column caps")
    parser.add_argument("--epsilon", type=_float_list,
                        help="comma-separated filter thresholds")
    parser.add_argument("--relax-on", choices=RELAX_ON,
                        dest="relax_on")
    parser.add_argument("--steps", type=int, help="time steps per cell")
    parser.add_argument("--ranks", type=int, help="simulated rank count")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--omega0", type=float)
    parser.add_argument("--max-iters", type=int, dest="max_iters")
    parser.add_argument("--out", help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ciqn",
        description="interface coupling convergence studies")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep one accelerator")
    _add_common(sweep)
    sweep.add_argument("--accel", choices=ACCELERATORS)

    compare = sub.add_parser("compare", help="compare accelerators")
    _add_common(compare)
    compare.add_argument("--accel", type=lambda t: tuple(t.split(",")),
                         help="comma-separated accelerator names")
    return parser


_SPEC_KEYS = ("histories", "ranking", "epsilon", "problem", "relax_on",
              "steps", "ranks", "tol", "omega0", "max_iters", "out")


def _grid_values(value, parse_one) -> tuple:
    """Accept a JSON list, a bare scalar, or the flag-style comma string."""
    if isinstance(value, str):
        return tuple(parse_one(tok) for tok in value.split(",") if tok)
    if isinstance(value, (int, float)):
        return (parse_one(value),)
    return tuple(parse_one(v) for v in value)


def _load_config(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    unknown = set(data) - set(_SPEC_KEYS) - {"accel"}
    if unknown:
        raise SystemExit("unknown config keys: %s" % ", ".join(sorted(unknown)))
    for key in ("histories", "ranking"):
        if key in data:
            data[key] = _grid_values(data[key], int)
    if "epsilon" in data:
        data["epsilon"] = _grid_values(data["epsilon"], float)
    return data


def _make_spec(args: argparse.Namespace, default_accel) -> tuple[SweepSpec, object]:
    options: dict = {}
    if args.config:
        options.update(_load_config(args.config))
    accel = options.pop("accel", default_accel)
    for key in _SPEC_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    if getattr(args, "accel", None) is not None:
        accel = args.accel
    options["seed"] = int(os.environ.get("CIQN_SEED", "0"))
    if args.command == "sweep":
        options["accelerator"] = accel
    try:
        return SweepSpec(**options), accel
    except ValueError as err:
        # an invalid value stops the run before any cell starts
        raise SystemExit("ciqn: %s" % err)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        spec, _ = _make_spec(args, "ciqn")
        cells = run_sweep(spec)
        sys.stdout.write(render_table(cells))
        if spec.out:
            sys.stdout.write("wrote %s\n" % spec.out)
        return 0
    if args.command == "compare":
        spec, accel = _make_spec(args, ("ciqn", "aitken"))
        if isinstance(accel, str):
            accel = tuple(accel.split(","))
        report = compare_accelerators(spec, accel)
        sys.stdout.write(report.render())
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
