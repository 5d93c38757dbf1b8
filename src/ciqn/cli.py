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
from .problems import PROBLEMS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with option defaults")
    parser.add_argument("--problem", choices=PROBLEMS)
    parser.add_argument("--histories", type=_grid_flag(_integer, "integers"),
                        help="comma-separated past-step counts")
    parser.add_argument("--ranking", type=_grid_flag(_integer, "integers"),
                        help="comma-separated per-step column caps")
    parser.add_argument("--epsilon", type=_grid_flag(_number, "numbers"),
                        help="comma-separated filter thresholds")
    parser.add_argument("--steps", type=int, help="time steps per cell")
    parser.add_argument("--ranks", type=int, help="simulated rank count")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--omega0", type=float)
    parser.add_argument("--max-iters", type=int, dest="max_iters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ciqn",
        description="interface coupling convergence studies")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep one accelerator")
    _add_common(sweep)
    sweep.add_argument("--accel", choices=ACCELERATORS)
    sweep.add_argument("--out", help="CSV output path")

    compare = sub.add_parser("compare", help="compare accelerators")
    _add_common(compare)
    compare.add_argument("--accel", type=lambda t: tuple(t.split(",")),
                         help="comma-separated accelerator names")
    return parser


def _integer(value) -> int:
    """An int, or a string or float that holds one exactly."""
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool) \
                or isinstance(value, float) and value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise ValueError("expected an integer, got %r" % (value,))


def _number(value) -> float:
    try:
        if isinstance(value, (int, float, str)) \
                and not isinstance(value, bool):
            return float(value)
    except ValueError:
        pass
    raise ValueError("expected a number, got %r" % (value,))


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string, got %r" % (value,))
    return value


def _grid_values(value, parse_one) -> tuple:
    """Accept a JSON list, a bare scalar, or the flag-style comma string."""
    if isinstance(value, str):
        return tuple(parse_one(tok) for tok in value.split(",") if tok)
    if isinstance(value, (list, tuple)):
        return tuple(parse_one(v) for v in value)
    return (parse_one(value),)


def _grid_flag(parse_one, what: str):
    """argparse type of a comma-separated grid flag."""
    def parse(text: str) -> tuple:
        try:
            return _grid_values(text, parse_one)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected comma-separated %s, got %r" % (what, text))
    return parse


# how each config file key is read
_CONFIG_PARSERS = {
    "histories": lambda v: _grid_values(v, _integer),
    "ranking": lambda v: _grid_values(v, _integer),
    "epsilon": lambda v: _grid_values(v, _number),
    "problem": _text, "out": _text,
    "steps": _integer, "ranks": _integer, "max_iters": _integer,
    "tol": _number, "omega0": _number,
    # one accelerator name, or a list of them
    "accel": lambda v: (tuple(map(_text, v)) if isinstance(v, list)
                        else _text(v)),
}
_SPEC_KEYS = tuple(key for key in _CONFIG_PARSERS if key != "accel")


def _load_config(path: str) -> dict:
    """Read a JSON config; any fault exits with ``ciqn: <message>``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        raise SystemExit("ciqn: cannot read config %s: %s" % (path, err))
    if not isinstance(data, dict):
        raise SystemExit("ciqn: config must be a JSON object, not %s"
                         % type(data).__name__)
    unknown = set(data) - set(_CONFIG_PARSERS)
    if unknown:
        raise SystemExit("ciqn: unknown config keys: %s"
                         % ", ".join(sorted(unknown)))
    for key in data:
        try:
            data[key] = _CONFIG_PARSERS[key](data[key])
        except ValueError as err:
            raise SystemExit("ciqn: config key %r: %s" % (key, err))
    return data


def _make_spec(args: argparse.Namespace, default_accel) -> tuple[SweepSpec, object]:
    options = _load_config(args.config) if args.config else {}
    accel = options.pop("accel", default_accel)
    for key in _SPEC_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    if getattr(args, "accel", None) is not None:
        accel = args.accel
    try:
        options["seed"] = _integer(os.environ.get("CIQN_SEED", "0"))
    except ValueError as err:
        raise SystemExit("ciqn: CIQN_SEED: %s" % err)
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
        try:
            cells = run_sweep(spec)
        except OSError as err:
            # the sweep's only file is its CSV, opened before any cell
            raise SystemExit("ciqn: cannot write %s: %s"
                             % (spec.out, err.strerror or err))
        sys.stdout.write(render_table(cells))
        if spec.out:
            sys.stdout.write("wrote %s\n" % spec.out)
        return 0
    spec, accel = _make_spec(args, ("ciqn", "aitken"))
    if isinstance(accel, str):
        accel = tuple(accel.split(","))
    try:
        report = compare_accelerators(spec, accel)
    except ValueError as err:
        raise SystemExit("ciqn: %s" % err)
    sys.stdout.write(report.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
