"""Command line front end.

Two subcommands:

    ciqn sweep    run one accelerator over the parameter grid and print
                  the mean-iterations table (optionally stream CSV)
    ciqn compare  run the same grid for several accelerators and print
                  the side-by-side summary

Each flag is a :class:`~ciqn.harness.SweepSpec` field but ``seed`` and
``problem_params``; ``--accel`` is the accelerator (compare takes a
list), and ``--out`` is sweep only.  A JSON config file can prefill any
option under the flag's name; explicit flags win over the file.  The
environment variable CIQN_SEED sets the problem seed (default 0).  This
module only reads text; :func:`~ciqn.coupler.exact_value` checks each
value, through SweepSpec or, for CIQN_SEED, directly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .coupler import ACCELERATORS, exact_value
from .harness import (SweepSpec, compare_accelerators, render_table,
                      run_sweep)
from .problems import PROBLEMS

# every option, under its flag's name, with the default that gives its type
_SWEEP = {"accel" if f.name == "accelerator" else f.name: f.default
          for f in dataclasses.fields(SweepSpec)
          if f.name not in ("seed", "problem_params")}
_OPTIONS = {"sweep": _SWEEP, "compare": dict(_SWEEP, accel=("ciqn", "aitken"))}
_NAMES = {"problem": PROBLEMS, "accel": ACCELERATORS}


def _reader(default, strict: bool = True):
    """How a flag's text, or a config string, becomes an option value: a
    grid's text is split on commas, and each piece, or a scalar's text,
    is converted to the type of the default.  Unless ``strict``, a piece
    that does not convert stays text, for SweepSpec to reject by name."""
    grid = isinstance(default, tuple)
    kind = str if default is None else type(default[0] if grid else default)

    def one(piece: str):
        try:
            return kind(piece)
        except ValueError:
            if strict:
                raise
            return piece

    def read(text: str):
        return tuple(one(p) for p in text.split(",") if p) if grid \
            else one(text)
    # argparse names a flag's type in its message
    read.__name__ = "comma-separated " * grid + kind.__name__
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ciqn",
        description="interface coupling convergence studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (("sweep", "sweep one accelerator"),
                           ("compare", "compare accelerators")):
        one = sub.add_parser(command, help=about)
        one.add_argument("--config", help="JSON file with option defaults")
        for key, default in _OPTIONS[command].items():
            if command == "compare" and key == "out":
                continue  # a comparison writes no CSV
            grid, names = isinstance(default, tuple), _NAMES.get(key)
            shown = ",".join(map(str, default)) if grid else default
            # a grid's metavar shows its commas, and its names if it has any
            metavar = ("{%s}" % ",".join(names) if names else key.upper())
            one.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=_reader(default),
                choices=None if grid else names,
                metavar=metavar + ",..." if grid else None,
                help="default %s" % shown)
    return parser


def _load_config(path: str, options: dict) -> dict:
    """Read a JSON config; any fault exits with ``ciqn: <message>``.  A
    string is read as its flag's text, one value for a grid is a
    one-cell grid, and any other value goes to SweepSpec unchanged."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        raise SystemExit("ciqn: cannot read config %s: %s" % (path, err))
    if not isinstance(data, dict):
        raise SystemExit("ciqn: config must be a JSON object, not %s"
                         % type(data).__name__)
    unknown = set(data) - set(options)
    if unknown:
        raise SystemExit("ciqn: unknown config keys: %s"
                         % ", ".join(sorted(unknown)))
    for key, value in data.items():
        if isinstance(value, str):
            data[key] = _reader(options[key], strict=False)(value)
        elif isinstance(options[key], tuple) and not isinstance(value, list):
            data[key] = [value]
    return data


def _make_spec(args: argparse.Namespace) -> tuple[SweepSpec, object]:
    options = _OPTIONS[args.command]
    values = _load_config(args.config, options) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in options and value is not None)
    accel = values.pop("accel", options["accel"])
    if args.command == "sweep":
        values["accelerator"] = accel
    try:
        values["seed"] = exact_value("CIQN_SEED", _reader(0, strict=False)(
            os.environ.get("CIQN_SEED", "0")), 0)
        return SweepSpec(**values), accel
    except ValueError as err:
        raise SystemExit("ciqn: %s" % err)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec, accel = _make_spec(args)
    if args.command == "sweep":
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
    try:
        report = compare_accelerators(spec, accel)
    except ValueError as err:
        raise SystemExit("ciqn: %s" % err)
    sys.stdout.write(report.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
