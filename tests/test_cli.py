"""Command line parsing and end-to-end subcommand runs."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ciqn
from ciqn import cli, harness


# the SweepSpec fields that are flags and config keys, under their flags'
# names: the seed comes from CIQN_SEED, problem_params is set from Python
SPEC_OPTIONS = {"accel" if f.name == "accelerator" else f.name
                for f in dataclasses.fields(harness.SweepSpec)
                if f.name not in ("seed", "problem_params")}


def command_flags(command):
    return SPEC_OPTIONS - ({"out"} if command == "compare" else set())


def run_main(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_list_parsers():
    # a grid's text splits on commas, each piece in its default's type;
    # a config string keeps a piece that does not convert for SweepSpec
    # to name, where a flag's type rejects it
    assert cli._reader((0,))("0,1,2") == (0, 1, 2)
    assert cli._reader((0,))("5") == (5,)
    assert cli._reader((0.0,))("0.0,1e-9") == (0.0, 1e-9)
    assert cli._reader(("ciqn",))("ciqn,,aitken") == ("ciqn", "aitken")
    assert cli._reader((0,), strict=False)("1,x,1.5") == (1, "x", "1.5")
    assert cli._reader(0, strict=False)("2.5") == "2.5"
    assert cli._reader(None)("a.csv") == "a.csv"
    for default, text in (((0,), "1,x"), (0, "2.5"), (0.0, "y")):
        with pytest.raises(ValueError):
            cli._reader(default)(text)


@pytest.mark.parametrize("flag,value,expected", [
    ("--histories", "x", "int"), ("--ranking", "5,1.5", "int"),
    ("--epsilon", "0,y", "float")])
def test_grid_flags_name_what_they_expect(capsys, flag, value, expected):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["sweep", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: invalid comma-separated %s value: %r" \
        % (flag, expected, value) in err


def test_parser_accepts_grid_flags():
    args = cli.build_parser().parse_args(
        ["sweep", "--problem", "linear", "--histories", "0,2",
         "--ranking", "5", "--epsilon", "0,1e-9", "--steps", "3",
         "--accel", "aitken"])
    assert args.histories == (0, 2)
    assert args.ranking == (5,)
    assert args.epsilon == (0.0, 1e-9)
    assert args.accel == "aitken"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"steps": 3, "colour": "red"}))
    with pytest.raises(SystemExit, match="colour"):
        cli.main(["sweep", "--config", str(path)])


@pytest.mark.parametrize("content,message", [
    (None, "cannot read config"),
    ("{", "cannot read config"),
    ("[1, 2]", "config must be a JSON object, not list"),
    ('{"histories": "x"}', "'histories': expected an integer, got 'x'"),
    ('{"histories": [1.5]}', "'histories': expected an integer, got 1.5"),
    ('{"ranking": true}', "'ranking': expected an integer, got True"),
    ('{"epsilon": ["x"]}', "'epsilon': expected a number, got 'x'"),
    ('{"steps": 2.5}', "'steps': expected an integer, got 2.5"),
    ('{"tol": null}', "'tol': expected a number, got None"),
    ('{"out": 3}', "'out': expected a string, got 3"),
    ('{"accel": 3}', "accelerator must be one of ciqn, aitken, picard, got 3"),
    ('{"accel": ["ciqn", 3]}', "accelerator must be one of .*, got .*3"),
    ('{"relax_on": "force"}', "unknown config keys: relax_on$"),
])
def test_config_file_errors_exit_before_any_cell(tmp_path, monkeypatch,
                                                 content, message):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    for command in ("sweep", "compare"):
        with pytest.raises(SystemExit, match="^ciqn: .*" + message):
            cli.main([command, "--config", str(path)])


def test_config_file_provides_defaults_flags_win(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "problem": "linear", "steps": 4, "histories": [0],
        "ranking": [5], "epsilon": [0.0], "accel": "aitken"}))
    monkeypatch.delenv("CIQN_SEED", raising=False)
    code, out = run_main(capsys, ["sweep", "--config", str(path),
                                  "--steps", "2"])
    assert code == 0
    assert out.startswith("histories ranking")


def test_config_file_accepts_flag_style_strings(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "problem": "linear", "steps": 2, "histories": "0,2",
        "ranking": 5, "epsilon": "1e-9"}))
    loaded = cli._load_config(str(path), cli._OPTIONS["sweep"])
    assert loaded["histories"] == (0, 2)
    assert loaded["ranking"] == [5]
    assert loaded["epsilon"] == (1e-9,)
    monkeypatch.delenv("CIQN_SEED", raising=False)
    code, out = run_main(capsys, ["sweep", "--config", str(path)])
    assert code == 0
    assert out.startswith("histories ranking")


def test_config_file_accel_list_reaches_compare(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps({
        "problem": "piston", "steps": 2, "histories": [2], "ranking": [5],
        "epsilon": [1e-9], "accel": "ciqn,aitken"}))
    monkeypatch.delenv("CIQN_SEED", raising=False)
    code, text = run_main(capsys, ["compare", "--config", str(path)])
    assert code == 0
    assert "ciqn" in text and "aitken" in text


def test_seed_comes_from_environment(monkeypatch, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["sweep", "--problem", "linear", "--histories", "0",
            "--ranking", "5", "--epsilon", "0", "--steps", "3"]
    monkeypatch.setenv("CIQN_SEED", "0")
    cli.main(base + ["--out", str(out_a)])
    monkeypatch.setenv("CIQN_SEED", "1")
    cli.main(base + ["--out", str(out_b)])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_non_integer_seed_exits_before_any_cell(monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    monkeypatch.setenv("CIQN_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--steps", "1"])
    assert str(exc.value) \
        == "ciqn: 'CIQN_SEED': expected an integer, got 'abc'"


def test_unwritable_out_path_exits_with_a_message(tmp_path, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    monkeypatch.delenv("CIQN_SEED", raising=False)
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--steps", "1", "--out", str(path)])
    assert str(exc.value) \
        == "ciqn: cannot write %s: No such file or directory" % path


def test_sweep_writes_csv_and_table(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CIQN_SEED", raising=False)
    out = tmp_path / "grid.csv"
    code, text = run_main(capsys, [
        "sweep", "--problem", "linear", "--histories", "0,1",
        "--ranking", "5", "--epsilon", "0", "--steps", "3",
        "--out", str(out)])
    assert code == 0
    assert "wrote %s" % out in text
    lines = out.read_text().splitlines()
    assert lines[0].startswith("histories,")
    assert len(lines) == 3


@pytest.mark.parametrize("flags", [["--epsilon", "0,nan"], ["--steps", "0"],
                                   ["--tol", "nan"], ["--epsilon", ""],
                                   ["--histories", ","], ["--ranking", ""]])
def test_sweep_rejects_bad_values_before_any_cell(tmp_path, monkeypatch,
                                                  flags):
    monkeypatch.delenv("CIQN_SEED", raising=False)
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit, match="^ciqn: .*(must be|: expected)"):
        cli.main(["sweep", "--problem", "linear", *flags, "--out", str(out)])
    assert not out.exists()


def test_module_runs_from_a_checkout(tmp_path):
    # ``python -m ciqn`` with only the source tree on the path
    env = dict(os.environ,
               PYTHONPATH=str(Path(ciqn.__file__).resolve().parents[1]))
    env.pop("CIQN_SEED", None)
    done = subprocess.run(
        [sys.executable, "-m", "ciqn", "sweep", "--problem", "linear",
         "--histories", "0", "--ranking", "5", "--epsilon", "0",
         "--steps", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("histories ranking")


def test_compare_prints_summary(capsys, monkeypatch):
    monkeypatch.delenv("CIQN_SEED", raising=False)
    code, text = run_main(capsys, [
        "compare", "--problem", "piston", "--histories", "2",
        "--ranking", "5", "--epsilon", "1e-9", "--steps", "3",
        "--accel", "ciqn,aitken"])
    assert code == 0
    assert "ciqn" in text and "aitken" in text
    assert "fewer iterations" in text


def test_compare_has_no_out_flag(tmp_path, capsys, monkeypatch):
    # a comparison writes no CSV, so the flag is not accepted, from the
    # command line or from a config file
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    monkeypatch.delenv("CIQN_SEED", raising=False)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(out)}))
    with pytest.raises(SystemExit, match="^ciqn: compare writes no CSV"):
        cli.main(["compare", "--config", str(config)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_relax_on_is_no_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--problem", "piston", "--relax-on", "force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --relax-on force" \
        in capsys.readouterr().err


def test_flags_config_keys_and_spec_fields_name_the_same_options():
    # an option must reach every layer or none; compare takes no --out
    # (compare_accelerators refuses a config's out)
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command in ("sweep", "compare"):
        flags = {action.dest
                 for action in subparsers.choices[command]._actions
                 if action.dest not in ("help", "config")}
        assert set(cli._OPTIONS[command]) == SPEC_OPTIONS
        assert flags == command_flags(command)


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_help_lists_every_option_and_name(command):
    env = dict(os.environ,
               PYTHONPATH=str(Path(ciqn.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "ciqn", command, "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    listed = set(re.findall(r"^  --([\w-]+)", done.stdout, re.M))
    assert listed == {flag.replace("_", "-")
                      for flag in command_flags(command) | {"config"}}
    for name in ciqn.problems.PROBLEMS + ciqn.ACCELERATORS:
        assert name in done.stdout


@pytest.mark.parametrize("accel", ["ciqn,bogus", ""])
def test_compare_rejects_bad_accelerators_before_any_cell(accel,
                                                          monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    with pytest.raises(SystemExit,
                       match="^ciqn: (accelerator must be|compare needs)"):
        cli.main(["compare", "--accel", accel])


def test_compare_rejects_a_repeated_accelerator(capsys, monkeypatch):
    # the report keeps one sweep per name: a second would overwrite the
    # first and print a comparison of a grid with itself
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    with pytest.raises(SystemExit, match="^ciqn: accelerator named twice"):
        cli.main(["compare", "--accel", "aitken,aitken"])
    assert capsys.readouterr().out == ""
