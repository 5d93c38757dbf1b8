"""Command line parsing and end-to-end subcommand runs."""

import json

import pytest

from ciqn import cli


def run_main(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_list_parsers():
    assert cli._int_list("0,1,2") == (0, 1, 2)
    assert cli._int_list("5") == (5,)
    assert cli._float_list("0.0,1e-9") == (0.0, 1e-9)


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
        cli._load_config(str(path))


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
    loaded = cli._load_config(str(path))
    assert loaded["histories"] == (0, 2)
    assert loaded["ranking"] == (5,)
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
                                   ["--tol", "nan"]])
def test_sweep_rejects_bad_values_before_any_cell(tmp_path, monkeypatch,
                                                  flags):
    monkeypatch.delenv("CIQN_SEED", raising=False)
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit, match="must be"):
        cli.main(["sweep", "--problem", "linear", *flags, "--out", str(out)])
    assert not out.exists()


def test_compare_prints_summary(capsys, monkeypatch):
    monkeypatch.delenv("CIQN_SEED", raising=False)
    code, text = run_main(capsys, [
        "compare", "--problem", "piston", "--histories", "2",
        "--ranking", "5", "--epsilon", "1e-9", "--steps", "3",
        "--accel", "ciqn,aitken"])
    assert code == 0
    assert "ciqn" in text and "aitken" in text
    assert "fewer iterations" in text
