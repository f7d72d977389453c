"""scripts/gap_curve.py writes one gap curve per carrier resolution."""

import csv

import pytest
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gap_curve.py"


def gap_curve_main(argv) -> int:
    spec = importlib.util.spec_from_file_location("gap_curve", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def test_skip_exact_sweep_writes_the_documented_csv(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    argv = ["--p", "2", "--q", "1", "--resolutions", "2", "4", "--skip-exact", "--out", str(out)]
    assert gap_curve_main(argv) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "epsilon", "diamond_cost", "alt_cost", "gap", "exact_cost"]
    # the default schedule has 16 epsilons per resolution
    assert [row[0] for row in rows[1:]] == ["2"] * 16 + ["4"] * 16
    assert all(row[-1] == "" for row in rows[1:])
    assert f"curves -> {out}" in capsys.readouterr().out


def test_equal_exponents_exit_2(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    assert gap_curve_main(["--p", "1", "--q", "1", "--out", str(out)]) == 2
    assert "p must differ from q" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--p", "2", "--q", "1", "--resolutions", "1"], 4, "no room to improve"),
        (["--p", "2", "--q", "1", "--resolutions", "0"], 2, "k must be >= 1"),
        (["--p", "0.5", "--q", "1", "--resolutions", "2"], 2, "p must be >= 1"),
        (["--p", "1", "--q", "1.000000001", "--resolutions", "2", "--skip-exact"], 5, "no epsilon"),
    ],
)
def test_bad_input_exits_with_the_cli_codes_and_writes_nothing(tmp_path, capsys, argv, code, message):
    out = tmp_path / "gap.csv"
    assert gap_curve_main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: k=") and message in err
    assert not out.exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    argv = ["--p", "2", "--q", "1", "--resolutions", "2", "--skip-exact", "--out", str(tmp_path)]
    assert gap_curve_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
