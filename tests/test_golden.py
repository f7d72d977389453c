"""The documented commands write byte-identical outputs.

Each output file is pinned by its md5.  A change that moves any number in
them, even by an ulp, fails here; when such a change is intended, the new
digests and the reason go into CHANGES.md together with the update.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from copula_ot.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gap_curve.py"


def md5(path: Path) -> str:
    return hashlib.md5(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "p, q, json_md5, csv_md5",
    [
        ("2", "1", "48be5dc90bee4a51c4f7c8c83b046095", "c11788abac86152a68ce631007bbc53a"),
        ("1", "2", "51beff000176ee1702bbec4694d68969", "7b178708b738f8505e8971a318c6eb7f"),
    ],
)
def test_counterexample_report_and_curve(tmp_path, capsys, p, q, json_md5, csv_md5):
    out = tmp_path / "report.json"
    assert main(["counterexample", "--p", p, "--q", q, "--out", str(out)]) == 0
    assert (md5(out), md5(out.with_suffix(".csv"))) == (json_md5, csv_md5)


def test_gap_curve_skip_exact_sweep(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("gap_curve", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "gap.csv"
    argv = ["--p", "2", "--q", "1", "--resolutions", "2", "4", "8", "16", "32", "48", "--skip-exact"]
    assert module.main(argv + ["--out", str(out)]) == 0
    assert md5(out) == "44fab6c488b036d19126b09a11697313"


def test_verify_defaults(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--out", str(out)]) == 0
    assert md5(out) == "5e30a3b89c1a91c27b8ef6fb1b6eb7c2"
