import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from copula_ot import cli, transport
from copula_ot.cli import _fmt, main
from copula_ot.copulas import checkerboard, copula_to_dict, countermonotone, discretize, independence
from copula_ot.counterexample import gap_search, report_to_dict
from copula_ot.measures import make_measure, measure_to_dict
from copula_ot.transport import validate_plan

from helpers import plan_from_dict


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_listed_fields(lead: str) -> list[str]:
    """The comma-separated names in the code span after ``lead`` in "File formats"."""
    section = README.read_text().split("### File formats", 1)[1].split("\n## ", 1)[0]
    span = re.search(re.escape(lead) + r"\s+`([^`]*)`", section).group(1)
    return [name.strip() for name in span.split(",")]


def write_measure(path, atoms, weights):
    path.write_text(json.dumps(measure_to_dict(make_measure(atoms, weights))))
    return str(path)


@pytest.fixture
def line_pair(tmp_path):
    mu = write_measure(tmp_path / "mu.json", [[0.0], [1.0]], [0.5, 0.5])
    rho = write_measure(tmp_path / "rho.json", [[2.0], [3.0]], [0.5, 0.5])
    return mu, rho


def test_fmt_uses_twelve_significant_digits():
    assert _fmt(1.0 / 3.0) == "0.333333333333"
    assert _fmt(4.0) == "4"
    assert _fmt(1234567890123456.0) == "1.23456789012e+15"


class TestDiamond:
    def test_happy_path(self, line_pair, capsys):
        mu, rho = line_pair
        assert main(["diamond", "--mu", mu, "--rho", rho]) == 0
        out = capsys.readouterr().out
        assert "cost (integral of ||x-y||_q^p): 4" in out
        assert "cost^(1/p): 2" in out

    def test_emitted_plan_revalidates(self, line_pair, tmp_path, capsys):
        mu, rho = line_pair
        plan_path = tmp_path / "plan.json"
        assert main(
            ["diamond", "--mu", mu, "--rho", rho, "--emit-plan", str(plan_path)]
        ) == 0
        plan = plan_from_dict(json.loads(plan_path.read_text()))
        assert validate_plan(
            plan,
            make_measure([[0.0], [1.0]], [0.5, 0.5]),
            make_measure([[2.0], [3.0]], [0.5, 0.5]),
        )

    def test_warns_when_joint_is_not_the_recomposition(self, tmp_path, capsys):
        # comonotone joint laws pushed through the independence copula
        mu = write_measure(tmp_path / "mu.json", [[0, 0], [1, 1]], [0.5, 0.5])
        rho = write_measure(tmp_path / "rho.json", [[2, 2], [3, 3]], [0.5, 0.5])
        assert main(["diamond", "--mu", mu, "--rho", rho, "--k", "2"]) == 0
        captured = capsys.readouterr()
        assert "do not match" in captured.err

    def test_comonotone_joint_matches_comonotone_copula(self, tmp_path, capsys):
        mu = write_measure(tmp_path / "mu.json", [[0, 0], [1, 1]], [0.5, 0.5])
        rho = write_measure(tmp_path / "rho.json", [[2, 2], [3, 3]], [0.5, 0.5])
        assert main(
            ["diamond", "--mu", mu, "--rho", rho, "--copula", "comonotone"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "cost (integral of ||x-y||_q^p): 8" in captured.out

    def test_checkerboard_rejects_a_different_k(self, tmp_path, capsys):
        mu = write_measure(tmp_path / "mu.json", [[0, 0], [1, 1]], [0.5, 0.5])
        rho = write_measure(tmp_path / "rho.json", [[2, 2], [3, 3]], [0.5, 0.5])
        cop_path = tmp_path / "cop.json"
        cop_path.write_text(json.dumps(copula_to_dict(independence(2, 4))))
        args = ["diamond", "--mu", mu, "--rho", rho, "--copula", f"checkerboard:{cop_path}"]
        assert main(args + ["--k", "2"]) == 2
        err = capsys.readouterr().err
        assert "--k 2" in err and "k = 4" in err
        assert main(args + ["--k", "4"]) == 0

    def test_atom_too_light_for_the_refinement_is_a_usage_error(self, tmp_path, capsys):
        mu = write_measure(tmp_path / "mu.json", [[0.0, 0.0], [5.0, 5.0]], [1.0, 1e-16])
        rho = write_measure(tmp_path / "rho.json", [[2.0, 2.0], [3.0, 3.0]], [0.5, 0.5])
        assert main(["diamond", "--mu", mu, "--rho", rho, "--copula", "comonotone"]) == 2
        assert "atom 5.0 of coordinate 1 has weight 1e-16" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        mu = write_measure(tmp_path / "mu.json", [[0.0]], [1.0])
        rho = write_measure(tmp_path / "rho.json", [[0.0, 0.0]], [1.0])
        assert main(["diamond", "--mu", mu, "--rho", rho]) == 2
        assert "dimension" in capsys.readouterr().err


class TestExact:
    def test_happy_path(self, line_pair, tmp_path, capsys):
        mu, rho = line_pair
        plan_path = tmp_path / "plan.json"
        rc = main(["exact", "--mu", mu, "--rho", rho, "--emit-plan", str(plan_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost (integral of ||x-y||_q^p): 4" in out
        plan = plan_from_dict(json.loads(plan_path.read_text()))
        assert validate_plan(
            plan,
            make_measure([[0.0], [1.0]], [0.5, 0.5]),
            make_measure([[2.0], [3.0]], [0.5, 0.5]),
        )

    def test_pair_cap_exit(self, tmp_path, capsys):
        atoms = [[float(i)] for i in range(4)]
        mu = write_measure(tmp_path / "mu.json", atoms, [1.0] * 4)
        rho = write_measure(tmp_path / "rho.json", atoms, [1.0] * 4)
        assert main(["exact", "--mu", mu, "--rho", rho, "--max-pairs", "10"]) == 3
        assert "error" in capsys.readouterr().err

    def test_unresolvable_tiny_atom_is_a_usage_error(self, tmp_path, capsys):
        mu = write_measure(tmp_path / "mu.json", [[0.0], [1.0], [2.0]], [0.5, 1e-17, 0.5])
        rho = write_measure(tmp_path / "rho.json", [[0.0], [5.0]], [0.5, 0.5])
        assert main(["exact", "--mu", mu, "--rho", rho]) == 2
        assert "below the 1e-15 that the LP resolves" in capsys.readouterr().err

    def test_unsolvable_lp_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        # Costs up to (1.2e10 + 8e9)^2 = 4e20 at p = q = 2, on which HiGHS
        # returned status 4.  The solver is replaced by one that fails, so
        # the test does not depend on the HiGHS version.
        mu = write_measure(tmp_path / "mu.json", [[0.0], [4e9], [1.2e10]], [1.0, 2.0, 3.0])
        rho = write_measure(tmp_path / "rho.json", [[-8e9], [2e9]], [1.0, 1.0])
        failed = SimpleNamespace(status=4, message="numerical difficulties", x=None, success=False)
        monkeypatch.setattr(transport, "linprog", lambda *args, **kwargs: failed)
        plan_path = tmp_path / "plan.json"
        argv = ["exact", "--mu", mu, "--rho", rho, "--p", "2", "--q", "2", "--emit-plan", str(plan_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: solve_transport: the HiGHS LP failed with status 4 (numerical difficulties); "
            "the largest cost is 4e+20\n"
        )
        assert captured.out == "" and not plan_path.exists()

    def test_loads_measure_files_in_the_readme_shape(self, tmp_path, capsys):
        # written by hand as the README's "File formats" shows, weights unnormalized
        (tmp_path / "mu.json").write_text('{"atoms": [[0, 0], [1, 1]], "weights": [1, 3]}')
        (tmp_path / "rho.json").write_text('{"atoms": [[0, 1], [1, 2]], "weights": [1, 3]}')
        plan_path = tmp_path / "plan.json"
        rc = main(
            [
                "exact", "--mu", str(tmp_path / "mu.json"), "--rho", str(tmp_path / "rho.json"),
                "--emit-plan", str(plan_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "support sizes: 2 x 2" in out
        assert "cost (integral of ||x-y||_q^p): 1\n" in out
        plan = json.loads(plan_path.read_text())
        assert list(plan) == ["entries"]
        assert all(sorted(entry) == ["w", "x", "y"] for entry in plan["entries"])


class TestUsageErrors:
    def test_missing_file(self, capsys):
        assert main(["diamond", "--mu", "/nonexistent/mu.json", "--rho", "/nonexistent/rho.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["diamond", "--mu", str(bad), "--rho", str(bad)]) == 2

    def test_wrong_measure_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": [[0.0]], "weights": [1.0]}))
        assert main(["diamond", "--mu", str(bad), "--rho", str(bad)]) == 2

    def test_countermonotone_needs_two_dimensions(self, capsys):
        rc = main(
            ["counterexample", "--p", "1", "--q", "2", "--copula", "countermonotone", "--n", "3"]
        )
        assert rc == 2
        assert "n=2" in capsys.readouterr().err

    def test_unknown_copula_name(self, line_pair, capsys):
        mu, rho = line_pair
        assert main(["diamond", "--mu", mu, "--rho", rho, "--copula", "gauss"]) == 2

    def test_verify_rejects_bare_exponents(self, capsys):
        assert main(["verify", "--p", "2"]) == 2
        assert "--allow-pq" in capsys.readouterr().err

    def test_counterexample_rejects_equal_exponents(self, capsys):
        assert main(["counterexample", "--p", "2", "--q", "2"]) == 2

    def test_counterexample_needs_two_coordinates(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["counterexample", "--p", "2", "--q", "1", "--n", "1", "--out", str(out)])
        assert rc == 2
        assert "coordinate pair, got n=1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "copula, n, k, words",
        [
            # Checked before any (k,) * n array is made, so numpy's own
            # "maximum supported dimension" error never surfaces.
            ("independence", "65", "1", ["error: independence:", "at most 64", "got 65"]),
            ("comonotone", "65", "16", ["error: discretize:", "at most 64", "got 65"]),
            ("independence", "30", "16", ["error: independence:", "more than numpy can hold", "n = 30"]),
        ],
    )
    def test_counterexample_carrier_beyond_numpy_is_a_usage_error(self, tmp_path, capsys, copula, n, k, words):
        out = tmp_path / "report.json"
        argv = ["counterexample", "--p", "2", "--q", "1", "--copula", copula, "--n", n, "--k", k, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in words), err
        assert not out.exists()

    def test_counterexample_out_of_memory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # A carrier too large for memory, as --n 40 --k 2 is, exits 2 with a
        # message, not 1 ("violations found") with a traceback.  The error is
        # raised by a stand-in: a real attempt could exhaust the machine.
        def unallocatable(n, k):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (2,) * 40")

        monkeypatch.setattr(cli, "independence", unallocatable)
        out = tmp_path / "report.json"
        argv = ["counterexample", "--p", "2", "--q", "1", "--n", "40", "--k", "2", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory. Unable to allocate 8.00 TiB for an array with shape (2,) * 40\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,obj,field",
        [
            ("exact", {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": {"a": 1}}, "weights"),
            ("diamond", {"variant": "checkerboard", "n": [2], "k": 1, "masses": [1.0]}, "'n'"),
            ("counterexample", {"variant": "comonotone", "n": None}, "'n'"),
            ("counterexample", {"variant": "comonotone", "n": 2.7}, "'n'"),
            ("counterexample", {"variant": "checkerboard", "n": 2, "k": 2.5, "masses": [0.25] * 4}, "'k'"),
            ("diamond", {"variant": "checkerboard", "n": True, "k": 1, "masses": [1.0]}, "'n'"),
            ("exact", {"atoms": [["1", 0.0], [True, 1.0]], "weights": [0.5, 0.5]}, "atoms"),
        ],
        ids=[
            "weights-object", "n-list", "n-null", "n-fractional", "k-fractional", "n-bool",
            "atoms-string-bool",
        ],
    )
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, command, obj, field):
        # exit 1 would read as "verification found violations"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        good = write_measure(tmp_path / "good.json", [[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        argv = {
            "exact": ["exact", "--mu", str(bad), "--rho", good],
            "diamond": ["diamond", "--mu", good, "--rho", good, "--copula", f"checkerboard:{bad}"],
            "counterexample": [
                "counterexample", "--p", "2", "--q", "1", "--copula", f"checkerboard:{bad}",
                "--out", str(tmp_path / "report.json"),
            ],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("command", ["exact", "verify", "counterexample"])
    def test_negative_pair_cap_is_a_usage_error(self, line_pair, tmp_path, capsys, command):
        mu, rho = line_pair
        out = tmp_path / "out.json"
        argv = {
            "exact": ["exact", "--mu", mu, "--rho", rho],
            "verify": ["verify", "--out", str(out)],
            "counterexample": ["counterexample", "--p", "1", "--q", "2", "--k", "4", "--out", str(out)],
        }[command]
        assert main(argv + ["--max-pairs", "-1"]) == 2
        assert capsys.readouterr().err == "error: --max-pairs must be at least 0, got -1\n"
        assert not out.exists()
        # A cap of 0 stays valid: it is how counterexample skips its exact cost.
        if command == "counterexample":
            assert main(argv + ["--max-pairs", "0"]) == 0
            assert json.loads(out.read_text())["exact_cost"] is None


class TestVerify:
    def test_small_campaign_passes_and_is_deterministic(self, tmp_path, capsys):
        args = ["verify", "--seed", "7", "--instances", "2"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "instance,n,p,diamond_cost,exact_cost,rel_err"
        # 2 dimensions x 3 exponents x 2 instances
        assert len(lines) == 13
        out = capsys.readouterr().out
        assert "matched the exact optimum" in out

    def test_grid_flags_select_settings_and_create_out_dir(self, tmp_path, capsys):
        out = tmp_path / "sub" / "v.csv"
        rc = main(
            [
                "verify", "--dimensions", "2", "--exponents", "1.5",
                "--instances", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[1:3] == ["2", "1.5"] for line in lines[1:])
        text = capsys.readouterr().out
        assert "worst rel err" in text
        assert [line.split()[:2] for line in text.splitlines() if line.startswith("  2 ")] == [
            ["2", "1.5"]
        ]

    def test_allow_pq_smoke_reports_violations(self, tmp_path, capsys):
        rc = main(
            [
                "verify", "--allow-pq", "--p", "1", "--q", "2",
                "--instances", "2", "--seed", "5",
                "--out", str(tmp_path / "pq.csv"),
            ]
        )
        # quantile couplings routinely miss the optimum once p != q
        assert rc == 1
        assert "optimality violations" in capsys.readouterr().out

    def test_pair_cap_applies_only_off_the_diagonal(self, tmp_path, capsys):
        # the p = q certificate forms no atom pairs; the p != q exact solve does
        cap = ["--instances", "2", "--max-pairs", "1"]
        assert main(["verify", *cap, "--out", str(tmp_path / "pp.csv")]) == 0
        pq = ["verify", "--allow-pq", "--p", "1", "--q", "2", *cap, "--out", str(tmp_path / "pq.csv")]
        assert main(pq) == 3
        assert "exceed the cap 1" in capsys.readouterr().err

    def test_more_atoms_than_the_default_pool(self, tmp_path, capsys):
        # Marginals of up to 10 distinct atoms come from a pool of 10 integers.
        out = tmp_path / "v.csv"
        args = ["verify", "--max-atoms", "10", "--instances", "3", "--dimensions", "2", "--exponents", "2"]
        assert main(args + ["--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize("flag", ["--instances", "--dimensions", "--max-atoms", "--max-resolution"])
    def test_nonpositive_grid_flags_are_usage_errors(self, tmp_path, capsys, flag):
        out = tmp_path / "v.csv"
        assert main(["verify", flag, "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got 0\n"
        assert not out.exists()


class TestCounterexample:
    def test_report_keys_follow_the_readme_in_order(self):
        report = gap_search(independence(2, 8), 1.0, 2.0, attach_exact=False)
        assert list(report_to_dict(report)) == readme_listed_fields("Gap reports carry") + ["caveat"]

    def test_success_writes_report_and_curve(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["counterexample", "--p", "1", "--q", "2", "--k", "8", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == set(readme_listed_fields("Gap reports carry")) | {"caveat"}
        assert report["pair"] == [1, 2]
        assert report["gap"] > 0
        assert report["exact_cost"] <= report["alt_cost"] < report["diamond_cost"]
        curve_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert curve_lines[0] == "epsilon,diamond_cost,alt_cost,gap,exact_cost"
        assert curve_lines[0].split(",") == readme_listed_fields("curve CSVs have columns")
        assert len(curve_lines) == 17
        out_text = capsys.readouterr().out
        assert "violating pair: (1, 2)" in out_text
        assert "gap:" in out_text

    def test_exact_cost_above_the_pair_cap_is_skipped_and_said(self, tmp_path, capsys):
        # The k = 4 carrier has 16 atoms a side, so 256 atom pairs: above a
        # cap of 100 the report has no exact cost, the run still exits 0,
        # and stdout names k and the cap.
        out = tmp_path / "report.json"
        argv = ["counterexample", "--p", "2", "--q", "1", "--k", "4", "--max-pairs", "100", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["exact_cost"] is None
        assert "exact cost: skipped at k=4: more than --max-pairs 100 atom pairs" in capsys.readouterr().out

    def test_checkerboard_from_file(self, tmp_path, capsys):
        cop_path = tmp_path / "cop.json"
        cop_path.write_text(json.dumps(copula_to_dict(independence(2, 4))))
        out = tmp_path / "report.json"
        rc = main(
            [
                "counterexample", "--p", "1", "--q", "2",
                "--copula", f"checkerboard:{cop_path}", "--out", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["copula"] == "checkerboard(n=2, k=4)"

    def test_checkerboard_rejects_a_different_k(self, tmp_path, capsys):
        cop_path = tmp_path / "cop.json"
        cop_path.write_text(json.dumps(copula_to_dict(independence(2, 4))))
        out = tmp_path / "report.json"
        rc = main(
            [
                "counterexample", "--p", "1", "--q", "2", "--k", "8",
                "--copula", f"checkerboard:{cop_path}", "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--k 8" in err and "k = 4" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "obj, words",
        [
            # A (k,) * n tensor cannot have more axes than numpy's 64, and
            # 2**20000 has more digits than int-to-str formats by default.
            ({"variant": "checkerboard", "n": 20000, "k": 2, "masses": [1.0]}, ["at most 64", "20000"]),
            ({"variant": "checkerboard", "n": 65, "k": 1, "masses": [1.0]}, ["at most 64", "65"]),
            # (10**70)**64 has 4,481 digits: the size error names k and n instead.
            ({"variant": "checkerboard", "n": 64, "k": 10**70, "masses": [1.0]}, ["cell masses", "n = 64"]),
        ],
    )
    def test_checkerboard_file_of_impossible_size_is_a_usage_error(self, tmp_path, capsys, obj, words):
        cop_path = tmp_path / "cop.json"
        cop_path.write_text(json.dumps(obj))
        out = tmp_path / "report.json"
        argv = ["counterexample", "--p", "1", "--q", "2", "--copula", f"checkerboard:{cop_path}", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkerboard:")
        assert all(word in err for word in words)
        assert not out.exists()

    def test_checkerboard_file_too_loose_for_the_rewired_law_is_a_usage_error(self, tmp_path, capsys):
        # Moving 5e-11 between two diagonal cells keeps every slice within
        # the checkerboard's tolerance, so the file loads, but the rewired
        # target law then misses the original by more than 1e-12.
        masses = np.full((4, 4), 1.0 / 16.0)
        masses[0, 0] += 5e-11
        masses[1, 1] -= 5e-11
        cop_path = tmp_path / "cop.json"
        cop_path.write_text(json.dumps(copula_to_dict(checkerboard(2, 4, masses))))
        out = tmp_path / "report.json"
        argv = ["counterexample", "--p", "2", "--q", "1", "--copula", f"checkerboard:{cop_path}", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: pair_skeleton: the rewired target law does not match")
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [cop_path]

    @pytest.mark.parametrize("k", [16, 17])
    def test_antidiagonal_file_has_no_violating_pair(self, tmp_path, capsys, k):
        cop_path = tmp_path / "anti.json"
        cop_path.write_text(json.dumps(copula_to_dict(discretize(countermonotone(), k))))
        rc = main(
            [
                "counterexample", "--p", "2", "--q", "1",
                "--copula", f"checkerboard:{cop_path}",
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert rc == 4
        assert "no violating pair" in capsys.readouterr().out

    def test_no_violating_pair_exit(self, tmp_path, capsys):
        rc = main(
            [
                "counterexample", "--p", "1", "--q", "2", "--copula", "comonotone",
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert rc == 4
        assert "no violating pair" in capsys.readouterr().out
        assert not (tmp_path / "report.json").exists()

    def test_schedule_exhausted_exit_keeps_curve(self, tmp_path, capsys):
        out = tmp_path / "tiny.json"
        rc = main(
            [
                "counterexample", "--p", "2", "--q", "2.000000001", "--k", "8",
                "--out", str(out),
            ]
        )
        assert rc == 5
        assert "schedule exhausted" in capsys.readouterr().out
        assert not out.exists()
        curve_lines = (tmp_path / "tiny.csv").read_text().splitlines()
        assert len(curve_lines) == 17

    def test_out_that_is_its_own_curve_is_rejected_before_the_search(self, tmp_path, capsys, monkeypatch):
        # The curve goes to <out>.csv, so a .csv report would be overwritten;
        # a search would call None and fail with a TypeError.
        monkeypatch.setattr(cli, "gap_search", None)
        out = tmp_path / "r.csv"
        rc = main(["counterexample", "--p", "1", "--q", "2", "--k", "8", "--out", str(out)])
        assert rc == 2
        assert "overwritten by the gap curve" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_creates_the_out_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "deeper" / "report.json"
        rc = main(["counterexample", "--p", "1", "--q", "2", "--k", "8", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["gap"] > 0
        assert len(out.with_suffix(".csv").read_text().splitlines()) == 17

    def test_schedule_exhausted_creates_the_out_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "tiny.json"
        rc = main(["counterexample", "--p", "2", "--q", "2.000000001", "--k", "8", "--out", str(out)])
        assert rc == 5
        assert not out.exists()
        assert len((tmp_path / "new" / "tiny.csv").read_text().splitlines()) == 17

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--p", "1", "--q", "2", "--copula", "comonotone"], 4),
            (["--p", "2", "--q", "1", "--n", "1"], 2),
        ],
    )
    def test_failed_run_creates_no_directory(self, tmp_path, capsys, argv, code):
        out = tmp_path / "new" / "report.json"
        assert main(["counterexample", *argv, "--out", str(out)]) == code
        assert list(tmp_path.iterdir()) == []

    def test_report_path_that_is_a_directory_writes_no_curve(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["counterexample", "--p", "1", "--q", "2", "--k", "8", "--out", str(out)]) == 2
        assert sorted(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []


class TestOutputNamingAnInput:
    # Each clash is refused before any work: the solvers are replaced by None,
    # which a run that got that far would call and fail on with a TypeError.
    @pytest.mark.parametrize("command, solver", [("exact", "exact_ot"), ("diamond", "diamond")])
    @pytest.mark.parametrize("flag", ["--mu", "--rho"])
    def test_emit_plan_naming_a_measure(self, line_pair, capsys, monkeypatch, command, solver, flag):
        monkeypatch.setattr(cli, solver, None)
        mu, rho = line_pair
        target = {"--mu": mu, "--rho": rho}[flag]
        before = Path(target).read_bytes()
        assert main([command, "--mu", mu, "--rho", rho, "--emit-plan", target]) == 2
        err = capsys.readouterr().err
        assert "--emit-plan" in err and flag in err
        assert Path(target).read_bytes() == before

    @pytest.mark.parametrize("spelling", ["cb.json", "./cb.json", "{tmp}/cb.json"])
    def test_out_naming_the_checkerboard_file(self, tmp_path, capsys, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "gap_search", None)
        cop_path = tmp_path / "cb.json"
        cop_path.write_text(json.dumps(copula_to_dict(independence(2, 4))))
        before = cop_path.read_bytes()
        out = spelling.format(tmp=tmp_path)
        assert main(["counterexample", "--p", "2", "--q", "1", "--copula", "checkerboard:cb.json", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "--copula" in err
        assert cop_path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [cop_path]

    def test_gap_curve_landing_on_the_checkerboard_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gap_search", None)
        cop_path = tmp_path / "cb.csv"
        cop_path.write_text(json.dumps(copula_to_dict(independence(2, 4))))
        before = cop_path.read_bytes()
        argv = ["counterexample", "--p", "2", "--q", "1", "--copula", f"checkerboard:{cop_path}"]
        assert main([*argv, "--out", str(tmp_path / "cb.json")]) == 2
        err = capsys.readouterr().err
        assert "gap curve of --out" in err and "--copula" in err
        assert cop_path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [cop_path]


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "copula_ot", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "usage:" in proc.stdout
    for name in ("diamond", "exact", "verify", "counterexample"):
        assert name in proc.stdout
