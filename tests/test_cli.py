import hashlib
import json
import tracemalloc
import warnings

import pytest

from combtn import cli, costmodel, tensor, verification
from combtn.cli import main
from combtn.verification import run_verification
from pools import recording_shares

REFERENCE_FLAGS = ["--teeth", "50", "--tooth-len", "5",
                   "--dim-raw", "100", "--dim-comp", "30"]

# stdout of `verify --grid small --seed 42`
SMALL_GRID_DIGEST = "be0dcb2fc72dc27add011094fe7bab6635fe9ae399b7a5d9d30e82b5e2e36138"

# `contract` at M=5, N=3, D=6, d=3, x=4, seed 42: the counts, closed forms and
# residual each kind reports, and the comb's text output
SMALL_FLAGS = ["--teeth", "5", "--tooth-len", "3", "--dim-raw", "6",
               "--dim-comp", "3", "--bond", "4"]
SMALL_PAYLOADS = {
    "mps": {"kind": "mps", "scalar": -1.2422495032112843e-05,
            "measured_multiplications": 1130, "analytic_schedule": 1130,
            "analytic_printed": 1130, "residual_printed_minus_measured": 0},
    "comb": {"kind": "comb", "scalar": -4.957081461840973e-09,
             "measured_multiplications": 1246, "analytic_schedule": 1246,
             "analytic_printed": 1326, "residual_printed_minus_measured": 80},
}
SMALL_COMB_TEXT = """\
kind: comb
parameters: teeth=5 tooth-len=3 dim-raw=6 dim-comp=3 bond=4 seed=42
scalar: -4.9570814618409727e-09
measured multiplications: 1,246
analytic (schedule basis): 1,246
analytic (printed basis):  1,326
residual (printed - measured): 80
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCost:
    def test_reference_table(self, capsys):
        code, out, _ = run(capsys, ["cost", *REFERENCE_FLAGS, "--bond", "10"])
        assert code == 0
        assert "1,519,410" in out
        assert "1,438,010" in out
        assert "1,443,010" in out
        assert "81,400" in out
        assert "comb cheaper" in out

    def test_minimal_chain(self, capsys):
        code, out, _ = run(capsys, ["cost", "--teeth", "2", "--tooth-len", "1",
                                    "--dim-raw", "1", "--dim-comp", "1", "--bond", "1"])
        assert code == 0
        mps_block = out.split("comb contraction")[0]
        total_line = [l for l in mps_block.splitlines() if "total" in l][0]
        assert total_line.split()[-1] == "5"

    def test_invalid_dimensions_exit_2(self, capsys):
        code, _, err = run(capsys, ["cost", "--teeth", "2", "--tooth-len", "1",
                                    "--dim-raw", "2", "--dim-comp", "5", "--bond", "1"])
        assert code == 2
        assert "must not exceed raw" in err

    def test_unknown_flag_exits_2(self, capsys):
        code, out, err = run(capsys, ["cost", *REFERENCE_FLAGS, "--bond", "10", "--nope"])
        assert code == 2
        assert out == ""
        assert "error: unrecognized arguments: --nope" in err

    def test_count_past_64_bits_prints_nothing(self, capsys):
        code, out, err = run(capsys, ["cost", "--teeth", "3", "--tooth-len", "1",
                                      "--dim-raw", "1", "--dim-comp", "1",
                                      "--bond", "4194304"])
        assert code == 2
        assert out == ""
        assert err == ("error: multiplication count 73787029071413116931 "
                       "exceeds the 64-bit range\n")


class TestThreshold:
    def test_reference_text(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--teeth", "50", "--dim-comp", "30"])
        assert code == 0
        assert "x- = 1.04" in out
        assert "x+ = 28.92" in out
        assert "28.83" in out  # discrepancy note for the quoted value
        assert "comb-window" in out

    def test_no_real_roots(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--teeth", "50", "--dim-comp", "2"])
        assert code == 0
        assert "no real roots; MPS always cheaper" in out

    def test_two_teeth_is_a_linear_equation(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--teeth", "2", "--dim-comp", "30"])
        assert code == 0
        assert out.splitlines()[2:] == [
            "linear: 2*x = 0  (the x^2 term vanishes at M = 2)",
            "root: x = 0",
            "MPS always cheaper for x >= 1",
        ]
        assert "discriminant" not in out and "no real roots" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--teeth", "50",
                                    "--dim-comp", "30", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["x_minus"] == 1.037308
        assert payload["x_plus"] == 28.921026
        assert payload["regime"] == "comb-window"
        assert payload["discriminant"] == 1791364.0

    def test_a_double_root_is_degenerate(self, capsys):
        # d = 4 + 2*sqrt(3) puts the discriminant at M = 3 at exactly 0
        argv = ["threshold", "--teeth", "3", "--dim-comp", "7.464101615137754"]
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == 0
        assert out == ('{"x_minus": 2.732051, "x_plus": 2.732051, '
                       '"regime": "degenerate", "discriminant": 0.0}\n')
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[2:] == [
            "quadratic: 1*x^2 + -5.4641*x + 7.4641 = 0  (discriminant 0)",
            "x- = 2.73",
            "x+ = 2.73",
            "regime: degenerate",
        ]

    def test_json_without_roots(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--teeth", "50",
                                    "--dim-comp", "2", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["x_minus"] is None and payload["x_plus"] is None
        assert payload["regime"] == "mps-always-cheaper"

    @pytest.mark.parametrize("teeth, dim_comp", [
        ("50", "nan"), ("50", "inf"), ("50", "1e300"), (str(10**400), "30"),
    ], ids=["nan", "inf", "1e300", "teeth-1e400"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_values_without_float64_roots_exit_2(self, capsys, teeth, dim_comp, as_json):
        argv = ["threshold", "--teeth", teeth, "--dim-comp", dim_comp]
        code, out, err = run(capsys, argv + ["--json"] * as_json)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSweep:
    def test_reference_rows(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["sweep", "--teeth", "50", "--d-min", "5",
                                  "--d-max", "60", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "d,x_minus,x_plus,regime"
        assert len(lines) == 57
        assert "30,1.037308,28.921026,comb-window" in lines

    def test_empty_fields_without_roots(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        run(capsys, ["sweep", "--teeth", "50", "--d-min", "1", "--d-max", "4",
                     "--out", str(out_csv)])
        lines = out_csv.read_text().splitlines()[1:]
        assert lines == [f"{d},,,mps-always-cheaper" for d in range(1, 5)]

    def test_exact_integer_d_past_2_to_the_53(self, capsys, tmp_path):
        # float64 holds neither 2**53 + 1 nor 2**53 + 3; the CSV prints each d
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["sweep", "--teeth", "200", "--d-min", "9007199254740990",
                                  "--d-max", "9007199254741000", "--out", str(out_csv)])
        assert code == 0
        first = [line.split(",")[0] for line in out_csv.read_text().splitlines()[1:]]
        assert first == [str(d) for d in range(9007199254740990, 9007199254741001)]

    def test_byte_identical_rerun(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--teeth", "50", "--d-min", "5", "--d-max", "60", "--out"]
        run(capsys, argv + [str(a)])
        run(capsys, argv + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_svg_chart(self, capsys, tmp_path):
        svg = tmp_path / "chart.svg"
        run(capsys, ["sweep", "--teeth", "50", "--d-min", "5", "--d-max", "60",
                     "--out", str(tmp_path / "s.csv"), "--svg", str(svg)])
        content = svg.read_text()
        assert content.count("<polyline") == 2
        assert 'viewBox="0 0 800 600"' in content
        assert ">x-</text>" in content and ">x+</text>" in content
        assert ">d</text>" in content

    @pytest.mark.parametrize("argv, digest", [
        (["--teeth", "50", "--d-min", "5", "--d-max", "60"],
         "e60a7beeba8f498b87988c68d37008120a55e0fb1e63bc7b132973f8e4c0e5ae"),
        (["--teeth", "7", "--d-min", "1", "--d-max", "1000", "--step", "37"],
         "62bd33db19b1e4119f1c66101968de6d9820a98815ed77d275af4d3d0ddbf99e"),
    ])
    def test_svg_chart_bytes_are_pinned(self, capsys, tmp_path, argv, digest):
        svg = tmp_path / "chart.svg"
        run(capsys, ["sweep", *argv, "--out", str(tmp_path / "s.csv"), "--svg", str(svg)])
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest

    def test_svg_sweep_keeps_only_what_the_chart_reads(self, capsys, tmp_path):
        # each row's (d, x-, x+), about 150 bytes, and the chart's own
        # strings: about 260 bytes a row at peak, where keeping every
        # ThresholdResult took about 710
        rows = 50_000
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, ["sweep", "--teeth", "50", "--d-min", "1",
                                      "--d-max", str(rows), "--out", str(tmp_path / "s.csv"),
                                      "--svg", str(tmp_path / "chart.svg")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 350 * rows

    def test_svg_chart_without_roots(self, capsys, tmp_path):
        # no d in the range gives M = 3 real roots: axes and legend, no lines
        svg = tmp_path / "chart.svg"
        code, _, _ = run(capsys, ["sweep", "--teeth", "3", "--d-min", "1", "--d-max", "3",
                                  "--out", str(tmp_path / "s.csv"), "--svg", str(svg)])
        assert code == 0
        content = svg.read_text()
        assert "<polyline" not in content
        assert ">x-</text>" in content and ">x+</text>" in content
        assert content.rstrip().endswith("</svg>")

    def test_range_without_float64_roots_exits_2(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        huge = str(10**200)
        code, out, err = run(capsys, ["sweep", "--teeth", "50", "--d-min", huge,
                                      "--d-max", huge, "--out", str(out_csv)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_csv.exists()

    @pytest.mark.parametrize("argv, digest", [
        (["--teeth", "50", "--d-min", "1", "--d-max", "120"],
         "c9186fa5ffb97cf2a8aa979a8a07dca5e595ff892e4406cf65f4980543a38f7d"),
        (["--teeth", "3", "--d-min", "2", "--d-max", "400", "--step", "7"],
         "d4178456cf2eac796094e3b16b419b0e2ce30ff3f4219e5261956a4b294a42f4"),
    ], ids=["teeth-50", "teeth-3-step-7"])
    def test_csv_bytes_are_pinned(self, capsys, tmp_path, argv, digest):
        # sha256 of the CSV the sweep wrote when it held every row first
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, ["sweep", *argv, "--out", str(out_csv)])
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest
        rows = out_csv.read_text().count("\n") - 1
        assert out == f"wrote {rows} rows to {out_csv}\n"

    def test_range_failing_at_its_far_end_writes_nothing(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, err = run(capsys, ["sweep", "--teeth", "50", "--d-min", "1",
                                      "--d-max", str(10**200), "--step", str(10**199),
                                      "--out", str(out_csv)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_csv.exists()

    def test_unwritable_path_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["sweep", "--teeth", "50", "--d-min", "5",
                                    "--d-max", "6", "--out",
                                    str(tmp_path / "missing" / "out.csv")])
        assert code == 1
        assert "error" in err

    def test_unwritable_chart_path_writes_no_rows(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, err = run(capsys, ["sweep", "--teeth", "50", "--d-min", "5",
                                      "--d-max", "8", "--out", str(out_csv),
                                      "--svg", str(tmp_path / "missing" / "s.svg")])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_csv.exists()

    def test_unwritable_csv_path_leaves_no_chart(self, capsys, tmp_path):
        svg = tmp_path / "s.svg"
        code, out, err = run(capsys, ["sweep", "--teeth", "50", "--d-min", "5",
                                      "--d-max", "8", "--svg", str(svg),
                                      "--out", str(tmp_path / "missing" / "s.csv")])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not svg.exists()

    @pytest.mark.parametrize("missing", ["svg", "out"])
    def test_unwritable_path_leaves_an_existing_file_as_it_was(self, capsys, tmp_path,
                                                               missing):
        paths = {"out": tmp_path / "sweep.csv", "svg": tmp_path / "s.svg"}
        kept = paths["svg" if missing == "out" else "out"]
        kept.write_text("before\n")
        paths[missing] = tmp_path / "missing" / paths[missing].name
        code, _, _ = run(capsys, ["sweep", "--teeth", "50", "--d-min", "5",
                                  "--d-max", "8", "--out", str(paths["out"]),
                                  "--svg", str(paths["svg"])])
        assert code == 1
        assert kept.read_text() == "before\n"

    def test_existing_files_are_overwritten(self, capsys, tmp_path):
        out_csv, svg = tmp_path / "sweep.csv", tmp_path / "s.svg"
        argv = ["sweep", "--teeth", "50", "--d-min", "5", "--d-max", "8",
                "--out", str(out_csv), "--svg", str(svg)]
        assert run(capsys, argv)[0] == 0
        first = out_csv.read_bytes(), svg.read_bytes()
        out_csv.write_text("x" * 10000)
        svg.write_text("x" * 100000)
        assert run(capsys, argv)[0] == 0
        assert (out_csv.read_bytes(), svg.read_bytes()) == first

    @pytest.mark.parametrize("svg", ["same.csv", "./same.csv"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_one_file_for_csv_and_chart_is_refused(self, capsys, tmp_path, monkeypatch,
                                                   svg, existing):
        monkeypatch.chdir(tmp_path)
        same = tmp_path / "same.csv"
        if existing:
            same.write_text("before\n")
        code, out, err = run(capsys, ["sweep", "--teeth", "50", "--d-min", "5",
                                      "--d-max", "7", "--out", "same.csv", "--svg", svg])
        assert code == 2
        assert out == ""
        assert err == "error: --out and --svg name one file, same.csv\n"
        # an existing file is untouched, and a missing one is not created
        assert list(tmp_path.iterdir()) == ([same] if existing else [])
        assert not existing or same.read_text() == "before\n"

    @pytest.mark.parametrize("link", ["hard", "symbolic", "dangling"])
    def test_linked_files_for_csv_and_chart_are_refused(self, capsys, tmp_path, monkeypatch,
                                                        link):
        # the opened files are compared, so a link to --out names its file
        monkeypatch.chdir(tmp_path)
        same, linked = tmp_path / "same.csv", tmp_path / "linked.csv"
        if link != "dangling":
            same.write_text("before\n")
        if link == "hard":
            linked.hardlink_to(same)
        else:
            linked.symlink_to("same.csv")
        code, out, err = run(capsys, ["sweep", "--teeth", "50", "--d-min", "5",
                                      "--d-max", "7", "--out", "same.csv", "--svg", "linked.csv"])
        assert code == 2
        assert out == ""
        assert err == "error: --out and --svg name one file, same.csv\n"
        # what was there is untouched: the link too, and a file the opens
        # made through a dangling link is removed
        assert sorted(tmp_path.iterdir()) == ([linked] if link == "dangling" else [linked, same])
        assert linked.is_symlink() == (link != "hard")
        assert link == "dangling" or same.read_text() == "before\n"


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--grid", "small"])
        assert code == 0
        assert "all checks passed" in out
        assert out.count("[PASS]") == 6

    def test_small_grid_stdout_is_pinned(self, capsys):
        code, out, _ = run(capsys, ["verify", "--grid", "small", "--seed", "42"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SMALL_GRID_DIGEST

    def test_deterministic_report(self):
        a = run_verification("small", seed=7)
        b = run_verification("small", seed=7)
        assert a == b

    @staticmethod
    def _corrupt(monkeypatch, name):
        # off by one at M=3, x=2 only
        original = getattr(costmodel, name)
        monkeypatch.setattr(costmodel, name, lambda p: original(p) + (
            1 if p.teeth == 3 and p.bond_dim == 2 else 0))

    def test_corrupted_formula_fails_naming_tuple(self, monkeypatch):
        self._corrupt(monkeypatch, "mps_cost")
        report = run_verification("small", seed=42)
        assert not report.ok
        assert report.first_failure.startswith("mps measured == closed form")
        assert "M=3" in report.first_failure
        assert "x=2" in report.first_failure

    def test_corrupted_printed_comb_form_fails_the_comb_check(self, monkeypatch):
        self._corrupt(monkeypatch, "comb_cost_printed")
        report = run_verification("small", seed=42)
        mps, comb = report.checks[:2]
        assert mps.ok and not comb.ok
        assert "M=3" in comb.failure and "x=2" in comb.failure
        assert report.first_failure.startswith("comb measured == printed form - M*x^2")

    def test_corrupted_schedule_comb_form_fails_only_the_residual(self, monkeypatch):
        self._corrupt(monkeypatch, "comb_cost_schedule")
        report = run_verification("small", seed=42)
        mps, comb, residual = report.checks[:3]
        assert mps.ok and comb.ok and not residual.ok
        assert comb.passed == report.tuples
        assert "M=3" in residual.failure and "x=2" in residual.failure
        assert "printed - schedule" in residual.failure

    def test_a_vieta_failure_prints_its_detail_line(self, monkeypatch, capsys):
        monkeypatch.setattr(verification, "verify_vieta", lambda result: False)
        code, out, _ = run(capsys, ["verify", "--grid", "small", "--seed", "42"])
        failure = ("at (M=4, d=68.16083137624305): roots (1.0307077568543817, "
                   "66.13012361938867) break Vieta")
        lines = out.splitlines()
        assert code == 1
        assert out.count("[PASS]") == 5
        assert lines[5:7] == [
            "  [FAIL] vieta identities on threshold roots (0 checked, 6 skipped)",
            f"         {failure}",
        ]
        assert lines[-1] == f"FAILED: vieta identities on threshold roots: {failure}"


class TestContract:
    def test_zero_data_scalar(self, capsys, tmp_path):
        data = tmp_path / "zeros.csv"
        data.write_text("\n".join(["0,0,0"] * 4) + "\n")
        code, out, _ = run(capsys, ["contract", "--kind", "mps", "--teeth", "2",
                                    "--tooth-len", "2", "--dim-raw", "3",
                                    "--dim-comp", "2", "--bond", "2",
                                    "--data", str(data)])
        assert code == 0
        assert "scalar: 0" in out

    @pytest.mark.parametrize("kind", ["mps", "comb"])
    def test_small_tuple_json_is_pinned(self, capsys, kind):
        code, out, _ = run(capsys, ["contract", "--kind", kind, *SMALL_FLAGS, "--json"])
        assert code == 0
        assert out == json.dumps(SMALL_PAYLOADS[kind]) + "\n"

    def test_small_tuple_comb_text_is_pinned(self, capsys):
        code, out, _ = run(capsys, ["contract", "--kind", "comb", *SMALL_FLAGS])
        assert code == 0
        assert out == SMALL_COMB_TEXT

    def test_reference_comb_count(self, capsys):
        code, out, _ = run(capsys, ["contract", "--kind", "comb",
                                    *REFERENCE_FLAGS, "--bond", "10"])
        assert code == 0
        assert "measured multiplications: 1,438,010" in out
        assert "analytic (printed basis):  1,443,010" in out
        assert "residual (printed - measured): 5,000" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["contract", "--kind", "comb", "--teeth", "2",
                                    "--tooth-len", "2", "--dim-raw", "3",
                                    "--dim-comp", "2", "--bond", "2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["measured_multiplications"] == 66
        assert payload["analytic_printed"] == 74
        assert payload["residual_printed_minus_measured"] == 8

    def test_kinds_make_no_equality_claim(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        rows = [",".join(str(v + r) for v in range(3)) for r in range(4)]
        data.write_text("\n".join(rows) + "\n")
        argv = ["--teeth", "2", "--tooth-len", "2", "--dim-raw", "3",
                "--dim-comp", "2", "--bond", "2", "--data", str(data), "--json"]
        _, out_mps, _ = run(capsys, ["contract", "--kind", "mps", *argv])
        _, out_comb, _ = run(capsys, ["contract", "--kind", "comb", *argv])
        assert json.loads(out_mps)["scalar"] != json.loads(out_comb)["scalar"]

    def test_orthonormal_flag(self, capsys):
        code, out, _ = run(capsys, ["contract", "--kind", "mps", "--teeth", "2",
                                    "--tooth-len", "1", "--dim-raw", "3",
                                    "--dim-comp", "2", "--bond", "2",
                                    "--orthonormal-u", "--json"])
        assert code == 0
        assert json.loads(out)["measured_multiplications"] == 22

    def test_malformed_cell_reports_row_column(self, capsys, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("0,0,0\n0,oops,0\n0,0,0\n0,0,0\n")
        code, _, err = run(capsys, ["contract", "--kind", "mps", "--teeth", "2",
                                    "--tooth-len", "2", "--dim-raw", "3",
                                    "--dim-comp", "2", "--bond", "2",
                                    "--data", str(data)])
        assert code == 2
        assert "row 2" in err and "column 2" in err

    @pytest.mark.parametrize("kind", ["mps", "comb"])
    def test_byte_order_mark_is_read_past(self, capsys, tmp_path, kind):
        # a spreadsheet's "CSV UTF-8" starts with U+FEFF
        text = "".join(f"{r + 1},{r + 2},{r + 3}\n" for r in range(4))
        scalars = []
        for name, prefix in (("plain.csv", ""), ("bom.csv", "\ufeff")):
            data = tmp_path / name
            data.write_text(prefix + text, encoding="utf-8")
            code, out, _ = run(capsys, ["contract", "--kind", kind, "--teeth", "2",
                                        "--tooth-len", "2", "--dim-raw", "3",
                                        "--dim-comp", "2", "--bond", "2",
                                        "--data", str(data), "--json"])
            assert code == 0
            scalars.append(json.loads(out)["scalar"])
        assert scalars[0] == scalars[1]

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_non_utf8_byte_names_file_and_row(self, capsys, tmp_path, mark):
        # a Latin-1 e-acute in row 3; a text-mode reader would decode the
        # whole small file before its first row
        data = tmp_path / "latin1.csv"
        data.write_bytes(mark + b"0,0,0\n0,0,0\n0,0,\xe9\n0,0,0\n")
        code, out, err = run(capsys, ["contract", "--kind", "mps", "--teeth", "2",
                                      "--tooth-len", "2", "--dim-raw", "3",
                                      "--dim-comp", "2", "--bond", "2",
                                      "--data", str(data)])
        assert code == 2
        assert out == ""
        assert str(data) in err and "row 3" in err and "UTF-8" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_exits_2(self, capsys, tmp_path, cell):
        data = tmp_path / "bad.csv"
        data.write_text(f"0,0,0\n0,0,0\n0,0,{cell}\n0,0,0\n")
        code, out, err = run(capsys, ["contract", "--kind", "mps", "--teeth", "2",
                                      "--tooth-len", "2", "--dim-raw", "3",
                                      "--dim-comp", "2", "--bond", "2",
                                      "--data", str(data), "--json"])
        assert code == 2
        assert out == ""
        assert "row 3" in err and "column 3" in err and "not finite" in err

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("kind, value", [("mps", "inf"), ("comb", "nan")])
    def test_overflowing_scalar_exits_1(self, capsys, tmp_path, kind, value, as_json):
        # finite data whose products leave the float64 range
        data = tmp_path / "big.csv"
        data.write_text("1e200,1e200,1e200\n" * 4)
        argv = ["contract", "--kind", kind, "--teeth", "2", "--tooth-len", "2",
                "--dim-raw", "3", "--dim-comp", "2", "--bond", "2",
                "--data", str(data)] + (["--json"] if as_json else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"scalar is {value}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("kind", ["mps", "comb"])
    def test_overflowing_scalar_exits_1_when_steps_split(self, capsys, tmp_path,
                                                         monkeypatch, kind, as_json):
        # at a chunk of one element every stacked step of two items or more
        # is split over the pool, the comb's tooth sweep, which overflows,
        # among them; pool threads must keep the caller's np.errstate, or
        # the overflow warns from a worker and escapes main as an exception.
        # Each element is then drawn from its own stream, so the MPS's
        # scalar is nan, not the inf of the default chunk
        monkeypatch.setattr(tensor, "_CHUNK", 1)
        monkeypatch.setattr(tensor, "_cpus", lambda: 3)
        shares = recording_shares(monkeypatch)
        self.test_overflowing_scalar_exits_1(capsys, tmp_path, kind, "nan", as_json)
        assert max(shares) > 1

    def test_refused_allocation_is_an_error_line(self, capsys):
        # the first backbone tensors alone would need 2 x 2^44 floats; numpy
        # refuses that at once, before any memory is touched
        code, out, err = run(capsys, ["contract", "--kind", "comb", "--teeth", "3",
                                      "--tooth-len", "1", "--dim-raw", "1",
                                      "--dim-comp", "1", "--bond", "4194304"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "TiB" in err

    def test_wrong_column_count(self, capsys, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("0,0\n0,0\n0,0\n0,0\n")
        code, _, err = run(capsys, ["contract", "--kind", "mps", "--teeth", "2",
                                    "--tooth-len", "2", "--dim-raw", "3",
                                    "--dim-comp", "2", "--bond", "2",
                                    "--data", str(data)])
        assert code == 2
        assert "row 1" in err and "expected 3" in err

    def test_wrong_row_count(self, capsys, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("0,0,0\n0,0,0\n")
        code, _, err = run(capsys, ["contract", "--kind", "mps", "--teeth", "2",
                                    "--tooth-len", "2", "--dim-raw", "3",
                                    "--dim-comp", "2", "--bond", "2",
                                    "--data", str(data)])
        assert code == 2
        assert "2 rows" in err and "expected 4" in err


class TestBench:
    def test_csv_columns_and_monotonicity(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(capsys, ["bench", "--teeth", "3", "--tooth-len", "2",
                                  "--dim-raw", "4", "--dim-comp", "3",
                                  "--bond-list", "1,2,3", "--reps", "3",
                                  "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "kind,x,measured_mults,median_ns,reps"
        assert len(lines) == 7
        from combtn.costmodel import comb_cost_schedule, mps_cost
        from combtn.network import NetworkParams
        mults = {}
        for line in lines[1:]:
            kind, x, measured, median_ns, reps = line.split(",")
            assert int(median_ns) > 0
            assert reps == "3"
            mults[(kind, int(x))] = int(measured)
        for x in (1, 2, 3):
            p = NetworkParams(dim_raw=4, dim_comp=3, bond_dim=x, teeth=3, tooth_len=2)
            assert mults[("mps", x)] == mps_cost(p)
            assert mults[("comb", x)] == comb_cost_schedule(p)
        for kind in ("mps", "comb"):
            assert mults[(kind, 1)] < mults[(kind, 2)] < mults[(kind, 3)]

    def test_unwritable_out_is_refused_before_any_build(self, capsys, tmp_path,
                                                         monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_mps", lambda *args, **kw: built.append(args))
        monkeypatch.setattr(cli, "build_comb", lambda *args, **kw: built.append(args))
        code, out, err = run(capsys, ["bench", "--teeth", "3", "--tooth-len", "1",
                                      "--dim-raw", "2", "--dim-comp", "2",
                                      "--bond-list", "2", "--out",
                                      str(tmp_path / "missing-dir" / "b.csv")])
        assert code == 1
        assert out == ""
        assert err.startswith("error: [Errno 2]") and err.count("\n") == 1
        assert built == []

    def test_rows_timed_before_a_refused_allocation_are_kept(self, capsys, tmp_path):
        # the MPS at x=2 is timed; its x=4194304 interior sites are refused
        out_csv = tmp_path / "b.csv"
        code, out, err = run(capsys, ["bench", "--teeth", "3", "--tooth-len", "1",
                                      "--dim-raw", "1", "--dim-comp", "1",
                                      "--bond-list", "2,4194304",
                                      "--out", str(out_csv)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "kind,x,measured_mults,median_ns,reps"
        assert [line.split(",")[:2] for line in lines[1:]] == [["mps", "2"]]

    def test_too_few_reps_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["bench", "--teeth", "3", "--tooth-len", "1",
                                    "--dim-raw", "2", "--dim-comp", "2",
                                    "--bond-list", "1", "--reps", "2",
                                    "--out", str(tmp_path / "b.csv")])
        assert code == 2
        assert "error: argument --reps: must be an integer >= 3, got '2'" in err
        assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("bond_list", ["2,x", "", ",", "0", "2,-1"],
                         ids=["not-a-number", "empty", "no-entry", "zero", "negative"])
def test_bad_bond_list_is_a_usage_error_naming_the_flag(capsys, tmp_path, bond_list):
    out_csv = tmp_path / "b.csv"
    code, out, err = run(capsys, [
        "bench", "--teeth", "2", "--tooth-len", "1", "--dim-raw", "2",
        "--dim-comp", "2", "--bond-list", bond_list, "--out", str(out_csv)])
    assert code == 2
    assert out == ""
    assert "error: argument --bond-list" in err
    assert repr(bond_list) in err
    assert not out_csv.exists()


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command in ("cost", "contract", "bench")
    for flag, value in (("--teeth", "1"), ("--tooth-len", "0"), ("--dim-raw", "0"),
                        ("--dim-comp", "-1"), ("--bond", "0"), ("--teeth", "two"))
    if (command, flag) != ("bench", "--bond")
])
def test_network_flag_out_of_bounds_is_a_usage_error_naming_the_flag(
        capsys, tmp_path, command, flag, value):
    out_csv = tmp_path / "b.csv"
    flags = {"--teeth": "2", "--tooth-len": "1", "--dim-raw": "2", "--dim-comp": "2"}
    extra = {"cost": ["--bond", "2"], "contract": ["--kind", "mps", "--bond", "2"],
             "bench": ["--bond-list", "2", "--out", str(out_csv)]}[command]
    argv = [command, *(item for pair in flags.items() for item in pair), *extra]
    argv[argv.index(flag) + 1] = value
    code, out, err = run(capsys, argv)
    low = 2 if flag == "--teeth" else 1
    assert code == 2
    assert out == ""
    assert f"error: argument {flag}: must be an integer >= {low}, got {value!r}" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("command, flag, value, low", [
    ("threshold", "--teeth", "1", 2),
    ("sweep", "--teeth", "1", 2),
    ("sweep", "--d-min", "0", 1),
    ("sweep", "--d-max", "0", 1),
    ("sweep", "--step", "0", 1),
], ids=["threshold-teeth", "sweep-teeth", "sweep-d-min", "sweep-d-max", "sweep-step"])
def test_threshold_and_sweep_bounds_are_usage_errors_naming_the_flag(
        capsys, tmp_path, command, flag, value, low):
    out_csv = tmp_path / "s.csv"
    argv = {"threshold": ["threshold", "--teeth", "50", "--dim-comp", "30"],
            "sweep": ["sweep", "--teeth", "50", "--d-min", "5", "--d-max", "6",
                      "--step", "1", "--out", str(out_csv)]}[command]
    argv[argv.index(flag) + 1] = value
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"error: argument {flag}: must be an integer >= {low}, got {value!r}" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "-5"],
    ["contract", "--kind", "mps", "--teeth", "2", "--tooth-len", "1",
     "--dim-raw", "2", "--dim-comp", "2", "--bond", "2", "--seed", "-5"],
    ["bench", "--teeth", "2", "--tooth-len", "1", "--dim-raw", "2",
     "--dim-comp", "2", "--bond-list", "1", "--seed", "-5", "--out", "unused.csv"],
    ["verify", "--seed", "five"],
], ids=["verify", "contract", "bench", "not-a-number"])
def test_bad_seed_is_a_usage_error_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error: argument --seed" in err
    assert repr(argv[argv.index("--seed") + 1]) in err


def test_help_exits_0(capsys):
    code, out, err = run(capsys, ["bench", "--help"])
    assert code == 0 and err == ""
    assert "--reps" in out
