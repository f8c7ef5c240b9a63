import json
import warnings

import pytest

from combtn.cli import main
from combtn.verification import run_verification

REFERENCE_FLAGS = ["--teeth", "50", "--tooth-len", "5",
                   "--dim-raw", "100", "--dim-comp", "30"]


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

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--nope"])
        assert exc.value.code == 2


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

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--teeth", "50",
                                    "--dim-comp", "30", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["x_minus"] == 1.037308
        assert payload["x_plus"] == 28.921026
        assert payload["regime"] == "comb-window"
        assert payload["discriminant"] == 1791364.0

    def test_json_without_roots(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--teeth", "50",
                                    "--dim-comp", "2", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["x_minus"] is None and payload["x_plus"] is None
        assert payload["regime"] == "mps-always-cheaper"


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

    def test_unwritable_path_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["sweep", "--teeth", "50", "--d-min", "5",
                                    "--d-max", "6", "--out",
                                    str(tmp_path / "missing" / "out.csv")])
        assert code == 1
        assert "error" in err


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--grid", "small"])
        assert code == 0
        assert "all checks passed" in out
        assert out.count("[PASS]") == 6

    def test_deterministic_report(self):
        a = run_verification("small", seed=7)
        b = run_verification("small", seed=7)
        assert a == b

    def test_corrupted_formula_fails_naming_tuple(self):
        from combtn.costmodel import mps_cost

        def corrupted(p):
            return mps_cost(p) + (1 if p.teeth == 3 and p.bond_dim == 2 else 0)

        report = run_verification("small", seed=42, mps_cost_fn=corrupted)
        assert report.exit_code == 1
        assert not report.ok
        assert "M=3" in report.first_failure
        assert "x=2" in report.first_failure


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

    def test_too_few_reps_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["bench", "--teeth", "3", "--tooth-len", "1",
                                    "--dim-raw", "2", "--dim-comp", "2",
                                    "--bond-list", "1", "--reps", "2",
                                    "--out", str(tmp_path / "b.csv")])
        assert code == 2
        assert "reps" in err
