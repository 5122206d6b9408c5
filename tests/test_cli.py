import json

import pytest

from gradedsg import algebra as al
from gradedsg import cli
from gradedsg import parser as ps
from gradedsg.errors import MiniLangSyntaxError, UnknownSymbol


# ---------------------------------------------------------------------------
# mini-language

def test_parse_examples():
    assert al.to_text(ps.parse_expr("lambda+ * lambda-")) == "alpha"
    got = ps.parse_expr("D- Phi")
    assert al.to_text(got) == ("psi+ + theta+*F - 1/2*theta-*X_{-} "
                               "- 1/2*theta-*theta+*psi-_{-}")
    assert ps.parse_expr("sin(2*pi)").is_zero()


def test_parse_error_positions():
    with pytest.raises(MiniLangSyntaxError) as err:
        ps.parse_expr("sin()")
    assert err.value.line == 1 and err.value.col == 5
    with pytest.raises(UnknownSymbol):
        ps.parse_expr("frobnicate")


def test_parse_print_roundtrip_on_engine_output():
    from gradedsg import model as md, superspace as ss
    res = md.sg_residual(ss.generic_superfield("Phi", 0))
    txt = al.to_text(res)
    assert (ps.parse_expr(txt) - res).is_zero()
    assert al.to_text(ps.parse_expr(txt)) == txt


# ---------------------------------------------------------------------------
# report entries

def test_report_zero_check_and_finding():
    from gradedsg.report import Report
    ctx = al.BT_CTX
    zero = al.GradedExpr.zero(ctx)
    residual = al.jet("X", 1, 0, ctx) - al.jet("Y", ctx=ctx)
    rep = Report("r")
    rep.add_zero_check("zero", zero, note="n")
    assert rep.status == "pass"
    rep.add_zero_check("nonzero", residual)
    rep.add_finding("finding", residual)
    rep.add_finding("no finding", zero)
    by_name = {e.name: e for e in rep.entries}
    assert (by_name["zero"].status, by_name["zero"].residual_terms) == ("pass", ())
    assert by_name["zero"].details == {"note": "n"}
    assert by_name["nonzero"].status == "fail"
    assert by_name["nonzero"].residual_terms == ("X_{-} - Y",)
    assert by_name["finding"].status == "info"
    assert by_name["finding"].residual_terms == ("X_{-} - Y",)
    assert by_name["finding"].details == {"is_zero": False}
    assert by_name["no finding"].residual_terms == ()
    assert by_name["no finding"].details == {"is_zero": True}
    assert rep.status == "fail"


# ---------------------------------------------------------------------------
# run orchestration

def test_run_light_checks_exit_zero(capsys):
    rc = cli.main(["--check", "derive-eom", "--check", "components"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS derive-eom" in out and "PASS components" in out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.build_arg_parser().parse_args(["--frobnicate"])
    assert exc.value.code == 2


def test_bad_check_name_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.build_arg_parser().parse_args(["--check", "nonsense"])
    assert exc.value.code == 2


def test_bad_grid_exits_two(capsys):
    assert cli.main(["--grid", "1,2", "--check", "derive-eom"]) == 2


def test_sabotage_flag_fails_run(capsys):
    rc = cli.main(["--check", "verify-bt", "--sabotage", "flip-first"])
    assert rc == 1


def test_eval_mode(capsys):
    assert cli.main(["--eval", "lambda- * lambda+"]) == 0
    out = capsys.readouterr().out
    assert "text: -alpha" in out
    assert "degree: (1,1)" in out
    assert cli.main(["--eval", "sin()"]) == 2


def test_json_schema(capsys):
    rc = cli.main(["--check", "derive-eom", "--check", "redundancy",
                   "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"reports", "golden_mismatches"}
    for rep in data["reports"]:
        assert set(rep) == {"check", "status", "residual_terms", "details"}
        assert rep["status"] in ("pass", "fail", "info")
        assert all(isinstance(t, str) for t in rep["residual_terms"])
        assert isinstance(rep["details"], dict)
        for entry in rep["details"]["entries"]:
            assert set(entry) == {"check", "status", "residual_terms", "details"}


def test_output_deterministic(capsys):
    argv = ["--check", "components", "--check", "redundancy", "--order", "4"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_golden_flow(tmp_path, capsys):
    argv = ["--check", "redundancy", "--order", "3",
            "--golden", str(tmp_path)]
    assert cli.main(argv) == 0  # first run writes the golden file
    assert (tmp_path / "redundancy.txt").exists()
    capsys.readouterr()
    assert cli.main(argv) == 0  # second run matches
    capsys.readouterr()
    (tmp_path / "redundancy.txt").write_text("corrupted\n")
    assert cli.main(argv) == 1  # mismatch is an error
    out = capsys.readouterr().out
    assert "GOLDEN-MISMATCH" in out


def test_shipped_golden_files_match(capsys):
    import os
    golden = os.path.join(os.path.dirname(__file__), "..", "golden")
    if not os.path.isdir(golden):
        pytest.skip("golden directory not present")
    argv = ["--check", "redundancy", "--check", "conservation-audit",
            "--golden", golden]
    assert cli.main(argv) == 0
