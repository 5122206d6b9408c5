import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gradedsg import algebra as al
from gradedsg import backlund as bt
from gradedsg import cli
from gradedsg import parser as ps
from gradedsg import superspace as ss
from gradedsg.errors import MiniLangSyntaxError, OutsideWindow, UnknownSymbol
from gradedsg.report import Report


# ---------------------------------------------------------------------------
# mini-language

def test_parse_examples():
    assert al.to_text(ps.parse_expr("lambda+ * lambda-")) == "alpha"
    got = ps.parse_expr("D- Phi")
    assert al.to_text(got) == ("psi+ + theta+*F - 1/2*theta-*X_{-} "
                               "- 1/2*theta-*theta+*psi-_{-}")
    assert ps.parse_expr("sin(2*pi)").is_zero()


def test_every_table_name_parses_to_its_atom():
    # the token alternations are derived from the field and generator
    # tables, longest name first, so each name is one token (alpha is not a
    # followed by lpha, psi+~ is not psi+ followed by ~) and prints back
    ctx = al.DEFAULT_CTX
    for name, info in al._REGISTRY.items():
        atom = al.jet(name, 0, 0, ctx)
        assert ps.parse_expr(name, ctx) == atom and al.to_text(atom) == name
        if not info.constant:
            atom = al.jet(name, 1, 2, ctx)
            text = name + "_{-++}"
            assert ps.parse_expr(text, ctx) == atom and al.to_text(atom) == text
    for name in al.GENERATORS:
        atom = al.gen(name, ctx)
        assert ps.parse_expr(name, ctx) == atom and al.to_text(atom) == name


def test_parse_error_positions():
    with pytest.raises(MiniLangSyntaxError) as err:
        ps.parse_expr("sin()")
    assert err.value.line == 1 and err.value.col == 5
    with pytest.raises(MiniLangSyntaxError, match="zero denominator") as err:
        ps.parse_expr("1/0")
    assert err.value.line == 1 and err.value.col == 1
    with pytest.raises(UnknownSymbol):
        ps.parse_expr("frobnicate")


def test_nesting_is_bounded():
    # each opener counts one level: MAX_DEPTH levels parse, of one opener or
    # mixed, and the first level past them is a syntax error at its opener
    depth = ps.MAX_DEPTH
    X = al.jet("X", ctx=al.BT_CTX)
    assert ps.parse_expr("(" * depth + "X" + ")" * depth) == X
    d_minus, d_plus = X, X
    for _ in range(depth):
        d_minus = ss.D_MINUS(d_minus)
    for _ in range(depth // 2):
        d_plus = ss.D_PLUS(d_plus)
    assert ps.parse_expr("D- " * depth + "X") == d_minus
    mixed = "D+ (" * (depth // 2)
    assert ps.parse_expr(mixed + "X" + ")" * (depth // 2)) == d_plus
    for opener, closer in (("(", ")"), ("D- ", ""), ("cos(", ")"), ("Z ", "")):
        with pytest.raises(MiniLangSyntaxError, match="nesting deeper than 100") as err:
            ps.parse_expr(opener * (depth + 1) + "X" + closer * (depth + 1))
        assert err.value.col == depth * len(opener) + 1, opener
    with pytest.raises(MiniLangSyntaxError, match="nesting") as err:
        ps.parse_expr(mixed + "sin(X)" + ")" * (depth // 2))
    assert err.value.col == len(mixed) + 1


def test_parse_print_roundtrip_on_engine_output():
    from gradedsg import model as md
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


def test_a_verdict_never_calls_an_inexact_zero_exact():
    # 0 + O(a^3) is zero only below a^3, so no report entry may call it
    # zero; a nonzero residual with a precision gets no verdict either
    ctx = al.BT_CTX
    for residual in (al.GradedExpr(ctx, prec=3), al.jet("X", ctx=ctx) + al.apow(9, ctx)):
        assert residual.prec is not None
        rep = Report("r")
        with pytest.raises(OutsideWindow):
            rep.add_zero_check("zero", residual)
        with pytest.raises(OutsideWindow):
            rep.add_finding("finding", residual)
        assert rep.entries == []


# ---------------------------------------------------------------------------
# run orchestration

def test_run_light_checks_exit_zero(capsys):
    rc = cli.main(["--check", "derive-eom", "--check", "components"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS derive-eom" in out and "PASS components" in out


@pytest.mark.parametrize("order", ["1", "2"])
def test_expand_bt_at_low_orders(order, capsys):
    # the order-1 and order-2 values do not depend on --order
    assert cli.main(["--check", "expand-bt", "--order", order]) == 0
    assert "PASS order 2 value" in capsys.readouterr().out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.build_arg_parser().parse_args(["--frobnicate"])
    assert exc.value.code == 2


def test_bad_check_name_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.build_arg_parser().parse_args(["--check", "nonsense"])
    assert exc.value.code == 2


def test_bad_grid_exits_two(capsys):
    bad = [["--grid", "1,2", "--check", "derive-eom"],
           ["--grid", "20,0,0.1", "--check", "kink"],         # h = 0
           ["--grid", "20,-0.5,0.1", "--check", "kink"],      # h < 0
           ["--grid", "0,0.01,0.005", "--check", "kink"],     # L = 0
           ["--grid", "1,0.6,0.1", "--check", "kink"],        # under 5 points
           ["--grid", "20,0.01,0.02", "--check", "kink"],     # dt > h
           ["--grid", "nan,0.1,0.01", "--check", "kink"],
           ["--grid", "20,0.1,inf", "--check", "kink"],
           # RunConfig admits it, but the fermion grid has 3 nodes a side
           ["--grid", "20,2,1", "--check", "fermions"],
           ["--bt-a", "0", "--check", "bt-numeric"],
           ["--bt-a", "nan", "--check", "bt-numeric"],
           # a path under an existing file: makedirs fails, nothing is made
           ["--out-dir", os.path.join(__file__, "x"), "--check", "kink"]]
    for argv in bad:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_sabotage_flag_fails_run(capsys, monkeypatch):
    # a failing check exits 1; sabotage lives in the reports' own controls,
    # so the command line has no --sabotage option
    failing = Report("verify-bt")
    failing.add("planted failure", "fail")
    monkeypatch.setitem(cli.CHECKS, "verify-bt", lambda cfg: failing)
    assert cli.main(["--check", "verify-bt"]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["--check", "verify-bt", "--sabotage", "flip-first"])
    assert exc.value.code == 2


def test_verify_bt_reads_its_control_from_the_minus_report(capsys, monkeypatch):
    # two verifications and no third, sabotaged one: the control line is the
    # minus report's own sign-flip entry
    control = "sign-flipped system is rejected"
    calls = []
    verify = bt.verify_auto_bt

    def counted(sys):
        calls.append(sys.orientation)
        return verify(sys)

    monkeypatch.setattr(bt, "verify_auto_bt", counted)
    assert cli.main(["--check", "verify-bt"]) == 0
    assert calls == ["minus", "plus"]
    assert f"PASS {control}\n" in capsys.readouterr().out

    def plus_control_fails(sys):
        rep = verify(sys)
        if sys.orientation == "plus":
            next(e for e in rep.entries if e.name == control).status = "fail"
        return rep

    monkeypatch.setattr(bt, "verify_auto_bt", plus_control_fails)
    rep = cli.check_verify_bt(cli.RunConfig())
    assert {e.name: e.status for e in rep.entries}[control] == "pass"


def test_eval_mode(capsys):
    assert cli.main(["--eval", "lambda- * lambda+"]) == 0
    out = capsys.readouterr().out
    assert "text: -alpha" in out
    assert "degree: (1,1)" in out
    # a constant angle with a rational sine is reduced to its exact value
    assert cli.main(["--eval", "sin(1/6*pi) - 1/2"]) == 0
    assert "text: 0\n" in capsys.readouterr().out
    assert cli.main(["--eval", "sin()"]) == 2
    capsys.readouterr()
    # an inexact result shows its precision and only the terms below it: at
    # -inf no order is certified, so no term is shown
    for text, want in (("sin(a^-1)", "0 + O(a^-inf)"), ("a^9", "0 + O(a^9)"),
                       ("a^-3", "0 + O(a^-3)"),
                       # the window has z-order 0, so z is zero however it enters
                       ("z", "0"), ("z + X", "X"), ("D- z", "0"), ("Z z", "0")):
        assert cli.main(["--eval", text]) == 0
        assert f"text: {want}\n" in capsys.readouterr().out, text
    # expressions the engine rejects are expression errors too, and so are
    # a zero denominator and a power beyond the bound (on any base), which
    # must fail at once
    # nesting past the bound is a syntax error too, raised before the parser
    # runs out of stack
    for text in ("sin(psi+)", "sin(1)", "lambda+*eta+", "sin(X*X)", "1/0",
                 "X^99999999", "a^-65", "(" * 500 + "X" + ")" * 500,
                 "D- " * 3000 + "Phi", "sin(" * 400 + "X" + ")" * 400):
        assert cli.main(["--eval", text]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (text[:20], err)


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
    assert cli.main(argv) == 1  # a missing golden file is a mismatch
    assert "GOLDEN-MISMATCH" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # and nothing was written
    body = cli.CHECKS["redundancy"](cli.RunConfig(order=3)).to_text()
    (tmp_path / "redundancy.txt").write_text(body)
    assert cli.main(argv) == 0  # a file written from the API matches
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


def test_symbolic_checks_stdout_is_pinned(capsys):
    # the nine symbolic checks in text format, byte for byte: a change to
    # the report must come with a change to tests/symbolic_checks.txt
    assert cli.main([]) == 0
    want = (Path(__file__).parent / "symbolic_checks.txt").read_text()
    assert capsys.readouterr().out == want


def test_numeric_checks_stdout_is_pinned(capsys):
    # the three numeric checks at the default grid in text format, byte for
    # byte, printed values too: a change to an integrator or its report must
    # come with a change to tests/numeric_checks.txt
    assert cli.main(["--check", "kink", "--check", "bt-numeric", "--check", "fermions"]) == 0
    want = (Path(__file__).parent / "numeric_checks.txt").read_text()
    assert capsys.readouterr().out == want


def test_symbolic_checks_survive_python_O():
    # python -O strips assert statements; the engine's invariants raise
    # typed errors instead, so the optimized run prints the same report
    proc = _python("-O", "-m", "gradedsg.cli")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "symbolic_checks.txt").read_text()


# ---------------------------------------------------------------------------
# numpy is loaded by the numeric companion only

def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this gradedsg, with ``argv``
    after the executable (``-c``, code and its arguments, say)."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_symbolic_run_imports_no_numpy(tmp_path):
    golden = os.path.join(os.path.dirname(__file__), "..", "golden")
    if not os.path.isdir(golden):
        pytest.skip("golden directory not present")
    shutil.copytree(golden, tmp_path / "golden")
    argv = [a for c in cli.SYMBOLIC_CHECKS for a in ("--check", c)]
    code = ("import contextlib, io, sys\n"
            "import gradedsg, gradedsg.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = gradedsg.cli.main(sys.argv[2:] + ['--golden', sys.argv[1]])\n"
            "print(rc, 'numpy' in sys.modules)\n")
    proc = _python("-c", code, str(tmp_path / "golden"), *argv)
    assert proc.stdout == "0 False\n", proc.stderr


def test_numeric_loads_on_first_access():
    code = ("import math, sys\n"
            "import gradedsg\n"
            "before = 'numpy' in sys.modules\n"
            "print(before, gradedsg.numeric.kink(0.0) == math.pi)\n")
    proc = _python("-c", code)
    assert proc.stdout == "False True\n", proc.stderr


# ---------------------------------------------------------------------------
# interned ids follow the order of first use; no report may depend on them

_INTERN_ORDER = '''
import contextlib, io, random, sys
from fractions import Fraction as Q
from gradedsg import algebra as al
from gradedsg import backlund as bt

case, golden, pinned = sys.argv[1:]
if case == "times-run-first":
    # the first atom ever interned is kept through _times_run, after a bound jet
    assert len(al._TRIGS) == 1
    e = al.jet("Y") * al.trig("s", {"X": Q(1)})
    assert next(iter(e.terms))[8] == 1
    got = al.substitute_jets(e, lambda name, m, n: al.GradedExpr.rational(2) if name == "Y" else None)
    assert got == al.trig("s", {"X": Q(1)}).scale(2), al.to_text(got)
if case in ("times-run-first", "shuffled"):
    # jet tuples and trig atoms like those of the reports, in a random order
    atoms = [(name, m, n) for name in ("X", "X~", "psi+", "psi-", "psi+~", "psi-~", "F", "F~")
             for m in range(3) for n in range(3)]
    jets = [((atom, 1),) for atom in atoms]
    jets += [tuple(sorted(((a, 1), (b, 1)))) for a, b in zip(atoms, atoms[7:] + atoms[:7])]
    angles = [(kind, {"X": Q(x, 4), "X~": Q(xt, 4)}, Q(p, 4))
              for kind in "sc" for x in range(-4, 5) for xt in range(-4, 5) for p in range(2)]
    first = jets + angles
    random.Random(20).shuffle(first)
    for item in first:
        if isinstance(item[0], str):
            al.trig(*item)
        else:
            al._jet_id(item)
elif case == "redundancy-first":
    from gradedsg import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--check", "redundancy"])
from gradedsg import cli
with contextlib.redirect_stdout(io.StringIO()):
    audit = cli.main(["--check", "conservation-audit", "--golden", golden])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    symbolic = cli.main([])
print(audit, symbolic, out.getvalue() == open(pinned).read())
'''


@pytest.mark.parametrize("case", ["times-run-first", "shuffled", "redundancy-first"])
def test_reports_do_not_depend_on_intern_order(case):
    # a fresh interpreter interns in another order first; the audit must
    # still equal its golden file and the symbolic checks their pinned text
    root = Path(__file__).parents[1]
    if not (root / "golden").is_dir():
        pytest.skip("golden directory not present")
    proc = _python("-c", _INTERN_ORDER, case, str(root / "golden"),
                   str(Path(__file__).parent / "symbolic_checks.txt"))
    assert proc.stdout == "0 0 True\n", proc.stderr
