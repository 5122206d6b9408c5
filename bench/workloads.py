"""Workload passes and their known-answer oracles.

Imported by ``worker.py`` after gradedsg; every call goes through gradedsg's
public Python API.  A pass returns ``(digest_text, ops)`` where ``ops`` is a
list of ``(operation, error)`` pairs and ``error`` is None for an operation
whose verdict equals its known answer.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
from fractions import Fraction
from pathlib import Path

from gradedsg import algebra as al
from gradedsg import backlund as bt
from gradedsg import cli
from gradedsg import superspace as ss

GOLDEN_CHECKS = ("redundancy", "conservation-audit")
SABOTAGE_CONTROLS = {"verify-bt": "sign-flipped system is rejected",
                     "currents": "cancellation requires anticommuting parameters"}
AUDIT_POINTS = ((8, 4), (10, 6), (12, 8))
AUDIT_MUST_PASS = ("current identity (swapped-derivative reading)",
                   "two-path agreement (left side)",
                   "two-path agreement (right side)")
BRACKET_RELATIONS = 162

_HEADER = re.compile(r"^\[(?P<name>[^\]]+)\] status=(?P<status>\w+)$")


def _entries(report_text: str, prefix: str = "") -> dict[str, str]:
    """Entry name -> its status line and detail lines, from Report.to_text."""
    out: dict[str, str] = {}
    current = None
    for line in report_text.splitlines():
        if line[:2] == "  " and line[2:6] in ("PASS", "FAIL", "INFO") and line[6:7] == " ":
            name = line[7:]
            current = name[len(prefix):] if name.startswith(prefix) else None
            if current is not None:
                out[current] = line[:6]
        elif current is not None and line.startswith("         "):
            out[current] += "\n" + line
    return out


def _report_blocks(stdout: str) -> dict[str, str]:
    """Check name -> its report text, split from the CLI's text output."""
    blocks: dict[str, str] = {}
    name = None
    for line in stdout.splitlines(keepends=True):
        m = _HEADER.match(line.rstrip("\n"))
        if m:
            name = m["name"]
            blocks[name] = ""
        elif line.startswith("summary:"):
            name = None
        if name is not None:
            blocks[name] += line
    return blocks


# ---------------------------------------------------------------------------
# cli-all: the full command line, checked against known statuses and golden/

class CliAll:
    op_names = cli.ALL_CHECKS

    def __init__(self, root: Path, scratch: Path, inputs: dict):
        self.scratch = scratch
        self.golden = {c: (root / "golden" / f"{c}.txt").read_text()
                       for c in GOLDEN_CHECKS
                       if (root / "golden" / f"{c}.txt").is_file()}

    def _run_cli(self) -> tuple[int, str]:
        # cli._golden_diff writes a golden file that is missing, so the CLI
        # only ever sees a throwaway copy of golden/.
        tmp = self.scratch / "golden-copy"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        for check, text in self.golden.items():
            (tmp / f"{check}.txt").write_text(text)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["--all", "--golden", str(tmp)])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return rc, out.getvalue()

    def _oracle(self, rc: int, stdout: str) -> list:
        blocks = _report_blocks(stdout)
        ops = []
        for check in self.op_names:
            block = blocks.get(check)
            if block is None:
                err = "no report"
            elif check in GOLDEN_CHECKS:
                want = self.golden.get(check)
                err = ("golden file missing" if want is None else
                       None if block == want else "report differs from golden/")
            elif not block.startswith(f"[{check}] status=pass\n"):
                err = "status is not pass"
            elif (check in SABOTAGE_CONTROLS and
                  f"\n  PASS {SABOTAGE_CONTROLS[check]}\n" not in block):
                err = f"control '{SABOTAGE_CONTROLS[check]}' did not pass"
            else:
                err = None
            ops.append((check, err))
        if rc != 0 and all(err is None for _, err in ops):
            ops = [(check, f"cli exit code {rc}") for check, _ in ops]
        return ops

    def cold(self):
        rc, stdout = self._run_cli()
        return stdout, self._oracle(rc, stdout)

    warm = cold


# ---------------------------------------------------------------------------
# audit-sweep: the conservation audit as the Laurent window grows

class AuditSweep:
    op_names = tuple(f"audit amax={a} K={k}" for a, k in AUDIT_POINTS)

    def __init__(self, root: Path, scratch: Path, inputs: dict):
        path = root / "golden" / "conservation-audit.txt"
        self.golden = _entries(path.read_text(), "minus: ") if path.is_file() else None

    @staticmethod
    def _audit(amax: int, K: int):
        return bt.conservation_audit(
            bt.BTSystem(order=6, ctx=al.Context(0, -2, amax)), K)

    def _check(self, text: str, narrower: dict | None) -> str | None:
        got = _entries(text)
        bad = [n for n in AUDIT_MUST_PASS if not got.get(n, "").startswith("  PASS")]
        if bad:
            return f"not passing: {', '.join(bad)}"
        if self.golden is None:
            return "golden file missing"
        differ = [n for n, v in self.golden.items() if got.get(n) != v]
        if differ:
            return f"{len(differ)} of {len(self.golden)} golden entries differ"
        if narrower is not None:
            shared = set(got) & set(narrower)
            differ = [n for n in shared if got[n] != narrower[n]]
            if differ:
                return f"{len(differ)} of {len(shared)} entries differ from the narrower window"
        return None

    def cold(self):
        texts, ops, prev = [], [], None
        for name, (amax, K) in zip(self.op_names, AUDIT_POINTS):
            text = self._audit(amax, K).to_text()
            ops.append((name, self._check(text, prev)))
            prev = _entries(text)
            texts.append(text)
        return "".join(texts), ops

    def warm(self):
        amax, K = AUDIT_POINTS[0]
        text = self._audit(amax, K).to_text()
        return text, [(self.op_names[0], self._check(text, None))]


# ---------------------------------------------------------------------------
# bracket-suite: the 162 bracket/Jacobi relations on several probes

# component -> (z order, theta-, theta+) factors of a generic superfield
_COMPONENT_FACTORS = {
    "X": (0, 0, 0), "psi+": (0, 1, 0), "psi-": (0, 0, 1), "F": (0, 1, 1),
    "G": (1, 0, 0), "chi+": (1, 1, 0), "chi-": (1, 0, 1), "Y": (1, 1, 1),
}


def build_probe(spec, field: ss.SuperField) -> al.GradedExpr:
    """``"generic"`` or a list of [component, m, n, x_jet|None, num, den]."""
    if spec == "generic":
        return field.expr
    ctx = field.expr.ctx
    probe = al.GradedExpr.zero(ctx)
    for comp, m, n, x_jet, num, den in spec:
        term = al.jet(comp, m, n, ctx)
        if x_jet is not None:
            term = term * al.jet("X", x_jet[0], x_jet[1], ctx)
        zo, tm, tp = _COMPONENT_FACTORS[comp]
        if tp:
            term = al.gen("theta+", ctx) * term
        if tm:
            term = al.gen("theta-", ctx) * term
        for _ in range(zo):
            term = al.gen("z", ctx) * term
        probe = probe + term.scale(Fraction(num, den))
    return probe


class BracketSuite:
    def __init__(self, root: Path, scratch: Path, inputs: dict):
        field = ss.generic_superfield("Phi", nz=1)
        self.probes = [build_probe(p, field) for p in inputs["probes"]]
        self.op_names = tuple(f"probe {i} ({len(p.terms)} terms)"
                              for i, p in enumerate(self.probes))

    def cold(self):
        return self._suites(self.op_names, self.probes)

    @staticmethod
    def _suites(names, probes):
        lines, ops = [], []
        for name, probe in zip(names, probes):
            n = nonzero = 0
            for label, res in ss.superalgebra_checks(probe):
                n += 1
                zero = res.is_zero()
                nonzero += not zero
                lines.append(f"{name} {label}: {'0' if zero else al.to_text(res)}")
            err = (None if n == BRACKET_RELATIONS and not nonzero else
                   f"{nonzero} of {n} residuals nonzero (want 0 of {BRACKET_RELATIONS})")
            ops.append((name, err))
        return "\n".join(lines), ops

    def warm(self):
        return self._suites(self.op_names[:1], self.probes[:1])


WORKLOADS = {"cli-all": CliAll, "audit-sweep": AuditSweep,
             "bracket-suite": BracketSuite}
