"""Structured pass/fail results with deterministic serialization."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import algebra as al
from .errors import OutsideWindow


def exact_zero(residual: al.GradedExpr) -> bool:
    """Whether a residual is zero; one with a precision has no verdict."""
    if residual.prec is not None:
        raise OutsideWindow(f"a residual exact only below a^{residual.prec} has no verdict")
    return residual.is_zero()


@dataclass
class Entry:
    """One named check inside a report."""

    name: str
    status: str  # 'pass' | 'fail' | 'info'
    residual_terms: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "check": self.name,
            "status": self.status,
            "residual_terms": list(self.residual_terms),
            "details": self.details,
        }


@dataclass
class Report:
    """Outcome of one verification operation.

    The comparable body (text/json) is deterministic: entries are sorted by
    name and timing lives outside of it.
    """

    name: str
    entries: list[Entry] = field(default_factory=list)
    elapsed: float = 0.0
    note: str = ""

    def add(self, name: str, status: str, residual_terms=(), **details) -> Entry:
        entry = Entry(name, status, tuple(residual_terms), dict(details))
        self.entries.append(entry)
        return entry

    def add_zero_check(self, name: str, residual: al.GradedExpr, **details) -> Entry:
        """Pass when the residual is exactly zero; a failure prints it."""
        if exact_zero(residual):
            return self.add(name, "pass", **details)
        return self.add(name, "fail", (al.to_text(residual),), **details)

    def add_finding(self, name: str, residual: al.GradedExpr, **details) -> Entry:
        """Informational residual: printed when nonzero, with ``is_zero``."""
        zero = exact_zero(residual)
        return self.add(name, "info", () if zero else (al.to_text(residual),),
                        is_zero=zero, **details)

    @property
    def status(self) -> str:
        if any(e.status == "fail" for e in self.entries):
            return "fail"
        if all(e.status == "info" for e in self.entries) and self.entries:
            return "info"
        return "pass"

    def passed(self) -> bool:
        return self.status != "fail"

    def sorted_entries(self) -> list[Entry]:
        return sorted(self.entries, key=lambda e: e.name)

    def to_text(self) -> str:
        lines = [f"[{self.name}] status={self.status}"]
        if self.note:
            lines.append(f"  note: {self.note}")
        for e in self.sorted_entries():
            lines.append(f"  {e.status.upper():4s} {e.name}")
            for t in e.residual_terms:
                lines.append(f"         residual: {t}")
            for k in sorted(e.details):
                lines.append(f"         {k}: {e.details[k]}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "check": self.name,
            "status": self.status,
            "residual_terms": [t for e in self.sorted_entries()
                               for t in e.residual_terms],
            "details": {
                "note": self.note,
                "entries": [e.to_json_obj() for e in self.sorted_entries()],
            },
        }
