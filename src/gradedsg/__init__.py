"""Symbolic verification engine for the graded sine-Gordon system.

An exact term-rewriting kernel for a Z2 x Z2-graded superspace calculus,
the graded sine-Gordon model built on it (field equation, components,
on-shell reduction), its two auto-Backlund rewrite systems with series
solution, currents and conservation-law audits, and a floating-point
companion for the classical sector.

The floating-point companion ``numeric`` is the one module that needs
numpy.  It is loaded on first access to ``gradedsg.numeric`` (a module
``__getattr__``, PEP 562), so symbolic work never imports numpy.
"""

from . import algebra, backlund, grading, model, parser, superspace
from .algebra import Context, GradedExpr, gen, jet, to_text, trig_of
from .backlund import BTSystem
from .grading import Degree, commutation_sign, degree_add, pairing
from .parser import parse_expr
from .report import Report
from .superspace import (D_MINUS, D_PLUS, P_MINUS, P_PLUS, Q_MINUS, Q_PLUS,
                         Z_MINUSPLUS, SuperField, apply, bracket,
                         generic_superfield)

__version__ = "0.1.0"

__all__ = [
    "BTSystem", "Context", "Degree", "GradedExpr", "Report", "SuperField",
    "algebra", "apply", "backlund", "bracket", "commutation_sign",
    "degree_add", "gen", "generic_superfield", "grading", "jet", "model",
    "numeric", "pairing", "parse_expr", "parser", "superspace", "to_text",
    "trig_of",
    "D_MINUS", "D_PLUS", "P_MINUS", "P_PLUS", "Q_MINUS", "Q_PLUS",
    "Z_MINUSPLUS",
]


def __getattr__(name: str):
    if name == "numeric":
        from importlib import import_module
        return import_module(".numeric", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
