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

__version__ = "0.1.0"

# each name is imported from its module, as ``from gradedsg.algebra import gen``
__all__ = ["algebra", "backlund", "grading", "model", "numeric", "parser", "superspace"]


def __getattr__(name: str):
    if name == "numeric":
        from importlib import import_module
        return import_module(".numeric", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
