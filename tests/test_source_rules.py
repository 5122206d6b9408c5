"""Static rules on the package source, checked with ``ast``."""

import ast
from pathlib import Path

import gradedsg

CACHE_DECORATORS = {"functools.lru_cache", "functools.cache", "lru_cache", "cache"}


def cached_methods(source: str) -> list[str]:
    """Functions in a class body decorated with an lru_cache or cache."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if ast.unparse(target) in CACHE_DECORATORS:
                    found.append(f"{cls.name}.{fn.name}")
    return found


def call_sites(source: str, callee: str) -> list[str]:
    """Innermost enclosing function ('<module>' at top level) of each call."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def assert_lines(source: str) -> list[int]:
    """Line numbers of ``assert`` statements."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def package_sources() -> list[Path]:
    sources = sorted(Path(gradedsg.__file__).parent.glob("*.py"))
    assert sources
    return sources


def test_guard_detects_cached_methods():
    source = ("import functools\n"
              "class A:\n"
              "    @functools.lru_cache(maxsize=None)\n"
              "    def f(self): pass\n"
              "    @functools.cache\n"
              "    def g(self): pass\n"
              "@functools.lru_cache\n"
              "def h(): pass\n")
    assert cached_methods(source) == ["A.f", "A.g"]


def test_no_lru_cache_on_methods():
    # a method cache keys on self and keeps every instance alive
    offenders = [f"{path.name}: {name}" for path in package_sources()
                 for name in cached_methods(path.read_text())]
    assert offenders == []


def test_guard_finds_call_sites():
    source = ("def f():\n"
              "    g(1)\n"
              "    def h():\n"
              "        return al.g(2)\n"
              "g(3)\n"
              "gg(4)\n")
    assert call_sites(source, "g") == ["f", "h", "<module>"]


def test_one_monomial_rebuild_loop():
    # substitute_jets is the only place that takes a monomial apart and
    # multiplies it back together with replacements
    sites = [f"{path.name}: {where}" for path in package_sources()
             for where in call_sites(path.read_text(), "_term_factors")]
    assert sites == ["algebra.py: substitute_jets"]


def test_guard_finds_asserts():
    source = ("x = 1\n"
              "assert x\n"
              "def f():\n"
              "    assert not x, 'message'\n"
              "    raise AssertionError\n")
    assert assert_lines(source) == [2, 4]


def test_no_assert_statements():
    # python -O strips assert statements; invariants raise typed errors
    offenders = [f"{path.name}:{line}" for path in package_sources()
                 for line in assert_lines(path.read_text())]
    assert offenders == []
