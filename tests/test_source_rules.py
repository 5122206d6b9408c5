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
    sources = sorted(Path(gradedsg.__file__).parent.glob("*.py"))
    assert sources
    offenders = [f"{path.name}: {name}" for path in sources
                 for name in cached_methods(path.read_text())]
    assert offenders == []
