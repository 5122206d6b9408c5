"""Static rules on the package source, checked with ``ast``."""

import ast
from pathlib import Path

import gradedsg
from gradedsg import algebra as al

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
    # multiplies it back together, its runs of kept jets between the
    # replacements
    sites = [f"{path.name}: {where}" for path in package_sources()
             for where in call_sites(path.read_text(), "_times_run")]
    assert set(sites) == {"algebra.py: substitute_jets"}


def test_one_substitution_pass_per_reduction():
    # JetRewriter keeps its rules in normal form, so a reduction is one
    # substitute_jets pass and no pass loop is needed anywhere
    sites = [f"{path.name}: {where}" for path in package_sources()
             for where in call_sites(path.read_text(), "substitute_jets")]
    assert sites == ["algebra.py: normal", "algebra.py: reduce", "algebra.py: substitute"]
    algebra = ast.parse((Path(gradedsg.__file__).parent / "algebra.py").read_text())
    rewriter, = [node for node in algebra.body
                 if isinstance(node, ast.ClassDef) and node.name == "JetRewriter"]
    methods = {fn.name: fn for fn in rewriter.body if isinstance(fn, ast.FunctionDef)}
    for name in ("normal", "reduce"):
        assert not [node for node in ast.walk(methods[name])
                    if isinstance(node, (ast.For, ast.While, ast.comprehension))]


def test_one_rk4_step():
    # both Backlund integrators take their RK4 steps through one function
    sites = [f"{path.name}: {where}" for path in package_sources()
             for where in call_sites(path.read_text(), "_rk4_step")]
    assert sites == ["numeric.py: march", "numeric.py: bt_target_time_march"]


def test_product_is_the_only_normal_ordering():
    # graded signs come from the product alone: d_x and mirror_pm reuse it
    # instead of re-sorting atoms with their own commutation signs, and they
    # reach the monomial-product table only through GradedExpr.__mul__
    algebra = Path(gradedsg.__file__).parent / "algebra.py"
    assert call_sites(algebra.read_text(), "commutation_sign") == []
    for callee, caller in (("_cross_sign", "_mul_keys_cached"),
                           ("cf_mul", "_mul_keys_cached"),
                           ("_mul_keys_cached", "__mul__")):
        sites = [f"{path.name}: {where}" for path in package_sources()
                 for where in call_sites(path.read_text(), callee)]
        assert sites == [f"algebra.py: {caller}"], callee


def test_guard_finds_second_entry_points():
    source = ("def f(D, e):\n"
              "    return ss.apply(D, e) + al.d_minus(e) + D.fn(e)\n"
              "apply = Derivation.__call__\n")
    assert call_sites(source, "apply") == call_sites(source, "d_minus") == ["f"]
    assert attribute_uses(source, "fn") == [2]


def test_a_derivation_has_one_entry_point():
    # a derivation is applied by calling it, D(e), and a jet is shifted by
    # d_x(e, side); superspace.apply stays only as a name that the benchmark
    # hooks, so a second entry point would hide calls from Derivation.__call__
    calls = [f"{path.name}: {where} calls {callee}" for path in package_sources()
             for callee in ("apply", "d_minus", "d_plus")
             for where in call_sites(path.read_text(), callee)]
    assert calls == []
    readers = [f"{path.name}:{line}" for path in package_sources()
               for line in attribute_uses(path.read_text(), "fn")]
    superspace = ast.parse((Path(gradedsg.__file__).parent / "superspace.py").read_text())
    call, = [fn for cls in superspace.body if isinstance(cls, ast.ClassDef)
             and cls.name == "Derivation" for fn in cls.body
             if isinstance(fn, ast.FunctionDef) and fn.name == "__call__"]
    assert readers == [f"superspace.py:{call.body[-1].lineno}"]


def module_level_imports(source: str) -> list[str]:
    """Modules imported outside any function or class body, as written:
    ``import a.b`` gives ``a.b``; ``from .m import x`` gives ``.m.x``."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module + "." if node.module else "")
            found.extend(base + alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_guard_finds_module_level_imports():
    source = ("import numpy as np\n"
              "from . import algebra as al, numeric\n"
              "from .numeric import kink\n"
              "try:\n"
              "    import os.path\n"
              "except ImportError:\n"
              "    pass\n"
              "def f():\n"
              "    import json\n"
              "class C:\n"
              "    from . import parser\n")
    assert module_level_imports(source) == [
        "numpy", ".algebra", ".numeric", ".numeric.kink", "os.path"]


def test_numpy_is_imported_by_numeric_only():
    # symbolic runs never load numpy: only the numeric companion imports it
    # at module level, and every other module imports the companion lazily
    numpy_users, numeric_users = [], []
    for path in package_sources():
        tops = {name.lstrip(".").removeprefix("gradedsg.").split(".")[0]
                for name in module_level_imports(path.read_text())}
        if "numpy" in tops:
            numpy_users.append(path.name)
        if "numeric" in tops:
            numeric_users.append(path.name)
    assert numpy_users == ["numeric.py"]
    assert numeric_users == []


def test_guard_finds_asserts():
    source = ("x = 1\n"
              "assert x\n"
              "def f():\n"
              "    assert not x, 'message'\n"
              "    raise AssertionError\n")
    assert assert_lines(source) == [2, 4]


def raised_names(source: str) -> list[tuple[int, str]]:
    """(line, exception name) of each ``raise`` of a named exception."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node.lineno, ast.unparse(exc)))
    return sorted(found)


def test_guard_finds_raised_names():
    source = ("def f(x):\n"
              "    if x:\n"
              "        raise ValueError('bad')\n"
              "    raise errors.ConfigError\n"
              "try:\n"
              "    f(1)\n"
              "except ValueError:\n"
              "    raise\n")
    assert raised_names(source) == [(3, "ValueError"), (4, "errors.ConfigError")]


def test_no_untyped_value_errors():
    # every failure maps to a GradedSGError subclass and so to an exit code;
    # a KeyError from a lookup escapes that mapping as a ValueError does
    offenders = [f"{path.name}:{line}" for path in package_sources()
                 for line, name in raised_names(path.read_text())
                 if name in ("ValueError", "KeyError")]
    assert offenders == []


def word_uses(source: str, word: str) -> list[int]:
    """Lines of each name, attribute, keyword, parameter, definition or string
    constant (docstrings included) that contains ``word``, in any case."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, (ast.keyword, ast.arg)):
            text = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            text = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if text and word in text.lower():
            found.append(node.lineno)
    return sorted(found)


def test_guard_finds_word_uses():
    source = ("import x  # a sabotage comment is no use\n"
              "sabotage = 1\n"
              "x.sabotage_flag\n"
              "f(sabotage=None)\n"
              "def g(sabotage): pass\n"
              "def sabotaged(): pass\n"
              "'Sabotage flips a sign'\n"
              "class Sabotage: pass\n"
              "f(**kwargs)\n")
    assert word_uses(source, "sabotage") == [2, 3, 4, 5, 6, 7, 8]


def test_no_test_switch_in_the_package():
    # controls are computed by the checks themselves; a sabotaged system is
    # built by the tests (tests/sabotage.py), never by a package setting
    offenders = [f"{path.name}:{line}" for path in package_sources()
                 for line in word_uses(path.read_text(), "sabotage")]
    assert offenders == []


def attribute_uses(source: str, name: str) -> list[int]:
    """Lines where ``name`` is an attribute, a parameter, a keyword argument
    or an entry of a ``__slots__`` assignment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == name:
            found.append(node.lineno)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg == name:
            found.append(node.lineno)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)):
            found += [c.lineno for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and c.value == name]
    return sorted(found)


def test_guard_finds_attribute_uses():
    source = ("class E:\n"
              "    __slots__ = ('ctx', 'truncated')\n"
              "    def __init__(self, truncated=False):\n"
              "        self.truncated = truncated\n"
              "f(truncated=True)\n"
              "x = e.truncated or y\n"
              "'a truncated series'\n"
              "truncated = 1\n")
    assert attribute_uses(source, "truncated") == [2, 3, 4, 5, 6]


def test_no_truncation_flag_in_the_package():
    # an expression carries its precision in a, which says which orders are
    # exact; a boolean beside it could only disagree
    offenders = [f"{path.name}:{line}" for path in package_sources()
                 for line in attribute_uses(path.read_text(), "truncated")]
    assert offenders == []


SWAP_PM = str.maketrans("+-", "-+")


def spelled_fields(source: str, roles) -> list[int]:
    """Lines of string constants that spell a ``Phi~`` component (one of
    ``roles`` with the suffix ``~``) and of dict entries whose key and value
    are strings that mirror each other (their + and - swapped)."""
    partners = {role + "~" for role in roles}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in partners:
            found.append(node.lineno)
        elif isinstance(node, ast.Dict):
            found += [k.lineno for k, v in zip(node.keys, node.values)
                      if isinstance(k, ast.Constant) and isinstance(v, ast.Constant)
                      and isinstance(k.value, str) and k.value != v.value
                      and k.value.translate(SWAP_PM) == v.value]
    return sorted(found)


def test_guard_finds_spelled_fields():
    source = ("names = ['psi+~', 'X~', 'Phi~', 'psi+', 'X~ + F']\n"
              "MIRROR = {'chi+': 'chi-',\n"
              "          'X': 'X', 'L': 'E', 'a+': 'b-', 'psi+': f(x)}\n"
              "'psi+~ in a docstring'\n")
    assert spelled_fields(source, ["X", "psi+", "chi+"]) == [1, 1, 2]


def test_the_field_table_is_the_one_spelling():
    # the components of Phi~ and the mirror images of the fields are derived
    # from the field table, never written out by hand
    offenders = [f"{path.name}:{line}" for path in package_sources()
                 for line in spelled_fields(path.read_text(), al.COMPONENTS)]
    assert offenders == []


MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def registry_writes(source: str) -> list[int]:
    """Lines that define ``register_field`` or write into ``_REGISTRY``: an
    item assignment or deletion, or a mutating method taken on it."""

    def is_registry(node: ast.AST) -> bool:
        return ((isinstance(node, ast.Name) and node.id == "_REGISTRY")
                or (isinstance(node, ast.Attribute) and node.attr == "_REGISTRY"))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "register_field":
            found.append(node.lineno)
        elif (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
              and is_registry(node.value)):
            found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in MUTATORS
              and is_registry(node.value)):
            found.append(node.lineno)
    return sorted(found)


def test_guard_finds_registry_writes():
    source = ("_REGISTRY = {'X': 1}\n"
              "def register_field(name): pass\n"
              "_REGISTRY['Y'] = 2\n"
              "al._REGISTRY[name] += 1\n"
              "_REGISTRY.update(more)\n"
              "del _REGISTRY['Y']\n"
              "info = _REGISTRY['X'] or _REGISTRY.get('Z')\n")
    assert registry_writes(source) == [2, 3, 4, 5, 6]


def test_no_field_is_registered_at_run_time():
    # the registry is built from the field table at import and never grows
    offenders = [f"{path.name}:{line}" for path in package_sources()
                 for line in registry_writes(path.read_text())]
    assert offenders == []


def test_no_assert_statements():
    # python -O strips assert statements; invariants raise typed errors
    offenders = [f"{path.name}:{line}" for path in package_sources()
                 for line in assert_lines(path.read_text())]
    assert offenders == []


# public names kept although nothing in the package or the benchmark calls them
UNUSED_ALLOWED = {
    # the reference evaluator the bracket suite is tested against
    "superspace.bracket",
}


def public_definitions(source: str) -> list[str]:
    """Public top-level functions and classes, and the public methods of those
    classes, as ``name`` or ``Class.method``."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{fn.name}" for fn in node.body
                      if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    return found


def referenced_names(source: str) -> set[str]:
    """Names read, attributes taken and identifier strings (hooks by name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def unused_public_names(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` of each public definition that no source refers to.

    ``modules`` maps module names to their sources; ``users`` are further
    sources whose references count.
    """
    used = set()
    for source in list(modules.values()) + users:
        used |= referenced_names(source)
    return [f"{module}.{name}" for module, source in modules.items()
            for name in public_definitions(source)
            if name.rsplit(".", 1)[-1] not in used]


def test_guard_finds_unused_public_names():
    modules = {"m": ("def used(): pass\n"
                     "def unused(): pass\n"
                     "def _private(): pass\n"
                     "class C:\n"
                     "    def method(self): return used()\n"
                     "    def orphan(self): pass\n"),
               "n": "from .m import C\nC().method()\n"}
    assert unused_public_names(modules, ["HOOKED = 'unused'\n"]) == ["m.C.orphan"]
    assert unused_public_names(modules, []) == ["m.unused", "m.C.orphan"]


def test_no_unused_public_names():
    # a public name must be used by another part of the package or by the
    # benchmark; re-exports from __init__ do not count as uses
    modules = {path.stem: path.read_text() for path in package_sources()
               if path.stem != "__init__"}
    bench = Path(gradedsg.__file__).parents[2] / "bench"
    users = [path.read_text() for path in sorted(bench.glob("*.py"))]
    assert users
    unused = [name for name in unused_public_names(modules, users)
              if name not in UNUSED_ALLOWED]
    assert unused == []


def terms_value_reads(source: str) -> list[int]:
    """Lines that read coefficient numerators out of an expression's ``terms``:
    any method but ``keys`` taken on ``.terms`` (``items``, ``values``,
    ``get``, ...), a subscript of it, or ``dict(... .terms)``.  ``len`` of it,
    iteration over it and ``key in`` it read keys only."""

    def is_terms(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and is_terms(node.value) and node.attr != "keys":
            found.append(node.lineno)
        elif isinstance(node, ast.Subscript) and is_terms(node.value):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "dict" and any(is_terms(arg) for arg in node.args)):
            found.append(node.lineno)
    return sorted(found)


def test_guard_finds_terms_value_reads():
    source = ("for k, c in e.terms.items(): pass\n"
              "vals = list(e.terms.values())\n"
              "c = e.terms.get(key)\n"
              "c = (a * b).terms[key]\n"
              "copy = dict(e.terms)\n"
              "n = len(e.terms)\n"
              "for key in e.terms: pass\n"
              "ok = key in e.terms and list(e.terms.keys())\n"
              "pairs = list(e.coefficients())\n")
    assert terms_value_reads(source) == [1, 2, 3, 4, 5]


def test_coefficients_are_read_through_the_accessor():
    # a stored numerator is a coefficient only over the expression's common
    # denominator; outside the kernel, values come from coefficients(), so
    # no reader can forget the division
    offenders = [f"{path.name}:{line}" for path in package_sources()
                 if path.name != "algebra.py"
                 for line in terms_value_reads(path.read_text())]
    assert offenders == []
