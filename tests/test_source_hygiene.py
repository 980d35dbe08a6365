"""Source hygiene of ``src/relrep``: no orphaned private helpers, no
test-only public functions, no unused imports, one cache policy, no
randomness, no hand on the cycle collector and no presentation carried by
hand.

The checks read the syntax trees only (stdlib ``ast``, nothing is imported).
The first three catch helpers, public functions and imports left behind when
the code using them is deleted or when only tests use them; the fourth keeps every memoized result behind ``relrep.cache``;
the fifth keeps every verdict deterministic: no module imports ``random``
and no function takes a ``seed``; the sixth keeps the cycle collector out of
the library: no module imports ``gc``; the seventh keeps one source of
generators and relations, ``rep.presentation``: no module reads or writes an
attribute named ``hint``, directly or through ``getattr`` and its kin; the
eighth keeps one relative functor per module and variance: ``SubBifunctor`` is
constructed only by ``relhom._functor``, which shares it.  The last two keep
one radical route for End(M): nothing of the generic structure-constant
route (product table, trace-form radical of a whole algebra, generic chain
tables, split test) is defined under ``src/``, since ``tests/sc_reference.py``
holds it, and ``StructureConstantAlgebra`` is constructed only by
``endo._block_algebra``.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relrep"


def _trees() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(SRC)): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


def _used_names(node: ast.AST) -> Counter:
    """Every name read, written, imported or taken as an attribute under ``node``."""
    used: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_every_private_helper_is_referenced():
    trees = _trees()
    total: Counter = Counter()
    for tree in trees.values():
        total.update(_used_names(tree))
    orphans = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not stmt.name.startswith("_"):
                continue
            # references from inside its own definition (recursion) do not count
            if total[stmt.name] - _used_names(stmt)[stmt.name] == 0:
                orphans.append(f"{name}: {stmt.name}")
    assert orphans == []


# Public functions no library code calls, kept on purpose: cross-checks that
# open ROADMAP items use, a check of the paper's claims, and the quiver
# constructors that users build algebras with.
PUBLIC_KEEPERS = {
    "yoneda_ext1_pairing",
    "in_add_via_split",
    "check_iyama_orthogonality",
    "check_absolute_relative_agreement",
    "cyclic_quiver",
    "linear_quiver",
}


def _readme_names(text: str, module: str) -> set[str]:
    """Identifiers the code of a markdown text names as the module's, not
    prose: the code spans of the module's table row (``| `relrep.<module>` |``),
    the names a fenced ``from relrep.<module> import`` line imports, and
    ``<module>.<name>`` in any code."""
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = lambda line: " ".join(re.findall(r"`([^`]+)`", line))
    names = set(re.findall(rf"\b{module}\.([A-Za-z_]\w*)", " ".join(fenced) + spans(prose)))
    for block in fenced:
        names.update(re.findall(r"[A-Za-z_]\w*", " ".join(re.findall(rf"^from relrep\.{module} import (.*)$", block, flags=re.M))))
    for row in re.findall(rf"^\| `relrep\.{module}` \|.*$", prose, flags=re.M):
        names.update(re.findall(r"[A-Za-z_]\w*", spans(row)))
    return names


def _references(trees: dict[str, ast.Module], defining: str, func: ast.FunctionDef) -> list[ast.AST]:
    """The nodes of ``trees`` outside ``func``'s own definition that refer to
    the top-level function ``func`` of the module file ``defining``: a use of
    its name in that module, an import ``from .<module> import`` and every
    use of the name it binds, and an attribute ``<module>.<name>``.  A
    function of the same name in another module is not referred to."""
    stem = Path(defining).stem
    own = {id(node) for node in ast.walk(func)}
    out = []
    for name, tree in trees.items():
        imports = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == stem
            and any(alias.name == func.name for alias in node.names)
        ]
        bound = {func.name} if name == defining else set()
        bound.update(alias.asname or alias.name for node in imports for alias in node.names if alias.name == func.name)
        out.extend(imports)
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Name) and node.id in bound:
                out.append(node)
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == func.name
                and isinstance(node.value, ast.Name)
                and node.value.id == stem
            ):
                out.append(node)
    return out


def _public_functions(trees: dict[str, ast.Module]):
    """``(file name, definition)`` for every public top-level function."""
    for name, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_"):
                yield name, stmt


def _public_orphans(trees: dict[str, ast.Module], readme: str, keepers: set[str]) -> list[str]:
    """Public top-level functions that no code of ``trees`` refers to
    (``_references``), that the readme's code does not name as their
    module's, and that ``keepers`` does not list."""
    return [
        f"{name}: {stmt.name}"
        for name, stmt in _public_functions(trees)
        if stmt.name not in keepers
        and stmt.name not in _readme_names(readme, Path(name).stem)
        and not _references(trees, name, stmt)
    ]


def test_every_public_function_has_a_library_caller():
    # a function only tests call belongs in the tests
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _public_orphans(_trees(), readme, PUBLIC_KEEPERS) == []


def test_public_function_check_sees_each_orphan():
    trees = {
        "a.py": ast.parse(
            "def called():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def documented():\n"
            "    pass\n"
            "def in_prose():\n"
            "    pass\n"
            "def kept():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "class Public:\n"
            "    def method(self):\n"
            "        pass\n"
            "def orphan():\n"
            "    pass\n"
            "def by_attribute():\n"
            "    pass\n"
            "def dotted():\n"
            "    pass\n"
        ),
        "b.py": ast.parse("from a import called\nx = called()\n"),
        # a same-named pair: only d.py's function is called
        "c.py": ast.parse("def gldim_le(n):\n    pass\n"),
        "d.py": ast.parse("from . import a\ndef gldim_le(n):\n    pass\nx = gldim_le(2), a.by_attribute()\n"),
    }
    readme = (
        "| `relrep.a` | Call `documented()`. |\n"
        "Or `a.dotted()`.\n"
        "| `relrep.d` | `gldim_le` |\n"
        "```\nfrom relrep.a import Public\n```\nnot in_prose.\n"
    )
    # a self-reference, a name in prose, and a call or a readme row of a
    # namesake do not count
    assert _public_orphans(trees, readme, {"kept"}) == [
        "a.py: recursive",
        "a.py: in_prose",
        "a.py: orphan",
        "c.py: gldim_le",
    ]


# Defaulted parameters of public functions that no library call sets, kept on
# purpose, each with its reason; every other default is a knob nothing turns.
KNOB_KEEPERS = {
    ("cli.py", "main", "argv"): "the command line, given when main is called from Python",
    ("homology.py", "ext_dim", "via"): "the injective route, the cross-check of projective Ext",
    ("relhom.py", "ext_F_dim", "via"): "the injective route, the cross-check of relative Ext by relative balance",
    ("endo.py", "check_maximal_orthogonal", "witnesses"): "the witness list the maxortho_sweep workload passes",
}


def _sets(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` sets the parameter ``param`` (at ``index`` when it is
    positional): by keyword, by position, or through ``*args``/``**kwargs``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def _unset_knobs(trees: dict[str, ast.Module], keepers: dict) -> list[str]:
    """Defaulted parameters of public top-level functions that no call in
    ``trees`` (outside the function's own body) sets, and that ``keepers``
    does not list as ``(file name, function, parameter)``."""
    out = []
    for name, stmt in _public_functions(trees):
        args = stmt.args
        positional = [*args.posonlyargs, *args.args]
        defaulted = positional[len(positional) - len(args.defaults) :]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if not defaulted:
            continue
        refs = {id(node) for node in _references(trees, name, stmt)}
        calls = [
            node
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node.func) in refs
        ]
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if (name, stmt.name, param.arg) not in keepers and not any(_sets(c, param.arg, index) for c in calls):
                out.append(f"{name}: {stmt.name}({param.arg})")
    return out


def test_every_default_is_set_by_a_library_call():
    # a default that no library call overrides is a knob only tests turn
    assert _unset_knobs(_trees(), KNOB_KEEPERS) == []


def test_knob_check_sees_each_unset_default():
    trees = {
        "a.py": ast.parse(
            "def f(x, by_keyword=1, by_position=2, unset=3, *, kw_unset=4, kept=5):\n"
            "    return f(x, unset=0, kw_unset=0)\n"
            "def _private(x, knob=0):\n"
            "    pass\n"
        ),
        "b.py": ast.parse("from .a import f as g\ng(1, by_keyword=2)\n"),
        "c.py": ast.parse("from . import a\na.f(1, 2, 3)\n"),
        # a namesake's call sets the namesake's defaults only
        "d.py": ast.parse("def f(x, unset=0, *, kw_unset=0):\n    pass\nf(1, unset=1, kw_unset=2)\n"),
    }
    # a call from the function's own body does not count
    assert _unset_knobs(trees, {("a.py", "f", "kept"): "planted"}) == ["a.py: f(unset)", "a.py: f(kw_unset)"]
    # *args or **kwargs may set anything they reach
    trees["e.py"] = ast.parse("from .a import f\nf(1, *rest, **options)\n")
    assert _unset_knobs(trees, {}) == []


# Methods no library code calls, kept on purpose: user API for building
# paths and for reading an Ext^1 class back off a realized sequence.
METHOD_KEEPERS = {"path_from_arrows", "class_of"}


def _orphan_methods(trees: dict[str, ast.Module], keepers: set[str]) -> list[str]:
    """Methods of top-level classes, dunders aside, whose name no code of
    ``trees`` uses outside their own definition and that ``keepers`` does
    not list.  Names count wherever they occur, so a method that shares its
    name with a used attribute is never flagged."""
    total: Counter = Counter()
    for tree in trees.values():
        total.update(_used_names(tree))
    orphans = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) or stmt.name in keepers:
                    continue
                if stmt.name.startswith("__") and stmt.name.endswith("__"):
                    continue
                if total[stmt.name] - _used_names(stmt)[stmt.name] == 0:
                    orphans.append(f"{name}: {cls.name}.{stmt.name}")
    return orphans


def test_every_method_has_a_library_caller():
    # a method only tests call belongs in the tests
    assert _orphan_methods(_trees(), METHOD_KEEPERS) == []


def test_method_check_sees_each_orphan():
    trees = {
        "a.py": ast.parse(
            "class Algebra:\n"
            "    def __repr__(self):\n"
            "        return ''\n"
            "    def called(self):\n"
            "        return self.recursive(1)\n"
            "    def recursive(self, n):\n"
            "        return self.recursive(n - 1)\n"
            "    @property\n"
            "    def read(self):\n"
            "        return 1\n"
            "    def kept(self):\n"
            "        pass\n"
            "    def multiply(self, x, y):\n"
            "        return self.multiply(x, x)\n"
            "def use(a):\n"
            "    return a.called(), a.read\n"
        ),
    }
    # a call from its own body does not count; from another method it does
    assert _orphan_methods(trees, {"kept"}) == ["a.py: Algebra.multiply"]


def test_every_from_import_is_used():
    unused = []
    for name, tree in _trees().items():
        bound = [
            (alias.asname or alias.name, stmt.lineno)
            for stmt in ast.walk(tree)
            if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
            for alias in stmt.names
        ]
        # _used_names also counts the imported names of the import statements
        imported = Counter(
            alias.name
            for stmt in ast.walk(tree)
            if isinstance(stmt, ast.ImportFrom)
            for alias in stmt.names
        )
        used = _used_names(tree)
        for alias_name, line in bound:
            if used[alias_name] - imported[alias_name] <= 0:
                unused.append(f"{name}:{line}: {alias_name}")
    assert unused == []


CACHE_HELPER = "cache.py"
_MAPPING_METHODS = {"get", "setdefault", "pop"}


def _id_calls(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "id"
        for sub in ast.walk(node)
    )


def _cache_policy_breaches(name: str, tree: ast.Module) -> list[str]:
    """Lines outside the helper that touch ``_cache`` or key a mapping by ``id()``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_cache":
            out.append(f"{name}:{node.lineno}: _cache")
        keys: list[ast.AST] = []
        if isinstance(node, ast.Subscript):
            keys.append(node.slice)
        elif isinstance(node, ast.Dict):
            keys.extend(k for k in node.keys if k is not None)
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            keys.append(node.left)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MAPPING_METHODS
            and node.args
        ):
            keys.append(node.args[0])
        if any(_id_calls(k) for k in keys):
            out.append(f"{name}:{node.lineno}: id() key")
    return out


def test_only_the_cache_helper_touches_caches():
    breaches = []
    for name, tree in _trees().items():
        if name != CACHE_HELPER:
            breaches.extend(_cache_policy_breaches(name, tree))
    assert breaches == []


def test_cache_policy_check_sees_both_breaches():
    bad = ast.parse(
        "def f(x, y):\n"
        "    x._cache[id(y)] = 1\n"
        "    seen = {id(y): y}\n"
        "    return id(x) in seen or seen.get(id(y))\n"
    )
    assert sorted(_cache_policy_breaches("bad.py", bad)) == [
        "bad.py:2: _cache",
        "bad.py:2: id() key",
        "bad.py:3: id() key",
        "bad.py:4: id() key",
        "bad.py:4: id() key",
    ]


def _import_breaches(name: str, tree: ast.Module, module: str) -> list[str]:
    """Imports of the top-level ``module``: statements, and ``__import__`` or
    ``importlib.import_module`` called with its name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(
                f"{name}:{node.lineno}: import {module}"
                for alias in node.names
                if alias.name.split(".")[0] == module
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == module:
                out.append(f"{name}:{node.lineno}: import {module}")
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            called = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            arg = node.args[0]
            if (
                called in ("__import__", "import_module")
                and isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.split(".")[0] == module
            ):
                out.append(f"{name}:{node.lineno}: import {module}")
    return out


def _randomness_breaches(name: str, tree: ast.Module) -> list[str]:
    """Imports of ``random`` and parameters named ``seed``."""
    out = _import_breaches(name, tree, "random")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            if any(a is not None and a.arg == "seed" for a in params):
                out.append(f"{name}:{node.lineno}: seed parameter")
    return out


def test_nothing_is_randomized():
    breaches = []
    for name, tree in _trees().items():
        breaches.extend(_randomness_breaches(name, tree))
    assert breaches == []


def test_randomness_check_sees_each_breach():
    bad = ast.parse(
        "import random\n"
        "import random as rnd, os\n"
        "from random import Random\n"
        "def f(x, seed=0):\n"
        "    return lambda *, seed: seed\n"
        "async def g(seed, /):\n"
        "    pass\n"
        "def h(*seed):\n"
        "    pass\n"
    )
    assert sorted(_randomness_breaches("bad.py", bad)) == [
        "bad.py:1: import random",
        "bad.py:2: import random",
        "bad.py:3: import random",
        "bad.py:4: seed parameter",
        "bad.py:5: seed parameter",
        "bad.py:6: seed parameter",
        "bad.py:8: seed parameter",
    ]


def test_no_module_touches_the_cycle_collector():
    # memory is kept flat by the object graph (no cached value points back at
    # its owner), never by switching off or retuning the collector
    breaches = []
    for name, tree in _trees().items():
        breaches.extend(_import_breaches(name, tree, "gc"))
    assert breaches == []


def test_collector_check_sees_each_breach():
    bad = ast.parse(
        "import gc\n"
        "import os, gc as collector\n"
        "from gc import disable\n"
        "def f():\n"
        "    return __import__('gc'), importlib.import_module('gc')\n"
        "import gcd\n"
    )
    assert sorted(_import_breaches("bad.py", bad, "gc")) == [
        "bad.py:1: import gc",
        "bad.py:2: import gc",
        "bad.py:3: import gc",
        "bad.py:5: import gc",
        "bad.py:5: import gc",
    ]


_ATTR_BUILTINS = {"getattr", "setattr", "hasattr", "delattr"}


def _attribute_breaches(name: str, tree: ast.Module, attr: str) -> list[str]:
    """Reads and writes of the attribute ``attr``: ``x.attr`` in any context,
    and ``getattr``, ``setattr``, ``hasattr`` or ``delattr`` called with its
    name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == attr:
            out.append(f"{name}:{node.lineno}: .{attr}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ATTR_BUILTINS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == attr
        ):
            out.append(f"{name}:{node.lineno}: .{attr}")
    return out


def test_no_module_carries_a_presentation_by_hand():
    breaches = []
    for name, tree in _trees().items():
        breaches.extend(_attribute_breaches(name, tree, "hint"))
    assert breaches == []


def test_hint_check_sees_each_breach():
    bad = ast.parse(
        "def f(m, p):\n"
        "    m.hint = p\n"
        "    q = m.hint.vertices\n"
        "    x = getattr(m, 'hint', None) or hasattr(m, 'hint')\n"
        "    setattr(m, 'hint', p); del m.hint\n"
        "    m.hints = hint = 'hint'\n"
    )
    assert sorted(_attribute_breaches("bad.py", bad, "hint")) == [
        "bad.py:2: .hint",
        "bad.py:3: .hint",
        "bad.py:4: .hint",
        "bad.py:4: .hint",
        "bad.py:5: .hint",
        "bad.py:5: .hint",
    ]


FUNCTOR_CLASS = "SubBifunctor"
FUNCTOR_HELPER = ("relhom.py", "_functor")


def _constructor_breaches(name: str, tree: ast.Module, cls: str, helper: tuple[str, str]) -> list[str]:
    """Calls of ``cls`` and calls that pass ``cls`` on as an argument (a
    factory handed to a helper), outside the function ``helper`` names;
    type tests (``isinstance``, ``issubclass``) build nothing."""
    skip: set[int] = set()
    if name == helper[0]:
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == helper[1]:
                skip.update(id(node) for node in ast.walk(stmt))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        if isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass"):
            continue
        passed = [node.func, *node.args, *(kw.value for kw in node.keywords)]
        if any(isinstance(arg, ast.Name) and arg.id == cls for arg in passed):
            out.append(f"{name}:{node.lineno}: {cls}")
    return out


def test_relative_functors_are_built_by_one_helper():
    breaches = []
    for name, tree in _trees().items():
        breaches.extend(_constructor_breaches(name, tree, FUNCTOR_CLASS, FUNCTOR_HELPER))
    assert breaches == []


def test_functor_check_sees_each_breach():
    bad = ast.parse(
        "def _functor(variance, module):\n"
        "    return weakly_cached(module, variance, SubBifunctor, variance, module)\n"
        "def f(m):\n"
        "    a = SubBifunctor('covariant', m)\n"
        "    b = cached(m, 'k', SubBifunctor, 'covariant', m)\n"
        "    c = make(factory=SubBifunctor)\n"
        "    return isinstance(a, SubBifunctor) and SubBifunctorLike(m)\n"
    )
    # inside the helper the construction is allowed, and a type test or a
    # name that merely starts like the class is no construction
    assert sorted(_constructor_breaches("relhom.py", bad, FUNCTOR_CLASS, FUNCTOR_HELPER)) == [
        "relhom.py:4: SubBifunctor",
        "relhom.py:5: SubBifunctor",
        "relhom.py:6: SubBifunctor",
    ]
    # the same text in another file has no helper: line 2 is a breach there
    assert len(_constructor_breaches("cli.py", bad, FUNCTOR_CLASS, FUNCTOR_HELPER)) == 4


# The generic structure-constant route, kept in tests/sc_reference.py as the
# reference the block route is checked against: top-level names, and methods
# as ``Class.method``.  ``endo.radical`` stays: it reads the block radical,
# and the benchmark's traced replay wraps it.
GENERIC_ROUTE = {
    "_detect_members",
    "_vertices",
    "_member_vertices",
    "_sparse_row",
    "radical_generators",
    "_radical_from_trace_form",
    "_radical_data",
    "_ChainTables.__init__",
    "_AtomBlocks.mult",
    "StructureConstantAlgebra.mult",
    "StructureConstantAlgebra._detect_members",
    "_Chain._apply",
    "_matvec",
    "_Cover.kernel_cols",
}
# the split test read Ext^1 of the covering sequence off a Hom complex
SPLIT_TEST = ("_pd_le_on_chain", "hom_complex_dims_and_ranks")


def _generic_route_breaches(trees: dict[str, ast.Module]) -> list[str]:
    """Definitions of ``GENERIC_ROUTE`` names, and a ``_pd_le_on_chain``
    that reads a Hom complex (the split test)."""
    out = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined = [stmt.name]
            if isinstance(stmt, ast.ClassDef):
                defined += [
                    f"{stmt.name}.{sub.name}"
                    for sub in stmt.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            out.extend(f"{name}: {d}" for d in defined if d in GENERIC_ROUTE)
            if stmt.name == SPLIT_TEST[0] and _used_names(stmt)[SPLIT_TEST[1]]:
                out.append(f"{name}: split test in {stmt.name}")
    return out


def test_the_generic_route_is_not_in_src():
    assert _generic_route_breaches(_trees()) == []


def test_generic_route_check_sees_each_breach():
    bad = ast.parse(
        "def radical_generators(g):\n"
        "    pass\n"
        "class _Chain:\n"
        "    def _apply(self, level, terms, vec):\n"
        "        pass\n"
        "    def extend(self):\n"
        "        pass\n"
        "def _pd_le_on_chain(chain, n):\n"
        "    return chain.hom_complex_dims_and_ranks(n, [], [])\n"
        "def radical(g):\n"
        "    pass\n"
    )
    assert _generic_route_breaches({"endo.py": bad}) == [
        "endo.py: radical_generators",
        "endo.py: _Chain._apply",
        "endo.py: split test in _pd_le_on_chain",
    ]


def test_end_algebras_are_built_by_one_helper():
    breaches = []
    for name, tree in _trees().items():
        breaches.extend(_constructor_breaches(name, tree, "StructureConstantAlgebra", ("endo.py", "_block_algebra")))
    assert breaches == []
