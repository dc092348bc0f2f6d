"""Standing AST audit of solver/TSV construction call sites.

Two historical bug classes keep trying to come back:

* call sites building their own :class:`ThermalStack`/steady-state
  solver instead of going through
  :func:`~repro.thermal.stack.stack_for_floorplan` /
  :meth:`~repro.thermal.steady_state.SolverCache.solver_for_floorplan`
  — those paths bypass :func:`normalize_tsv_densities` (shape checks,
  adjacency checks, the many-forms canonicalization) *and* the topology
  plumbing, so a 2.5D sweep silently evaluates a 3D stack;
* the historical hardcoded ``tsv_density((0, 1), grid)`` convention,
  which ignores the TSV interfaces of taller stacks;
* ``**``-expanded keywords into the stack builders, the solver cache or
  the transient solver: the old ``**stack_kwargs`` pass-through let a
  caller smuggle any stack parameter (and a second cache key for one
  system) past the one explicit ``topology=`` argument.

This test walks every module under ``src/repro`` with :mod:`ast` and
fails on offenders, with an explicit allowlist for the owner modules
that legitimately assemble stacks and solvers.  Adding a new offender is
a test failure, not a review comment.

A second audit keeps ``src/`` to what a caller runs: every name in a
``src/repro`` ``__all__`` must be referenced from the package itself,
the benchmarks, the examples, the tools, perfbench or the CI workflow's
inline scripts, and so must every public method and property of a
``src/repro`` class, by attribute.  A name only tests use is an oracle
or a dead end, and belongs in ``tests/`` or nowhere.
"""

import ast
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: the trees whose code counts as a caller of an exported name
CALLER_TREES = ("src", "benchmarks", "examples", "tools", "perfbench")

#: exported names no caller tree references, each with why it stays
EXPORT_ALLOWLIST = {
    "core.faults.injected": "the chaos suite's entry point: tests scope "
    "fault plans to a block with it, the in-process twin of REPRO_FAULTS",
}

#: public methods and properties no caller references, each with why it
#: stays
METHOD_ALLOWLIST = {
    "core.faults.FaultPlan.report": "the chaos suite's readout: tests "
    "assert on a plan's per-site arrival and fire counts through it",
}

#: constructors only the owner modules may call: everything else must go
#: through stack_for_floorplan / SolverCache.solver_for_floorplan
OWNED_CONSTRUCTORS = {"build_stack", "SteadyStateSolver", "WoodburySolver"}

#: calls whose keywords must be spelled out: stack parameters reach them
#: as the explicit ``topology=`` argument only
EXPLICIT_KEYWORDS = {
    "build_stack",
    "stack_for_floorplan",
    "solver",
    "solver_for_floorplan",
    "incremental_solver",
    "incremental_solver_for_floorplan",
    "TransientSolver",
}

#: the modules that own stack assembly and solver construction; the fast
#: model builds the one stack that has no TSVs and no topology to route
ALLOWLIST = {
    "thermal/stack.py",
    "thermal/steady_state.py",
    "thermal/fast.py",
}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_literal_pair(node: ast.AST) -> bool:
    """A hardcoded die pair like ``(0, 1)`` passed to tsv_density."""
    return (
        isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and all(isinstance(e, ast.Constant) for e in node.elts)
    )


def _audit_file(path: Path) -> list:
    rel = path.relative_to(SRC).as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name in OWNED_CONSTRUCTORS and rel not in ALLOWLIST:
            offenders.append(
                f"{rel}:{node.lineno}: {name}(...) outside the owner "
                "modules — route through stack_for_floorplan / "
                "SolverCache.solver_for_floorplan"
            )
        if name == "tsv_density" and node.args and _is_literal_pair(node.args[0]):
            offenders.append(
                f"{rel}:{node.lineno}: tsv_density with a hardcoded die "
                "pair — use floorplan.tsv_densities(grid) over all "
                "adjacent pairs"
            )
        if _passes_expanded_keywords(node):
            offenders.append(
                f"{rel}:{node.lineno}: {name}(**...) — pass topology= "
                "explicitly, never an expanded keyword mapping"
            )
    return offenders


def _passes_expanded_keywords(call: ast.Call) -> bool:
    """``f(**kwargs)`` for one of the :data:`EXPLICIT_KEYWORDS` calls."""
    return _called_name(call) in EXPLICIT_KEYWORDS and any(
        kw.arg is None for kw in call.keywords
    )


def test_no_rogue_solver_or_tsv_call_sites():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(_audit_file(path))
    assert not offenders, "\n".join(offenders)


def test_allowlist_is_minimal():
    """Every allowlisted module actually uses its privilege — stale
    entries would quietly widen the audit hole."""
    for rel in ALLOWLIST:
        tree = ast.parse((SRC / rel).read_text())
        used = {
            _called_name(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert used & OWNED_CONSTRUCTORS, (
            f"{rel} is allowlisted but constructs nothing owned"
        )


def test_audit_catches_a_planted_offender(tmp_path):
    """The lint itself is tested: a synthetic offender must be flagged."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(fp, grid):\n"
        "    s = build_stack(fp.stack, grid)\n"
        "    d = fp.tsv_density((0, 1), grid)\n"
        "    return s, d\n"
    )
    offenders = _audit_file_at(bad)
    assert len(offenders) == 2
    assert "build_stack" in offenders[0]
    assert "hardcoded die pair" in offenders[1]


def test_audit_catches_a_planted_pass_through(tmp_path):
    """Expanded keywords into the stack, cache and transient entry points
    are flagged; spelled-out keywords are not."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(fp, grid, cache, kw, topology):\n"
        "    a = cache.solver_for_floorplan(fp, grid, **kw)\n"
        "    b = cache.incremental_solver(fp.stack, grid, None, base=a, **kw)\n"
        "    s = stack_for_floorplan(fp, grid, **kw)\n"
        "    t = TransientSolver(s, **{'backend': None})\n"
        "    ok = cache.solver(fp.stack, grid, topology=topology)\n"
        "    return a, b, t, ok\n"
    )
    offenders = _audit_file_at(bad)
    assert [o.split(":")[1] for o in offenders] == ["2", "3", "4", "5"]
    assert all("(**...)" in o for o in offenders)


def _audit_file_at(path: Path) -> list:
    """_audit_file for a file outside SRC (test fixture support)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name in OWNED_CONSTRUCTORS:
            offenders.append(f"{path.name}:{node.lineno}: {name}(...)")
        if name == "tsv_density" and node.args and _is_literal_pair(node.args[0]):
            offenders.append(
                f"{path.name}:{node.lineno}: hardcoded die pair"
            )
        if _passes_expanded_keywords(node):
            offenders.append(f"{path.name}:{node.lineno}: {name}(**...)")
    return offenders


def _exports(path: Path, package: Path) -> Dict[str, str]:
    """``{name: qualified name}`` for a module's ``__all__``.  The
    qualified name is ``<module>.<name>`` under ``package``; a package
    ``__init__`` re-export names the module it imports the name from."""
    tree = ast.parse(path.read_text(), filename=str(path))
    parts = path.relative_to(package).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    module = ".".join(parts)
    sources = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                sources[alias.asname or alias.name] = ".".join(
                    p for p in (module, node.module) if p
                )
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                e.value: f"{sources.get(e.value, module)}.{e.value}".lstrip(".")
                for e in node.value.elts
            }
    return {}


def _caller_code(root: Path, trees: Iterable[str] = CALLER_TREES) -> List[ast.Module]:
    """The parsed code under ``root`` that counts as a caller: every file
    of ``trees`` and the ``python -c "..."`` scripts of the CI workflow."""
    code = [
        ast.parse(path.read_text(), filename=str(path))
        for tree in trees
        for path in sorted((root / tree).rglob("*.py"))
    ]
    workflow = root / ".github" / "workflows" / "ci.yml"
    if workflow.exists():
        scripts = re.findall(r'python3? -c "(.*?)"', workflow.read_text(), re.S)
        code.extend(ast.parse(textwrap.dedent(script)) for script in scripts)
    return code


def _references(code: Iterable[ast.Module], names: bool = True) -> set:
    """Every attribute loaded (``x.f``) in ``code``, every name loaded
    (``f``) unless ``names`` is false, and the attribute names perfbench
    wraps by string, ``Target(owner, "f", ...)``."""
    found = set()
    for tree in code:
        for node in ast.walk(tree):
            if names and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif isinstance(node, ast.Call) and _called_name(node) == "Target":
                found.update(
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                )
    return found


def _unreferenced_exports(package: Path, callers: List[ast.Module]) -> List[str]:
    """Qualified names in ``package``'s ``__all__`` lists that no caller
    references, minus :data:`EXPORT_ALLOWLIST`."""
    refs = _references(callers)
    found = set()
    for path in sorted(package.rglob("*.py")):
        for name, qualified in _exports(path, package).items():
            if name not in refs and qualified not in EXPORT_ALLOWLIST:
                found.add(qualified)
    return sorted(found)


def test_every_export_has_a_caller():
    unused = _unreferenced_exports(SRC, _caller_code(ROOT))
    assert not unused, (
        "exported but referenced only by tests (move the oracle to tests/ "
        "or delete it): " + ", ".join(unused)
    )


def test_export_allowlist_is_minimal():
    """Every allowlisted name is exported and still has no caller, so a
    stale entry cannot hide a regrown one."""
    exported = {
        qualified
        for path in SRC.rglob("*.py")
        for qualified in _exports(path, SRC).values()
    }
    refs = _references(_caller_code(ROOT))
    for qualified in EXPORT_ALLOWLIST:
        assert qualified in exported, f"{qualified} is not exported"
        assert qualified.rsplit(".", 1)[1] not in refs, (
            f"{qualified} has a caller now; drop it from the allowlist"
        )


def test_audit_catches_a_planted_unused_export(tmp_path):
    """An ``__all__`` entry only tests use is flagged, through a package
    re-export too; a loaded name and a perfbench ``Target`` string count
    as callers."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import traced, unused, used\n"
        '__all__ = ["traced", "unused", "used"]\n'
    )
    (package / "mod.py").write_text(
        '__all__ = ["traced", "unused", "used"]\n'
        "def traced(): pass\n"
        "def unused(): pass\n"
        "def used(): pass\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text("import pkg\npkg.used()\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "layers.py").write_text(
        'from pkg import mod\nT = Target(mod, "traced", "pkg.traced")\n'
    )
    callers = _caller_code(tmp_path, ("src", "tools", "perfbench"))
    assert _unreferenced_exports(package, callers) == ["mod.unused"]


def _methods(package: Path) -> Dict[str, str]:
    """``{qualified name: name}`` of every public method and property of
    every class in ``package``, qualified as ``<module>.<Class>.<name>``."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not node.name.startswith("_"):
                    found[f"{module}.{cls.name}.{node.name}"] = node.name
    return found


def _unreferenced_methods(package: Path, callers: List[ast.Module]) -> List[str]:
    """Public methods and properties of ``package``'s classes that no
    caller references by attribute, minus :data:`METHOD_ALLOWLIST`."""
    refs = _references(callers, names=False)
    return sorted(
        qualified
        for qualified, name in _methods(package).items()
        if name not in refs and qualified not in METHOD_ALLOWLIST
    )


def test_every_method_has_a_caller():
    """Every allowlisted method exists and still has no caller, and no
    other public method or property lacks one."""
    callers = _caller_code(ROOT)
    refs = _references(callers, names=False)
    methods = _methods(SRC)
    for qualified in METHOD_ALLOWLIST:
        assert qualified in methods, f"{qualified} is not a public method"
        assert methods[qualified] not in refs, (
            f"{qualified} has a caller now; drop it from the allowlist"
        )
    unused = _unreferenced_methods(SRC, callers)
    assert not unused, (
        "public methods referenced only by tests (move the oracle to "
        "tests/ or delete it): " + ", ".join(unused)
    )


def test_audit_catches_a_planted_unused_method(tmp_path):
    """A method or property only tests use is flagged; an attribute
    reference, a perfbench ``Target`` string and a CI inline script count
    as callers, a bare name of the same spelling does not."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class C:\n"
        "    def called(self): pass\n"
        "    def traced(self): pass\n"
        "    def scripted(self): pass\n"
        "    @property\n"
        "    def named(self): pass\n"
        "    def unused(self): pass\n"
        "    def _helper(self): pass\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg.mod import C\nnamed = C().called()\nprint(named)\n"
    )
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "layers.py").write_text(
        'from pkg import mod\nT = Target(mod.C, "traced", "pkg.traced")\n'
    )
    workflow = tmp_path / ".github" / "workflows"
    workflow.mkdir(parents=True)
    (workflow / "ci.yml").write_text(
        "      - run: |\n"
        '          python -c "\n'
        "          from pkg.mod import C\n"
        "          C().scripted()\n"
        '          "\n'
    )
    callers = _caller_code(tmp_path, ("src", "tools", "perfbench"))
    assert _unreferenced_methods(package, callers) == ["mod.C.named", "mod.C.unused"]
