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

A third audit does the same for defaulted parameters: every one of a
``src/repro`` function or method, and every defaulted init field of a
``src/repro`` dataclass without its own ``__init__`` (dataclass fields
are parameters too), must be set by some call in those trees, or, for a
field, by a ``replace`` keyword or an attribute store.  Passing a
literal equal to the literal default, of the same type, sets nothing.
A knob no caller turns is a module constant, not a parameter.

A fourth keeps one direct solver: no ``splu`` call and no
``scipy.sparse.linalg`` import anywhere under ``src/repro``, so a second
direct path cannot grow back beside the band-Cholesky backend.

A fifth keeps one transient stepping loop: no ``src/repro`` module but
``thermal/transient.py`` touches ``TransientSolver._factorize``, so a
caller that wants a trace integrates it through ``run``/``run_many``
instead of growing its own backward-Euler loop on the step factor.
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

#: defaulted parameters and dataclass fields no caller sets, each with
#: why it stays
PARAMETER_ALLOWLIST = {
    "thermal.transient.TransientSolver.__init__.backend": "test seam: "
    "tests hand in a backend instance to pin the solver a case runs on",
    "core.flow.verify_correlations.cache": "test seam: tests hand in a "
    "private SolverCache to count its hits and misses",
    "exploration.study.run_exploration.cache": "test seam: tests hand in "
    "a private SolverCache to count its hits and misses",
    "core.queue.run_worker.worker_id": "test seam: queue tests name "
    "workers to assert which one holds, steals or fails a lease",
    "core.queue.run_worker.wait": "queue timing tests shorten: wait=False "
    "exits at the first moment nothing is claimable",
    "core.queue.run_worker.poll_interval": "queue timing tests shorten "
    "to keep the chaos suite fast",
    "service.state.ServiceState.__init__.poll_interval": "queue timing "
    "tests shorten to keep the fan-out tests fast",
    "core.faults.retry_io.attempts": "chaos timing tests shorten to "
    "exhaust the retry budget",
    "core.faults.retry_io.base_delay": "chaos timing tests shorten to "
    "keep retried writes fast",
    "exploration.study.run_batch.queue_dir": "deployment setting: pins "
    "the queue so workers on other hosts can join a sweep",
    "exploration.study.run_batch.lease_ttl": "deployment setting: the "
    "lease a sweep's queue grants, set by the deployment's job lengths",
    "thermal.steady_state.WoodburySolver.__init__.network": "Woodbury "
    "knob: goes with the low-rank update path",
    "thermal.steady_state.WoodburySolver.__init__.update": "Woodbury "
    "knob: goes with the low-rank update path",
    "thermal.steady_state.WoodburySolver.__init__.residual_tol": "Woodbury "
    "knob: goes with the low-rank update path",
    "thermal.steady_state.WoodburySolver.__init__.probe": "Woodbury "
    "knob: goes with the low-rank update path",
    "exploration.study.run_exploration.incremental": "Woodbury knob: "
    "goes with the low-rank update path",
    "floorplan.tempering.temper.ladder_ratio": "tempering knob: goes "
    "with the replica-exchange path",
    "mitigation.dummy_tsv.MitigationConfig.incremental": "Woodbury knob: "
    "goes with the low-rank update path",
    "mitigation.dummy_tsv.MitigationConfig.rebase_rank": "Woodbury knob: "
    "goes with the low-rank update path",
    "floorplan.objectives.ObjectiveWeights.area": "no API takes an "
    "ObjectiveWeights: for_mode builds the two setups' weight tables",
    "floorplan.objectives.ObjectiveWeights.wirelength": "no API takes an "
    "ObjectiveWeights: for_mode builds the two setups' weight tables",
    "floorplan.objectives.ObjectiveWeights.die_assignment": "no API takes "
    "an ObjectiveWeights: for_mode builds the two setups' weight tables",
    "service.state.ServiceJob.events": "state, not a knob: the job's "
    "progress log, which the service appends to as events arrive",
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
    return _expr_name(call.func)


def _expr_name(node: ast.AST) -> str | None:
    """``f`` of the expression ``f`` or ``x.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
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


def _second_direct_paths(path: Path) -> list:
    """``splu`` calls and ``scipy.sparse.linalg`` imports in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = []
        if any(m == "scipy.sparse.linalg" or m.startswith("scipy.sparse.linalg.")
               for m in modules):
            offenders.append(f"{path.name}:{node.lineno}: imports scipy.sparse.linalg")
        if isinstance(node, ast.Call) and _called_name(node) == "splu":
            offenders.append(f"{path.name}:{node.lineno}: calls splu")
    return offenders


def test_one_direct_solver():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(
            f"{path.relative_to(SRC).as_posix()}: {o}" for o in _second_direct_paths(path)
        )
    assert not offenders, (
        "a second direct solver path (the band-Cholesky backend is the one): "
        + "; ".join(offenders)
    )


def test_audit_catches_a_planted_direct_solver(tmp_path):
    """Every import form of ``scipy.sparse.linalg`` and a ``splu`` call
    are flagged; ``scipy.linalg`` and ``scipy.sparse`` are not."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import scipy.linalg\n"
        "import scipy.sparse as sp\n"
        "import scipy.sparse.linalg as spla\n"
        "from scipy.sparse import linalg\n"
        "from scipy.sparse.linalg import spsolve\n"
        "def f(a):\n"
        "    return spla.splu(a), scipy.linalg.cholesky_banded(a), sp.csc_matrix(a)\n"
    )
    offenders = _second_direct_paths(bad)
    assert [o.split(":")[1] for o in offenders] == ["3", "4", "5", "7"]
    assert "calls splu" in offenders[-1]


def _step_factor_reach_ins(path: Path) -> list:
    """Reads of ``_factorize`` in ``path``, as an attribute or by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: reads _factorize"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_factorize")
        or (isinstance(node, ast.Constant) and node.value == "_factorize")
    ]


def test_one_transient_stepping_loop():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel != "thermal/transient.py":
            offenders.extend(f"{rel}: {o}" for o in _step_factor_reach_ins(path))
    assert not offenders, (
        "a second transient stepping loop (TransientSolver.run/run_many is "
        "the one): " + "; ".join(offenders)
    )


def test_audit_catches_a_planted_step_factor_reach_in(tmp_path):
    """An attribute read of ``_factorize`` and a ``getattr`` by name are
    flagged; the public stepping calls and look-alike names are not."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(solver, power_at, dt):\n"
        "    lu = solver._factorize(dt)\n"
        "    step = getattr(solver, '_factorize')\n"
        "    trace = solver.run(power_at, 1.0, dt)\n"
        "    return lu, step, trace, solver._factorize_cache, solver.run_many\n"
    )
    offenders = _step_factor_reach_ins(bad)
    assert [o.split(":")[1] for o in offenders] == ["2", "3"]


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


def _caller_files(root: Path, trees: Iterable[str] = CALLER_TREES) -> Dict[str, ast.Module]:
    """The parsed code under ``root`` that counts as a caller, by path
    relative to ``root``: every file of ``trees`` and the ``python -c
    "..."`` scripts of the CI workflow (``<workflow>#<index>``)."""
    files = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text(), filename=str(path))
        for tree in trees
        for path in sorted((root / tree).rglob("*.py"))
    }
    workflow = root / ".github" / "workflows" / "ci.yml"
    if workflow.exists():
        scripts = re.findall(r'python3? -c "(.*?)"', workflow.read_text(), re.S)
        name = workflow.relative_to(root).as_posix()
        for index, script in enumerate(scripts):
            files[f"{name}#{index}"] = ast.parse(textwrap.dedent(script))
    return files


def _caller_code(root: Path, trees: Iterable[str] = CALLER_TREES) -> List[ast.Module]:
    """:func:`_caller_files` without the paths."""
    return list(_caller_files(root, trees).values())


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


def _defs(tree: ast.Module):
    """``(qualified name, node, enclosing class)`` of every def and class
    in ``tree``, nested ones included, outer nodes before inner ones.
    The class is ``None`` for a node that is not directly in a class
    body."""
    todo = [(tree, "", None)]
    while todo:
        node, prefix, cls = todo.pop(0)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield f"{prefix}{child.name}", child, cls
                todo.append((child, f"{prefix}{child.name}.", child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child, cls
                todo.append((child, f"{prefix}{child.name}.", None))
            else:
                todo.append((child, prefix, cls))


def _generates_init(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` whose ``__init__`` the decorator writes: not
    ``init=False``, and no ``__init__`` of its own in the body."""
    for decorator in cls.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        if _expr_name(call.func if call else decorator) != "dataclass":
            continue
        options = {k.arg: k.value for k in call.keywords} if call else {}
        init = options.get("init")
        return not (isinstance(init, ast.Constant) and init.value is False) and not any(
            isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "__init__"
            for n in cls.body
        )
    return False


#: what :func:`_literal` returns for an expression that is no literal
_NOT_LITERAL = object()


def _literal(node: ast.AST):
    """The value of a literal expression (``True``, ``-1``, ``4000.0``,
    ``(0, 1)``), else :data:`_NOT_LITERAL`."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return _NOT_LITERAL


class _Signature:
    """What a call can set of one def: its positional names (``self``
    or ``cls`` dropped for methods), its defaulted names, the name of
    its ``**`` parameter, the class it is a method of, and each default
    value's expression."""

    def __init__(self, positional, defaults, varkw=None, cls=None, values=None) -> None:
        self.positional = positional
        self.defaults = defaults
        self.varkw = varkw
        self.cls = cls
        self.values = values or {}

    def passes_default(self, param: str, value: ast.AST) -> bool:
        """Whether ``value`` is a literal equal to ``param``'s literal
        default, of the same type: passing it sets nothing."""
        default = _literal(self.values[param]) if param in self.values else _NOT_LITERAL
        given = _literal(value)
        return (
            default is not _NOT_LITERAL
            and type(given) is type(default)
            and given == default
        )

    @classmethod
    def of_def(cls, node, owner) -> "_Signature":
        args = node.args
        static = any(_expr_name(d) == "staticmethod" for d in node.decorator_list)
        names = [a.arg for a in args.posonlyargs + args.args]
        values = dict(zip(names[len(names) - len(args.defaults):], args.defaults))
        values.update(
            (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )
        return cls(
            names[1:] if owner is not None and not static else names,
            list(values),
            args.kwarg.arg if args.kwarg else None,
            owner.name if owner is not None else None,
            values,
        )

    @classmethod
    def of_fields(cls, node: ast.ClassDef) -> "_Signature":
        """A dataclass's generated ``__init__``: its init fields in
        order.  ``ClassVar`` and ``field(init=False)`` fields are not
        parameters; a field defaults through a value, ``default=`` or
        ``default_factory=``."""
        positional, values = [], {}
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and _called_name(value) == "field":
                options = {k.arg: k.value for k in value.keywords}
                init = options.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                value = options.get("default", options.get("default_factory"))
            positional.append(stmt.target.id)
            if value is not None:
                values[stmt.target.id] = value
        return cls(positional, list(values), cls=node.name, values=values)


def _literal_mappings(tree: ast.Module) -> Dict[str, Dict[str, ast.AST]]:
    """``{NAME: {key: value}}`` of a module's top-level ``NAME =
    dict(k=...)`` and ``NAME = {"k": ...}`` literals: a ``**NAME`` call
    passes exactly those keywords."""
    found = {}
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and _called_name(value) == "dict" and not value.args
                and all(k.arg is not None for k in value.keywords)):
            found[stmt.targets[0].id] = {k.arg: k.value for k in value.keywords}
        elif isinstance(value, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str) for k in value.keys
        ):
            found[stmt.targets[0].id] = {k.value: v for k, v in zip(value.keys, value.values)}
    return found


def _stored_attributes(tree: ast.Module) -> set:
    """The attribute names ``tree`` assigns on an object other than
    ``self`` (``cfg.f = ...``, ``cfg.f += ...``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.add(node.attr)
    return found


def _launched(call: ast.Call):
    """``(callee, positional args, keywords)`` of each call ``call``
    makes: itself, and the function a pool's ``submit``, a
    pytest-benchmark ``benchmark`` fixture or a ``Process``/``Thread``
    ``target`` runs.  The keyword ``None`` holds a
    ``**`` mapping."""
    keywords = {k.arg: k.value for k in call.keywords}
    yield call.func, call.args, keywords
    name = _called_name(call)
    if name in ("submit", "benchmark") and call.args:
        yield call.args[0], call.args[1:], keywords
    if name in ("Process", "Thread") and "target" in keywords:
        args, kwargs = keywords.get("args"), keywords.get("kwargs")
        if isinstance(args, (ast.Tuple, ast.List)):
            positional = list(args.elts)
        else:
            positional = [] if args is None else [ast.Starred(args, ast.Load())]
        if kwargs is None:
            named = {}
        elif isinstance(kwargs, ast.Dict) and all(
            isinstance(k, ast.Constant) for k in kwargs.keys
        ):
            named = {k.value: v for k, v in zip(kwargs.keys, kwargs.values)}
        elif isinstance(kwargs, ast.Call) and _called_name(kwargs) == "dict" and not kwargs.args:
            named = {k.arg: k.value for k in kwargs.keywords}
        else:
            named = {None: kwargs}
        yield keywords["target"], positional, named


def _unset_parameters(root: Path, package: Path, files: Dict[str, ast.Module]) -> List[str]:
    """Defaulted parameters of ``package``'s defs, and defaulted init
    fields of its dataclasses, that no call in ``files`` sets, qualified
    as ``<module>.<def>.<param>`` and ``<module>.<class>.<field>``.

    Callees match by name, conservatively, among the defs and
    dataclasses of every file: a call ``f(...)`` or ``x.f(...)`` may
    reach every def named ``f``, ``C(...)`` and ``cls(...)`` the
    ``__init__`` of a class ``C`` (the generated one of a dataclass),
    and ``super().f(...)`` the ``f`` of a named base class.  A call sets
    a parameter it passes by keyword or by position, unless the value is
    a literal equal to the parameter's literal default, of the same
    type, or the caller's own defaulted parameter: that pass-through
    sets it only if the caller's parameter is set.  A
    ``**`` mapping forwarded from the caller's ``**`` parameter passes
    on the keywords the caller receives, and a ``**NAME`` of a
    module-level ``dict(...)``/``{...}`` literal passes its keys; any
    other ``**`` mapping or ``*`` sequence sets every parameter of the
    callee.  A dataclass field is also set by a ``replace(obj, f=...)``
    keyword and by an attribute store ``obj.f = ...`` on an object other
    than ``self``, both matched by field name.
    """
    prefix = package.relative_to(root).as_posix() + "/"
    signatures = {}  # (file, qualified) -> _Signature
    by_name: Dict[str, list] = {}  # name a call uses -> [(file, qualified)]
    owner = {}  # id(node) -> ((file, qualified), class) of its innermost def
    fielded = []  # the dataclasses' keys: what replace(obj, f=...) reaches
    for rel, tree in files.items():
        for qualified, node, cls in _defs(tree):
            key = (rel, qualified)
            if isinstance(node, ast.ClassDef):
                if _generates_init(node):
                    signatures[key] = _Signature.of_fields(node)
                    fielded.append(key)
                    for name in ("__init__", node.name):
                        by_name.setdefault(name, []).append(key)
                continue
            signatures[key] = _Signature.of_def(node, cls)
            for child in ast.walk(node):
                owner[id(child)] = (key, cls)
            names = {node.name}
            if cls is not None and node.name == "__init__":
                names.add(cls.name)
            for name in names:
                by_name.setdefault(name, []).append(key)

    stored = set().union(*(_stored_attributes(tree) for tree in files.values()))
    # (callee, param) set by some call or store; "**k" / "**" keywords
    found = {(key, f) for key in fielded for f in signatures[key].defaults if f in stored}
    through: Dict[tuple, set] = {}  # (caller, own param) -> {(callee, param)}
    forwards: Dict[tuple, set] = {}  # caller -> callees its ** mapping reaches
    for tree in files.values():
        literals = _literal_mappings(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            caller, cls = owner.get(id(call), (None, None))
            own = signatures.get(caller)
            for func, args, keywords in _launched(call):
                name = _expr_name(func)
                if name == "cls" and cls is not None:
                    name = cls.name
                callees = by_name.get(name, ())
                if name == "replace":
                    callees, args = fielded, ()
                value = getattr(func, "value", None)
                if isinstance(value, ast.Call) and _called_name(value) == "super":
                    bases = {_expr_name(b) for b in cls.bases} if cls else set()
                    callees = [c for c in callees if signatures[c].cls in bases]
                mapping = keywords.get(None)
                if isinstance(mapping, ast.Name) and mapping.id in literals:
                    keywords = {**literals[mapping.id], **keywords}
                    del keywords[None]
                for callee in callees:
                    sig = signatures[callee]
                    if any(isinstance(a, ast.Starred) for a in args):
                        found.update((callee, p) for p in sig.defaults)
                    if None in keywords:
                        mapping = keywords[None]
                        if own and isinstance(mapping, ast.Name) and mapping.id == own.varkw:
                            forwards.setdefault(caller, set()).add(callee)
                        else:
                            found.update((callee, p) for p in sig.defaults)
                            found.add((callee, "**"))
                    pairs = list(zip(sig.positional, args))
                    pairs += [(k, v) for k, v in keywords.items() if k is not None]
                    for param, value in pairs:
                        if sig.passes_default(param, value):
                            continue
                        if param not in sig.defaults:
                            if not sig.varkw or param in sig.positional:
                                continue
                            param = f"**{param}"
                        if own and isinstance(value, ast.Name) and value.id in own.defaults:
                            through.setdefault((caller, value.id), set()).add((callee, param))
                        else:
                            found.add((callee, param))

    todo = list(found)
    while todo:
        key, param = todo.pop()
        reached = set(through.get((key, param), ()))
        if param.startswith("**"):
            keyword = param[2:]
            for callee in forwards.get(key, ()):
                sig = signatures[callee]
                if not keyword:
                    reached.update((callee, p) for p in sig.defaults)
                    reached.add((callee, "**"))
                elif keyword in sig.defaults:
                    reached.add((callee, keyword))
                elif sig.varkw:
                    reached.add((callee, param))
        for item in reached - found:
            found.add(item)
            todo.append(item)

    unset = []
    for (rel, qualified), sig in signatures.items():
        if rel.startswith(prefix):
            module = ".".join(Path(rel[len(prefix):]).with_suffix("").parts)
            unset += [
                f"{module}.{qualified}.{p}"
                for p in sig.defaults
                if ((rel, qualified), p) not in found
            ]
    return sorted(unset)


def test_every_parameter_has_a_caller():
    unset = [
        qualified
        for qualified in _unset_parameters(ROOT, SRC, _caller_files(ROOT))
        if qualified not in PARAMETER_ALLOWLIST
    ]
    assert not unset, (
        "defaulted parameters no caller sets outside tests (make each a "
        "module constant, or delete the branch it selects): " + ", ".join(unset)
    )


def test_parameter_allowlist_is_minimal():
    """Every allowlisted parameter exists and still has no caller, so a
    stale entry cannot hide a regrown knob."""
    unset = set(_unset_parameters(ROOT, SRC, _caller_files(ROOT)))
    stale = sorted(set(PARAMETER_ALLOWLIST) - unset)
    assert not stale, "allowlisted but set by a caller, or gone: " + ", ".join(stale)


def test_audit_catches_a_planted_unused_parameter(tmp_path):
    """A defaulted parameter only tests set is flagged, through a chain
    of pass-throughs too; keywords, positions, pool, benchmark-fixture
    and process launches, ``**`` forwarding and ``cls(...)`` count as
    setting it."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def leaf(a, by_kw=1, by_pos=2, chained=3, unset=4):\n"
        "    def inner(x=0): pass\n"
        "    inner()\n"
        "def middle(chained=3, forwarded=5):\n"
        "    leaf(0, chained=chained)\n"
        "def top(chained=3):\n"
        "    middle(chained=chained)\n"
        "def sweep(**kwargs):\n"
        "    return target(**kwargs)\n"
        "def target(kept=1, dropped=2): pass\n"
        "def launched(q, pos=1, kw=2, never=3): pass\n"
        "def spawned(q, pos=1, kw=2, never=3): pass\n"
        "def timed(q, pos=1, kw=2, never=3): pass\n"
        "class C:\n"
        "    def __init__(self, made=1, unmade=2): pass\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls(made=0)\n"
        "    def method(self, first=1, second=2): pass\n"
        "class E(Exception):\n"
        "    def __init__(self, message, code=1):\n"
        "        super().__init__(message, code)\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg import mod\n"
        "mod.leaf(0, 10, by_pos=20)\n"
        "mod.leaf(0, by_kw=10)\n"
        "mod.top()\n"
        "mod.middle(forwarded=None)\n"
        "mod.sweep(kept=0)\n"
        "mod.C.build().method(0)\n"
        "pool.submit(mod.launched, 'q', 10, kw=20)\n"
        "Process(target=mod.spawned, args=('q', 10), kwargs=dict(kw=20))\n"
        "benchmark(mod.timed, 'q', 10, kw=20)\n"
    )
    unset = _unset_parameters(tmp_path, package, _caller_files(tmp_path, ("src", "tools")))
    assert unset == [
        "mod.C.__init__.unmade",
        "mod.C.method.second",
        "mod.E.__init__.code",
        "mod.launched.never",
        "mod.leaf.chained",
        "mod.leaf.inner.x",
        "mod.leaf.unset",
        "mod.middle.chained",
        "mod.spawned.never",
        "mod.target.dropped",
        "mod.timed.never",
        "mod.top.chained",
    ]


def test_audit_catches_a_planted_unused_field(tmp_path):
    """A dataclass's defaulted init fields are parameters too: fields set
    by keyword, by position, through ``replace``, through a module-level
    ``**`` literal or by an attribute store are not flagged; an unset
    one is, and ``ClassVar`` and ``init=False`` fields are no
    parameters."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, List\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    name: str\n"
        "    by_pos: int = 1\n"
        "    by_kw: int = 2\n"
        "    replaced: int = 3\n"
        "    literal: int = 4\n"
        "    stored: List[int] = field(default_factory=list)\n"
        "    unset: float = 0.5\n"
        "    limit: ClassVar[int] = 9\n"
        "    cache: dict = field(init=False, default_factory=dict)\n"
        "@dataclass\n"
        "class Own:\n"
        "    hidden: int = 1\n"
        "    def __init__(self, made=1, unmade=2): pass\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from dataclasses import replace\n"
        "from pkg import mod\n"
        "_CFG = dict(literal=0)\n"
        "cfg = mod.Config('a', 0, by_kw=0)\n"
        "cfg = replace(cfg, replaced=0)\n"
        "cfg = mod.Config('b', **_CFG)\n"
        "cfg.stored = [1]\n"
        "mod.Own(made=0)\n"
    )
    unset = _unset_parameters(tmp_path, package, _caller_files(tmp_path, ("src", "tools")))
    assert unset == ["mod.Config.unset", "mod.Own.__init__.unmade"]


def test_audit_ignores_arguments_equal_to_the_default(tmp_path):
    """Passing a literal equal to the literal default, of the same type,
    by keyword or by position, sets nothing; another value, a name or a
    literal of another type does."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "def leaf(flag=True): pass\n"
        "def flipped(flag=True): pass\n"
        "def named(flag=True): pass\n"
        "def positional(a, flag=True, size=4.0): pass\n"
        "@dataclass\n"
        "class Config:\n"
        "    bits: int = 16\n"
        "    seed: int = 0\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg import mod\n"
        "mod.leaf(flag=True)\n"
        "mod.flipped(flag=False)\n"
        "mod.named(flag=x)\n"
        "mod.positional(0, True, 4)\n"
        "mod.Config(16, seed=1)\n"
    )
    unset = _unset_parameters(tmp_path, package, _caller_files(tmp_path, ("src", "tools")))
    assert unset == ["mod.Config.bits", "mod.leaf.flag", "mod.positional.flag"]


def test_audit_follows_pass_throughs_of_caller_helpers(tmp_path):
    """A helper outside ``src/`` that forwards its own defaulted
    parameter sets the callee's parameter when a call sets the helper's;
    the helper's own parameters are not reported."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text("def leaf(a, unset=4): pass\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg import mod\n"
        "def helper(seed=0):\n"
        "    mod.leaf(0, unset=seed)\n"
        "def idle(never=0): pass\n"
        "helper(seed=3)\n"
    )
    assert _unset_parameters(tmp_path, package, _caller_files(tmp_path, ("src", "tools"))) == []
