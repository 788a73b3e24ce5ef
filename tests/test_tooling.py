"""The commands that leave scipy unloaded and the shipped demos, each run in a
fresh interpreter, the benchmark's per-layer span names against the
library's public API, the kernel protocol's rules that the shipped kernels
override only protocol methods and are named only in
kernels.py and that no class assigns the retired ``adapted`` flag, the rule that every defaulted parameter of a
public function is set by some call, the rules that the library never calls
the built-in sum or quad_singular and builds Gauss-Jacobi rules only in
basis.py and kernels.py, that it imports no scipy and declares
exactly its third-party imports as runtime dependencies, that every kernel
spec's M~ goes through the one memo, which no module but kernels.py gets
round by a private kernels name or an M~ piece, that the horizon, time-array
and sample-array rules are each raised from one place, that the library raises
only ConfigurationError and DomainError, and that the sde CSV's coefficients
come from the numpy formatter, not repr."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chaosfield import sde
from chaosfield.basis import BasisFamily
from chaosfield.kernels import KernelSpec, brownian_kernel, fbm_kernel_spec, grid_kernel, grid_kernel_from_csv
from chaosfield.multiindex import Truncation

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [ROOT / "demos" / name for name in ("demo_fbm_kernel.py", "demo_wick_calculus.py", "demo_wick_sde.py")]


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


# commands on the fBm and Brownian paths; --out keeps the sde files out of the tree
SCIPY_FREE_COMMANDS = {
    "fbm": ["fbm", "--grid", "64"],
    "sde-fbm": ["sde", "--kernel", "fbm", "--modes", "4", "--order", "3", "--grid", "32", "--out", "{tmp}"],
    "integrate-field-ito-fbm": ["integrate", "--mode", "field-ito", "--kernel", "fbm", "--modes", "4", "--order", "3"],
    **{f"verify-{suite}": ["verify", "--suite", suite] for suite in ("fbm", "sde", "mc")},
}


@pytest.mark.parametrize("name", sorted(SCIPY_FREE_COMMANDS))
def test_command_leaves_scipy_unloaded(name, tmp_path):
    # the Gauss rules come from numpy's eigh and the Gamma values from math: no module of scipy loads
    argv = [arg.format(tmp=tmp_path) for arg in SCIPY_FREE_COMMANDS[name]]
    code = (
        "import contextlib, io, sys\n"
        "from chaosfield.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_grid_kernel_leaves_scipy_unloaded(tmp_path):
    # the grid kernel's bilinear interpolant is numpy's searchsorted and four corner terms: building
    # one from a CSV, its psi, M~ and a closed-form solve load no module of scipy
    grid = np.linspace(0.0, 1.0, 9).tolist()
    lines = ["t_s," + ",".join(map(repr, grid))]
    lines += [f"{t!r}," + ",".join(repr(1.0 + s - t if s <= t else 0.0) for s in grid) for t in grid]
    (tmp_path / "kernel.csv").write_text("\n".join(lines) + "\n")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from chaosfield import BasisFamily, Truncation, grid_kernel_from_csv, solve_closed_form\n"
        f"kernel = grid_kernel_from_csv({str(tmp_path / 'kernel.csv')!r})\n"
        "basis, t = BasisFamily('cosine'), np.linspace(0.0, 1.0, 17)\n"
        "values = [kernel.psi(basis, [1, 2], t), kernel.mtilde(basis, [1, 2], t)]\n"
        "values.append(solve_closed_form(kernel, basis, Truncation(2, 2), t).coeffs)\n"
        "print(all(np.all(np.isfinite(v)) for v in values), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_benchmark_per_layer_spans_name_traced_public_functions():
    # ``bench/run.py --trace 1`` reports each span that BENCHMARK.json declares; a
    # name no traced function carries any more leaves that metric without a value
    loader = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    names = {n.rsplit(".", 1)[0] for n in declared if n.endswith((".calls", ".self_ms"))}
    names = sorted(n for n in names if "." in n)  # drop the per-layer totals
    assert names
    for name in names:
        layer, _, rest = name.partition(".")
        assert layer in spans.LAYERS, name
        module = importlib.import_module(f"chaosfield.{layer}")
        if "." in rest:
            cls_name, method = rest.split(".")
            assert cls_name in spans.TRACED_CLASSES.get(layer, ()), name
            assert not method.startswith("_"), name
            assert inspect.isfunction(vars(getattr(module, cls_name)).get(method)), name
        else:
            assert spans._is_traced_function(module, rest, getattr(module, rest, None)), name


# what a kernel class may define: the protocol's attributes and methods; a private helper of its own is fine
PROTOCOL = {"name", "singularity", "origin_exponent", "gamma0", "__init__"} | {
    "eval", "dt_eval", "dt_smooth", "psi", "_mtilde", "_variance", "kstar"
}
SHIPPED_KERNEL_CLASSES = {"_Brownian", "_Fbm", "_Grid"}


def _beyond_the_protocol(cls):
    # names a kernel class defines outside the protocol: a public one, or an override of another base member
    dunder = {n for n in vars(cls) if n.startswith("__") and n.endswith("__")}
    return sorted(
        n for n in vars(cls) if n not in PROTOCOL | dunder and (not n.startswith("_") or n in vars(KernelSpec))
    )


def _names_used(tree):
    # every identifier a module names: variables, attributes and imported names
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return found


def _adapted_assignments(tree):
    # line of each assignment of ``adapted`` in a class: a class attribute, one of a tuple, or self.adapted
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    return sorted(
        {
            node.lineno
            for cls in classes
            for node in ast.walk(cls)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Store)
            and "adapted" in (getattr(node, "id", None), getattr(node, "attr", None))
        }
    )


def test_shipped_kernels_override_only_protocol_methods():
    # each shipped kernel is its own KernelSpec subclass, overriding only the pieces it has in exact form
    shipped = [brownian_kernel(1.0), fbm_kernel_spec(0.7, 1.0), grid_kernel([0.0, 1.0], [0.0, 1.0], np.eye(2))]
    classes = {type(kernel) for kernel in shipped}
    assert {cls.__name__ for cls in classes} == SHIPPED_KERNEL_CLASSES
    for cls in classes:
        assert cls.__bases__ == (KernelSpec,), cls
        assert _beyond_the_protocol(cls) == [], cls
    # ... and no module outside kernels.py names those classes: consumers see only KernelSpec
    found = {
        str(path.relative_to(ROOT)): sorted(hits)
        for sub in ("src", "bench", "demos", "tests")
        for path in sorted((ROOT / sub).rglob("*.py"))
        if path.name != "kernels.py" and (hits := _names_used(ast.parse(path.read_text())) & SHIPPED_KERNEL_CLASSES)
    }
    assert found == {}
    # every kernel is a Volterra kernel, so a leftover ``adapted = False`` would be ignored without a word
    found = {
        str(path.relative_to(ROOT)): hits
        for sub in ("src", "bench", "demos", "tests")
        for path in sorted((ROOT / sub).rglob("*.py"))
        if (hits := _adapted_assignments(ast.parse(path.read_text())))
    }
    assert found == {}

    # the checks see a public method, an override of eval_ts, each spelling of a name and of an adapted flag
    class Odd(KernelSpec):
        def eval_ts(self, t, s):
            pass

        def extra(self):
            pass

        def _helper(self):
            pass

    assert _beyond_the_protocol(Odd) == ["eval_ts", "extra"]
    sample = "from chaosfield.kernels import _Grid\nx = kernels._Fbm(0.7, 1.0)\ny = _Brownian"
    assert _names_used(ast.parse(sample)) >= SHIPPED_KERNEL_CLASSES
    sample = "class A:\n    name, adapted = 'a', True\nclass B:\n    adapted: bool\n    def f(self):\n"
    sample += "        self.adapted = False\n        return self.adapted\nadapted = True\n"
    assert _adapted_assignments(ast.parse(sample)) == [2, 4, 6]


# a test that needs another value monkeypatches a module constant; a call from a test sets no option
CALLERS = ("src", "bench", "demos")


def _defaulted_parameters(tree):
    # {function: {parameter: position, or None if keyword-only}} of each public module-level function
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            params = {a.arg: positional.index(a) for a in positional[len(positional) - len(args.defaults) :]}
            params.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
            found.setdefault(node.name, {}).update(params)
    return found


def _unset_defaults(defined, call_trees):
    # (function, parameter) of each defaulted parameter that no call sets, by keyword or by position
    set_by_a_call = set()
    for tree in call_trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            params = defined.get(name, {})
            set_by_a_call.update((name, kw.arg) for kw in node.keywords if kw.arg in params)
            set_by_a_call.update((name, p) for p, i in params.items() if i is not None and i < len(node.args))
    return sorted((f, p) for f, params in defined.items() for p in params if (f, p) not in set_by_a_call)


def test_every_defaulted_parameter_of_a_public_function_is_set_by_some_call():
    # a default that no caller overrides is a constant dressed as an option
    defined = {}
    for path in sorted((ROOT / "src" / "chaosfield").glob("*.py")):
        for name, params in _defaulted_parameters(ast.parse(path.read_text())).items():
            defined.setdefault(name, {}).update(params)
    calls = [ast.parse(path.read_text()) for sub in CALLERS for path in sorted((ROOT / sub).rglob("*.py"))]
    assert _unset_defaults(defined, calls) == []
    # the check sees an unset default, and a keyword or a positional argument past it sets it
    sample = _defaulted_parameters(ast.parse("def f(a, b=1, *, c=2): pass"))
    assert _unset_defaults(sample, [ast.parse("f(0)")]) == [("f", "b"), ("f", "c")]
    assert _unset_defaults(sample, [ast.parse("m.f(0, 1, c=3)")]) == []


def _builtin_sum_calls(tree):
    # line of each call of the built-in sum; np.sum and method calls are attributes, not names
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    return [n.lineno for n in calls if n.func.id == "sum"]


def test_library_makes_no_builtin_sum_call():
    # from Python 3.12 on the built-in sum of floats is compensated, so it would tie results to the Python version
    found = {
        path.name: hits
        for path in sorted((ROOT / "src" / "chaosfield").glob("*.py"))
        if (hits := _builtin_sum_calls(ast.parse(path.read_text())))
    }
    assert found == {}
    # the check sees such a call, and leaves np.sum and array methods alone
    assert _builtin_sum_calls(ast.parse("x = sum(v)\ny = np.sum(v) + v.sum()")) == [1]


def _calls_of(name, tree):
    # line of each call of ``name``, by its bare name or as a module attribute
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    return [n.lineno for n in calls if name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_library_makes_no_quad_singular_call():
    # quad_singular divides out the singular factor that Gauss-Jacobi weights back in, an extra
    # power per node; library callers pass quad_singular_smooth their cofactor directly
    found = {
        path.name: hits
        for path in sorted((ROOT / "src" / "chaosfield").glob("*.py"))
        if (hits := _calls_of("quad_singular", ast.parse(path.read_text())))
    }
    assert found == {}
    # the check sees either spelling, and leaves quad_singular_smooth alone
    sample = "a = quad_singular(f, 0, 1, -0.5)\nb = basis.quad_singular(f, 0, 1, -0.5)\nc = quad_singular_smooth(g, 0, 1, -0.5)"
    assert _calls_of("quad_singular", ast.parse(sample)) == [1, 2]


def test_only_basis_and_kernels_build_gauss_jacobi_rules():
    # a kernel-basis pairing takes its rule from quad_singular_smooth, so no other module builds one by hand
    found = {
        path.name: hits
        for path in sorted((ROOT / "src" / "chaosfield").glob("*.py"))
        if path.name not in ("basis.py", "kernels.py") and (hits := _calls_of("jacobi01", ast.parse(path.read_text())))
    }
    assert found == {}


def _top_level_imports(tree):
    # (line, top-level package) of each absolute import, at module level or inside a function
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def _library_imports():
    return {
        path.name: _top_level_imports(ast.parse(path.read_text()))
        for path in sorted((ROOT / "src" / "chaosfield").glob("*.py"))
    }


def test_library_imports_no_scipy():
    # the library runs on numpy and the standard library alone; scipy is a reference for the tests only
    found = [(name, line) for name, imports in _library_imports().items() for line, pkg in imports if pkg == "scipy"]
    assert found == []
    # the check sees each spelling at module level and inside a function, and leaves relative imports alone
    sample = "import scipy\nfrom scipy.special import gamma\ndef f():\n    import scipy.linalg as la\nfrom .kernels import x"
    assert _top_level_imports(ast.parse(sample)) == [(1, "scipy"), (2, "scipy"), (4, "scipy")]


def test_runtime_dependencies_are_the_library_third_party_imports():
    # pyproject.toml's runtime dependencies are exactly the packages the library imports beyond the
    # standard library, so a new import cannot ship undeclared and a dropped one cannot linger
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = {pkg for imports in _library_imports().values() for _, pkg in imports}
    assert declared == imported - set(sys.stdlib_module_names) == {"numpy"}


def test_every_kernel_spec_exposes_its_mtilde_memo(tmp_path):
    # the memo wraps every kernel's M~, its own or derived, so no subclass can skip it
    grid = tmp_path / "kernel.csv"
    grid.write_text("t_s,0.0,1.0\n0.0,1.0,0.0\n1.0,1.0,1.0\n")

    class Direct(KernelSpec):
        name = "direct"
        eval = staticmethod(lambda t, s: np.where(s <= t, 1.0, 0.0))

    specs = [brownian_kernel(1.0), fbm_kernel_spec(0.7, 1.0), grid_kernel_from_csv(grid), Direct(1.0)]
    specs.append(fbm_kernel_spec(0.7, 1.0))
    for spec in specs:
        assert spec._mtilde_memo.cache_info() == (0, 0, 32, 0), spec.name
    assert specs[-1]._mtilde_memo is not specs[1]._mtilde_memo


def _memo_builders(tree):
    # (line, callee, enclosing scope) of each OrderedDict or lru_cache call; a decorator belongs to the
    # scope around the function it decorates, so a module-level @lru_cache(...) has the empty scope
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee in ("OrderedDict", "lru_cache"):
                found.append((node.lineno, callee, scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                visit(decorator, scope)
            inner = f"{scope}.{node.name}" if scope else node.name
            for child in ast.iter_child_nodes(node):
                if child not in node.decorator_list:
                    visit(child, inner)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

    visit(tree, "")
    return found


def test_the_mtilde_memo_container_is_built_in_one_place():
    # one memo for every kernel: a constructor that built a memo of its own would fork it again
    found = {
        (path.name, callee, scope)
        for path in sorted((ROOT / "src" / "chaosfield").glob("*.py"))
        for _, callee, scope in _memo_builders(ast.parse(path.read_text()))
        if scope or callee == "OrderedDict"
    }
    assert found == {("kernels.py", "lru_cache", "KernelSpec.__init__")}
    # the check sees either spelling at any depth, and leaves a module-level decorator alone
    sample = (
        "@lru_cache(maxsize=8)\ndef f():\n    return collections.OrderedDict()\n"
        "class A:\n    def __init__(self):\n        self.m = functools.lru_cache(maxsize=4)(self.g)"
    )
    expected = [(1, "lru_cache", ""), (3, "OrderedDict", "f"), (6, "lru_cache", "A.__init__")]
    assert _memo_builders(ast.parse(sample)) == expected


# the ways round ``KernelSpec.mtilde`` to a kernel's M~: its piece, the memo, and the memo's miss
MTILDE_BYPASSES = {"_mtilde", "_mtilde_memo", "_mtilde_request"}


def _private_kernel_uses(tree):
    # line of each private name imported from the kernels module or read off it, and of each call of an M~ bypass
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] == "kernels":
            found += [node.lineno for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if getattr(node.value, "id", None) == "kernels":
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MTILDE_BYPASSES:
            found.append(node.lineno)
    return sorted(set(found))


def test_only_kernels_py_reads_mtilde_around_the_memo():
    # the memo decides M~(t <= 0) = 0; a module reading a private kernels helper or a piece would skip that
    found = {
        str(path.relative_to(ROOT)): hits
        for sub in ("src", "demos")
        for path in sorted((ROOT / sub).rglob("*.py"))
        if path.name != "kernels.py" and (hits := _private_kernel_uses(ast.parse(path.read_text())))
    }
    assert found == {}
    # the check sees each spelling, and leaves public names and other private calls alone
    sample = (
        "from .kernels import KernelSpec, _mtilde_table\nfrom chaosfield.kernels import _Fbm\n"
        "from . import kernels\nx = kernels._MTILDE_BLOCK\ny = kernel._mtilde(basis, ks, t)\n"
        "z = kernel._mtilde_memo(basis, ks, b)\nw = kernel.mtilde(basis, ks, t) + basis._check(t)\n"
    )
    assert _private_kernel_uses(ast.parse(sample)) == [1, 2, 4, 5, 6]


# the input rules that kernels, bases, solvers and hr_gram share, each by the wording of its refusal
SHARED_RULES = {"horizon": r"horizon must be", "times": r"time(s| grid) must be", "samples": r"samples must be"}


def _raises_of(tree, pattern):
    # line of each raise whose message, or a literal piece of its f-string, matches the pattern
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            for part in ast.walk(node)
            if isinstance(part, ast.Constant) and isinstance(part.value, str) and re.search(pattern, part.value)
        }
    )


def test_each_shared_input_rule_is_raised_from_one_place():
    # basis.py holds each rule; an inline copy elsewhere would drift in wording and in what it accepts
    found = {
        rule: [
            path.name
            for path in sorted((ROOT / "src" / "chaosfield").glob("*.py"))
            for _ in _raises_of(ast.parse(path.read_text()), pattern)
        ]
        for rule, pattern in SHARED_RULES.items()
    }
    assert found == {"horizon": ["basis.py"], "times": ["basis.py"], "samples": ["chaos.py"]}
    # the check sees a second copy in either spelling, and leaves docstrings and other messages alone
    sample = (
        'def f(t):\n    """the horizon must be positive"""\n'
        '    if t <= 0:\n        raise DomainError(f"horizon must be positive, not {t!r}")\n'
        '    raise ConfigurationError("horizon must be finite")\n'
        'raise DomainError(f"the time grid must be 1-D, not {s}")\nraise DomainError("t outside [0, T]")\n'
    )
    tree = ast.parse(sample)
    assert (_raises_of(tree, SHARED_RULES["horizon"]), _raises_of(tree, SHARED_RULES["times"])) == ([4, 5], [6])


# the two errors of the library's contract: the CLI maps each to exit 2
CONTRACT_ERRORS = {"ConfigurationError", "DomainError"}


def _raises_outside_the_contract(tree):
    """The enclosing function or class of each raise of a class outside the two, and of each
    _check_integer call that hands it another, in source order; a bare re-raise passes."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (getattr(exc, "id", None) or getattr(exc, "attr", None)) not in CONTRACT_ERRORS:
                found.append(scope)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_integer":
            errors = node.args[3:] + [kw.value for kw in node.keywords if kw.arg == "error"]
            if any(getattr(e, "id", None) not in CONTRACT_ERRORS for e in errors):
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope)

    visit(tree, "")
    return found


def test_the_library_raises_only_the_two_contract_errors():
    # a bad request gets ConfigurationError or DomainError, and nothing else, whichever module refuses it;
    # _check_integer raises the class its caller names, and the scan sees every caller name one of the two
    found = {
        path.name: hits
        for path in sorted((ROOT / "src" / "chaosfield").glob("*.py"))
        if (hits := _raises_outside_the_contract(ast.parse(path.read_text())))
    }
    assert found == {"multiindex.py": ["_check_integer"]}
    # the check sees another class, called or not, and a foreign class handed to _check_integer;
    # it leaves a bare re-raise and either contract error alone
    sample = (
        "def f(x):\n    raise ValueError(x)\nclass A:\n    def g(self):\n        raise errors.DimensionError\n"
        "def h(x):\n    try:\n        pass\n    except OSError:\n        raise\n"
        "    _check_integer('n', x, 1, TypeError)\n    _check_integer('n', x, 1, error=DomainError)\n"
        "    raise ConfigurationError('x') from None\nraise errors.DomainError('y')\n"
    )
    assert _raises_outside_the_contract(ast.parse(sample)) == ["f", "g", "h"]


def test_export_writes_almost_every_coefficient_by_numpy(tmp_path, monkeypatch):
    # repr writes the same bytes, so no golden CSV tells a change that sends every value to it;
    # on an fBm (6, 4) table on 129 times only the t = 0 zeros and the power-of-two u_0 = 1 need repr
    times = np.linspace(0.0, 1.0, 129)
    sol = sde.solve_closed_form(fbm_kernel_spec(0.7, 1.0), BasisFamily("cosine"), Truncation(6, 4), times)
    fields, counts = sde._repr_fields, []

    def counted(x, out):
        counts.append((fields(x, out), len(x)))
        return counts[-1][0]

    monkeypatch.setattr(sde, "_repr_fields", counted)
    sol.export_csv(tmp_path / "u.csv", tmp_path / "ids.json")
    by_repr, values = np.sum(counts, axis=0)
    assert values == sol.coeffs.size
    assert by_repr <= 0.05 * values
