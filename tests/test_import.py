"""The library never loads scipy: no module under ``src/tpds`` imports it,
`import tpds` and the negative-minor witness load none, and neither do the
nonlinear CLI runs, which print the same under ``python -O``. Importing
``tpds.cli`` loads neither ``fractions`` nor ``decimal``. scipy is a
dependency of the tests and ``perfbench/`` alone. Importing ``tpds.cli``
builds no argparse parser: ``cli.main`` builds it on its first call. The
AST scans pin one owner for each shared kernel or reader: the minor
kernel, the sign-count kernel, the strict-sign rule, the exact
elimination, the segment lattice, the expression compiler, the step
check, the Liouville check (and the one integration of ``tpds
simulate``), and ``is_geb`` as a test oracle only; and they keep sampled
verdicts and ``matrix_rank`` out of the library."""

import ast
import os
import re
import subprocess
import sys
import textwrap

import pytest

NO_SCIPY = """
import sys
import tpds, tpds.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded  # stripped by -O, so also:
print(len(loaded))
"""


NONLINEAR_CLI = """
import hashlib, os, sys
import tpds
from tpds import cli
spec = lambda name: os.path.join(os.path.dirname(tpds.__file__), "specs", name + ".spec")
with open("blowup.spec", "w") as fh:
    fh.write('meta: {name: blowup, n: 1}\\nnonlinear: {rhs: ["x1 * x1"]}\\nexperiment: {x0: [1.0], horizon: 2.0}\\n')
print(cli.main(["entrain", spec("entrain_demo")]))
print(cli.main(["entrain", spec("takac"), "--step", "0.05"]))
print(cli.main(["simulate", spec("takac"), "--grid", "50", "--out", "takac.csv"]))
print(hashlib.sha256(open("takac.csv", "rb").read()).hexdigest())
print(cli.main(["simulate", "blowup.spec", "--out", "blowup.csv"]))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def run(script, *flags, cwd=None):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, cwd=cwd,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_importing_the_cli_builds_no_parser():
    # the parser, tpds and one per subcommand, is built on main's first
    # call; the count after _parser() shows the counter sees it
    script = textwrap.dedent(
        """
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        import tpds.cli
        print(len(built))
        tpds.cli._parser()
        print(len(built))
        """
    )
    assert run(script) == ["0", "7"]


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "python-O"])
def test_import_loads_no_scipy(flags):
    assert run(NO_SCIPY, *flags) == ["0"]


def test_importing_the_cli_loads_no_fractions_or_decimal():
    # the exact arithmetic runs on Python ints, and the import is most of
    # a CLI call's set-up time
    script = "import sys, tpds.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] in ('fractions', 'decimal')))"
    assert run(script) == ["[]"]


def test_negative_minor_witness_loads_no_scipy():
    script = NO_SCIPY + textwrap.dedent(
        """
        A = [[-1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.5, 1.0, -1.0]]
        t, rows, cols, value = tpds.negative_minor_witness(A, 3, 1)
        print(value < 0, any(m.startswith("scipy") for m in sys.modules))
        """
    )
    assert run(script) == ["0", "True", "False"]


def test_no_library_module_imports_scipy():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                found += [(name, m) for m in modules if m.split(".")[0] == "scipy"]
    assert len(os.listdir(root)) > 10 and not found


def test_only_the_system_reads_a_segments_matrix():
    # one A(t) reader: every other caller goes through TimeVaryingSystem
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    callers = set()

    def visit(node, scope):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matrix_at":
            callers.add(scope)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                visit(ast.parse(fh.read(), name), "")
    assert callers == {"TimeVaryingSystem._matrices", "TimeVaryingSystem.matrix_at"}


def test_only_the_system_reads_its_segment_lattice():
    # one owner of the segment ends: the integrator asks the system for its
    # spans and for whether they repeat mod T
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    readers = set()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            readers |= {
                (name, node.attr)
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in {"_ends", "_segments_at"}
            }
    assert readers == {("systems.py", "_ends"), ("systems.py", "_segments_at")}


def test_no_library_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    unread = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            imported = {
                alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [(name, n) for n in sorted(imported - read)]
    assert len(os.listdir(root)) > 10 and not unread


def test_only_exprlang_define_compiles_and_executes_code():
    # one expression compiler: every generated function is defined by
    # _define, which compiles through its cached helper _code
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    callers = set()

    def visit(node, scope):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"compile", "exec", "eval"}:
            callers.add((node.func.id, scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                visit(ast.parse(fh.read(), name), name[:-3])
    assert callers == {("compile", "exprlang._code"), ("exec", "exprlang._define")}


def test_exprlang_and_specfile_keep_caches_each_bounded_by_code_cache_size():
    # the parsed strings, the coefficients' and run loops' lines, the
    # compiled sources and the parsed spec documents are module-level
    # caches, shared by every caller in the process, so each is an
    # lru_cache of at most CODE_CACHE_SIZE entries and there is no other
    from tpds import exprlang, specfile

    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")

    def decorated(module):
        with open(os.path.join(root, f"{module.__name__.split('.')[-1]}.py")) as fh:
            tree = ast.parse(fh.read())
        return {
            node.name: [ast.unparse(d) for d in node.decorator_list]
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.decorator_list
        }

    bounded = ["functools.lru_cache(maxsize=CODE_CACHE_SIZE)"]
    caches = {"_parsed", "_code", "_point_lines", "_stack_lines", "_loop_lines"}
    assert decorated(exprlang) == dict.fromkeys(caches, bounded)
    assert decorated(specfile) == {"_document": ["functools.lru_cache(maxsize=exprlang.CODE_CACHE_SIZE)"]}
    for module, names in ((exprlang, caches), (specfile, {"_document"})):
        cached = {name for name, obj in vars(module).items() if hasattr(obj, "cache_info")}
        assert cached == names
        assert {getattr(module, name).cache_parameters()["maxsize"] for name in cached} == {exprlang.CODE_CACHE_SIZE}
    assert exprlang.CODE_CACHE_SIZE == 128


def test_one_minor_kernel_and_no_geb_recheck():
    # _minors is the one caller of the stacked determinant; is_geb stays
    # public, a test oracle that no library module calls
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    callers = set()

    def visit(node, scope):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in {"_stacked_det", "is_geb"}:
                callers.add((name, scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                visit(ast.parse(fh.read(), name), name[:-3])
    assert callers == {("_stacked_det", "totalpos._minors")}


def library_calls(names):
    """(function name, defining or calling scope) of every definition of
    and call to one of ``names`` under ``src/tpds``, scopes dotted from the
    module name."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    found = set()

    def visit(node, scope):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                found.add((name, scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            if node.name in names:
                found.add(("def " + node.name, scope))
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                visit(ast.parse(fh.read(), name), name[:-3])
    return found


def test_one_strict_sign_rule():
    # every "all minors of an order beyond the threshold, of one sign" test
    # is the one predicate: classify's SSR test, column_set_equivalence's
    # common sign, and strong_svdp_holds on a non-square matrix
    assert library_calls({"_one_strict_sign"}) == {
        ("def _one_strict_sign", "totalpos"),
        ("_one_strict_sign", "totalpos.classify"),
        ("_one_strict_sign", "totalpos.column_set_equivalence"),
        ("_one_strict_sign", "totalpos.strong_svdp_holds"),
    }


def test_one_exact_elimination_and_no_relative_rank_cutoff():
    # the witness value, the oscillation sign and strong_svdp_holds' rank
    # come from the one Bareiss elimination; column_set_equivalence reads
    # rank from its minor thresholds, and no scope asks matrix_rank
    assert library_calls({"_exact", "matrix_rank"}) == {
        ("def _exact", "totalpos"),
        ("_exact", "totalpos.classify"),
        ("_exact", "totalpos.strong_svdp_holds"),
    }


def test_no_sampled_verdict_in_the_library():
    # the generators draw by design, and column_set_equivalence's sampled
    # half is a benchmark verdict; every other verdict is decided, not drawn
    scopes = {scope for _, scope in library_calls({"default_rng"})}
    assert {scope for scope in scopes if scope.split(".")[0] != "generators"} == {"totalpos.column_set_equivalence"}
    assert any(scope.startswith("generators.") for scope in scopes)


def longdouble_scopes():
    """The scopes under ``src/tpds`` that name ``longdouble``."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    scopes = set()

    def visit(node, scope):
        if (isinstance(node, ast.Name) and node.id == "longdouble") or (isinstance(node, ast.Attribute) and node.attr == "longdouble"):
            scopes.add(scope)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                visit(ast.parse(fh.read(), name), name[:-3])
    return scopes


def test_one_sign_count_kernel():
    # every sign count goes through signvar.sign_counts (or v_counts on top
    # of it); signs are classified by _sign_rows, by Trajectory with its
    # per-sample zero tolerance, and by eventual_monotonicity, which tests
    # where one difference changes sign and counts nothing
    calls = library_calls({"sign_counts", "sign"})
    assert {scope for name, scope in calls if name == "def sign_counts"} == {"signvar"}
    assert {scope for name, scope in calls if name == "sign"} == {
        "signvar._sign_rows",
        "integrate.Trajectory.__post_init__",
        "nonlinear.eventual_monotonicity",
    }
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    with open(os.path.join(root, "totalpos.py")) as fh:
        tree = ast.parse(fh.read(), "totalpos.py")
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "classify" in defined and not [name for name in defined if name.endswith("_counts")]


def test_long_double_is_asked_for_only_where_a_determinant_is_read():
    # transition_matrix's Liouville check reads det Phi, and so does the flag
    # of tpds simulate, which multiplies the interval transition matrices of
    # its trajectory; _transitions and _increments take the dtype
    # transition_matrix passes, and every other flow multiplies in their
    # default, double
    assert longdouble_scopes() == {"integrate.transition_matrix", "integrate.trajectory_record"}


def test_the_compound_cross_check_reads_phi_in_double():
    # compound_transition's direct route reads Phi alone, to COMPOUND_REL_TOL
    assert not any(scope.startswith("integrate.compound_transition") for scope in longdouble_scopes())
    assert ("transition_matrix", "integrate.compound_transition") not in library_calls({"transition_matrix"})


def test_tpds_simulate_integrates_once():
    # the flag reads the interval transition matrices that produced the
    # samples, through the one Liouville check of transition_matrix, which
    # it takes from _transition, the record floquet shares
    calls = library_calls({"transition_matrix", "trajectory_record", "_liouville"})
    assert not any(scope.startswith("cli.cmd_simulate") for name, scope in calls if name == "transition_matrix")
    assert ("trajectory_record", "cli.cmd_simulate") in calls
    assert {scope for name, scope in calls if name == "_liouville"} == {
        "integrate._transition",
        "integrate.trajectory_record",
        "integrate.compound_transition",
    }


def test_floquet_takes_the_monodromy_in_double():
    # floquet reads the eigenvalues of Phi(T, 0) and no determinant, so it
    # takes the record of transition_matrix's helper in double, not
    # transition_matrix's in long double
    calls = library_calls({"transition_matrix", "_transition"})
    assert not any(scope.startswith("floquet.") for name, scope in calls if name == "transition_matrix")
    assert {scope for name, scope in calls if name == "_transition"} == {"integrate.transition_matrix", "floquet.floquet"}
    assert not any(scope.startswith("floquet.") for scope in longdouble_scopes())


def test_a_step_is_checked_only_where_a_flow_takes_it():
    # the linear flows check theirs by _checked_step, a nonlinear run by its
    # run function when it is created; the step-count rules, the span
    # layout and the generated RK4 loop only count
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tpds")
    step_checks, count_checks = set(), set()

    def visit(node, scope):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None) or ""
            args = [a.value for a in node.args if isinstance(a, ast.Constant)]
            if name == "_checked_positive" and "step" in args:
                step_checks.add(scope)
            if name.startswith("_checked") and scope.split(".")[-1] in {"_step_count", "_step_counts"}:
                count_checks.add((name, scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                visit(ast.parse(fh.read(), name), name[:-3])
    assert step_checks == {"integrate._checked_step", "exprlang.compile_stepper.advance"}
    assert not count_checks
    with open(os.path.join(root, "nonlinear.py")) as fh:
        assert "_checked_run_step" not in fh.read()


def test_nonlinear_cli_runs_load_no_scipy_and_ignore_python_O(tmp_path):
    # entrain (error-controlled and fixed-step) and a nonlinear simulate,
    # and a blow-up that must still exit 4 when asserts are stripped
    (tmp_path / "plain").mkdir()
    (tmp_path / "opt").mkdir()
    plain = run(NONLINEAR_CLI, cwd=tmp_path / "plain")
    assert plain == run(NONLINEAR_CLI, "-O", cwd=tmp_path / "opt")
    # the error-controlled run also prints its largest error estimate
    entrain = r"detected_period {} residual tail( \S+){{5}} steps \d+ rejected \d+{} 0"
    entrain = [entrain.format(1, r" largest_error \S+"), entrain.format(2, "")]
    pattern = " ".join(entrain + [r"wrote takac.csv \(50 samples\) 0 [0-9a-f]{64} 4 \[\]"])
    assert re.fullmatch(pattern, " ".join(plain))
