"""Tests for the command-line interface and its exit-code contract."""

import argparse

import numpy as np
import pytest

from tpds import cli, exprlang, matio, specfile
from tpds.compound import add_compound

OSC = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]])


def osc_path(tmp_path):
    path = tmp_path / "osc.mat"
    matio.dump(OSC, path)
    return str(path)


@pytest.fixture()
def osc_file(tmp_path):
    return osc_path(tmp_path)


def spec_path(tmp_path, name):
    path = tmp_path / f"{name}.spec"
    specfile.save(specfile.shipped(name), path)
    return str(path)


def test_check_oscillatory(osc_file, capsys):
    assert cli.main(["check", osc_file]) == 0
    out = capsys.readouterr().out
    assert "TN yes" in out and "TP no" in out and "oscillatory yes" in out
    assert "M+ yes" in out


def test_check_reports_violating_minor(tmp_path, capsys):
    path = tmp_path / "ssr.mat"
    matio.dump(np.array([[1, 2], [3, 1]]), path)
    assert cli.main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SSR yes" in out and "TN no" in out
    assert "first negative minor" in out


def test_check_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 2 3\n")
    assert cli.main(["check", str(bad)]) == 2
    assert cli.main(["check", str(tmp_path / "missing.mat")]) == 2


@pytest.mark.parametrize("text", ["2.5 2\n1 2 3 4\n", "2 2\n1 99999999999999999999\n3 4\n"])
def test_check_bad_header_or_int64_overflow_exits_2(tmp_path, capsys, text):
    # a bare ValueError or OverflowError: a traceback and exit 1
    bad = tmp_path / "bad.mat"
    bad.write_text(text)
    assert cli.main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_compound_additive(osc_file, capsys):
    assert cli.main(["compound", osc_file, "2", "--additive"]) == 0
    out = capsys.readouterr().out
    assert np.array_equal(matio.loads(out), add_compound(OSC.astype(float), 2).entries)


def test_compound_multiplicative_identity(tmp_path, capsys):
    path = tmp_path / "eye.mat"
    matio.dump(np.eye(3, dtype=int), path)
    assert cli.main(["compound", str(path), "2", "--multiplicative"]) == 0
    assert np.array_equal(matio.loads(capsys.readouterr().out), np.eye(3))


def test_simulate_deterministic(tmp_path, capsys):
    spec = spec_path(tmp_path, "switched")
    outs = []
    for k in range(2):
        out = tmp_path / f"run{k}.csv"
        assert cli.main(["simulate", spec, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "t,z1,z2,z3,z4,s_minus,s_plus,in_V"


def test_simulate_trivial_z0_exits_3(tmp_path, capsys):
    spec = spec_path(tmp_path, "switched")
    rc = cli.main(["simulate", spec, "--z0", "0,0,0,0", "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_simulate_nonlinear_spec(tmp_path, capsys):
    spec = spec_path(tmp_path, "takac")
    out = tmp_path / "takac.csv"
    assert cli.main(["simulate", spec, "--grid", "200", "--out", str(out)]) == 0
    assert out.read_text().startswith("t,z1,z2,z3,z4")


def test_floquet_command(tmp_path, capsys):
    spec = spec_path(tmp_path, "sinusoidal2")
    assert cli.main(["floquet", spec]) == 0
    out = capsys.readouterr().out
    assert "multiplier 1: 535.4" in out
    assert "sign_changes 1" in out


def test_entrain_command(tmp_path, capsys):
    spec = spec_path(tmp_path, "entrain_demo")
    assert cli.main(["entrain", spec]) == 0
    out = capsys.readouterr().out
    assert "detected_period 1" in out
    # the steps of the error-controlled run, after the residual tail, and
    # the largest scaled error estimate of an accepted step
    assert out.splitlines()[2] == "steps 267 rejected 36 largest_error 7.754e-01"
    # an explicit step runs RK4, which has no error estimate to report
    assert cli.main(["entrain", spec, "--step", "0.02"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "steps 3780 rejected 0"


# the steps line of `tpds entrain` on each shipped nonlinear spec
ENTRAIN_STEPS = {
    "entrain_demo": "steps 267 rejected 36 largest_error 7.754e-01",
    "takac": "steps 271 rejected 48 largest_error 9.723e-01",
}


@pytest.mark.parametrize("name", [n for n in specfile.shipped_names() if specfile.shipped(n).kind == "nonlinear"])
def test_entrain_twice_in_one_process_prints_the_same_and_compiles_once(name, tmp_path, capsys, monkeypatch):
    # the second load of the spec generates the same sources, whose code
    # exprlang compiled on the first (or an earlier) run in this process
    spec = spec_path(tmp_path, name)
    compiled = []

    def counted(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(exprlang, "compile", counted, raising=False)
    outputs = []
    for _ in range(2):
        assert cli.main(["entrain", spec]) == 0
        outputs.append((capsys.readouterr().out, len(compiled)))
    (first, compiles), (second, total) = outputs
    assert first == second and first.splitlines()[2] == ENTRAIN_STEPS[name]
    assert total == compiles


def test_reproduce_idempotent(tmp_path, capsys):
    outdir = tmp_path / "fig"
    for _ in range(2):
        assert cli.main(["reproduce", "spectrum-tp3", "--outdir", str(outdir)]) == 0
    data = (outdir / "spectrum_tp3.csv").read_text()
    assert "11.65685425" in data


def test_reproduce_unknown_figure(tmp_path, capsys):
    assert cli.main(["reproduce", "no-such-figure", "--outdir", str(tmp_path)]) == 3
    # the error and the help text both list the figure table
    assert "choose from " + ", ".join(cli.FIGURES) in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["reproduce", "--help"])
    help_text = "".join(capsys.readouterr().out.split())  # argparse wraps at hyphens too
    assert "oneof" + ",".join(cli.FIGURES) in help_text


@pytest.mark.parametrize("figure", list(cli.FIGURES))
def test_reproduce_every_figure_writes_its_files(figure, tmp_path, capsys):
    assert cli.main(["reproduce", figure, "--outdir", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written and all(name.startswith(figure.replace("-", "_")) for name in written)


def test_outdir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TPDS_OUTDIR", str(tmp_path / "envout"))
    assert cli.main(["reproduce", "spectrum-tp3"]) == 0
    assert (tmp_path / "envout" / "spectrum_tp3.csv").exists()


def test_simulate_malformed_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("meta: {name: bad, n: 2, interval: [0, 1]}\nlinear:\n  segments: [5]\n")
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "a segment must be a dict" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [" + ".join(["t"] * 250), " + ".join(["t"] * 1200), "(" * 400 + "1" + ")" * 400, "-" * 2000 + "1"],
    ids=["sum-250", "sum-1200", "parens-400", "minus-2000"],
)
def test_simulate_too_deep_an_entry_exits_2(tmp_path, capsys, entry):
    # a bare SyntaxError (too many nested parentheses) or RecursionError: exit 1
    path = tmp_path / "deep.spec"
    path.write_text(
        "meta: {name: deep, n: 2, interval: [0, 1]}\n"
        f"linear:\n  segments:\n    - {{t_start: 0, t_end: 1, matrix: [[-1, '{entry}'], [1, -1]]}}\n"
        "experiment: {z0: [1, -1], grid: 20}\n"
    )
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.endswith("the expression nests too deeply (more than 100 levels)\n")


LINEAR_SPEC = (
    "meta: {name: lin, n: 2, interval: [0, 1]}\n"
    "linear:\n  segments:\n    - {t_start: 0, t_end: 1, matrix: [[-1, 1], [1, -1]]}\n"
)
NONLINEAR_SPEC = 'meta: {name: nl, n: 3, period: 1.0}\nnonlinear:\n  rhs: ["-x1", "-x2", "-x3"]\n'
BAD_EXPERIMENTS = {
    "simulate-z0": ("simulate", LINEAR_SPEC, "{z0: abc}", "experiment.z0"),
    "simulate-z0-entry": ("simulate", LINEAR_SPEC, "{z0: [abc, 1]}", "experiment.z0"),
    "simulate-grid": ("simulate", LINEAR_SPEC, "{z0: [1, -1], grid: abc}", "experiment.grid"),
    "simulate-grid-fraction": ("simulate", LINEAR_SPEC, "{z0: [1, -1], grid: 2.5}", "experiment.grid"),
    "simulate-step": ("simulate", LINEAR_SPEC, "{z0: [1, -1], step: abc}", "experiment.step"),
    "simulate-step-zero": ("simulate", LINEAR_SPEC, "{z0: [1, -1], step: 0}", "experiment.step"),
    "simulate-x0": ("simulate", NONLINEAR_SPEC, "{x0: abc, horizon: 1}", "experiment.x0"),
    "simulate-x0-entry": ("simulate", NONLINEAR_SPEC, "{x0: [abc, 1, 2], horizon: 1}", "experiment.x0"),
    "simulate-horizon": ("simulate", NONLINEAR_SPEC, "{x0: [0, 1, 2], horizon: abc}", "experiment.horizon"),
    "simulate-nonlinear-grid": ("simulate", NONLINEAR_SPEC, "{x0: [0, 1, 2], horizon: 1, grid: abc}", "experiment.grid"),
    "entrain-x0": ("entrain", NONLINEAR_SPEC, "{x0: abc}", "experiment.x0"),
    "entrain-x0-entry": ("entrain", NONLINEAR_SPEC, "{x0: [abc, 1, 2]}", "experiment.x0"),
    "entrain-x0-nan": ("entrain", NONLINEAR_SPEC, "{x0: [.nan, 1, 2]}", "experiment.x0"),
}


@pytest.mark.parametrize("case", sorted(BAD_EXPERIMENTS))
def test_malformed_experiment_value_exits_2(tmp_path, capsys, case):
    # these used to end in a bare ValueError with exit 1
    command, system, experiment, key = BAD_EXPERIMENTS[case]
    path = tmp_path / "bad.spec"
    path.write_text(system + f"experiment: {experiment}\n")
    extra = ["--out", str(tmp_path / "x.csv")] if command == "simulate" else []
    assert cli.main([command, str(path)] + extra) == 2
    assert key in capsys.readouterr().err


NON_FINITE_SPECS = {
    "nan": ("[[-1, 1], [1, .nan]]", 2),
    "overflow": ('[[-1, "t * 1e308 * 10"], [1, -1]]', 3),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_SPECS))
def test_simulate_non_finite_spec_exit_code(tmp_path, capsys, name):
    matrix, code = NON_FINITE_SPECS[name]
    path = tmp_path / f"{name}.spec"
    path.write_text(
        "meta: {name: bad, n: 2, interval: [0, 1]}\n"
        "linear:\n  segments:\n    - {t_start: 0, t_end: 1, matrix: " + matrix + "}\n"
        "experiment: {z0: [1, -1], grid: 20}\n"
    )
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == code


def test_floquet_spec_with_a_window_off_its_period_exits_2(tmp_path, capsys):
    # [1, 1.001) breaks period 1 between the period check's 100 times
    path = tmp_path / "window.spec"
    path.write_text(
        "meta: {name: window, n: 2, interval: [0, 3], period: 1}\n"
        "linear:\n  segments:\n"
        "    - {t_start: 0, t_end: 1, matrix: [[-1, 1], [0.5, -1]]}\n"
        "    - {t_start: 1, t_end: 1.001, matrix: [[0, 2], [1, 0]]}\n"
        "    - {t_start: 1.001, t_end: 3, matrix: [[-1, 1], [0.5, -1]]}\n"
    )
    assert cli.main(["floquet", str(path)]) == 2
    assert "A(t) != A(t+T) at t=1.0005" in capsys.readouterr().err


def test_floquet_stiff_spec_exits_4(tmp_path, capsys):
    path = tmp_path / "stiff.spec"
    path.write_text(
        "meta: {name: stiff, n: 2, interval: [0, 10], period: 10}\n"
        "linear:\n  segments:\n    - {t_start: 0, t_end: 10, matrix: [[-1000, 1], [1, -1000]]}\n"
    )
    with np.errstate(all="ignore"):
        assert cli.main(["floquet", str(path)]) == 4
    assert "non-finite" in capsys.readouterr().err


def test_simulate_stiff_spec_exits_4(tmp_path, capsys):
    path = tmp_path / "stiff.spec"
    path.write_text(
        "meta: {name: stiff, n: 2, interval: [0, 10]}\n"
        "linear:\n  segments:\n    - {t_start: 0, t_end: 10, matrix: [[-1000, 1], [1, -1000]]}\n"
        "experiment: {z0: [1, -1], grid: 20}\n"
    )
    with np.errstate(all="ignore"):
        assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == 4
    assert "non-finite" in capsys.readouterr().err


BAD_OPTIONS = {
    "grid-negative": ("takac", ["--grid", "-5"], "--grid must be a positive integer, got -5"),
    "grid-zero": ("cosh2", ["--grid", "0"], "--grid must be a positive integer, got 0"),
    "step-zero": ("cosh2", ["--step", "0"], "--step must be a positive finite number, got 0.0"),
    "step-negative": ("takac", ["--step", "-1"], "--step must be a positive finite number, got -1.0"),
    "step-nan": ("cosh2", ["--step", "nan"], "--step must be a positive finite number, got nan"),
    "horizon-zero": ("takac", ["--horizon", "0"], "--horizon must be a positive finite number, got 0.0"),
    "horizon-inf": ("takac", ["--horizon", "inf"], "--horizon must be a positive finite number, got inf"),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_simulate_bad_numeric_option_exits_2(tmp_path, capsys, case):
    # --grid -5 used to end in numpy's bare ValueError (exit 1), and --grid 0,
    # --step 0 and --horizon 0 fell back to the spec's values
    name, option, message = BAD_OPTIONS[case]
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", spec_path(tmp_path, name), "--out", str(out)] + option) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["floquet", "entrain"])
def test_bad_step_exits_2(tmp_path, capsys, command):
    name = "sinusoidal2" if command == "floquet" else "entrain_demo"
    assert cli.main([command, spec_path(tmp_path, name), "--step", "-0.5"]) == 2
    assert capsys.readouterr().err == "error: step must be a positive finite number, got -0.5\n"


def test_simulate_numeric_options_override_the_spec(tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["simulate", spec_path(tmp_path, "cosh2"), "--out", str(out), "--grid", "7", "--step", "0.01"]
    assert cli.main(args) == 0
    assert len(out.read_text().splitlines()) == 8


@pytest.mark.parametrize("name, where", [("cosh2", "option"), ("takac", "option"), ("cosh2", "spec")])
def test_simulate_unallocatable_grid_exits_2(tmp_path, capsys, name, where):
    # a 10^15-sample grid used to end in numpy's bare MemoryError (exit 1)
    out = tmp_path / "x.csv"
    if where == "option":
        args = [spec_path(tmp_path, name), "--grid", "1000000000000000"]
    else:
        spec = specfile.shipped(name)
        spec.experiment["grid"] = 10**15
        specfile.save(spec, tmp_path / "huge.spec")
        args = [str(tmp_path / "huge.spec")]
    assert cli.main(["simulate", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: a grid of 1000000000000000 samples cannot be allocated\n"
    assert not out.exists()


def test_simulate_overflow_names_the_stepper_and_the_step(tmp_path, capsys):
    # the message used to be the bare "(34, 'Numerical result out of range')";
    # 1e305 was the default step, 1e-3 of the span, before a nonlinear run
    # was error-controlled by default
    out = tmp_path / "x.csv"
    args = ["simulate", spec_path(tmp_path, "takac"), "--horizon", "1e308", "--out", str(out)]
    assert cli.main(args + ["--step", "1e305"]) == 3
    err = capsys.readouterr().err
    assert err == "DomainError: advance in the RK4 step from t = 0.0: (34, 'Numerical result out of range')\n"
    # the error-controlled run keeps its steps small and gives up on the
    # first interval of 1e305
    assert cli.main(args) == 4
    err = capsys.readouterr().err
    assert err == "numerical suspect: the DOP853 run takes more than 100000 steps from t = 0.0 to t = 1.001001001001001e+305\n"


# -- one parser per process ---------------------------------------------------


def _call(argv, capsys, parse=None):
    """(exit code, stdout, stderr) of cli.main(argv), or, given parse, of
    the argparse error that parse(argv) exits with."""
    if parse is None:
        code = cli.main(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        code = exc.value.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _written(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# a good command line per subcommand; --z0 and --x0 go through their list
# converter on each parse
REPEATED = {
    "check": lambda tmp: ["check", osc_path(tmp)],
    "compound": lambda tmp: ["compound", osc_path(tmp), "2", "--additive"],
    "simulate": lambda tmp: ["simulate", spec_path(tmp, "cosh2"), "--z0", "1,0.5", "--grid", "50", "--out", str(tmp / "out" / "run.csv")],
    "floquet": lambda tmp: ["floquet", spec_path(tmp, "sinusoidal2")],
    "entrain": lambda tmp: ["entrain", spec_path(tmp, "entrain_demo"), "--x0", "0.1,0.2,0.3"],
    "reproduce": lambda tmp: ["reproduce", "spectrum-tp3", "--outdir", str(tmp / "out")],
}


@pytest.mark.parametrize("command", REPEATED)
def test_each_command_twice_in_one_process_prints_and_writes_the_same(command, tmp_path, capsys):
    # the first call builds the parser, the second reuses it; an argparse
    # error between them (an unknown subcommand, a missing argument) leaves
    # it as it was, and prints what a fresh parser prints
    (tmp_path / "out").mkdir()
    argv = REPEATED[command](tmp_path)
    cli._parser.cache_clear()
    first = _call(argv, capsys)
    written = _written(tmp_path / "out")
    for bad in (["no-such-command"], [command]):
        fresh = _call(bad, capsys, parse=cli.build_parser().parse_args)
        assert fresh[0] == 2 and fresh[2].startswith("usage: tpds")
        assert _call(bad, capsys, parse=cli.main) == fresh
    assert _call(argv, capsys) == first
    assert _written(tmp_path / "out") == written
    assert first[0] == 0 and (first[1] or written)


def test_main_builds_its_parser_once_per_process(osc_file, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    assert cli.main(["check", osc_file]) == 0
    assert built[0] == "tpds" and len(built) == 1 + len(REPEATED)  # tpds and each subcommand
    assert cli.main(["check", osc_file]) == 0
    assert len(built) == 1 + len(REPEATED)
    # build_parser makes a new parser each time, so extending one does not
    # change what main parses
    assert cli.build_parser() is not cli._parser()
