"""Tests for the command-line interface and its exit-code contract."""

import numpy as np
import pytest

from tpds import cli, matio, specfile
from tpds.compound import add_compound

OSC = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]])


@pytest.fixture()
def osc_file(tmp_path):
    path = tmp_path / "osc.mat"
    matio.dump(OSC, path)
    return str(path)


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
