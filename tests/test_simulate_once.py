"""`tpds simulate` on a linear spec integrates once: its Liouville flag reads
the interval transition matrices that produced the samples
(``integrate.trajectory_record``), through the one check of
``transition_matrix`` (``integrate._liouville``). Also the kernel pieces
that moved with it: a one-segment ``TimeVaryingSystem._matrices`` read, and
``Trajectory.to_csv``'s block writer against a row-by-row writer."""

import os

import numpy as np
import pytest

import tpds
from tpds import cli, exprlang
from tpds.errors import IntegrationSuspect, MonotonicityViolation
from tpds.integrate import DET_REL_TOL, Trajectory, simulate_linear, trajectory_record
from tpds.systems import Segment, TimeVaryingSystem

SPEC_DIR = os.path.join(os.path.dirname(tpds.__file__), "specs")
LINEAR_SPECS = ("schwarz3", "sinusoidal2", "switched", "cosh2")


# -- the flag's exit codes on the shipped specs -------------------------------

# the flag reads det Phi over the whole interval, as before, so the specs
# whose whole-interval drift is about 1 or more keep exit 4
EXIT_CODES = {
    "default": ([], {"schwarz3": 4, "sinusoidal2": 4, "switched": 0, "cosh2": 0}),
    "grid-7": (["--grid", "7"], {"schwarz3": 4, "sinusoidal2": 4, "switched": 0, "cosh2": 0}),
    "grid-50-step-0.05": (["--grid", "50", "--step", "0.05"], {"schwarz3": 4, "sinusoidal2": 4, "switched": 4, "cosh2": 0}),
}


@pytest.mark.parametrize("name", LINEAR_SPECS)
@pytest.mark.parametrize("options, codes", EXIT_CODES.values(), ids=EXIT_CODES.keys())
def test_simulate_exit_codes_on_the_shipped_linear_specs(name, options, codes, tmp_path, capsys):
    argv = ["simulate", os.path.join(SPEC_DIR, f"{name}.spec"), "--out", str(tmp_path / "x.csv"), *options]
    assert cli.main(argv) == codes[name]
    err = capsys.readouterr().err
    assert ("determinant consistency check failed" in err) == (codes[name] == 4)


def test_a_one_sample_simulation_is_flagged_by_the_identity(tmp_path, capsys):
    # no interval: Phi(a, a) is I, det 1 against exp(0)
    argv = ["simulate", os.path.join(SPEC_DIR, "cosh2.spec"), "--out", str(tmp_path / "x.csv"), "--grid", "1"]
    assert cli.main(argv) == 0
    system = tpds.shipped("cosh2").system
    traj, rec = trajectory_record(system, [1.0, 0.0], [0.0])
    assert len(traj.times) == 1
    assert np.array_equal(rec.phi, np.eye(2)) and rec.det_phi == rec.det_predicted == 1.0 and not rec.suspect


def test_the_flag_of_cosh2_reads_a_unit_determinant():
    # A(t) = [[0, t], [t, 0]]: tr A = 0, det Phi = 1 in closed form
    spec = tpds.shipped("cosh2")
    grid = np.linspace(*spec.system.interval, spec.setting("grid"))
    traj, rec = trajectory_record(spec.system, spec.setting("z0"), grid)
    assert (rec.t0, rec.t) == (0.0, 2.0)
    assert rec.det_predicted == 1.0
    assert abs(rec.det_phi - 1.0) <= DET_REL_TOL and not rec.suspect
    # the same trajectory as simulate_linear's
    alone = simulate_linear(spec.system, spec.setting("z0"), grid)
    assert traj.states.tobytes() == alone.states.tobytes()
    # and the product of the interval transition matrices is Phi(2, 0)
    c, s = np.cosh(2.0), np.sinh(2.0)
    assert np.allclose(rec.phi, [[c, s], [s, c]], rtol=1e-8, atol=0)


def test_the_flag_multiplies_later_intervals_on_the_left():
    # A(t) of a random TPDS does not commute with itself at other times:
    # the product in the wrong order is 15 % off Phi(2 pi, 0)
    system = tpds.random_tpds_system(4, rng=1)
    grid = np.linspace(0.0, 2 * np.pi, 50)
    _, rec = trajectory_record(system, [1.0, -1.0, 1.0, -1.0], grid)
    whole = tpds.transition_matrix(system, 0.0, 2 * np.pi).phi
    assert np.linalg.norm(rec.phi - whole) <= 1e-8 * np.linalg.norm(whole)


def test_the_flag_multiplies_a_periodic_grid_period_by_period():
    # on a grid that repeats mod T the run integrates one period; the flag
    # multiplies its matrices and sums their trace integrals cycled over
    # every period, so Phi(2T, 0) is the one-period product squared, and
    # its predicted determinant exp(-6 pi) the square of exp(-3 pi)
    T = 2 * np.pi
    entries = [[exprlang.parse("-1 + sin(t)"), 1.0], [1.0, exprlang.parse("-0.5 + cos(t)")]]
    system = TimeVaryingSystem(2, (0.0, 2 * T), [Segment(0.0, 2 * T, entries)], period=T)
    grid = np.linspace(0.0, 2 * T, 401)
    assert tpds.integrate._period_intervals(system, grid) == 200
    _, rec = trajectory_record(system, [1.0, 1.0], grid)
    _, once = trajectory_record(system, [1.0, 1.0], grid[:201])
    assert np.allclose(rec.phi, once.phi @ once.phi, rtol=1e-12, atol=0)
    assert once.det_predicted == pytest.approx(np.exp(-3 * np.pi), rel=1e-9)
    assert rec.det_predicted == pytest.approx(once.det_predicted**2, rel=1e-12)


def test_a_non_finite_predicted_determinant_is_suspect(tmp_path, capsys):
    # the states grow as e^{401 t}, finite; exp of the integral of tr A,
    # 800, is not
    A = [[400.0, 1.0], [1.0, 400.0]]
    system = TimeVaryingSystem.constant(A, (0.0, 1.0))
    with np.errstate(over="ignore"), pytest.raises(IntegrationSuspect) as err:
        trajectory_record(system, [1.0, 1.0], np.linspace(0.0, 1.0, 20))
    assert str(err.value) == "predicted det Phi(1.0, 0.0) = exp(integral of trace A) is inf"
    path = tmp_path / "growth.spec"
    path.write_text(
        "meta: {name: growth, n: 2, interval: [0, 1]}\n"
        "linear:\n  segments:\n    - {t_start: 0, t_end: 1, matrix: [[400, 1], [1, 400]]}\n"
        "experiment: {z0: [1, 1], grid: 20}\n"
    )
    with np.errstate(over="ignore"):
        assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == 4
    assert "exp(integral of trace A) is inf" in capsys.readouterr().err


def test_a_product_that_overflows_is_suspect():
    # each interval's Phi and every state are finite, but not their product
    # in double: Phi(1, 0) = e^{800} I
    system = TimeVaryingSystem.constant([[800.0, 0.0], [0.0, 800.0]], (0.0, 1.0))
    with np.errstate(over="ignore"), pytest.raises(IntegrationSuspect) as err:
        trajectory_record(system, [1e-300, 1e-300], np.linspace(0.0, 1.0, 20))
    assert str(err.value) == "Phi(1.0, 0.0) has a non-finite entry at step 0.001"


def test_the_flag_comes_after_the_trajectory_checks():
    # a run that breaks the TPDS contract raises MonotonicityViolation (exit
    # 3), whatever its determinant
    rotation = TimeVaryingSystem.constant([[0.0, -1.0], [1.0, 0.0]], (0.0, 10.0))
    with pytest.raises(MonotonicityViolation):
        trajectory_record(rotation, [1.0, 0.5], np.linspace(0.0, 10.0, 400), tpds=True)


# -- a one-segment read of A ----------------------------------------------------


def masked(system, times, segment):
    """A at the times, one ``matrix_at`` call per segment scattered into
    place by its mask: the read of a system of several segments."""
    A = np.empty((len(times), system.n, system.n))
    for seg in np.flatnonzero(np.bincount(segment)).tolist():
        at = segment == seg
        A[at] = system.segments[seg].matrix_at(times[at])
    return A


@pytest.mark.parametrize("name", ["schwarz3", "sinusoidal2", "cosh2"])
@pytest.mark.parametrize("count", [0, 1, 3, 3072])
def test_a_one_segment_read_gives_the_masked_floats(name, count):
    system = tpds.shipped(name).system
    assert len(system.segments) == 1
    times = np.linspace(*system.interval, count)
    segment = system._segments_at(times)
    got = system._matrices(times, segment)
    want = masked(system, times, segment)
    assert got.shape == want.shape == (count, system.n, system.n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_random_one_segment_read_gives_the_masked_floats():
    system = tpds.random_tpds_system(5, rng=3)
    times = np.linspace(*system.interval, 999)
    segment = system._segments_at(times)
    assert system._matrices(times, segment).tobytes() == masked(system, times, segment).tobytes()


def test_a_several_segment_read_keeps_the_masked_path():
    system = tpds.shipped("switched").system
    assert len(system.segments) == 3
    times = np.linspace(*system.interval, 3072)
    segment = system._segments_at(times)
    assert system._matrices(times, segment).tobytes() == masked(system, times, segment).tobytes()


def test_a_constant_one_segment_read_is_a_fresh_stack():
    # the caller may write into what it reads
    system = TimeVaryingSystem(2, (0.0, 1.0), [Segment(0.0, 1.0, [[-1.0, 1.0], [1.0, -1.0]])])
    times = np.array([0.25, 0.5])
    first = system._matrices(times, system._segments_at(times))
    first[0, 0, 0] = 99.0
    assert system._matrices(times, system._segments_at(times))[0, 0, 0] == -1.0


# -- the block writer against a row-by-row writer --------------------------------


def row_by_row(traj, path):
    """The writer before blocks: one formatted row per sample."""
    names = ["t"] + [f"z{i + 1}" for i in range(traj.n)] + ["s_minus", "s_plus", "in_V"]
    row = "%.10g" + ",%.12g" * traj.n + ",%d,%d,%d\r\n"
    flags = zip(traj.sigma_minus, traj.sigma_plus, traj.in_V_flags)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        fh.writelines(row % (t, *z, *f) for t, z, f in zip(traj.times, traj.states.tolist(), flags))


SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 1.0, -7.0, 3e15, 0.1, -1 / 3])


def same_bytes(traj, tmp_path):
    traj.to_csv(tmp_path / "blocks.csv")
    row_by_row(traj, tmp_path / "rows.csv")
    return (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("rows", [1, 255, 256, 257, 700])
def test_the_block_writer_gives_the_row_writer_bytes(n, rows, tmp_path):
    rng = np.random.default_rng([n, rows])
    states = rng.choice(SPECIAL, size=(rows, n)) * rng.choice([1.0, 1.0, 3.0], size=(rows, n))
    states[:, 0] = np.where(states[:, 0] == 0.0, 1.0, states[:, 0])  # a state is never all zero
    states[rng.random(rows) < 0.3] *= rng.uniform(-2, 2, n)  # and some plain values
    times = np.sort(rng.choice(np.concatenate([SPECIAL[SPECIAL >= 0], rng.uniform(0, 10, 20)]), size=rows))
    assert same_bytes(Trajectory(times, states), tmp_path)


@pytest.mark.parametrize("name", LINEAR_SPECS)
def test_the_block_writer_gives_the_row_writer_bytes_on_the_shipped_specs(name, tmp_path):
    spec = tpds.shipped(name)
    grid = np.linspace(*spec.system.interval, spec.setting("grid"))
    assert same_bytes(simulate_linear(spec.system, spec.setting("z0"), grid), tmp_path)


def test_the_block_writer_writes_a_block_at_a_time(tmp_path, monkeypatch):
    # one write for the header, then one per CSV_BLOCK_ROWS rows
    spec = tpds.shipped("schwarz3")
    grid = np.linspace(*spec.system.interval, 600)
    traj = simulate_linear(spec.system, spec.setting("z0"), grid)
    writes = []
    real_open = open

    class Counted:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

    monkeypatch.setattr("builtins.open", lambda *args, **kwargs: Counted(real_open(*args, **kwargs)))
    traj.to_csv(tmp_path / "x.csv")
    assert len(writes) == 1 + -(-600 // tpds.integrate.CSV_BLOCK_ROWS)
