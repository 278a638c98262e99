"""Fixed-step RK4 transition matrices and sign-variation tracking.

Steps land exactly on segment boundaries so that discontinuous (switched)
coefficient matrices are integrated segment by segment; determinants are
cross-checked against the exponential of the integrated trace.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .compound import add_compound, mult_compound
from .errors import (
    IntegrationSuspect,
    MonotonicityViolation,
    NoApplicablePair,
    NonFiniteInput,
    OutOfInterval,
    TrivialSolution,
)
from .signvar import v_counts

DET_REL_TOL = 1e-6
TRAJ_ZERO_REL_TOL = 1e-8
CLUSTER_GAP = 3


def default_step(sys):
    a, b = sys.interval
    return 1e-3 * (b - a)


def _rk4_span(f, y, t0, t1, step):
    """Integrate y' = f(t, y) over [t0, t1] with steps of at most `step`."""
    length = t1 - t0
    if length <= 0:
        return y
    nsteps = max(1, math.ceil(length / step - 1e-12))
    h = length / nsteps
    t = t0
    for _ in range(nsteps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + (h / 2) * k1)
        k3 = f(t + h / 2, y + (h / 2) * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def _spans(sys, t0, t1):
    """Split [t0, t1] at interior segment boundaries, tagged by segment index."""
    cuts = [t0] + sys.boundaries_between(t0, t1) + [t1]
    spans = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo <= 0:
            continue
        seg = sys.segment_index(0.5 * (lo + hi))
        spans.append((lo, hi, seg))
    return spans


def _integrate_piecewise(sys, y0, t0, t1, step, matfun):
    """Integrate y' = matfun(t, seg) @ y segment by segment.

    matfun is evaluated once per distinct stage time: RK4's k2 and k3 share
    t + h/2, and k4's t + h is the next step's k1 time (``t += h`` gives the
    same float), so a one-entry memo keyed on t leaves 2 evaluations per
    step plus one at the start of each span.
    """
    y = y0
    for lo, hi, seg in _spans(sys, t0, t1):
        last = [None, None]  # the latest stage time and matfun's value there

        def f(t, v):
            if t != last[0]:
                last[:] = t, matfun(t, seg)
            return last[1] @ v

        y = _rk4_span(f, y, lo, hi, step)
    return y


def _segment_matrix(sys):
    return lambda t, seg: sys.segments[seg].matrix_at(t)


def _trace_integral(sys, t0, t1, step):
    """Composite-Simpson integral of trace(A(s)) over [t0, t1]."""
    total = 0.0
    for lo, hi, seg in _spans(sys, t0, t1):
        npanels = max(2, 2 * math.ceil((hi - lo) / step))
        ts = np.linspace(lo, hi, npanels + 1)
        segment = sys.segments[seg]
        vals = np.array([segment.matrix_at(t).trace() for t in ts])
        h = (hi - lo) / npanels
        total += h / 3 * (
            vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()
        )
    return total


@dataclass
class TransitionRecord:
    t0: float
    t: float
    phi: np.ndarray
    det_phi: float
    det_predicted: float
    suspect: bool = False


def transition_matrix(sys, t0, t, step=None):
    """Transition matrix Phi(t, t0) of z' = A(s) z by fixed-step RK4.

    The determinant is compared with exp of the integrated trace
    (Abel-Jacobi-Liouville); a relative mismatch beyond 1e-6 marks the
    record as suspect. A non-finite Phi (a non-finite A(t), or a step too
    large for ||A(t)||) or predicted determinant raises IntegrationSuspect.
    """
    a, b = sys.interval
    if not (a <= t0 <= t <= b):
        raise OutOfInterval(f"need a <= t0 <= t <= b, got t0={t0}, t={t}")
    if step is None:
        step = default_step(sys)
    phi = _integrate_piecewise(sys, np.eye(sys.n), t0, t, step, _segment_matrix(sys))
    if not np.isfinite(phi).all():
        raise IntegrationSuspect(
            f"Phi({t}, {t0}) has a non-finite entry at step {step:.3g}"
        )
    det_phi = float(np.linalg.det(phi))
    det_pred = float(np.exp(_trace_integral(sys, t0, t, step)))
    if not math.isfinite(det_pred):
        raise IntegrationSuspect(
            f"predicted det Phi({t}, {t0}) = exp(integral of trace A) is {det_pred}"
        )
    suspect = abs(det_phi - det_pred) > DET_REL_TOL * abs(det_pred)
    return TransitionRecord(t0, t, phi, det_phi, det_pred, suspect)


@dataclass
class Trajectory:
    """Sampled states with their sign counts, V flags and exceptional clusters.

    Everything past (times, states) is computed from them. Each sample's
    zero tolerance is TRAJ_ZERO_REL_TOL times the largest |entry| seen up
    to it, and its V flag follows ``in_V`` (``signvar.v_counts``); non-V
    samples less than CLUSTER_GAP samples apart form one exceptional
    cluster, recorded by the time of its first sample. The
    counts of all samples come from one sign matrix; a sample with a nan or
    inf entry raises NonFiniteInput.
    """

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    zero_tols: list = field(init=False)
    sigma_minus: list = field(init=False)
    sigma_plus: list = field(init=False)
    in_V_flags: list = field(init=False)
    exceptional_times: list = field(init=False)

    def __post_init__(self):
        y = np.asarray(self.states, dtype=float)
        finite = np.isfinite(y).all(axis=1)
        if not finite.all():
            bad = y[np.argmin(finite)].tolist()
            raise NonFiniteInput(f"vector {bad} has a non-finite entry")
        mag = np.abs(y)
        tols = TRAJ_ZERO_REL_TOL * np.maximum.accumulate(mag.max(axis=1))
        S = np.sign(y).astype(int)
        S[mag <= tols[:, None]] = 0
        sm, sp, in_v = v_counts(S)
        self.zero_tols = tols.tolist()
        self.sigma_minus = sm.tolist()
        self.sigma_plus = sp.tolist()
        self.in_V_flags = in_v.tolist()
        self.exceptional_times = []
        last_bad = None
        for k in np.flatnonzero(~in_v).tolist():
            if last_bad is None or k - last_bad >= CLUSTER_GAP:
                self.exceptional_times.append(self.times[k])
            last_bad = k

    @property
    def n(self):
        return self.states.shape[1]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["t"]
                + [f"z{i + 1}" for i in range(self.n)]
                + ["s_minus", "s_plus", "in_V"]
            )
            for k, t in enumerate(self.times):
                w.writerow(
                    [f"{t:.10g}"]
                    + [f"{v:.12g}" for v in self.states[k]]
                    + [self.sigma_minus[k], self.sigma_plus[k], int(self.in_V_flags[k])]
                )


def simulate_linear(sys, z0, grid, step=None, tpds=False):
    """Integrate z' = A(t) z on the given sample grid with sign bookkeeping.

    With tpds=True the monotonicity contract is enforced: s_plus and s_minus
    must be non-increasing sample to sample and at most n-1 exceptional
    clusters of non-V samples may occur. A grid that decreases or leaves
    [a, b] by more than segment_index's 1e-12 raises OutOfInterval, a
    non-finite z0 NonFiniteInput, and a state that turns non-finite on the
    way (a stiff or overflowing system at this step) IntegrationSuspect.
    """
    z0 = np.asarray(z0, dtype=float)
    if not np.any(z0):
        raise TrivialSolution("z0 = 0 yields the trivial solution")
    if not np.isfinite(z0).all():
        raise NonFiniteInput(f"z0 {z0.tolist()} has a non-finite entry")
    grid = np.asarray(grid, dtype=float)
    a, b = sys.interval
    if not (np.all(np.diff(grid) >= 0) and np.all((a - 1e-12 <= grid) & (grid <= b + 1e-12))):
        raise OutOfInterval(f"the grid must be nondecreasing within [{a}, {b}]")
    if step is None:
        step = default_step(sys)
    states = [z0]
    z = z0
    for t_prev, t_next in zip(grid, grid[1:]):
        z = _integrate_piecewise(sys, z, t_prev, t_next, step, _segment_matrix(sys))
        states.append(z)
    states = np.array(states)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        t = float(grid[np.argmin(finite)])
        raise IntegrationSuspect(f"the state became non-finite by t={t} from a finite z0")
    traj = Trajectory(grid, states)
    if tpds:
        sm, sp, clusters = traj.sigma_minus, traj.sigma_plus, traj.exceptional_times
        bad = [
            float(grid[k])
            for k in range(1, len(grid))
            if sp[k] > sp[k - 1] or sm[k] > sm[k - 1]
        ]
        if bad:
            raise MonotonicityViolation("sign counts increased along a TPDS run", bad)
        if len(clusters) > sys.n - 1:
            raise MonotonicityViolation(
                f"{len(clusters)} exceptional clusters exceed n-1", clusters
            )
    return traj


def compound_transition(sys, p, t0, t, step=None, check_tol=1e-5):
    """p-th compound of the transition matrix via the compound dynamics.

    Integrates the C(n,p)-dimensional system driven by the additive compound
    of A(s) and cross-asserts against the multiplicative compound of the
    directly integrated transition matrix.
    """
    if step is None:
        step = default_step(sys)
    m = len(mult_compound(np.eye(sys.n), p).index_map)
    Y = _integrate_piecewise(
        sys,
        np.eye(m),
        t0,
        t,
        step,
        lambda s, seg: add_compound(sys.segments[seg].matrix_at(s), p).entries,
    )
    direct = mult_compound(transition_matrix(sys, t0, t, step).phi, p).entries
    denom = max(np.linalg.norm(direct), 1e-300)
    rel = np.linalg.norm(Y - direct) / denom
    if rel > check_tol:
        raise IntegrationSuspect(
            f"compound-dynamics route deviates from minors route by {rel:.3g}"
        )
    return Y


def tn_weak_svdp_check(traj):
    """Strict s_plus drop after the first coordinate leaves zero.

    Scans for samples r with z1(r) ~ 0 followed by the next sample s with
    z1(s) != 0 and asserts s_plus(z(s)) <= s_plus(z(r)) - 1 for every pair.
    """
    pairs = []
    zero_at = None
    for k, (z, tol) in enumerate(zip(traj.states, traj.zero_tols)):
        if abs(z[0]) <= tol:
            if zero_at is None:
                zero_at = k
        elif zero_at is not None:
            pairs.append((zero_at, k))
            zero_at = None
    if not pairs:
        raise NoApplicablePair("first coordinate never returned from zero")
    for r, s in pairs:
        if traj.sigma_plus[s] > traj.sigma_plus[r] - 1:
            raise MonotonicityViolation(
                "weak variation-diminishing drop failed",
                [float(traj.times[r]), float(traj.times[s])],
            )
    return True
