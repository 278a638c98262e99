"""The per-step RK4 loop that integrated linear flows before the batched
propagators of ``tpds.integrate``, and nonlinear runs before the generated
run loop; kept as the test reference.

``windowed_transitions`` is ``integrate._transitions`` as it was before
its blocks held several product windows: one window of
max(1, CHUNK_STEPS // intervals) steps per block, the float layout that
the batched flow keeps.

``rk4_steps(f)`` is the generic stepper ``advance(y, t, h, nsteps)`` for
y' = f(t, y), y any numpy array, and ``rk4_span`` takes [t0, t1] by it in
``integrate._step_count`` equal steps. The linear references below cut
[t0, t1] at segment boundaries span by span and take each span by that
stepper, with A evaluated four times per step.

``increments`` is ``integrate._increments`` as it was written before it
scaled and summed its stacks in place, one temporary per operation, and
``sequential_states`` the state loop of ``integrate._linear_run`` before
it wrote each state into its row.

``exceptional_times`` and ``weak_svdp_reference`` are the per-sample
scans that ``Trajectory`` took its cluster starts by, and
``tn_weak_svdp_check`` its zero-run pairs, before both became array rules.
"""

import math

import numpy as np

from tpds.errors import DomainError, MonotonicityViolation, NoApplicablePair
from tpds.compound import add_compound
from tpds.integrate import CHUNK_STEPS, CLUSTER_GAP, _checked_grid, _checked_step, _step_count, _step_counts


def rk4_steps(f):
    """The generic RK4 stepper for y' = f(t, y)."""

    def advance(y, t, h, nsteps):
        for _ in range(nsteps):
            k1 = f(t, y)
            k2 = f(t + h / 2, y + (h / 2) * k1)
            k3 = f(t + h / 2, y + (h / 2) * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return y

    return advance


def rk4_span(advance, y, t0, t1, step):
    """Integrate y over [t0, t1] in _step_count equal steps, which
    ``advance(y, t0, h, nsteps)`` takes. An empty span leaves y as it is."""
    length = t1 - t0
    if length <= 0:
        return y
    nsteps = _step_count(length, step)
    return advance(y, t0, length / nsteps, nsteps)


def naming_the_step(advance):
    """``advance`` one step at a time, with the DomainError of the compiled
    f named as the generated run loop names it: by the start of the failing
    step, then the message of the error that f re-raised."""

    def stepwise(y, t, h, nsteps):
        for _ in range(nsteps):
            try:
                y = advance(y, t, h, 1)
            except DomainError as exc:
                raise DomainError(f"advance in the RK4 step from t = {t}: {exc.__cause__}") from exc
            t += h
        return y

    return stepwise


def boundaries_between(sys, t0, t1):
    """Interior segment boundaries in (t0, t1), for exact integrator landing."""
    return [seg.t_end for seg in sys.segments[:-1] if t0 + 1e-14 < seg.t_end < t1 - 1e-14]


def spans(sys, t0, t1):
    """Split [t0, t1] at interior segment boundaries, tagged by segment index."""
    cuts = [t0] + boundaries_between(sys, t0, t1) + [t1]
    return [(lo, hi, sys.segment_index(0.5 * (lo + hi))) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 0]


def integrate_piecewise(sys, y0, t0, t1, step, matfun):
    """y' = matfun(t, seg) @ y over [t0, t1], span by span."""
    y = y0
    for lo, hi, seg in spans(sys, t0, t1):
        y = rk4_span(rk4_steps(lambda t, v, seg=seg: matfun(t, seg) @ v), y, lo, hi, step)
    return y


def segment_matrix(sys):
    return lambda t, seg: sys.segments[seg].matrix_at(t)


def transition(sys, t0, t, step=None):
    step = _checked_step(None, *sys.interval) if step is None else step
    return integrate_piecewise(sys, np.eye(sys.n), t0, t, step, segment_matrix(sys))


def states(sys, z0, grid, step=None):
    """The states of simulate_linear, one grid interval after another."""
    step = _checked_step(None, *sys.interval) if step is None else step
    grid = _checked_grid(grid, sys.interval)
    out = [np.asarray(z0, dtype=float)]
    for lo, hi in zip(grid, grid[1:]):
        out.append(integrate_piecewise(sys, out[-1], lo, hi, step, segment_matrix(sys)))
    return np.array(out)


def states_of_matrix_flow(sys, grid, step=None):
    """Phi(t_k, t_0) at every grid point, by states from the identity."""
    return states(sys, np.eye(sys.n), grid, step)


def transition_long_double(sys, t0, t, step=None):
    """Phi(t, t0) by the same RK4 loop in long double, over one segment,
    with the stage times lo + k h / 2 of ``tpds.integrate`` (times by
    repeated addition, as ``rk4_steps`` takes them, differ by ulps and move
    Phi by more than the rounding this reference measures)."""
    step = _checked_step(None, *sys.interval) if step is None else step
    (seg,) = {sys.segment_index(0.5 * (t0 + t))}
    nsteps = max(1, math.ceil((t - t0) / step - 1e-12))
    h = (t - t0) / nsteps
    ld = np.longdouble
    A = sys.segments[seg].matrix_at(t0 + (h / 2) * np.arange(2 * nsteps + 1)).astype(ld)
    hl = ld(h)
    y = np.eye(sys.n, dtype=ld)
    for k in range(nsteps):
        A0, Am, A1 = A[2 * k], A[2 * k + 1], A[2 * k + 2]
        k1 = A0 @ y
        k2 = Am @ (y + (hl / 2) * k1)
        k3 = Am @ (y + (hl / 2) * k2)
        k4 = A1 @ (y + hl * k3)
        y = y + (hl / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def increments(C0, Cm, C1, h, dtype):
    """P - I of each step's RK4 propagator from C at its start, midpoint and
    end: the first-order part h/6 (C0 + 4 Cm + C1) summed in dtype, the rest
    h/6 (2 X2 + 2 X3 + X4) in double."""
    X2 = (h / 2) * (Cm @ C0)  # K2 - Cm
    X3 = (h / 2) * (Cm @ (Cm + X2))  # K3 - Cm
    X4 = h * (C1 @ (Cm + X3))  # K4 - C1
    D = C0.astype(dtype)
    D += 4 * Cm
    D += C1
    D *= h.astype(dtype) / 6
    D += (h / 6) * (2 * X2 + 2 * X3 + X4)
    return D


def sequential_states(phis, z0):
    """z0, then each state the transition matrix of its interval applied to
    the state before it, one ``dot`` per sample; overflow is kept."""
    states = np.empty((len(phis) + 1, len(z0)))
    states[0] = z = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, phi in enumerate(phis, 1):
            states[k] = z = phi.dot(z)
    return states


@np.errstate(over="ignore", invalid="ignore")
def windowed_transitions(sys, grid, step, p=None, dtype=float):
    """``integrate._transitions`` with one product window per block: each
    block takes max(1, CHUNK_STEPS // intervals) steps of every interval,
    multiplies them pairwise, then into the product of the blocks before
    it, and adds its trace integral by one ``bincount``."""
    grid = np.asarray(grid, dtype=float)
    starts, ends, interval, segment = sys._spans(grid)
    count = _step_counts(ends - starts, step)
    span_h = (ends - starts) / count
    m = sys.n if p is None else math.comb(sys.n, p)
    lanes = len(grid) - 1
    total = np.zeros(lanes, dtype=int)
    np.add.at(total, interval, count)
    offset = np.cumsum(total) - total  # each interval's first step
    span_first = np.cumsum(count) - count  # each span's first step
    width = max(1, CHUNK_STEPS // lanes)
    phi = np.tile(np.eye(m, dtype=dtype), (lanes, 1, 1))
    integral = np.zeros(lanes)
    most = total.max()
    for k0 in range(0, most, width):
        pos = k0 + np.arange(min(width, most - k0))
        real = pos < total[:, None]
        lane, col = np.nonzero(real)  # interval by interval, steps in order
        span = np.searchsorted(span_first, offset[lane] + pos[col], side="right") - 1
        j = offset[lane] + pos[col] - span_first[span]
        h = span_h[span]
        k = 2 * j[:, None] + np.arange(3)  # each step's stage points 2j, 2j + 1, 2j + 2
        A = sys._matrices((k * (h[:, None] / 2) + starts[span, None]).ravel(), segment[span].repeat(3))
        C = (A if p is None else add_compound(A, p).entries).reshape(-1, 3, m, m)
        D = np.zeros(real.shape + (m, m), dtype=dtype)
        D[real] = increments(C[:, 0], C[:, 1], C[:, 2], h[:, None, None], dtype)
        while D.shape[1] > 1:  # (I + B)(I + A) = I + (A + B + B A), pairwise
            if D.shape[1] % 2:
                D = np.concatenate([D, np.zeros_like(D[:, :1])], axis=1)
            A, B = D[:, 0::2], D[:, 1::2]
            D = A + B + B @ A
        phi = phi + D[:, 0] @ phi
        tr = C.trace(axis1=2, axis2=3)
        integral += np.bincount(lane, (h / 6) * (tr[:, 0] + 4 * tr[:, 1] + tr[:, 2]), lanes)
    return phi.astype(float, copy=False), integral


def chunked_transitions(sys, grid, step):
    """Each interval's transition matrix in double, from
    ``windowed_transitions`` over CHUNK_STEPS intervals at a time: the
    layout of ``integrate._interval_transitions`` before it took several
    groups of intervals per call."""
    return [
        phi
        for g0 in range(0, len(grid) - 1, CHUNK_STEPS)
        for phi in windowed_transitions(sys, grid[g0 : g0 + CHUNK_STEPS + 1], step)[0]
    ]


def exceptional_times(times, in_v_flags):
    """The time of each exceptional cluster's first sample: non-V samples
    less than CLUSTER_GAP samples apart form one cluster."""
    clusters, last_bad = [], None
    for k, in_v in enumerate(in_v_flags):
        if not in_v:
            if last_bad is None or k - last_bad >= CLUSTER_GAP:
                clusters.append(times[k])
            last_bad = k
    return clusters


def weak_svdp_reference(traj):
    """tn_weak_svdp_check by its sample loop: each run of samples with
    |z1| within the zero tolerance, by its first sample r, pairs with the
    next sample s outside it, and the first pair without
    s_plus(s) <= s_plus(r) - 1 raises with their two times."""
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
