"""The per-sample loops of ``simulate_nonlinear`` and ``eventual_monotonicity``
before they integrated the states alone and took f and J in stacked calls,
the scalar J before it was the stack at one point, and the run loops of
``exprlang.compile_stepper`` in plain Python; kept as the test reference.

``run`` is the run loop over the compiled f (``exprlang.compile_fn``,
which takes a stage state as it is, finite or not): RK4 by
``integrate_reference.rk4_span`` between consecutive times given a step,
else ``dop853_run``, DOP853 on lists of Python floats, written from the
coefficients and the controller of Hairer's published dop853.f (Hairer,
Norsett and Wanner, Solving ODEs I, II.4 and II.10). Each names a DomainError of f
by the step's start, as the generated loop does. ``simulate_nonlinear``
here takes the states of ``run`` and calls the scalar f and J at every
sample, testing J for M+ until the first failure.
``eventual_monotonicity`` runs it twice and then, at every
(samples // 25)-th sample, evaluates J point by point at the R_GRID
points r a + (1 - r) b and the Gauss-Legendre average of J, testing each
for M+ as it goes. ``line_integral_jacobian`` is the point by point sum.
``jac`` is the scalar J: the compiled analytic J, or central differences
over the compiled scalar f, one perturbed state at a time.
``detect_period`` is ``poincare_analysis``'s period test before it kept a
run of small residuals per q: every residual of the tail again, over all
iterates as one array, at each iterate.
"""

import math
import sys as _sys

import numpy as np

from integrate_reference import naming_the_step, rk4_span, rk4_steps
from tpds.errors import AssumptionViolated, DomainError, IntegrationSuspect, LeftDomain, NoMonotoneTail, TrivialSolution
from tpds.integrate import ATOL, MAX_STEPS, RTOL, Trajectory, _checked_grid, _checked_state, _checked_step, _step_count
from tpds.nonlinear import PERSISTENCE, R_GRID, NonlinearRun, _central_differences, _gauss_legendre
from tpds.signvar import _checked_count
from tpds.systems import in_M_plus

# DOP853, from the coefficients of Hairer's published dop853.f (c2..c12,
# a21..a12,11, b1..b12, bhh1..bhh3 and er1..er12), one stage per row:
# its time c, its weights a over the stages before it
DOP853_C = [
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1,
]
# the nonzero a_ij by (i, j), stages numbered from 1
DOP853_A = {
    (2, 1): 5.26001519587677318785587544488e-2,
    (3, 1): 1.97250569845378994544595329183e-2,
    (3, 2): 5.91751709536136983633785987549e-2,
    (4, 1): 2.95875854768068491816892993775e-2,
    (4, 3): 8.87627564304205475450678981324e-2,
    (5, 1): 2.41365134159266685502369798665e-1,
    (5, 3): -8.84549479328286085344864962717e-1,
    (5, 4): 9.24834003261792003115737966543e-1,
    (6, 1): 3.7037037037037037037037037037e-2,
    (6, 4): 1.70828608729473871279604482173e-1,
    (6, 5): 1.25467687566822425016691814123e-1,
    (7, 1): 3.7109375e-2,
    (7, 4): 1.70252211019544039314978060272e-1,
    (7, 5): 6.02165389804559606850219397283e-2,
    (7, 6): -1.7578125e-2,
    (8, 1): 3.70920001185047927108779319836e-2,
    (8, 4): 1.70383925712239993810214054705e-1,
    (8, 5): 1.07262030446373284651809199168e-1,
    (8, 6): -1.53194377486244017527936158236e-2,
    (8, 7): 8.27378916381402288758473766002e-3,
    (9, 1): 6.24110958716075717114429577812e-1,
    (9, 4): -3.36089262944694129406857109825,
    (9, 5): -8.68219346841726006818189891453e-1,
    (9, 6): 2.75920996994467083049415600797e1,
    (9, 7): 2.01540675504778934086186788979e1,
    (9, 8): -4.34898841810699588477366255144e1,
    (10, 1): 4.77662536438264365890433908527e-1,
    (10, 4): -2.48811461997166764192642586468,
    (10, 5): -5.90290826836842996371446475743e-1,
    (10, 6): 2.12300514481811942347288949897e1,
    (10, 7): 1.52792336328824235832596922938e1,
    (10, 8): -3.32882109689848629194453265587e1,
    (10, 9): -2.03312017085086261358222928593e-2,
    (11, 1): -9.3714243008598732571704021658e-1,
    (11, 4): 5.18637242884406370830023853209,
    (11, 5): 1.09143734899672957818500254654,
    (11, 6): -8.14978701074692612513997267357,
    (11, 7): -1.85200656599969598641566180701e1,
    (11, 8): 2.27394870993505042818970056734e1,
    (11, 9): 2.49360555267965238987089396762,
    (11, 10): -3.0467644718982195003823669022,
    (12, 1): 2.27331014751653820792359768449,
    (12, 4): -1.05344954667372501984066689879e1,
    (12, 5): -2.00087205822486249909675718444,
    (12, 6): -1.79589318631187989172765950534e1,
    (12, 7): 2.79488845294199600508499808837e1,
    (12, 8): -2.85899827713502369474065508674,
    (12, 9): -8.87285693353062954433549289258,
    (12, 10): 1.23605671757943030647266201528e1,
    (12, 11): 6.43392746015763530355970484046e-1,
}
DOP853_B = {
    1: 5.42937341165687622380535766363e-2,
    6: 4.45031289275240888144113950566,
    7: 1.89151789931450038304281599044,
    8: -5.8012039600105847814672114227,
    9: 3.1116436695781989440891606237e-1,
    10: -1.52160949662516078556178806805e-1,
    11: 2.01365400804030348374776537501e-1,
    12: 4.47106157277725905176885569043e-2,
}
DOP853_BHH = {1: 0.244094488188976377952755905512, 9: 0.733846688281611857341361741547, 12: 0.220588235294117647058823529412e-1}
DOP853_ER = {
    1: 0.1312004499419488073250102996e-1,
    6: -0.1225156446376204440720569753e1,
    7: -0.4957589496572501915214079952,
    8: 0.1664377182454986536961530415e1,
    9: -0.3503288487499736816886487290,
    10: 0.3341791187130174790297318841,
    11: 0.8192320648511571246570742613e-1,
    12: -0.2235530786388629525884427845e-1,
}


def weights(table, count, row=None):
    """Row ``row`` of a table keyed (i, j), or a table keyed by j, as a list
    of count weights, 0 where the table has none."""
    return [table.get(j if row is None else (row, j), 0) for j in range(1, count + 1)]


def sum_of_squares(values):
    total = 0.0
    for v in values:
        total = total + v * v
    return total


def rms(values):
    return math.sqrt(sum_of_squares(values) / len(values))


def combination(weights, stages, i):
    """The sum of w k[i] over the nonzero weights, left to right."""
    terms = [w * k[i] for w, k in zip(weights, stages) if w]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def dop853_run(f, y, times, tally):
    """Yield y at each of the times by DOP853 steps of the point function
    f(t, y) -> list: 12 stages, f at the new state as the next step's first
    stage once a step is accepted (FSAL), the error estimate
    |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) n) of the sums of squares of the
    fifth- and third-order estimates scaled by ATOL + RTOL max(|y|, |w|),
    the starting step of II.4 with the exponent 1/8, the controller
    min(grow, max(0.333, 0.9 err^(-1/8))) with grow 1 after a rejection, a
    last step that lands on each time, leaving the step size it was cut
    from, step sizes above 16 eps |t| and RTOL (t - t0) from the first time
    t0, and at most MAX_STEPS steps from one time to the next. tally
    holds the accepted and rejected steps and the largest estimate of an
    accepted step."""
    b = weights(DOP853_B, 12)
    e5 = weights(DOP853_ER, 12)
    e3 = [bj - hj for bj, hj in zip(b, weights(DOP853_BHH, 12))]
    y = [float(v) for v in y]
    n = len(y)
    times = iter(times)
    s = start = float(next(times))
    accepted = rejected = 0
    largest = 0.0
    yield y
    h, grow = None, 6.0
    for t1 in times:
        t1 = float(t1)
        try:
            if h is None and s < t1:
                k1 = f(s, y)
                scale = [ATOL + RTOL * abs(v) for v in y]
                d0 = rms([v / c for v, c in zip(y, scale)])
                d1 = rms([v / c for v, c in zip(k1, scale)])
                h = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
                euler = f(s + h, [v + h * k for v, k in zip(y, k1)])
                d2 = rms([(a - b) / c for a, b, c in zip(euler, k1, scale)]) / h if h else math.inf
                dm = max(d1, d2)
                h = min(100 * h, (0.01 / dm) ** 0.125 if dm > 1e-15 else max(1e-6, h * 1e-3))
            t0, taken = s, 0
            while s < t1:
                if not h > 16 * _sys.float_info.epsilon * abs(s):
                    raise IntegrationSuspect(f"the DOP853 step size {h!r} is below 16 eps |t| at t = {s!r}")
                if not h > RTOL * (s - start):
                    raise IntegrationSuspect(f"the DOP853 step size {h!r} is below RTOL (t - t0) at t = {s!r}")
                if taken == MAX_STEPS:
                    raise IntegrationSuspect(f"the DOP853 run takes more than {MAX_STEPS} steps from t = {t0!r} to t = {t1!r}")
                taken += 1
                last = s + 1.01 * h >= t1
                hh = t1 - s if last else h
                te = t1 if last else s + hh
                stages = [k1]
                for i, c in enumerate(DOP853_C, start=2):
                    x = [v + hh * combination(weights(DOP853_A, i - 1, i), stages, j) for j, v in enumerate(y)]
                    stages.append(f(te if c == 1 else s + c * hh, x))
                w = [v + hh * combination(b, stages, j) for j, v in enumerate(y)]
                sk = [ATOL + RTOL * max(abs(v), abs(wj)) for v, wj in zip(y, w)]
                err5 = sum_of_squares([combination(e5, stages, j) / c for j, c in enumerate(sk)])
                err3 = sum_of_squares([combination(e3, stages, j) / c for j, c in enumerate(sk)])
                den = (err5 + 0.01 * err3) * n
                if not den < math.inf:
                    raise IntegrationSuspect(f"the DOP853 error estimate is {den} in the step from t = {s!r}")
                err = abs(hh) * err5 / math.sqrt(den) if den else 0.0
                fac = min(grow, max(0.333, 0.9 * max(err, 1e-10) ** -0.125))
                if err <= 1.0:
                    accepted += 1
                    largest = max(largest, err)
                    k1 = f(te, w)
                    s, y = te, w
                    h = max(h, hh * fac) if last else hh * fac
                    grow = 6.0
                else:
                    rejected += 1
                    h = hh * fac
                    grow = 1.0
        except DomainError as exc:
            raise DomainError(f"advance in the DOP853 step from t = {s}: {exc.__cause__}") from exc
        tally[:] = accepted, rejected, largest
        yield y


def rk4_run(f, y, times, step, tally):
    """Yield y at each of the times by rk4_span between consecutive ones."""
    advance = naming_the_step(rk4_steps(f))
    times = iter(times)
    t0 = next(times)
    yield y
    for t1 in times:
        y = rk4_span(advance, y, t0, t1, step)
        if t1 - t0 > 0:
            tally[0] += _step_count(t1 - t0, step)
        yield y
        t0 = t1


def run(sys, x0, times, step=None, tally=None):
    """The states of the run loop at each of the times, as float arrays,
    with its LeftDomain at the first sample outside the box."""
    tally = [0, 0, None] if tally is None else tally
    drawn = []

    def recorded():
        for t in times:
            drawn.append(float(t))
            yield t

    if step is None:
        states = dop853_run(lambda t, y: sys._f(t, y).tolist(), x0, recorded(), tally)
    else:
        states = rk4_run(sys._f, np.array(x0, dtype=float), recorded(), step, tally)
    for k, y in enumerate(states):
        y = np.array(y, dtype=float)
        if not sys.in_box(y):
            raise LeftDomain("trajectory left the domain box" if k else "initial condition outside the domain box", drawn[-1])
        yield y


def jac(sys, t, x):
    if sys._jac is not None:
        return sys._jac(t, x)
    f = lambda ts, xs: np.array([sys._f(s, y) for s, y in zip(ts.tolist(), xs.tolist())])
    return _central_differences(f, [t], np.array(x, dtype=float)[None])[0]


def simulate_nonlinear(sys, x0, grid, step=None):
    grid = _checked_grid(grid)
    x0 = _checked_state(x0, sys.n, "x0")
    step = None if step is None else _checked_step(step, 0.0, 0.0)
    tally = [0, 0, None]
    xs, zs, jac_ok = [], [], True
    for t, x in zip(grid, run(sys, x0, grid, step, tally)):
        xs.append(x)
        zs.append(sys.f(t, x))
        jac_ok = jac_ok and in_M_plus(sys.jac(t, x))
    return NonlinearRun(Trajectory(grid, np.array(xs)), Trajectory(grid, np.array(zs)), jac_ok, *tally)


def line_integral_jacobian(sys, t, a, b):
    a = _checked_state(a, sys.n, "a")
    b = _checked_state(b, sys.n, "b")
    J = np.zeros((sys.n, sys.n))
    for ri, wi in zip(*_gauss_legendre()):
        J += wi * sys.jac(t, ri * a + (1 - ri) * b)
    return J


def eventual_monotonicity(sys, a0, b0, horizon, samples=500, step=None):
    a0 = _checked_state(a0, sys.n, "a0")
    b0 = _checked_state(b0, sys.n, "b0")
    if np.array_equal(a0, b0):
        raise TrivialSolution("initial conditions must differ")
    _checked_grid([0.0, horizon])
    grid = np.linspace(0.0, horizon, _checked_count(samples, "samples"))
    run_a = simulate_nonlinear(sys, a0, grid, step)
    run_b = simulate_nonlinear(sys, b0, grid, step)

    for k in range(0, samples, max(1, samples // 25)):
        t = grid[k]
        xa, xb = run_a.state.states[k], run_b.state.states[k]
        for r in np.linspace(0.0, 1.0, R_GRID):
            J = sys.jac(t, r * xa + (1 - r) * xb)
            if not in_M_plus(J):
                raise AssumptionViolated(f"Jacobian leaves M+ at t={t:.4g}, r={r:.3g}")
        if not in_M_plus(line_integral_jacobian(sys, t, xa, xb)):
            raise AssumptionViolated(f"line-integral Jacobian leaves M+ at t={t:.4g}")

    d1 = run_a.state.states[:, 0] - run_b.state.states[:, 0]
    signs = np.sign(d1)
    if signs[-1] == 0:
        raise NoMonotoneTail("first-coordinate difference vanishes at the horizon")
    changes = np.flatnonzero(signs[1:] != signs[:-1])
    if changes.size == 0:
        return 0.0, int(signs[-1])
    s = float(grid[changes[-1] + 1])
    if s >= grid[-1]:
        raise NoMonotoneTail("sign still changing at the sampled resolution")
    return s, int(signs[-1])


def detect_period(iterates, q_max, tol):
    """The smallest q <= q_max whose last PERSISTENCE residuals
    ||x_(k+q) - x_k|| are all below tol, else None."""
    arr = np.array(iterates)
    for q in range(1, min(q_max, len(arr) - PERSISTENCE) + 1):
        tail = range(len(arr) - PERSISTENCE - q, len(arr) - q)
        if all(np.linalg.norm(arr[k + q] - arr[k]) < tol for k in tail):
            return q
    return None
