"""Ground truth for every verdict kind the benchmark times.

An oracle takes a verdict's result and returns ``None`` when it accepts it
or a one-line reason when it rejects it. Oracles use their own arithmetic
(stacked ``numpy.linalg.det`` minors, plain-Python sign counts,
``scipy.linalg.expm``, adaptive ``solve_ivp`` references, closed forms and
the determinant identities of Liouville and Sylvester-Franke), so a defect
in a library kernel cannot also hide in the check of its result. They run
outside the timed region. Integration results are held to the library's
own consistency tolerance, ``DET_REL_TOL`` = 1e-6. A result the library
itself marks as untrustworthy (``suspect``) is a :class:`Flagged` failure:
it counts as failed but not as silently wrong.

``KNOWN_DEFECTS`` lists the failures the library shows at the commit that
introduced this benchmark, each with its outcome class. They are counted as
failures like any other (``failed`` / ``verdict_ok_frac`` /
``no_silent_wrong_frac``); the list only decides the top-level ``correct``
flag, which turns false when a verdict fails that is not listed, or fails
in another class than the one listed (a raised error that becomes a wrong
answer above all), so a new wrong answer cannot pass unnoticed.
"""

from __future__ import annotations

import math
import re
from itertools import combinations
from types import SimpleNamespace

import numpy as np

INTEGRATION_TOL = 1e-6  # tpds.integrate.DET_REL_TOL


class Flagged(str):
    """Rejection reason for a result the library flagged itself."""


# -- independent kernels -------------------------------------------------


def all_minors(A, k):
    """All k x k minors of A as a C(m,k) x C(n,k) array, lexicographic."""
    A = np.asarray(A, dtype=float)
    rows = list(combinations(range(A.shape[0]), k))
    cols = list(combinations(range(A.shape[1]), k))
    r = np.array(rows)[:, None, :, None]
    c = np.array(cols)[None, :, None, :]
    return np.linalg.det(A[r, c])


def sign_list(v, tol):
    return [0 if abs(x) <= tol else (1 if x > 0 else -1) for x in v]


def s_minus(v, tol):
    nz = [s for s in sign_list(v, tol) if s]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def s_plus(v, tol):
    s = sign_list(v, tol)
    zeros = [i for i, x in enumerate(s) if x == 0]
    best = 0
    for mask in range(2 ** len(zeros)):
        t = list(s)
        for b, i in enumerate(zeros):
            t[i] = 1 if (mask >> b) & 1 else -1
        best = max(best, sum(1 for a, c in zip(t, t[1:]) if a != c))
    return best


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def trace_integral(sys, t0, t1, nodes=64):
    """Gauss-Legendre integral of trace A(t), piecewise over the segments."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for seg in sys.segments:
        lo, hi = max(t0, seg.t_start), min(t1, seg.t_end)
        if hi <= lo:
            continue
        ts = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * sum(wi * np.trace(seg.matrix_at(t)) for t, wi in zip(ts, w))
    return total


# -- matrix verdicts -----------------------------------------------------


def classify_label(label, A, minor):
    """Construction labels: TP must come out TN + TP + oscillatory, TN must
    come out TN (``tn_osc`` oscillatory and ``tn_red`` not, by
    :func:`tn_oscillatory`), and a witness must be a negative minor
    confirmed by ``minor`` and by an independent determinant."""

    def check(cls):
        if label == "tp":
            if not (cls.is_TN and cls.is_TP and cls.is_SSR and cls.is_oscillatory):
                return (
                    f"TP matrix classified TN={cls.is_TN} TP={cls.is_TP} "
                    f"SSR={cls.is_SSR} oscillatory={cls.is_oscillatory}"
                )
            return None
        if label.startswith("tn"):
            if not (cls.is_TN and cls.witness is None):
                return "TN matrix classified not TN"
            return _tn_oscillation(label, cls.is_oscillatory)
        if cls.is_TN:
            worst = min(float(all_minors(A, k).min()) for k in range(1, A.shape[0] + 1))
            return None if worst >= -1e-9 * max(1.0, np.abs(A).max()) ** A.shape[0] else "non-TN matrix classified TN"
        return confirm_witness(A, cls.witness, minor)

    return check


def tn_oscillatory(A):
    """Gantmacher-Krein: a nonsingular TN matrix is oscillatory if and only
    if its super- and subdiagonal entries are all positive."""
    A = np.asarray(A, dtype=float)
    return bool(np.all(np.diag(A, 1) > 0) and np.all(np.diag(A, -1) > 0))


def _tn_oscillation(label, is_oscillatory):
    if is_oscillatory == (label == "tn_osc"):
        return None
    return f"{'' if label == 'tn_osc' else 'non-'}oscillatory TN matrix classified oscillatory={is_oscillatory}"


def confirm_witness(A, witness, minor):
    if witness is None:
        return "not TN but no witness"
    alpha, beta, value = witness
    sub = np.asarray(A, dtype=float)[np.ix_([i - 1 for i in alpha], [j - 1 for j in beta])]
    if not (value < 0 and minor(A, alpha, beta) < 0 and np.linalg.det(sub) < 0):
        return f"witness {alpha}|{beta} = {value} is not a negative minor"
    return None


def cauchy_binet(A, B, p):
    """mult_compound(A @ B, p) must equal C_p(A) C_p(B)."""
    want = all_minors(A, p) @ all_minors(B, p)
    subsets = [tuple(i + 1 for i in c) for c in combinations(range(A.shape[0]), p)]

    def check(C):
        if list(C.index_map) != subsets:
            return "compound labels not lexicographic"
        err = rel_err(C.entries, want)
        return None if err <= 1e-9 else f"Cauchy-Binet residual {err:.3g}"

    return check


GEB_RESIDUAL_BOUND = 1e-10


def geb_residual(A):
    """Factors are nonnegative elementary bidiagonal and reproduce A."""
    A = np.asarray(A, dtype=float)

    def check(fact):
        if not fact.residual_error <= GEB_RESIDUAL_BOUND:
            return f"reported residual {fact.residual_error:.3g} over bound"
        P = np.eye(A.shape[0])
        for F in fact.factors:
            off = F - np.diag(np.diag(F))
            band = np.diag(np.diag(off, 1), 1) + np.diag(np.diag(off, -1), -1)
            if np.any(F < -1e-12) or np.abs(off - band).max() > 1e-12 or np.count_nonzero(np.abs(band) > 1e-12) > 1:
                return "factor is not nonnegative elementary bidiagonal"
            P = P @ F
        err = rel_err(P, A)
        return None if err <= GEB_RESIDUAL_BOUND else f"product residual {err:.3g} over bound"

    return check


def oscillatory_spectrum(A):
    """Real, positive, distinct eigenvalues; eigenvector k has k-1 changes."""
    A = np.asarray(A, dtype=float)
    want = np.sort(np.linalg.eigvals(A).real)[::-1]

    def check(spec):
        vals = np.array([lam for lam, _, _ in spec])
        if len(vals) != len(want) or rel_err(vals, want) > 1e-8:
            return "eigenvalues differ from numpy"
        for k, (lam, v, count) in enumerate(spec):
            if count != k or rel_err(A @ v, lam * v) > 1e-8:
                return f"eigenpair {k + 1} inconsistent"
            if s_minus(v, 1e-8) != k or s_plus(v, 1e-8) != k:
                return f"eigenvector {k + 1} does not have {k} sign changes"
        return None

    return check


def svdp_tp(A, x, zero_tol=1e-9):
    """Counts recomputed; a TP matrix must satisfy s+(Ax) <= s-(x)."""
    sin = s_minus(x, zero_tol)
    sout = s_plus(np.asarray(A) @ x, zero_tol)

    def check(res):
        if tuple(res) != (sin, sout, sout <= sin):
            return f"svdp_check returned {res}, expected {(sin, sout, sout <= sin)}"
        return None if sout <= sin else "TP matrix increased sign variation"

    return check


def column_set_tp(U):
    """Columns of a TP matrix: all maximal minors positive, bound holds."""
    if not np.all(all_minors(U, U.shape[1]) > 0):
        raise ValueError("column set oracle needs positive maximal minors")

    def check(res):
        return None if tuple(res) == (True, True) else f"column_set_equivalence returned {res}"

    return check


def constant_tpds(A):
    """A tridiagonal matrix with positive off-diagonals is TPDS."""
    delta = float(min(np.diag(A, 1).min(), np.diag(A, -1).min()))

    def check(cls):
        if cls.verdict != "TPDS" or cls.violations:
            return f"cooperative tridiagonal classified {cls.verdict}"
        return None if abs(cls.delta - delta) <= 1e-12 else f"delta {cls.delta} != {delta}"

    return check


def cli_check(label, A, minor):
    """`tpds check` output matches the construction label."""

    def check(text):
        lines = dict(ln.split(" ", 1) for ln in text.splitlines() if ln.split(" ", 1)[0] in ("TN", "TP", "oscillatory"))
        if label == "tp":
            bad = [k for k in ("TN", "TP", "oscillatory") if lines.get(k) != "yes"]
            return f"TP matrix reported {bad} no" if bad else None
        if label.startswith("tn"):
            if lines.get("TN") != "yes":
                return "TN matrix reported TN no"
            return _tn_oscillation(label, lines.get("oscillatory") == "yes")
        if lines.get("TN") == "yes":
            return classify_label("ns", A, minor)(SimpleNamespace(is_TN=True, witness=None))
        m = re.search(r"rows \(([\d, ]+)\) cols \(([\d, ]+)\) value (\S+)", text)
        if m is None:
            return "TN no without a witness line"
        alpha = tuple(int(v) for v in m.group(1).split(",") if v.strip())
        beta = tuple(int(v) for v in m.group(2).split(",") if v.strip())
        return confirm_witness(A, (alpha, beta, float(m.group(3))), minor)

    return check


# -- linear verdicts -----------------------------------------------------


def cosh2_phi(t0, t):
    """Transition matrix of A(s) = [[0, s], [s, 0]]: rotation by (t^2-t0^2)/2."""
    a = 0.5 * (t * t - t0 * t0)
    return np.array([[math.cosh(a), math.sinh(a)], [math.sinh(a), math.cosh(a)]])


def sinusoidal2_phi(t0, t):
    """A(s) = (1 + sin s) J with J = [[0,1],[1,0]] commutes with itself."""
    a = (t - math.cos(t)) - (t0 - math.cos(t0))
    return np.array([[math.cosh(a), math.sinh(a)], [math.sinh(a), math.cosh(a)]])


def switched_phi(sys, t0, t, expm):
    """Constant segments by expm; the middle segment is t K, so its flow is
    expm(K (b^2 - a^2) / 2)."""
    phi = np.eye(sys.n)
    for seg in sys.segments:
        lo, hi = max(t0, seg.t_start), min(t, seg.t_end)
        if hi <= lo:
            continue
        if all(isinstance(e, (int, float)) for row in seg.entries for e in row):
            step = expm(np.array(seg.entries, dtype=float) * (hi - lo))
        else:
            step = expm(seg.matrix_at(1.0) * 0.5 * (hi * hi - lo * lo))
        phi = step @ phi
    return phi


def transition(phi_want=None, det_want=None, positive=False):
    """Closed form when there is one, else Liouville's determinant identity;
    TPDS transition matrices are entrywise positive. A record the library
    flags as suspect must really drift."""

    def check(rec):
        drift = abs(rec.det_phi - rec.det_predicted) > INTEGRATION_TOL * abs(rec.det_predicted)
        if rec.suspect != drift:
            return "suspect flag disagrees with the determinant drift"
        if rec.suspect:
            return Flagged("suspect: det(Phi) drifts from exp(int trace)")
        if phi_want is not None and rel_err(rec.phi, phi_want) > INTEGRATION_TOL:
            return f"transition matrix off closed form by {rel_err(rec.phi, phi_want):.3g}"
        if det_want is not None and abs(np.linalg.det(rec.phi) / det_want - 1) > INTEGRATION_TOL:
            return "det(Phi) violates Liouville"
        if positive and not np.all(rec.phi > 0):
            return "TPDS transition matrix has a nonpositive entry"
        return None

    return check


def ctv(verdict, delta=None, delta_min=None):
    def check(cls):
        if cls.verdict != verdict:
            return f"classified {cls.verdict}, expected {verdict}"
        if delta is not None and abs(cls.delta - delta) > 1e-9:
            return f"delta {cls.delta} != {delta}"
        if delta_min is not None and cls.delta < delta_min - 1e-12:
            return f"delta {cls.delta} below {delta_min}"
        return None

    return check


def sign_trajectory(tpds, first=None, last=None, states=None, tail=None):
    """Sign counts recomputed on the returned states (scale-aware zero
    tolerance as documented); for TPDS runs s- never increases."""

    def check(traj):
        if not np.all(np.isfinite(traj.states)):
            return "non-finite state"
        if states is not None and rel_err(traj.states, states) > INTEGRATION_TOL:
            return f"states off closed form by {rel_err(traj.states, states):.3g}"
        running = 0.0
        counts = []
        for z in traj.states:
            running = max(running, float(np.max(np.abs(z))))
            counts.append(s_minus(z, 1e-8 * running))
        if counts != list(traj.sigma_minus):
            return "sign counts differ from recount"
        if tpds and any(b > a for a, b in zip(counts, counts[1:])):
            return "sign count increased along a TPDS run"
        if first is not None and counts[0] != first:
            return f"initial sign count {counts[0]} != {first}"
        if last is not None and counts[-1] != last:
            return f"final sign count {counts[-1]} != {last}"
        if tail is not None and set(counts[-max(1, len(counts) // 10):]) != {tail}:
            return f"tail sign count is not {tail}"
        return None

    return check


def floquet_data(n, multipliers=None, log_det=None, eigvecs=None):
    """Positive decreasing multipliers whose product is exp(int trace);
    eigenvector k has k-1 sign changes; closed form where known. Eigenpairs
    are judged by backward error, and the product of the multipliers within
    what the monodromy's condition number allows in double precision."""

    def check(fd):
        mu = np.asarray(fd.multipliers)
        B = fd.monodromy
        if len(mu) != n or np.any(mu <= 0) or np.any(np.diff(mu) >= 0):
            return "multipliers not positive and strictly decreasing"
        if multipliers is not None and rel_err(mu, multipliers) > INTEGRATION_TOL:
            return f"multipliers {mu} off closed form by {rel_err(mu, multipliers):.3g}"
        if log_det is not None:
            tol = INTEGRATION_TOL + 1e-15 * np.linalg.cond(B)
            if abs(np.log(mu).sum() - log_det) > tol * max(1.0, abs(log_det)):
                return "product of multipliers violates Liouville"
        for k in range(n):
            v = fd.eigvecs[:, k]
            if np.linalg.norm(B @ v - mu[k] * v) > 1e-10 * np.linalg.norm(B):
                return f"eigenpair {k + 1} inconsistent"
            if s_minus(v, 1e-8) != k or s_plus(v, 1e-8) != k:
                return f"eigenvector {k + 1} does not have {k} sign changes"
            if eigvecs is not None and rel_err(v, eigvecs[k]) > INTEGRATION_TOL:
                return f"eigenvector {k + 1} off closed form"
        return None

    return check


def compound_flow(n, p, log_det, phi_want=None):
    """Sylvester-Franke: det C_p(Phi) = det(Phi)^C(n-1,p-1), within what the
    condition number allows; entries of the compound of a TP transition
    matrix are positive."""
    power = math.comb(n - 1, p - 1)
    want = all_minors(phi_want, p) if phi_want is not None else None

    def check(Y):
        sign, logdet = np.linalg.slogdet(Y)
        tol = INTEGRATION_TOL + 1e-15 * np.linalg.cond(Y)
        if sign <= 0 or abs(logdet - power * log_det) > tol * max(1.0, abs(power * log_det)):
            return "det of compound flow violates Sylvester-Franke"
        if not np.all(Y > 0):
            return "compound flow has a nonpositive entry"
        if want is not None and rel_err(Y, want) > INTEGRATION_TOL:
            return f"compound flow off closed form by {rel_err(Y, want):.3g}"
        return None

    return check


# -- nonlinear verdicts --------------------------------------------------


def poincare_period(q):
    def check(res):
        if res.detected_period != q:
            return f"detected period {res.detected_period}, expected {q}"
        return None if np.all(np.isfinite(res.iterates)) else "non-finite iterate"

    return check


def nonlinear_run(sys, in_m_plus):
    """States match an independent adaptive integration, derivative samples
    are f(t, x), and the Jacobian flag matches the system's structure."""
    from scipy.integrate import solve_ivp

    reference = {}  # every pass checks the same input: integrate it once

    def check(run):
        if run.jacobian_in_M_plus != in_m_plus:
            return f"jacobian_in_M_plus {run.jacobian_in_M_plus}, expected {in_m_plus}"
        times, xs, zs = run.state.times, run.state.states, run.derivative.states
        key = (xs[0].tobytes(), times.tobytes())
        if key not in reference:
            reference[key] = solve_ivp(
                sys.f, (times[0], times[-1]), xs[0], t_eval=times, method="DOP853", rtol=1e-10, atol=1e-12
            )
        ref = reference[key]
        if not ref.success or rel_err(xs, ref.y.T) > INTEGRATION_TOL:
            return "states differ from an adaptive reference integration"
        for k in (0, len(times) // 2, len(times) - 1):
            if rel_err(zs[k], sys.f(times[k], xs[k])) > 1e-12:
                return f"derivative sample {k} differs from f(t, x)"
        if not all(sys.in_box(x) for x in xs):
            return "state left the domain box"
        return None

    return check


def ordered_pair(sign):
    """Kamke: ordered initial conditions of a cooperative system stay
    ordered, so the first-coordinate difference never changes sign."""

    def check(res):
        return None if tuple(res) == (0.0, sign) else f"eventual_monotonicity returned {res}, expected (0.0, {sign})"

    return check


# -- CLI verdicts --------------------------------------------------------


def cli_lines(pattern, **expect):
    """Regex over stdout with named groups compared to expected values."""
    rx = re.compile(pattern)

    def check(text):
        m = rx.search(text)
        if m is None:
            return f"output does not match {pattern!r}"
        for key, want in expect.items():
            got = m.group(key)
            if callable(want):
                reason = want(got)
                if reason:
                    return reason
            elif got != want:
                return f"{key}={got}, expected {want}"
        return None

    return check


def csv_rows(path, check_rows):
    """Reads a CSV the CLI wrote and applies check_rows to its data rows."""

    def check(_text):
        import csv

        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            return f"output file missing: {exc}"
        return check_rows(rows[0], rows[1:])

    return check


# -- failures present at the commit that introduced this benchmark --------
# (verdict kind, smallest n, largest n, outcome class, cause). The outcome
# class is "wrong" (an unflagged result the oracle rejects), "flagged" (the
# library marked its result suspect) or "raised:<exception type or exitN>".
KNOWN_DEFECTS = (
    ("classify.tp", 6, 10, "wrong", "TP matrix classified TP no / not oscillatory: the zero threshold "
     "scales with the product of row maxima, which outgrows the minors"),
    ("cli.check.tp", 6, 10, "wrong", "the same misclassification through `tpds check`"),
    ("classify.tn_osc", 7, 8, "wrong", "oscillatory TN matrix classified not oscillatory: the same "
     "threshold, applied to its determinant"),
    ("oscillatory_spectrum.tp", 6, 10, "raised:SpectralViolation", "classify calls the TP matrix non-oscillatory"),
    ("classify_constant.tri", 6, 6, "raised:AssertionError", "bare AssertionError from the exp(At) cross-check at n = 6"),
    ("floquet.random", 4, 6, "raised:FloquetViolation", "small multipliers of an ill-conditioned "
     "monodromy matrix are not separated"),
    ("transition_matrix.random", 2, 6, "flagged", "det of the ill-conditioned one-period Phi "
     "(cond 1e10..1e17) loses digits, so the det-drift check fires"),
    ("transition_matrix.sinusoidal2", 2, 2, "flagged", "the default step 1e-3 (b - a) comes "
     "from the 10-period spec interval, h = 0.063"),
    ("floquet.sinusoidal2", 2, 2, "wrong", "multipliers 6e-6 off e^(+-2 pi) at that step; floquet "
     "drops the suspect flag of its transition matrix"),
    ("cli.floquet.sinusoidal2", 2, 2, "wrong", "the same through `tpds floquet`"),
    ("simulate_linear.sinusoidal2", 2, 2, "wrong", "states 4e-6 off the closed form at that step, unflagged"),
    ("cli.simulate.schwarz3", 3, 3, "raised:exit4", "det(Phi) drifts beyond 1e-6 over 4 periods at the default step"),
    ("cli.simulate.sinusoidal2", 2, 2, "raised:exit4", "det(Phi) drifts beyond 1e-6 over 10 periods at the default step"),
)


def known_outcome(kind, n):
    """The outcome class a known defect of this verdict kind and size shows,
    or None. A verdict may also succeed: a fixed defect is not a failure."""
    for k, lo, hi, outcome, _ in KNOWN_DEFECTS:
        if k == kind and lo <= n <= hi:
            return outcome
    return None
