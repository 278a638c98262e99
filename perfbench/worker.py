"""One benchmark process: set-up only, or set-up followed by timed passes.

Started by ``run.py`` in a fresh interpreter, so that set-up time includes
``import tpds``. ``--t0`` is the parent's ``time.monotonic()`` just before
the spawn (the clock is system-wide), so ``setup_s`` runs from process
start to the first timed verdict. The last line of standard output is one
JSON object.

Roles:

* ``setup`` -- import, build the workload, report set-up time.
* ``measure`` -- set-up, warm-up (first verdict of each kind), then whole
  passes over the workload's verdicts; every result is checked by its
  oracle outside the timed region. The number of passes is fixed by
  ``--seconds`` and the workload's ``PASS_S`` (the seconds of one pass at
  the reference speed), never by the clock, so the verdicts a run attempts
  and their failures depend only on the seed.
* ``trace`` -- as ``measure`` for half of ``--seconds`` without wrappers,
  then the inputs are rebuilt under the tracer (so that compiled expression
  closures are wrapped too) and as many passes run traced. Per-layer
  counters come from each traced pass and must repeat pass to pass.

Every attempted verdict is one latency sample. ``verdicts_per_s`` is the
number of verdicts attempted over the seconds they took; ``verdict_p50_ms``
and ``verdict_p90_ms`` are percentiles of all the samples.

Times are reported at a fixed reference speed of the host. A shared
virtual machine's speed drifts, by up to 1.7x on the 2-vCPU machine the
benchmark was written on, in spells that can outlast a run, and every
verdict slows by the same factor. So a fixed
numpy kernel that does not call ``tpds`` (:func:`kernel_s`) is timed before
every verdict and after the last one, and a verdict that took ``t``
seconds between two kernel runs of ``c1`` and ``c2`` seconds counts as
``t * REF_KERNEL_S / mean(c1, c2)``. The unscaled figures are kept in the
result file. (Set-up time is scaled in ``run.py``, by another reference.)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_CAP_S = 150  # a run must end within 180 s; start no pass after this
MIN_PASSES = 2  # traced counters must repeat from one pass to the next
MIN_SAMPLES = 100  # latency samples, so that >= 10 lie beyond the 90th percentile
REF_KERNEL_S = 2.0e-3  # seconds of one kernel_s() run at the reference speed
SAMPLE_EVERY_S = 0.05  # kernel runs while a verdict runs, from a timer signal


def kernel_s(_mats=[]):
    """Seconds of one run of a fixed kernel of small numpy operations, the
    kind that dominates ``tpds`` verdicts; about 2 ms on the reference host."""
    import numpy as np

    if not _mats:
        _mats.append(np.random.default_rng(0).standard_normal((20, 4, 4)))
    M = _mats[0]
    t0 = time.perf_counter()
    for i in range(150):
        np.linalg.det(M).sum()
        (M[i % 20] @ M[(i + 1) % 20]).trace()
    return time.perf_counter() - t0


class Speedometer:
    """Kernel runs while one verdict runs.

    A verdict of a second or more spans many changes of the host's speed,
    which the kernel runs just before and after it do not see. So while a
    verdict runs, a timer signal runs the kernel every ``SAMPLE_EVERY_S``
    (between bytecodes of the verdict, as Python handles signals), and the
    time the handler took is taken out of the verdict's time.
    """

    def __init__(self):
        self.ticks = []  # (start, seconds in the handler, kernel seconds)
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        k = kernel_s()
        self.ticks.append((t0, time.perf_counter() - t0, k))

    def start(self):
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self, t0, t1):
        """Disarm; returns the handler seconds within [t0, t1] and the
        kernel seconds of those runs."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = [(d, k) for start, d, k in self.ticks if t0 <= start < t1]
        return sum(d for d, _ in inside), [k for _, k in inside]

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_tpds():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import tpds

    import_s = time.perf_counter() - t
    if Path(tpds.__file__).resolve().parent != (src / "tpds").resolve():
        raise SystemExit(f"imported tpds from {tpds.__file__}, not from {src}")
    return import_s


class Tally:
    """Outcome counts and latencies per verdict kind and size."""

    def __init__(self):
        self.by_kind = defaultdict(Counter)  # "kind n=N" -> outcome counts
        self.details = defaultdict(Counter)  # "kind n=N" -> failure detail counts
        self.by_kind_s = defaultdict(list)  # "kind n=N" -> seconds of each attempt
        self.unexpected = Counter()
        self.oracle_errors = []

    def add(self, verdict, latency, out, exc):
        from oracles import Flagged, known_outcome
        from workloads import CliOut

        if exc is None and isinstance(out, CliOut) and out.code != 0:
            exc = f"exit{out.code}"
        if exc is not None:
            outcome, detail = "raised", exc if isinstance(exc, str) else type(exc).__name__
            klass = f"raised:{detail}"
        else:
            try:
                reason = verdict.check(out.text if isinstance(out, CliOut) else out)
            except Exception:
                self.oracle_errors.append(f"{verdict.kind} n={verdict.n}: {traceback.format_exc(limit=2)}")
                reason = "oracle error"
            if reason is None:
                outcome, detail = "ok", None
            else:
                outcome, detail = ("flagged" if isinstance(reason, Flagged) else "wrong"), reason
            klass = outcome
        key = f"{verdict.kind} n={verdict.n}"
        self.by_kind_s[key].append(latency)
        self.by_kind[key][outcome] += 1
        if outcome != "ok":
            self.details[key][f"{outcome}: {detail}"] += 1
            if klass != known_outcome(verdict.kind, verdict.n):
                self.unexpected[f"{key} {outcome}: {detail}"] += 1

    def totals(self):
        c = Counter()
        for counts in self.by_kind.values():
            c.update(counts)
        return c


def run_pass(verdicts, order, tally=None, tracer=None, scale=False, raw=None):
    """Run the verdicts at the given indices in order.

    Returns the seconds each took; with ``scale``, the seconds at the
    reference host speed, from kernel runs before each verdict, while it
    runs (:class:`Speedometer`) and after the last one, and the unscaled
    seconds are appended to ``raw``. The tally, if any, gets the returned
    seconds.
    """
    perf = time.perf_counter
    timed, kernel, during, results = [], [], [], []
    meter = Speedometer() if scale else None
    try:
        for i in order:
            v = verdicts[i]
            if scale:
                kernel.append(kernel_s())
                meter.start()
            if tracer is not None:
                tracer.verdict(v.kind)
                tracer.enabled = True
            t0 = perf()
            try:
                out, exc = v.call(), None
            except (Exception, SystemExit) as e:  # a failed verdict is a result to count
                out, exc = None, e
            t1 = perf()
            if tracer is not None:
                tracer.enabled = False
            if scale:
                handler_s, samples = meter.stop(t0, t1)
                t1 -= handler_s
                during.append(samples)
            timed.append(t1 - t0)
            results.append((v, out, exc))
    finally:
        if meter is not None:
            meter.close()
    if scale:
        kernel.append(kernel_s())
        if raw is not None:
            raw.extend(timed)
        timed = [
            dt * REF_KERNEL_S / statistics.fmean([a, *mid, b])
            for dt, a, mid, b in zip(timed, kernel, during, kernel[1:])
        ]
    if tally is not None:
        for dt, (v, out, exc) in zip(timed, results):
            tally.add(v, dt, out, exc)
    return timed


def timed_passes(verdicts, passes, deadline, tally=None, tracer=None, on_pass=None, scale=False, raw=None):
    """Run `passes` whole passes; returns the timed seconds of each pass.

    The number of passes is fixed, so that the verdicts attempted, and
    their failures, depend only on the seed.
    """
    everything = range(len(verdicts))
    pass_s = []
    for _ in range(passes):
        if tracer is not None:
            tracer.reset()
        pass_s.append(sum(run_pass(verdicts, everything, tally, tracer, scale, raw)))
        if on_pass is not None:
            on_pass()
        if time.monotonic() > deadline:
            break
    return pass_s


def percentile(sorted_vals, q):
    """Linear-interpolated percentile of an already sorted list."""
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def machine_info():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)
    deadline = args.t0 + TIME_CAP_S

    import_s = import_tpds()
    import workloads  # after tpds: it imports numpy, which import_s must include

    verdicts, warmup = workloads.build(args.workload, args.seed, args.tmp)
    result = {"setup_s": time.monotonic() - args.t0, "import_s": import_s}
    if args.role == "setup":
        print(json.dumps(result))
        return 0

    run_pass(verdicts, warmup)
    tally = Tally()
    if args.role == "measure":
        budget, least = args.seconds, max(MIN_PASSES, -(-MIN_SAMPLES // len(verdicts)))
    else:  # the untraced half only gives the pass time that trace.overhead_s compares with
        budget, least = args.seconds / 2, MIN_PASSES
    passes = max(least, round(budget / workloads.PASS_S[args.workload]))
    raw = []
    pass_s = timed_passes(verdicts, passes, deadline, tally=tally, scale=True, raw=raw)
    totals = tally.totals()
    srt = sorted(dt for samples in tally.by_kind_s.values() for dt in samples)
    attempted = sum(totals.values())
    result.update(
        attempted=attempted,
        failed=totals["raised"] + totals["flagged"] + totals["wrong"],
        wrong=totals["wrong"],
        per_pass=len(verdicts),
        pass_s=pass_s,
        verdicts_per_s=attempted / sum(pass_s),
        verdict_p50_ms=1e3 * percentile(srt, 0.5),
        verdict_p90_ms=1e3 * percentile(srt, 0.9),
        raw_verdicts_per_s=attempted / sum(raw),
        raw_verdict_p50_ms=1e3 * percentile(sorted(raw), 0.5),
        raw_verdict_p90_ms=1e3 * percentile(sorted(raw), 0.9),
        correct=not tally.unexpected and not tally.oracle_errors,
        unexpected=dict(tally.unexpected),
        oracle_errors=tally.oracle_errors,
        by_kind={k: dict(v) for k, v in sorted(tally.by_kind.items())},
        median_ms_by_kind={k: 1e3 * statistics.median(v) for k, v in sorted(tally.by_kind_s.items())},
        failure_details={k: dict(v) for k, v in sorted(tally.details.items())},
        machine=machine_info(),
    )

    if args.role == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        verdicts, warmup = workloads.build(args.workload, args.seed, args.tmp)
        run_pass(verdicts, warmup)
        summaries, errors, spans = [], [], []

        def keep():
            summaries.append(tracer.summary())
            errors.append(tracer.error_types())
            spans.append(tracer.spans())

        # unscaled: the speedometer's signal handler would run inside the spans
        traced_s = timed_passes(verdicts, passes, deadline, tracer=tracer, on_pass=keep)
        tracer.uninstall()
        n = len(verdicts)
        result.update(
            raw_pass_s=[sum(raw[i : i + n]) for i in range(0, len(raw), n)],
            traced_pass_s=traced_s,
            layer_passes=summaries,
            layer_error_types=errors[0],
            spans=spans[0],
        )

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
