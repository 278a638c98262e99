"""Benchmark of the tpds library: verdict throughput, latency and correctness.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload matrix|linear|entrain --seed N \\
        --seconds S --trace 0|1

The inputs are generated from ``--seed``; the program is imported from
``src/`` of the checkout. Every process runs one client issuing verdicts
one after another (a closed loop), with BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several fresh interpreters, from process start through ``import tpds``,
loading the shipped specs and generating the inputs), ``verdicts_per_s``,
``verdict_p50_ms``, ``verdict_p90_ms``, ``peak_rss_mb``, ``verdict_ok_frac``
(1 - failed_frac) and ``no_silent_wrong_frac`` (1 - wrong_frac). Times are
scaled to a fixed reference speed of the host (see ``worker.py`` and
``REF_START`` below); the unscaled figures are in the report and the result
file. ``--trace 1`` runs the same number of passes untraced and then under
the tracer, and prints the per-layer metrics, including ``trace.overhead_s``.

A human-readable report goes to standard output first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, including the per-kind failure breakdown and
the traced spans, is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up-only interpreters, half before and half after the measuring one,
# so that set-up is sampled across the run rather than in one spell of the
# host's speed
SETUP_PROBES = 10
# The host's speed drifts (see worker.py), so each set-up time is scaled to
# a reference speed by a fixed reference start timed just before and just
# after it: a fresh interpreter importing standard-library modules, which is
# the same kind of work as set-up (process start, unmarshalling, module code)
# but runs no tpds, numpy or scipy code.
REF_START = (
    "-I",
    "-c",
    "import argparse, asyncio, decimal, email.parser, fractions, http.client, json, statistics, unittest, xml.etree.ElementTree",
)
REF_START_S = 0.12  # seconds of one reference start at the reference speed
RUN_CAP_S = 175  # the whole run, all interpreters included, ends within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("verdict_ok_frac", "ratio"),
    ("no_silent_wrong_frac", "ratio"),
)


def spawn(role, args, tmp, env, deadline):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--tmp", tmp,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ref_start_s(env, deadline):
    t0 = time.monotonic()
    subprocess.run([sys.executable, *REF_START], env=env, check=True, capture_output=True, timeout=max(1.0, deadline - t0))
    return time.monotonic() - t0


def setup_samples(count, args, tmp, env, deadline):
    """Set-up seconds of `count` set-up-only interpreters, each scaled to the
    reference speed by the reference starts just before and after it;
    returns (scaled, unscaled) lists."""
    scaled, raw = [], []
    before = ref_start_s(env, deadline)
    for _ in range(count):
        raw.append(spawn("setup", args, tmp, env, deadline)["setup_s"])
        after = ref_start_s(env, deadline)
        scaled.append(raw[-1] * 2 * REF_START_S / (before + after))
        before = after
    return scaled, raw


def layer_metrics(res):
    """Per-layer metrics: counters must repeat in every traced pass; times
    are medians over the traced passes."""
    passes = res["layer_passes"]
    first = passes[0]
    repeat = all(
        p[k] == first[k] for p in passes for k in first if not k.endswith("_s")
    )
    out = {}
    for k in first:
        out[k] = statistics.median(p[k] for p in passes) if k.endswith("_s") else first[k]
    # per-layer times are unscaled, and so is the comparison of traced and untraced passes
    out["trace.overhead_s"] = statistics.median(res["traced_pass_s"]) - statistics.median(res["raw_pass_s"])
    return out, repeat


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report(args, res, setups, raw_setups, metrics, units):
    lines = [
        f"tpds benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        "machine: " + ", ".join(f"{k}={v}" for k, v in res["machine"].items()),
        f"closed loop, 1 client; {len(res['pass_s'])} passes of {res['per_pass']} verdicts; "
        f"p50/p90 over {res['attempted']} latency samples, one per attempted verdict",
        "setup_s samples: " + " ".join(f"{s:.4f}" for s in setups),
        "unscaled: " + " ".join(f"{s:.4f}" for s in raw_setups),
    ]
    if not args.trace:
        lines.append(
            "times below are at the reference host speed; unscaled: "
            f"verdicts_per_s {res['raw_verdicts_per_s']:.6g}, verdict_p50_ms {res['raw_verdict_p50_ms']:.6g}, "
            f"verdict_p90_ms {res['raw_verdict_p90_ms']:.6g}"
        )
    lines += [f"  {k:28s} {v:14d} {units[k]}" if isinstance(v, int) else f"  {k:28s} {v:14.6g} {units[k]}" for k, v in metrics.items()]
    attempted = res["attempted"]
    lines.append(f"  {'failed_frac':28s} {res['failed'] / attempted:14.6g} ratio ({res['failed']} of {attempted})")
    lines.append(f"  {'wrong_frac':28s} {res['wrong'] / attempted:14.6g} ratio ({res['wrong']} of {attempted})")
    lines.append("failures by verdict kind (counts over all timed verdicts):")
    for key, details in res["failure_details"].items():
        n = sum(res["by_kind"][key].values())
        for detail, count in details.items():
            lines.append(f"  {key:40s} {count:5d}/{n:<5d} {detail}")
    if res.get("layer_error_types"):
        lines.append("exceptions escaping layers, by type (one traced pass):")
        lines += [f"  {k:48s} {v}" for k, v in res["layer_error_types"].items()]
    for label, items in (("UNEXPECTED failures", res["unexpected"]), ("ORACLE errors", res["oracle_errors"])):
        if items:
            lines.append(f"{label}:")
            lines += [f"  {item}" for item in items]
    print("\n".join(lines))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("matrix", "linear", "entrain"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_CAP_S

    if not (ROOT / "src" / "tpds" / "__init__.py").is_file():
        print(f"error: no tpds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("TPDS_OUTDIR", None)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        spawn("setup", args, tmp, env, deadline)  # writes bytecode caches; not counted
        setups, raw_setups = setup_samples(SETUP_PROBES // 2, args, tmp, env, deadline)
        res = spawn("trace" if args.trace else "measure", args, tmp, env, deadline)
        more = setup_samples(SETUP_PROBES - SETUP_PROBES // 2, args, tmp, env, deadline)
        setups += more[0]
        raw_setups += more[1]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = bool(res["correct"])
    attempted = res["attempted"]

    if args.trace:
        metrics, repeat = layer_metrics(res)
        metrics["import.tpds_s"] = res["import_s"]
        metrics = dict(sorted(metrics.items()))
        units = {k: layer_unit(k) for k in metrics}
        correct = correct and repeat
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "verdicts_per_s": res["verdicts_per_s"],
            "verdict_p50_ms": res["verdict_p50_ms"],
            "verdict_p90_ms": res["verdict_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
            "verdict_ok_frac": 1 - res["failed"] / attempted,
            "no_silent_wrong_frac": 1 - res["wrong"] / attempted,
        }
        units = dict(END_TO_END)
    report(args, res, setups, raw_setups, metrics, units)
    if args.trace:
        print(f"per-layer counters repeat in every traced pass: {repeat}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    res.update(
        seed=args.seed, workload=args.workload, seconds=args.seconds, setup_samples=setups, raw_setup_samples=raw_setups, metrics=metrics
    )
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
