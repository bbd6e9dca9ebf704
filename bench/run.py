"""The chowpoly benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload corpus|moduli|gmax --seed N
                         --seconds S --trace 0|1 [--inject-fault]

Run from the root of a checkout.  Every pass of the workload runs in a fresh
interpreter (``bench/runpass.py``), one at a time, on one thread, so the
program's module-level memos start empty as they do for a command-line user.
Set-up is timed separately: ``SETUP_SAMPLES`` extra interpreters only import
``chowpoly`` and generate the specs, and every pass interpreter adds one more
sample.  Passes are started until ``--seconds`` have gone by; each is capped
at ``PASS_CAP_S`` seconds, past which its unfinished instances fail.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
(medians over the passes); with ``--trace 1`` untraced and traced passes
alternate and the last line holds the per-layer metrics of the traced ones.
Times are rescaled to a reference machine speed, which each interpreter
measures as it runs (see ``runpass.py``); the times as measured are in the
report.
The full report, with machine facts, provenance, every pass and every
failure, goes to ``bench/out/``; traced passes also write their spans there.
A run with a failed check reports ``"correct": false``: its timings are not
valid.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5
PASS_CAP_S = 60.0
RUN_BUDGET_S = 170.0  # no child outlives this, so a run ends within 180 s

LAYERS = (
    "cli", "lattice", "building", "chow.fy", "chow.deletion",
    "chow.filtration", "chow.oracle", "chow.descents", "nested.facets",
    "nested.gamma_complex", "polynomials", "families",
)
COUNTS = (
    "lattice.flats", "lattice.rank_calls", "building.bset_size",
    "chow.fy.basis_size", "chow.filtration.steps", "nested.facets.count",
    "nested.stable_facets", "families.stable_trees", "cli.emit.bytes",
)


class PassFailed(Exception):
    """A child interpreter did not produce its result."""


def _child(args, deadline, mode, trace=0, spans=None):
    """Start one runpass.py interpreter and wait for it, at most until
    ``deadline``.  Returns (set-up seconds as measured, set-up seconds at
    reference speed, pass record or None)."""
    cmd = [
        sys.executable, str(BENCH / "runpass.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--mode", mode, "--trace", str(trace),
        "--cap", str(PASS_CAP_S),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    if args.inject_fault:
        cmd.append("--inject-fault")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"{mode} interpreter still running at the run's time budget")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise PassFailed(f"{mode} interpreter exited with {proc.returncode}")
    # CLOCK_MONOTONIC is shared by all processes of the machine
    setup = float(lines[0].split()[1]) - t0
    rec = json.loads(lines[-1])
    return setup, setup * rec["scale"], (rec if mode == "pass" else None)


def _machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _provenance():
    """The commit when the checkout is a git repository, and always a digest
    of the program's sources."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(traced, untraced):
    """Per-layer metrics: medians over the traced passes, times at
    reference speed."""
    out = {}

    def med(get):
        return _median([get(p) for p in traced])

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            med(lambda p: p["self_s"].get(layer, 0.0) * p["scale"]), "s")
        out[f"{layer}.calls"] = (med(lambda p: p["calls"].get(layer, 0)), "count")
    for name in COUNTS:
        out[name] = (med(lambda p: p["counts"].get(name, 0)), "count")

    def ratio(route):
        def get(p):
            tried = p["counts"].get(f"chow.{route}.attempted", 0)
            return p["counts"].get(f"chow.{route}.answered", 0) / tried if tried else 0.0
        return (med(get), "ratio")

    out["chow.filtration.answered_ratio"] = ratio("filtration")
    out["chow.filtration.wasted_s"] = (
        med(lambda p: p["counts"].get("chow.filtration.wasted_s", 0.0) * p["scale"]), "s")
    out["chow.oracle.answered_ratio"] = ratio("oracle")
    out["bench.self_s"] = (
        med(lambda p: p["wall_ref_s"] - p["scale"] * sum(
            p["self_s"].get(layer, 0.0) for layer in LAYERS)),
        "s",
    )
    out["trace.overhead_s"] = (
        med(lambda p: p["wall_ref_s"]) - _median([p["wall_ref_s"] for p in untraced]),
        "s",
    )
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "moduli", "gmax", "tiny"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="expect a wrong flat count, to show that checks fail")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chowpoly" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no chowpoly sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups, setups_raw, passes, errors = [], [], [], []
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        for _ in range(SETUP_SAMPLES):
            raw, ref, _ = _child(args, deadline, "setup")
            setups_raw.append(raw)
            setups.append(ref)
        start = time.monotonic()
        while True:
            traced = bool(args.trace and len(passes) % 2)
            spans = OUT / f"spans-{tag}-pass{len(passes)}.json" if traced else None
            raw, ref, rec = _child(args, deadline, "pass", int(traced), spans)
            setups_raw.append(raw)
            setups.append(ref)
            rec["traced"] = traced
            passes.append(rec)
            if (time.monotonic() - start >= args.seconds
                    and len(passes) >= 1 + args.trace):
                break
    except PassFailed as e:
        errors.append(str(e))

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # a pass that died counts as one pass of failed instances
    lost = (passes[0]["attempted"] if passes else 1) if errors else 0
    attempted = sum(p["attempted"] for p in passes) + lost
    failed = sum(p["failed"] for p in passes) + lost
    correct = failed == 0

    e2e = {
        "wall_ref_s": (_median([p["wall_ref_s"] for p in untraced]), "s"),
        "cpu_ref_s": (_median([p["cpu_ref_s"] for p in untraced]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in untraced]), "MB"),
        "passed_frac": (1.0 - failed / attempted, "ratio"),
    }
    metrics = _layer_metrics(traced, untraced) if args.trace else e2e
    measured = {
        "wall_s": _median([p["wall_s"] for p in untraced]),
        "cpu_s": _median([p["cpu_s"] for p in untraced]),
        "setup_s": _median(setups_raw),
    }

    lat = sorted(x for p in untraced for x in p["latency_ms"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "provenance": _provenance(),
        "instances": passes[0]["attempted"] if passes else None,
        "timings_valid": correct,
        "errors": errors,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "measured": measured,
        "failed_frac": failed / attempted,
        "setup_samples_s": setups_raw,
        "instance_latency_ms": {
            "samples": len(lat),
            "p50": statistics.median(lat) if lat else None,
            "p95": statistics.quantiles(lat, n=20)[-1] if len(lat) >= 20 else None,
        },
        "passes": [
            {k: v for k, v in p.items()
             if k not in ("latency_ms", "failures", "instance_self_s")}
            for p in passes
        ],
        "failures": [f for p in passes for f in p["failures"]][:50],
    }
    if args.trace:
        report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        report["instance_self_s"] = {
            inst: {
                layer: _median([p["instance_self_s"].get(inst, {}).get(layer, 0.0)
                                * p["scale"] for p in traced])
                for layer in LAYERS
                if any(layer in p["instance_self_s"].get(inst, {}) for p in traced)
            }
            for inst in (traced[0]["instance_self_s"] if traced else {})
        }
        report["note"] = (
            "Spans wrap only the calls the benchmark makes; work one layer "
            "does inside another layer's call is charged to the caller."
        )
    with open(OUT / f"report-{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"{name:32s} {value:14.6f} {unit}\n")
    for f in report["failures"][:10]:
        sys.stderr.write(f"FAILED {f['instance']}: {'; '.join(f['errors'])}\n")
    for e in errors:
        sys.stderr.write(f"ERROR {e}\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
