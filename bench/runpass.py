"""One pass of one workload, in a fresh interpreter.

    python3 bench/runpass.py --workload NAME --seed N --mode setup|pass
                            [--trace 0|1] [--cap SECONDS] [--spans FILE]
                            [--inject-fault]

The process imports ``chowpoly`` from the checkout's ``src/``, generates the
workload's specs from the seed and prints ``ready`` with the monotonic
clock: from the process's start to that reading is the set-up the parent
times.  In ``pass`` mode it then runs every instance through
``steps.run_instance``; ``--trace 1`` records spans and counts.  Either mode
ends with one JSON object as its last line.

Machine speed: on a shared machine, other tenants slow a pass by up to a
third, for seconds to minutes at a time.  To take that out, a fixed
pure-Python reference slice is timed every ``PROBE_INTERVAL_S`` of CPU time
during the pass (about 2% of it), and in a short burst before and after.
The pass's times are reported both as measured and rescaled by
``REF_SLICE_S / mean slice time``, the seconds they would take on a machine
where one slice takes ``REF_SLICE_S``.  Slice time is not charged to the
program.

A pass that is still running after ``--cap`` seconds stops; the instance
in progress and every one not started count as failed.
"""

import argparse
import functools
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REF_SLICE_S = 0.0005  # one slice on an idle 2.0 GHz Xeon core, Python 3.11
PROBE_INTERVAL_S = 0.025
PROBE_BURST = 10


class CapReached(BaseException):
    """Raised by the alarm when a pass runs past its cap; a BaseException
    so that no handler in the program can swallow it."""


class Tracer:
    """Spans and counts of one pass, kept in memory.

    A span is [name, start, end, parent index, instance index, ok]; ok is
    False when the call inside it raised."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.counts = {}

    def span(self, name):
        return _Span(self, name)

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def self_times(self):
        """Each span's duration minus the durations of its children."""
        out = [t1 - t0 for _, t0, t1, *_ in self.spans]
        for _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                out[parent] -= t1 - t0
        return out


class _Span:
    __slots__ = ("tr", "rec")

    def __init__(self, tr, name):
        self.tr = tr
        self.rec = [name, 0.0, 0.0, None, tr.instance, True]

    def __enter__(self):
        tr, rec = self.tr, self.rec
        rec[3] = tr.stack[-1] if tr.stack else None
        tr.spans.append(rec)
        tr.stack.append(len(tr.spans) - 1)
        rec[1] = time.perf_counter()
        return self

    def __exit__(self, et, ev, tb):
        self.rec[2] = time.perf_counter()
        self.rec[5] = et is None
        self.tr.stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, et, ev, tb):
        return False


class NullTracer:
    """Tracing off: one shared no-op context manager, no counts."""

    _NO = _NoSpan()
    instance = None

    def span(self, name):
        return self._NO

    def count(self, name, k=1):
        pass


def reference_slice(n=1000):
    """Fixed pure-Python work of about half a millisecond: dict, integer and
    bit operations and a sort, as the program does."""
    d = {}
    acc = 0
    for i in range(n):
        m = (i * 2654435761) & 0xFFFFF
        d[m] = d.get(m >> 3, 0) + (m & -m).bit_length()
        acc += len(d) & 7
    return acc + len(sorted(d.values())[::7])


class SpeedProbe:
    """Times reference slices; inside a ``with`` block one slice runs every
    ``PROBE_INTERVAL_S`` of the process's CPU time, in a span of its own."""

    def __init__(self, tr):
        self.tr = tr
        self.wall = 0.0  # slice time inside the timed window
        self.cpu = 0.0
        self.times = []

    def tick(self, signum=None, frame=None):
        with self.tr.span("bench.probe"):
            c0, t0 = time.process_time(), time.perf_counter()
            reference_slice()
            t1, c1 = time.perf_counter(), time.process_time()
        self.wall += t1 - t0
        self.cpu += c1 - c0
        self.times.append(t1 - t0)

    def burst(self, k=PROBE_BURST):
        for _ in range(k):
            self.tick()

    def __enter__(self):
        self.wall = self.cpu = 0.0
        signal.signal(signal.SIGPROF, self.tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, et, ev, tb):
        signal.setitimer(signal.ITIMER_PROF, 0)
        return False

    def scale(self):
        """REF_SLICE_S over the mean slice time."""
        return REF_SLICE_S * len(self.times) / sum(self.times)


def _import_program():
    """Import chowpoly from this checkout's src/, never from elsewhere."""
    if not (SRC / "chowpoly" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no chowpoly sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import chowpoly

    if Path(chowpoly.__file__).resolve().parent != (SRC / "chowpoly").resolve():
        sys.stderr.write(f"bench: chowpoly imported from {chowpoly.__file__}\n")
        sys.exit(2)


def run_pass(instances, run, tr, cap):
    """Run every instance under the cap; returns the per-pass record.
    ``run(inst, tr)`` returns the instance's failed checks."""
    failures = []
    latencies = []
    finished = False

    def on_alarm(signum, frame):
        if not finished:
            raise CapReached()

    signal.signal(signal.SIGALRM, on_alarm)
    probe = SpeedProbe(tr)
    probe.burst()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    done = 0
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        with probe:
            for i, inst in enumerate(instances):
                tr.instance = i
                ti = time.perf_counter()
                with tr.span("bench.instance"):
                    try:
                        errors = run(inst, tr)
                    except CapReached:
                        raise
                    except Exception as e:  # any undocumented error is a failure
                        errors = [f"raised {type(e).__name__}: {e}"]
                latencies.append(time.perf_counter() - ti)
                if errors:
                    failures.append({"instance": inst.name, "errors": errors})
                done += 1
        finished = True
    except CapReached:
        finished = True
        for inst in instances[done:]:
            failures.append({"instance": inst.name, "errors": [f"cap of {cap} s"]})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    wall = t1 - t0 - probe.wall
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime) - probe.cpu
    tr.instance = None
    probe.burst()
    scale = probe.scale()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref_s": wall * scale,
        "cpu_ref_s": cpu * scale,
        "scale": scale,
        "slices": len(probe.times),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "attempted": len(instances),
        "failed": len(failures),
        "failures": failures,
        "latency_ms": [x * 1000.0 for x in latencies],  # in instance order
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "pass"], required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--cap", type=float, default=60.0)
    ap.add_argument("--spans", default=None, help="write the spans here")
    ap.add_argument("--inject-fault", action="store_true",
                    help="expect a wrong flat count, to test the checks")
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import steps
    import workloads

    instances = workloads.build(args.workload, args.seed)
    print("ready", time.monotonic(), flush=True)
    if args.mode == "setup":
        probe = SpeedProbe(NullTracer())
        probe.burst(5 * PROBE_BURST)
        print(json.dumps({"scale": probe.scale()}))
        return 0

    tr = Tracer() if args.trace else NullTracer()
    run = functools.partial(
        steps.run_instance, tracing=bool(args.trace), fault=args.inject_fault
    )
    rec = run_pass(instances, run, tr, args.cap)
    if args.trace:
        self_s, calls, by_instance = {}, {}, {}
        for (name, _, _, _, i, ok), t in zip(tr.spans, tr.self_times()):
            self_s[name] = self_s.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
            if name == "chow.filtration" and not ok:
                tr.count("chow.filtration.wasted_s", t)
            if i is not None:
                inst = by_instance.setdefault(instances[i].name, {})
                inst[name] = inst.get(name, 0.0) + t
        rec["self_s"], rec["calls"], rec["counts"] = self_s, calls, tr.counts
        rec["instance_self_s"] = by_instance
        if args.spans:
            names = [inst.name for inst in instances]
            with open(args.spans, "w") as fh:
                json.dump(
                    [
                        {"name": n, "start": t0, "end": t1, "parent": p,
                         "instance": names[i] if i is not None else None, "ok": ok}
                        for n, t0, t1, p, i, ok in tr.spans
                    ],
                    fh,
                )
    print(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
