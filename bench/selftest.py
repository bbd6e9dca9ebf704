"""Self-test of the benchmark, on the small ``tiny`` workload.

    python3 bench/selftest.py

Checks that:

* a seed-driven run passes every output check, traced and untraced, and the
  traced run reports every per-layer metric of ``BENCHMARK.json`` with a
  call on every layer;
* a deliberately wrong expected value makes the run fail: ``failed`` > 0,
  ``passed_frac`` < 1, ``correct`` false and the report's timings invalid;
* a pass past its cap counts its unfinished instances as failed;
* without the program's sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    failures = []

    def check(what, ok):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    code, res = _run(["--seed", "7", "--seconds", "1", "--trace", "0"])
    check("untraced run exits 0", code == 0)
    check("untraced run passes every check",
          res["correct"] and res["failed"] == 0
          and res["metrics"]["passed_frac"]["value"] == 1.0)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, res = _run(["--seed", "8", "--seconds", "1", "--trace", "1"])
    check("traced run passes every check", code == 0 and res["correct"])
    names = {m["name"] for m in spec["per_layer"]}
    check("traced run reports exactly the per-layer metrics",
          set(res["metrics"]) == names)
    check("every layer has calls",
          all(v["value"] > 0 for k, v in res["metrics"].items()
              if k.endswith(".calls")))

    code, res = _run(["--seed", "7", "--seconds", "1", "--trace", "0",
                      "--inject-fault"])
    report = json.loads((BENCH / "out" / "report-tiny-seed7-trace0.json").read_text())
    check("a wrong expected value fails the run",
          code == 0 and not res["correct"] and res["failed"] > 0
          and res["metrics"]["passed_frac"]["value"] < 1.0
          and report["failed_frac"] > 0 and not report["timings_valid"])

    proc = subprocess.run(
        [sys.executable, "bench/runpass.py", "--workload", "tiny", "--seed", "7",
         "--mode", "pass", "--cap", "0.001"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    check("a pass past its cap fails its unfinished instances",
          rec["failed"] > 0 and all(
              e.startswith("cap of") for f in rec["failures"] for e in f["errors"]))

    bare = BENCH / "out" / "selftest-no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    code, res = _run(["--seed", "7", "--seconds", "1", "--trace", "0"], cwd=bare)
    check("without sources: non-zero exit, no result", code != 0 and res is None)
    shutil.rmtree(bare)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
