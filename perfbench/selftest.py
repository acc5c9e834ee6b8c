"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload it makes one untraced and two traced runs on a 60-row
fixture, and checks that:

* each run exits 0 and ends with the result object: exactly the keys
  correct, attempted, failed and metrics, no failed operation, and every
  metric of BENCHMARK.json by name and unit, each a positive finite number;
* the exact counters repeat between the two traced runs;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Everything it writes stays under .perfbench/ in the checkout.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
TINY = ["--seed", "3", "--seconds", "0", "--rows", "60"]
EXACT_COUNTERS = (
    "ndgrad.tape_nodes_per_batch",
    "forests.best_split_calls",
    "forests.tree_nodes",
    "ingest.records",
    "ingest.parse_calls",
)
TIMEOUT_S = 180


def check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def run(cwd: Path, script: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S, check=False)


def result_of(workload: str, trace: int, declared: dict) -> dict:
    done = run(ROOT, RUN, "--workload", workload, "--trace", str(trace), *TINY)
    where = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{where}: {done.stderr[-3000:]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, where)
    metrics = result["metrics"]
    check(set(metrics) == set(declared), f"{where}: metrics differ: {set(metrics) ^ set(declared)}")
    for name, m in metrics.items():
        check(set(m) == {"value", "unit"}, f"{where}: {name} has keys {set(m)}")
        check(m["unit"] == declared[name], f"{where}: {name} unit {m['unit']} != {declared[name]}")
        value = m["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value) and value > 0,
              f"{where}: {name} = {value!r}")
    return metrics


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, bare / "perfbench" / "run.py", "--workload", "score", *TINY)
        check(done.returncode != 0, "ran without the program's sources")
        check('"metrics"' not in done.stdout, "printed a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        result_of(workload, 0, end_to_end)
        first = result_of(workload, 1, per_layer)
        second = result_of(workload, 1, per_layer)
        for name in EXACT_COUNTERS:
            a, b = first[name]["value"], second[name]["value"]
            check(a == b, f"{workload}: {name} changed between runs: {a} vs {b}")
        print(f"ok {workload}: " + ", ".join(f"{n}={first[n]['value']:g}" for n in EXACT_COUNTERS))
    check_refuses_without_program()
    print("ok: refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
