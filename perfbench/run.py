"""jobfraud benchmark: closed-loop workloads over the package's public API.

    python3 perfbench/run.py --workload train --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50     # every workload

Run it from the root of a source checkout; it imports the package from
``src/`` there and from nowhere else. The inputs are synthetic postings
files written by ``jobfraud.synth`` from the seeds given here; the program
sees only those CSV files and the run configuration. One process does all
the work, one operation at a time, with one BLAS thread.

Workloads (see perfbench/README.md for why each exists):

* ``train``: operations cycle through ``train_pipeline`` plus ``save`` for
  the BiLSTM, the random forest, the depth-wise and the leaf-wise GBM.
* ``score``: operations cycle through ``jobfraud predict`` (in process,
  ``cli.run_cli``) on each of the four bundles.

Within the same measured window each run also performs, a fixed number of
times, the operations the other workload repeats, so every end-to-end
metric is measured on every workload. Score trains the bundles it scores
once before that window, outside every metric. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` the
run wraps the package's functions in spans and reports the per-layer
metrics instead. A report line with machine facts, seeds, sizes and the
raw samples precedes it.
"""

import argparse
import csv
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "score")
MODEL_KINDS = ("bilstm", "random_forest", "gbm", "leafwise_gbm")
TREE_KINDS = tracing.TREE_KINDS
# Units of the other workload's operations each run performs, spread
# between its own cycles, so every end-to-end metric is measured on every
# workload: "bilstm" is one BiLSTM fit, "trees" one fit of each tree
# learner, "predict" one predict per bundle.
COVER = {
    "train": ("predict",) * 6,
    "score": ("trees", "trees", "bilstm", "trees", "trees"),
}
# Half the rows fake, so the 20% test split holds enough of each class for
# a test AUC that moves little from seed to seed.
FRAUD_RATE = 0.5
# A 3-epoch budget (patience 2 must stay below it) with a step large
# enough that the BiLSTM is trained, not left near its initial weights.
BILSTM_TRAIN = {"max_epochs": 3, "patience": 2, "learning_rate": 0.01}
N_TREES = 20  # n_trees / n_rounds of every tree learner
SCORE_ROWS = 300  # rows of the CSV that predict reads
SETUP_REPS = 15  # set-ups timed per run; setup_s is their median
SHORT = {"bilstm": "bilstm", "random_forest": "rf", "gbm": "gbm", "leafwise_gbm": "lgbt"}

END_TO_END = {
    "setup_s": "s",
    "bilstm_train_rows_per_s": "1/s",
    "rf_train_s": "s",
    "gbm_train_s": "s",
    "lgbt_train_s": "s",
    "bilstm_score_rows_per_s": "1/s",
    "rf_score_rows_per_s": "1/s",
    "gbm_score_rows_per_s": "1/s",
    "lgbt_score_rows_per_s": "1/s",
    "bilstm_test_auc": "auc",
    "rf_test_auc": "auc",
    "gbm_test_auc": "auc",
    "lgbt_test_auc": "auc",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, broken set-up)."""


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=7,
                   help="synth seed of the training fixture (default 7)")
    p.add_argument("--score-seed", type=int, default=None,
                   help="synth seed of the CSV that score reads (default: --seed + 1)")
    p.add_argument("--model-seed", type=int, default=42,
                   help="RunConfig.seed: split, weight init, bootstraps (default 42)")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measured time; the operations the run needs always run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, default=300,
                   help="rows in the training fixture")
    args = p.parse_args(argv)
    if args.score_seed is None:
        args.score_seed = args.seed + 1
    if args.score_seed == args.seed:
        p.error("--score-seed must differ from --seed")
    return args


# --------------------------------------------------------------------------
# Program and machine
# --------------------------------------------------------------------------

def import_package():
    """The jobfraud package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "jobfraud" / "__init__.py").is_file():
        raise BenchError(f"no jobfraud sources under {src}")
    sys.path.insert(0, str(src))
    import jobfraud
    # loads every submodule as an attribute of the package (jf.cli, jf.forests, ...)
    from jobfraud import (bilstm, bundle, cli, config, features, forests,
                          ingest, metrics, ndgrad, pipeline, synth, trainer)
    if Path(jobfraud.__file__).resolve().parent != (src / "jobfraud").resolve():
        raise BenchError(f"imported jobfraud from {jobfraud.__file__}, not from {src}")
    return jobfraud


def _blas_threads():
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_facts() -> dict:
    import numpy as np

    cpu_model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

class Bench:
    """One workload run: inputs, operations, their checks and samples."""

    def __init__(self, jf, args, work: Path, tracer, speedometer):
        self.jf = jf
        self.args = args
        self.work = work
        self.tracer = tracer
        self.speed = speedometer
        self.attempted = 0
        self.failed = 0
        self.samples = {name: [] for name in END_TO_END}
        self.raw_samples = {name: [] for name in END_TO_END}
        self.op_seconds = {}  # (operation, traced) -> [seconds]
        self.loop_ops = 0
        self.last_seconds = {}
        self.fingerprints = {}
        self.reference = {}
        self.auc = {}
        self.bundle_sizes = {}
        self.train_csv = work / "train.csv"
        self.score_csv = work / "score.csv"
        self.bundles = {kind: work / f"bundle-{SHORT[kind]}" for kind in MODEL_KINDS}
        jf.synth.write_fixture(self.train_csv, args.rows, args.seed, FRAUD_RATE)
        jf.synth.write_fixture(self.score_csv, SCORE_ROWS, args.score_seed, FRAUD_RATE)
        c = jf.config
        self.cfg = c.RunConfig(
            seed=args.model_seed,
            train=c.TrainSection(**BILSTM_TRAIN),
            random_forest=c.RandomForestSection(n_trees=N_TREES),
            gbm=c.GbmSection(n_rounds=N_TREES),
            leafwise_gbm=c.LeafwiseSection(n_rounds=N_TREES),
        )
        self.dataset = self.prepared = self.score_postings = None

    # -- bookkeeping ---------------------------------------------------------

    def run_op(self, name, phase, fn, traced=True):
        """Run one operation; an exception or a failed check counts as a
        failure and is reported, never dropped. Returns the seconds the
        operation reports, or None when it failed. Each operation starts
        with no garbage left by the ones before it, so a collection of
        their cycles does not land in its time."""
        self.attempted += 1
        gc.collect()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracing.install(tracer, self.jf)
            root = tracer.begin(name, phase=phase)
        try:
            seconds, problem = fn()
        except Exception:
            seconds, problem = None, traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.finish(root)
                tracer.unpatch_all()
        if problem:
            self.failed += 1
            print(f"FAILED {name}: {problem}", file=sys.stderr)
            return None
        self.op_seconds.setdefault((name, traced), []).append(seconds)
        return seconds

    def essential(self, name, fn):
        """A step outside the metrics that the rest of the run depends on."""
        def step():
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0, None

        if self.run_op(name, "cover", step) is None:
            raise BenchError(f"{name} failed; the run cannot continue")

    def record(self, metric, t0, t1, value=lambda seconds: seconds) -> float:
        """Add value(seconds) of the operation that ran from t0 to t1 to
        `metric`, with seconds scaled to the nominal machine speed; the raw
        value goes to the report. Returns the scaled seconds."""
        seconds = (t1 - t0) * self.speed.scale(t0, t1)
        self.samples[metric].append(value(seconds))
        self.raw_samples[metric].append(value(t1 - t0))
        return seconds

    # -- set-up --------------------------------------------------------------

    def setup_training(self):
        t0 = time.perf_counter()
        dataset = self.jf.ingest.load_dataset(self.train_csv)
        prepared = self.jf.pipeline.prepare(dataset, self.cfg, kinds=MODEL_KINDS)
        seconds = self.record("setup_s", t0, time.perf_counter())
        self.dataset, self.prepared = dataset, prepared
        return seconds, None

    def setup_score(self):
        t0 = time.perf_counter()
        pipes = [self.jf.pipeline.DetectionPipeline.load(self.bundles[k]) for k in MODEL_KINDS]
        seconds = self.record("setup_s", t0, time.perf_counter())
        kinds = [p.kind for p in pipes]
        return seconds, None if kinds == list(MODEL_KINDS) else f"loaded kinds {kinds}"

    def load_inputs(self):
        """The dataset prepared for every model kind, and the postings to score."""
        if self.prepared is None:
            self.dataset = self.jf.ingest.load_dataset(self.train_csv)
            self.prepared = self.jf.pipeline.prepare(self.dataset, self.cfg, kinds=MODEL_KINDS)
        self.score_postings = self.jf.ingest.load_dataset(self.score_csv).postings

    # -- operations ----------------------------------------------------------

    def train(self, kind, prepared, record):
        """train_pipeline + save; repeats must reproduce the first bundle bit
        for bit. Adds a sample to the kind's training metric if `record`."""
        t0 = time.perf_counter()
        pipe = self.jf.pipeline.train_pipeline(self.dataset, self.cfg, kind, prepared=prepared)
        pipe.save(self.bundles[kind])
        t1 = time.perf_counter()
        manifest = (self.bundles[kind] / "manifest.json").read_bytes()
        blob = (self.bundles[kind] / "weights.bin").read_bytes()
        fingerprint = (zlib.crc32(manifest), zlib.crc32(blob))
        if kind not in self.fingerprints:
            self.fingerprints[kind] = fingerprint
            self.auc[kind] = pipe.test_metrics.auroc
            self.bundle_sizes[kind] = (len(manifest), len(blob))
            self.pending_reference = pipe
        elif fingerprint != self.fingerprints[kind]:
            return t1 - t0, f"{kind} bundle differs from the first one trained with the same seed"
        if not record:
            return t1 - t0, None
        if kind == "bilstm":
            rows = len(prepared.splits.train) * pipe.history.stopped_epoch
            seconds = self.record("bilstm_train_rows_per_s", t0, t1, lambda s: rows / s)
        else:
            seconds = self.record(f"{SHORT[kind]}_train_s", t0, t1)
        return seconds, None

    def train_op(self, kind, phase, prepared, traced=True, record=True):
        self.pending_reference = None
        seconds = self.run_op(f"op.train.{kind}", phase,
                              lambda: self.train(kind, prepared, record), traced)
        if seconds is not None and self.pending_reference is not None:
            pipe = self.pending_reference
            self.essential(f"reference.{kind}", lambda: self._keep_reference(kind, pipe))
        return seconds

    def _keep_reference(self, kind, pipe):
        scores = pipe.predict_scores(self.score_postings)
        self.reference[kind] = (
            [f"{s:.6f}" for s in scores],
            ["1" if s >= pipe.cfg.threshold else "0" for s in scores],
        )

    def predict(self, kind):
        """One in-process ``jobfraud predict``; the output must match the
        in-memory pipeline's scores to the six decimals written."""
        out = self.work / f"scored-{SHORT[kind]}.csv"
        argv = ["predict", "--model", str(self.bundles[kind]),
                "--input", str(self.score_csv), "--out", str(out)]
        t0 = time.perf_counter()
        code = self.jf.cli.run_cli(argv)
        t1 = time.perf_counter()
        if code != 0:
            return t1 - t0, f"predict exited with {code}"
        problem = self._check_scored(kind, out)
        if problem is not None:
            return t1 - t0, problem
        metric = f"{SHORT[kind]}_score_rows_per_s"
        return self.record(metric, t0, t1, lambda s: SCORE_ROWS / s), None

    def _check_scored(self, kind, out):
        with open(self.score_csv, encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh))
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != header + ["probability", "predicted_label"]:
            return f"unexpected output header {rows[0]}"
        rows = rows[1:]
        if len(rows) != SCORE_ROWS:
            return f"{len(rows)} output rows for {SCORE_ROWS} input records"
        expected_p, expected_label = self.reference[kind]
        for i, row in enumerate(rows):
            p, label = row[-2], row[-1]
            if not 0.0 <= float(p) <= 1.0:
                return f"row {i + 1}: probability {p} outside [0, 1]"
            if p != expected_p[i]:
                return f"row {i + 1}: probability {p}, in-memory pipeline gave {expected_p[i]}"
            if label != expected_label[i]:
                return f"row {i + 1}: predicted_label {label} disagrees with probability {p}"
        return None

    def tree_nodes(self) -> int:
        """Nodes of the trees in the tree bundles, counted in the nested JSON
        of their manifests."""
        def count(node):
            return 1 + sum(count(node[side]) for side in ("left", "right") if side in node)

        total = 0
        for kind in TREE_KINDS:
            manifest = (self.bundles[kind] / "manifest.json").read_text(encoding="utf-8")
            total += sum(count(tree) for tree in json.loads(manifest)["ensemble"]["trees"])
        return total

    def predict_op(self, kind, phase, traced=True):
        return self.run_op(f"op.predict.{kind}", phase, lambda: self.predict(kind), traced)

    # -- the timed loop ------------------------------------------------------

    def loop(self, cycle, op, deadline=None, cycles=None):
        """Closed loop over `cycle`: the next operation starts when the last
        one ends. Runs `cycles` whole cycles if given; otherwise runs until
        `deadline`, skipping each operation that would, by the last time of
        its kind, end after it, so the short operations fill the end of the
        window, and stops when no operation of the cycle fits. A traced run
        alternates untraced and traced cycles, which gives the tracing
        overhead, and runs at least one of each."""
        min_ops = (2 if self.tracer is not None else 1) * len(cycle)
        done = skipped = 0
        while cycles is None or done < cycles * len(cycle):
            kind = cycle[self.loop_ops % len(cycle)]
            traced = self.tracer is not None and (self.loop_ops // len(cycle)) % 2 == 1
            self.loop_ops += 1
            if (cycles is None and self.loop_ops > min_ops
                    and time.perf_counter() + self.last_seconds.get(kind, 0.0) > deadline):
                skipped += 1
                if skipped == len(cycle):
                    return
                continue
            skipped = 0
            t0 = time.perf_counter()
            op(kind, traced)
            self.last_seconds[kind] = time.perf_counter() - t0
            done += 1

    def mix(self, cycle, op, cover, deadline):
        """One own cycle, then each cover unit in turn, each followed by
        another own cycle while the time left, by the last durations seen,
        still holds the cover units to come; then own cycles until the
        deadline."""
        seen = {}
        t0 = time.perf_counter()
        self.loop(cycle, op, cycles=1)
        own_s = time.perf_counter() - t0
        for i, (name, unit) in enumerate(cover):
            t0 = time.perf_counter()
            unit()
            seen[name] = time.perf_counter() - t0
            left = sum(seen.get(n, 0.0) for n, _ in cover[i + 1:])
            if cover[i + 1:] and time.perf_counter() + own_s + left <= deadline:
                t0 = time.perf_counter()
                self.loop(cycle, op, cycles=1)
                own_s = time.perf_counter() - t0
        self.loop(cycle, op, deadline=deadline)

    def overhead_ratio(self) -> float:
        """Traced over untraced median time of the loop's operations."""
        traced = untraced = 0.0
        for name in {n for n, _ in self.op_seconds}:
            on, off = self.op_seconds.get((name, True)), self.op_seconds.get((name, False))
            if on and off:
                traced += statistics.median(on)
                untraced += statistics.median(off)
        return traced / untraced


def run_workload(bench: Bench, workload: str) -> float:
    """Set-up (on score also the first training of the four bundles), then
    --seconds of operations: the workload's own cycle in a closed loop,
    with the COVER[workload] units spread between its cycles. Returns the
    measured seconds."""
    args = bench.args
    train = lambda kind, phase, traced=True: bench.train_op(kind, phase, bench.prepared, traced)
    units = {
        "bilstm": lambda: train("bilstm", "cover"),
        "trees": lambda: [train(k, "cover") for k in TREE_KINDS],
        "predict": lambda: [bench.predict_op(k, "cover") for k in MODEL_KINDS],
    }
    if workload == "train":
        for _ in range(SETUP_REPS):
            bench.run_op("setup", "own", bench.setup_training)
        bench.essential("cover.inputs", bench.load_inputs)
        own = lambda k, t: train(k, "own", t)
    else:
        bench.essential("cover.inputs", bench.load_inputs)
        # the bundles to score, trained before the measured window and
        # recorded in no metric
        for kind in MODEL_KINDS:
            bench.train_op(kind, "cover", bench.prepared, record=False)
        for _ in range(SETUP_REPS):
            bench.run_op("setup", "own", bench.setup_score)
        own = lambda k, t: bench.predict_op(k, "own", t)
    start = time.perf_counter()
    cover = [(name, units[name]) for name in COVER[workload]]
    bench.mix(MODEL_KINDS, own, cover, deadline=start + args.seconds)
    return time.perf_counter() - start


def end_to_end(bench: Bench) -> dict:
    values = {}
    for name, unit in END_TO_END.items():
        if name.endswith("_test_auc"):
            kind = next(k for k, s in SHORT.items() if name == f"{s}_test_auc")
            values[name] = bench.auc[kind]
        elif name == "peak_rss_mb":
            values[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            if not bench.samples[name]:
                raise BenchError(f"no successful operation measured {name}")
            values[name] = statistics.median(bench.samples[name])
    return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}


def run_one(args) -> int:
    # One CPU and one BLAS thread for the whole process, set before numpy
    # loads, so the speedometer thread measures the CPU the work runs on.
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["MKL_NUM_THREADS"] = "1"
    jf = import_package()
    facts = {"nproc": len(allowed), "pinned_cpu": cpu, **machine_facts()}
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        with speed.Speedometer() as speedometer:
            bench = Bench(jf, args, work, tracer, speedometer)
            extra = {"measured_s": run_workload(bench, args.workload)}
        extra["reference_loop_mean_s"] = speedometer.mean_loop_s()
        e2e = end_to_end(bench)
        if tracer is not None:
            metrics, extra["missing_layers"] = tracing.layer_metrics(tracer, {
                "forests.tree_nodes": bench.tree_nodes,
                "bundle.manifest_bytes": lambda: sum(m for m, _ in bench.bundle_sizes.values()),
                "bundle.blob_bytes": lambda: sum(b for _, b in bench.bundle_sizes.values()),
                "trace.overhead_ratio": bench.overhead_ratio,
            })
            extra["skipped_trace_points"] = sorted(tracer.skipped)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            extra["trace_file"] = str(trace_path.relative_to(ROOT))
            extra["self_s_by_span"] = {k: round(v, 6) for k, v in
                                       list(tracer.self_time_by_name().items())[:15]}
            extra["traced_end_to_end"] = {k: v["value"] for k, v in e2e.items()}
        else:
            metrics = e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "workload": args.workload,
        "facts": facts,
        "seeds": {"fixture": args.seed, "score": args.score_seed, "model": args.model_seed},
        "sizes": {"rows": args.rows, "score_rows": SCORE_ROWS, "fraud_rate": FRAUD_RATE,
                  "bilstm": BILSTM_TRAIN, "n_trees": N_TREES, "n_rounds": N_TREES,
                  "setup_reps": SETUP_REPS, "seconds": args.seconds},
        "error_rate": bench.failed / bench.attempted,
        "samples": {k: v for k, v in bench.samples.items() if v},
        "raw_samples": {k: v for k, v in bench.raw_samples.items() if v},
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(argv) -> int:
    """Each workload in its own process, one after the other; prints every
    metric by name with its unit, then one JSON line of all results."""
    results = {}
    for workload in WORKLOADS:
        # the last --workload on the command line wins
        cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--workload", workload]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            print(f"{workload}: exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        print(f"# {workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"error_rate {result['failed'] / result['attempted']:g}, correct {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"{workload:13s} {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(argv)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
