"""Benchmark of `crus run` on pinned synthetic workloads.

    python3 perfbench/run.py --workload grid12 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --all       # every workload, both modes; writes perfbench/baseline.json
    python3 perfbench/run.py --smoke     # tiny versions of every workload, in seconds

Run it from anywhere inside a source checkout; `crus` is imported from the
checkout's `src/` and from nowhere else.  Work files go to `.perfbench/`.

`--trace 0` times whole `crus run` processes from outside, tracing off, and
prints the end-to-end metrics.  `--trace 1` runs the workload again in
process at `--jobs 1` under perfbench/tracer.py and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

A run fails when crus exits non-zero, when a file its manifest lists is
missing, or when its report set is not byte-identical to the first run on
the same dataset in this invocation.  error_rate is failed / attempted.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from workloads import DATASETS_PER_RUN, DEFAULT_SEED, HELDOUT_SEED, SMOKE, WORKLOADS, Workload, dataset_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
TRACER = HERE / "tracer.py"
# Start no new crus run after this many seconds, so the benchmark ends within 180 s.
HARD_LIMIT_S = 150.0
NPROC = len(os.sched_getaffinity(0))

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_s_tail", "s"),
    ("folds_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("g_mean_crus", "ratio"),
    ("op_crus", "ratio"),
]

PER_LAYER = [
    ("dataset.load_csv.s", "s"),
    ("dataset.load_csv.calls", "count"),
    ("dataset.load_csv.useful_ratio", "ratio"),
    ("dataset.stratified_kfold.s", "s"),
    ("clustering.kmeans_fit.s", "s"),
    ("clustering.kmeans_fit.calls", "count"),
    ("clustering.kmeans.iters", "count"),
    ("clustering.assign.s", "s"),
    ("resampling.smote.s", "s"),
    ("resampling.smote.synthetic_rows", "count"),
    ("resampling.smote.dist_bytes", "bytes"),
    ("resampling.rus.s", "s"),
    ("resampling.plan_partition.s", "s"),
    ("resampling.apply_clustering_rus.s", "s"),
    ("resampling.train_rows", "count"),
    ("resampling.flagged_clusters", "count"),
    ("trees.fit_tree.s", "s"),
    ("trees.fit_tree.calls", "count"),
    ("trees.nodes", "count"),
    ("trees.ms_per_node", "ms"),
    ("trees.predict_batch.s", "s"),
    ("trees.predict_rows", "count"),
    ("ensembles.fit.s", "s"),
    ("ensembles.members", "count"),
    ("ensembles.adaboost.rounds_ratio", "ratio"),
    ("ensembles.predict_batch.s", "s"),
    ("metrics.compute_report.s", "s"),
    ("metrics.compute_report.calls", "count"),
    ("metrics.auc_roc.s", "s"),
    ("metrics.records", "count"),
    ("stats.compare_treatments.s", "s"),
    ("stats.cd_diagram.s", "s"),
    ("evaluation.run_experiment.s", "s"),
    ("evaluation.cells", "count"),
    ("evaluation.folds", "count"),
    ("cli.self.s", "s"),
    ("cli.files_written", "count"),
    ("cli.bytes_written", "bytes"),
    ("cli.save_models.s", "s"),
    ("cli.model_bytes", "bytes"),
    ("cli.core_util", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.outside_s", "s"),
    ("trace.accounted_share", "ratio"),
    ("trace.unsteady_counts", "count"),
]
UNITS = dict(END_TO_END + PER_LAYER)
# Counts that must repeat exactly between traced runs of one input.
EXACT = [name for name, unit in PER_LAYER if unit in ("count", "bytes") and name != "trace.unsteady_counts"]

# Span name -> the metric its self time (duration minus child spans) goes to.
# Together with trace.outside_s these account for the traced wall time.
SELF_TIME = {
    "dataset.load_csv": "dataset.load_csv.s",
    "dataset.stratified_kfold": "dataset.stratified_kfold.s",
    "clustering.kmeans_fit": "clustering.kmeans_fit.s",
    "clustering.assign": "clustering.assign.s",
    "resampling.smote": "resampling.smote.s",
    "resampling.rus": "resampling.rus.s",
    "resampling.plan_partition": "resampling.plan_partition.s",
    "resampling.apply_clustering_rus": "resampling.apply_clustering_rus.s",
    "trees.fit_tree": "trees.fit_tree.s",
    "trees.predict_batch": "trees.predict_batch.s",
    "ensembles.fit": "ensembles.fit.s",
    "ensembles.predict_batch": "ensembles.predict_batch.s",
    "metrics.compute_report": "metrics.compute_report.s",
    "metrics.auc_roc": "metrics.auc_roc.s",
    "stats.compare_treatments": "stats.compare_treatments.s",
    "stats.cd_diagram": "stats.cd_diagram.s",
    "evaluation.run_experiment": "evaluation.run_experiment.s",
    "cli.run": "cli.self.s",
    "cli.save_models": "cli.self.s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Proc:
    wall: float
    cpu: float      # user + sys of the process and every child it waited for
    rss_mb: float   # largest max-RSS of any process in that tree
    code: int


@dataclass
class Data:
    dir: Path
    seed: int
    gen_output: list[str]
    digest: str | None = None
    crus_cell: tuple[float, float] | None = None  # pooled (g_mean, op)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def report_digest(out: Path) -> str:
    """sha256 over the relative path and content of every file of a report set."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def read_crus_cell(w: Workload, out: Path) -> tuple[float, float]:
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != w.cells:
        raise BenchError(f"summary.csv has {len(rows)} cells, expected {w.cells}")
    for row in rows:
        if (row["sampler"], row["classifier"]) == w.crus_cell:
            g, op = float(row["pooled_g_mean"]), float(row["pooled_op"])
            if not (0.0 < g <= 1.0 and 0.0 < op <= 1.0):
                raise BenchError(f"crus cell has G-mean {g} and OP {op}, outside (0, 1]")
            return g, op
    raise BenchError(f"summary.csv has no {'+'.join(w.crus_cell)} cell")


def check_nesting(spans: list[dict]) -> str | None:
    """None when the spans form one tree rooted at cli.run, each inside its parent
    and after its previous sibling; otherwise what is wrong."""
    if not spans or spans[0]["parent"] != -1 or spans[0]["name"] != "cli.run":
        return "the first span is not a cli.run root"
    last_child_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        p = s["parent"]
        if s["start"] > s["end"]:
            return f"span {i} ({s['name']}) ends before it starts"
        if i == 0:
            continue
        if not 0 <= p < i:
            return f"span {i} ({s['name']}) has parent {p}"
        q = spans[p]
        if not (q["start"] <= s["start"] and s["end"] <= q["end"]):
            return f"span {i} ({s['name']}) is not inside its parent {q['name']}"
        if s["start"] < last_child_end.get(p, -math.inf):
            return f"span {i} ({s['name']}) overlaps its previous sibling"
        last_child_end[p] = s["end"]
    return None


def layer_metrics(spans: list[dict], out: Path, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run from its spans and its report directory."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    dur = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            covered[s["parent"]] += d
    for s, d, c in zip(spans, dur, covered):
        if s["name"] not in SELF_TIME:
            raise BenchError(f"span {s['name']} has no self-time metric")
        m[SELF_TIME[s["name"]]] += d - c
    calls = Counter(s["name"] for s in spans)

    def total(key: str) -> int:
        return sum(s.get(key, 0) for s in spans)

    m["dataset.load_csv.calls"] = calls["dataset.load_csv"]
    m["dataset.load_csv.useful_ratio"] = 1.0 / calls["dataset.load_csv"]
    m["clustering.kmeans_fit.calls"] = calls["clustering.kmeans_fit"]
    m["clustering.kmeans.iters"] = total("iters")
    m["resampling.smote.synthetic_rows"] = total("synthetic_rows")
    m["resampling.smote.dist_bytes"] = total("dist_bytes")
    m["resampling.train_rows"] = total("train_rows")
    m["resampling.flagged_clusters"] = total("flagged")
    m["trees.fit_tree.calls"] = calls["trees.fit_tree"]
    m["trees.nodes"] = total("nodes")
    m["trees.predict_rows"] = total("rows")
    m["ensembles.members"] = total("members")
    boosts = [s for s in spans if "rounds_requested" in s]
    if boosts:
        m["ensembles.adaboost.rounds_ratio"] = sum(s["members"] for s in boosts) / sum(
            s["rounds_requested"] for s in boosts
        )
    m["metrics.compute_report.calls"] = calls["metrics.compute_report"]
    m["metrics.records"] = total("records")
    m["evaluation.cells"] = calls["evaluation.run_experiment"]
    m["evaluation.folds"] = total("folds")
    m["cli.save_models.s"] = sum((d for s, d in zip(spans, dur) if s["name"] == "cli.save_models"), 0.0)
    files = [p for p in out.rglob("*") if p.is_file()]
    m["cli.files_written"] = len(files)
    m["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    m["cli.model_bytes"] = sum(p.stat().st_size for p in files if p.parent.name == "models")
    m["trace.run_s"] = wall
    m["trace.outside_s"] = wall - dur[0]
    m["trace.accounted_share"] = sum(m[k] for k in set(SELF_TIME.values())) / wall
    return m


def nearest_rank_tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest nearest-rank percentile of the
    samples with at least ten samples beyond it; the maximum below 11 samples."""
    v = sorted(values)
    rank = len(v) - 10 if len(v) > 10 else len(v)
    return v[rank - 1], 100.0 * rank / len(v), len(v)


class Bench:
    """One workload in one work directory: runs children and counts failures."""

    def __init__(self, w: Workload, work: Path, started: float) -> None:
        self.w = w
        self.work = work
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}

    def child(self, cmd: list[str], cwd: Path, log: Path) -> Proc:
        limit = max(5.0, HARD_LIMIT_S + 20.0 - (time.perf_counter() - self.started))
        t0 = time.perf_counter()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                                    start_new_session=True)
        killer = threading.Timer(limit, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode)

    def setup(self, seed: int, i: int) -> tuple[float, Data]:
        """Generate dataset i of the run; returns the set-up wall seconds."""
        d = self.work / f"data{i}"
        d.mkdir(parents=True)
        s = dataset_seed(seed, i)
        t0 = time.perf_counter()
        (d / "gen.yaml").write_text(json.dumps(self.w.gen_config()), encoding="utf-8")
        p = self.child([sys.executable, "-m", "crus", "gen-synth", "--config", "gen.yaml",
                        "--out", "data.csv", "--seed", str(s)], d, d / "gen.log")
        (d / "run.yaml").write_text(json.dumps(self.w.run_config(s)), encoding="utf-8")
        took = time.perf_counter() - t0
        log = (d / "gen.log").read_text(encoding="utf-8", errors="replace")
        if p.code != 0:
            raise BenchError(f"crus gen-synth exited with {p.code}:\n{log}")
        return took, Data(d, s, [ln for ln in log.splitlines() if "imbalance ratio" in ln])

    def crus_run(self, data: Data, jobs: int | None = None, spans: Path | None = None) -> Proc | None:
        """One `crus run` on a dataset, checked; None when it failed."""
        out = data.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = self.w.crus_args("run.yaml", "out", jobs)
        if spans is None:
            cmd = [sys.executable, "-m", "crus", *args]
        else:
            cmd = [sys.executable, str(TRACER), str(spans), "--", *args]
        self.attempted += 1
        p = self.child(cmd, data.dir, data.dir / "run.log")
        problem = self._check(p, data, out)
        if problem is None:
            return p
        self.failed += 1
        self.problems.append(f"{self.w.name} dataset seed {data.seed}: {problem}")
        return None

    def _check(self, p: Proc, data: Data, out: Path) -> str | None:
        import yaml

        if p.code != 0:
            tail = (data.dir / "run.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            return f"crus exited with {p.code}:\n{tail}"
        try:
            manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
            missing = [n for n in manifest["outputs"] if not (out / n).is_file()]
        except (OSError, yaml.YAMLError, KeyError, TypeError) as exc:
            return f"unreadable manifest.yaml: {exc}"
        if missing:
            return f"files listed in manifest.yaml are missing: {missing}"
        digest = report_digest(out)
        if data.digest is None:
            try:
                data.crus_cell = read_crus_cell(self.w, out)
            except (BenchError, OSError, KeyError, ValueError) as exc:
                return str(exc)
            data.digest = digest
        elif digest != data.digest:
            return f"report set {digest[:12]} differs from the first run's {data.digest[:12]}"
        return None

    def time_left(self, estimate: float) -> bool:
        return time.perf_counter() - self.started + estimate < HARD_LIMIT_S

    def repeat(self, seconds: float, min_count: int, step) -> None:
        """Call step(i) at least min_count times, then while another call fits in seconds."""
        t0 = time.perf_counter()
        took: list[float] = []
        while len(took) < min_count or (
            time.perf_counter() - t0 + statistics.median(took) <= seconds
            and self.time_left(statistics.median(took))
        ):
            t = time.perf_counter()
            step(len(took))
            took.append(time.perf_counter() - t)


@dataclass
class Result:
    metrics: dict[str, float]
    notes: list[str]
    info: dict


def end_to_end(b: Bench, seed: int, seconds: float, n_datasets: int) -> Result:
    setups, datasets = zip(*(b.setup(seed, i) for i in range(n_datasets)))
    runs: list[list[Proc]] = [[] for _ in datasets]

    def step(i: int) -> None:
        p = b.crus_run(datasets[i % len(datasets)])
        if p is not None:
            runs[i % len(datasets)].append(p)

    # Two runs at least on each dataset: the second checks the first's report set.
    b.repeat(seconds, 2 * len(datasets), step)
    scored = [d.crus_cell for d in datasets if d.crus_cell is not None]
    if not all(runs) or len(scored) < len(datasets):
        raise BenchError("no successful run on some dataset:\n" + "\n".join(b.problems))

    def per_dataset(key: str) -> float:
        """Mean over the datasets of each one's median, so every input weighs the
        same however many runs fitted on it."""
        return statistics.fmean(statistics.median(getattr(p, key) for p in done) for done in runs)

    run_s = per_dataset("wall")
    tail, pct, n = nearest_rank_tail([p.wall for done in runs for p in done])
    w = b.w
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "run_s_tail": tail,
        "folds_per_s": w.cells * w.k_folds / run_s,
        "cpu_s": per_dataset("cpu"),
        "peak_rss_mb": per_dataset("rss_mb"),
        "g_mean_crus": statistics.fmean(g for g, _ in scored),
        "op_crus": statistics.fmean(op for _, op in scored),
    }
    notes = [
        f"run_s: mean over {len(datasets)} datasets of each one's median {run_s:.4f} s, "
        f"p{pct:.0f} {tail:.4f} s ({n} samples; the highest percentile with at least ten beyond it)",
        f"set-up: median of {len(setups)} gen-synth runs; "
        f"g_mean_crus, op_crus: mean over {len(datasets)} datasets of {'+'.join(w.crus_cell)}",
    ]
    for d in datasets:
        notes.append(f"dataset seed {d.seed}: report set sha256 {d.digest}; " + "; ".join(d.gen_output))
    info = {
        "samples": n,
        "run_s_tail_percentile": pct,
        "report_sha256": {str(d.seed): d.digest for d in datasets},
        "gen_synth_output": {str(d.seed): d.gen_output for d in datasets},
    }
    return Result(metrics, notes, info)


def traced(b: Bench, seed: int, seconds: float) -> Result:
    """Untraced runs at the workload's --jobs and at --jobs 1, then traced runs, in cycles."""
    _, data = b.setup(seed, 0)
    plain: list[Proc] = []
    serial: list[Proc] = []
    layers: list[dict[str, float]] = []

    def step(i: int) -> None:
        p = b.crus_run(data)
        if p is not None:
            plain.append(p)
        if b.w.jobs != 1:
            p = b.crus_run(data, jobs=1)
            if p is not None:
                serial.append(p)
        for _ in range(2 if i == 0 else 1):  # two traced runs at least, to compare their counts
            spans_path = b.work / f"spans{len(layers)}.json"
            p = b.crus_run(data, jobs=1, spans=spans_path)
            if p is None:
                continue
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            problem = check_nesting(spans)
            if problem is not None:
                b.failed += 1
                b.problems.append(f"{b.w.name}: traced spans do not nest: {problem}")
                continue
            layers.append(layer_metrics(spans, data.dir / "out", p.wall))

    b.repeat(seconds, 1, step)
    if b.w.jobs == 1:
        serial = plain
    if not plain or not serial or len(layers) < 2:
        raise BenchError("too few successful runs to report per-layer metrics:\n" + "\n".join(b.problems))
    m = {name: statistics.median(run[name] for run in layers) for name, _ in PER_LAYER}
    notes = []
    unsteady = []
    for name in EXACT:
        values = [run[name] for run in layers]
        m[name] = values[0]
        if len(set(values)) > 1:
            unsteady.append(name)
            notes.append(f"UNSTEADY count {name}: {values}")
    m["trace.unsteady_counts"] = len(unsteady)
    if m["trees.nodes"]:
        m["trees.ms_per_node"] = 1000.0 * m["trees.fit_tree.s"] / m["trees.nodes"]
    plain_wall = statistics.median(p.wall for p in plain)
    m["cli.core_util"] = statistics.median(p.cpu for p in plain) / (plain_wall * min(b.w.jobs, NPROC))
    m["trace.overhead_s"] = m["trace.run_s"] - statistics.median(p.wall for p in serial)
    notes.append(
        f"{len(layers)} traced runs at --jobs 1 on dataset seed {data.seed}; times are medians, "
        f"counts the first run's; layer self times account for {100 * m['trace.accounted_share']:.1f}% "
        f"of the traced wall time, interpreter start-up and exit for the rest"
    )
    info = {"traced_runs": len(layers), "unsteady_counts": unsteady}
    return Result(m, notes, info)


def emit(name: str, correct: bool, b: Bench, result: Result, final: bool = True) -> None:
    for note in result.notes:
        print(f"{name}: {note}")
    for problem in b.problems:
        print(f"{name}: FAILED {problem}")
    for key, value in result.metrics.items():
        print(f"{name}: {key} = {value:.6g} {UNITS[key]}")
    doc = {
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in result.metrics.items()},
    }
    if not final:
        doc = {"workload": name, **doc}
    print(json.dumps(doc), flush=True)


def run_mode(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
             n_datasets: int = DATASETS_PER_RUN) -> tuple[Bench, Result]:
    b = Bench(w, work, time.perf_counter())
    if trace:
        return b, traced(b, seed, seconds)
    return b, end_to_end(b, seed, seconds, n_datasets)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": NPROC,
        "nproc_dependence": "grid12 runs at --jobs 2: its run_s, folds_per_s and "
                            "cli.core_util depend on the core count; wide runs at --jobs 1",
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "caches": "the sandbox cannot drop the page cache or pin CPUs, so CSV reads are warm "
                  "and runs share cores with other tenants",
        "per_layer": "per-layer numbers come from traced runs of the workloads themselves, not "
                     "fixed-size micro-benchmarks, so each ties to an end-to-end metric",
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload in both modes, write baseline.json")
    mode.add_argument("--smoke", action="store_true", help="tiny versions of every workload")
    ap.add_argument("--seed", type=int, default=None, help=f"workload seed (default {DEFAULT_SEED})")
    ap.add_argument("--heldout", action="store_true", help=f"use the held-out seed {HELDOUT_SEED}")
    ap.add_argument("--seconds", type=float, default=55.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.heldout and args.seed is not None:
        ap.error("give --seed or --heldout, not both")
    seed = HELDOUT_SEED if args.heldout else DEFAULT_SEED if args.seed is None else args.seed
    if not (SRC / "crus" / "cli.py").is_file():
        print(f"perfbench: no crus sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    if args.workload:
        work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
        try:
            b, result = run_mode(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace), work)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        emit(args.workload, b.failed == 0, b, result)
        return 0

    if args.smoke:
        ok = True
        for name, w in WORKLOADS.items():
            small = replace(w, **SMOKE[name])
            work = WORK_ROOT / "smoke" / name
            shutil.rmtree(work, ignore_errors=True)
            try:
                b, e2e = run_mode(small, seed, 0.0, False, work / "e2e", n_datasets=1)
                bt, layers = run_mode(small, seed, 0.0, True, work / "trace")
            except BenchError as exc:
                print(f"perfbench: {name}: {exc}", file=sys.stderr)
                return 1
            b.attempted += bt.attempted
            b.failed += bt.failed
            b.problems += bt.problems
            merged = Result({**e2e.metrics, **layers.metrics}, e2e.notes + layers.notes, {})
            emit(name, b.failed == 0, b, merged, final=False)
            ok = ok and b.failed == 0
        return 0 if ok else 1

    baseline = {"environment": environment(), "seed": seed, "seconds": args.seconds, "workloads": {}}
    for name, w in WORKLOADS.items():
        entry = {
            "why": w.why,
            "rows": w.rows,
            "blob_sizes": list(w.blob_sizes),
            "blob_irs": list(w.blob_irs),
            "samplers": [dict(s) for s in w.samplers],
            "classifiers": [dict(c) for c in w.classifiers],
            "k_folds": w.k_folds,
            "jobs": w.jobs,
            "save_models": w.save_models,
        }
        for trace in (False, True):
            work = WORK_ROOT / f"all-{name}-{int(trace)}-{os.getpid()}"
            try:
                b, result = run_mode(w, seed, args.seconds, trace, work)
            except BenchError as exc:
                print(f"perfbench: {name}: {exc}", file=sys.stderr)
                return 1
            finally:
                shutil.rmtree(work, ignore_errors=True)
            emit(name, b.failed == 0, b, result, final=False)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: {"value": v, "unit": UNITS[k]} for k, v in result.metrics.items()}
            entry[f"{key}_runs"] = {"attempted": b.attempted, "failed": b.failed,
                                    "error_rate": b.failed / b.attempted, **result.info}
        baseline["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
