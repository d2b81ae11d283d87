"""Command line interface.

Subcommands:

* ``run``: evaluate a grid of (sampler, classifier) cells on one dataset
  with shared stratified folds and write a fixed set of report files.
  The work runs as tasks that each cover one sampler's folds, or a chunk
  of them; under ``--save-models`` a sampler's first task also covers its
  refit on the full dataset.  A task resamples each of its training sets
  once, every classifier of the sampler trains on that resampled set, and
  all the trees of the task, the refit's included, grow in one lockstep.
* ``gen-synth``: write a synthetic imbalanced dataset (CSV plus schema).
* ``featsel``: emit a gain-ratio ranking and a CFS subset report.
* ``rules``: print the rule list of a saved tree or ensemble model.

Every command is deterministic given its config and seed: reruns produce
byte-identical files, whatever ``--jobs`` is.  Tasks may run in parallel
worker processes; all report and model writing happens afterwards, single
threaded, in grid order.  Every CSV table a command writes is laid out by
one writer, `_csv`, and every metric cell has one format, six decimals.
Every file goes through `_write`, so a path that cannot be written ends
a command with one error line that names it.
"""

from __future__ import annotations

import numbers
import os
import re
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .clustering import ClusterModel
from .dataset import (
    DataError,
    Dataset,
    FoldSplit,
    imbalance_ratio,
    load_csv,
    save_schema,
    stratified_kfold,
    write_csv,
)
from .evaluation import (
    ClassifierSpec,
    CvResult,
    PipelineModel,
    SamplerSpec,
    SyntheticConfig,
    _is_a,
    _number_hint,
    _outcome,
    cv_result,
    gen_synthetic,
    run_sampler,
)
from .metrics import METRIC_COLUMNS, MetricsReport
from .seeds import derive_seed

# Not called here: the benchmark tracer (perfbench/tracer.py) patches these
# names on this module as well as on crus.evaluation, which calls them.
from .evaluation import fit_classifier, run_experiment  # noqa: F401
from .resampling import apply_clustering_rus, plan_cluster_partition  # noqa: F401
from .stats import ScoreMatrix, average_combined_loss, cd_diagram, compare_treatments, loss_vs_best
from .trees import DecisionTree, export_rules

# crus.feature_selection and crus.modelfile are imported where they are
# used, so a `crus run` without --save-models loads neither.

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")

_RUN_KEYS = {
    "dataset",
    "schema",
    "k_folds",
    "seed",
    "beta",
    "metrics",
    "comparison",
    "output",
    "samplers",
    "classifiers",
}
_COMPARISON_KEYS = {"alpha"}
_GEN_KEYS = {f.name for f in fields(SyntheticConfig)}
_FEATSEL_KEYS = {"dataset", "schema", "max_stale"}


class _Refusal(click.ClickException):
    """A config, data file or path the command cannot use.  Like a usage
    error it exits with 2, but it prints only its one `Error:` line: the
    usage text is for mistakes in the options (click.UsageError)."""

    exit_code = 2


def _fail(msg: str) -> None:
    raise _Refusal(msg)


def _load_yaml(path: Path, what: str) -> dict:
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        _fail(f"cannot read {what} {path}: {exc}")
    except yaml.YAMLError as exc:
        _fail(f"cannot parse {what} {path}: {exc}")
    if not isinstance(doc, dict):
        _fail(f"{what} {path} must be a key/value mapping")
    return doc


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        _fail(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _as_number(doc: dict, key: str, default: int | float, where: str) -> int | float:
    """doc[key], or `default` without it: an integer where the default is one, else a float."""
    v = doc.get(key, default)
    kind, what = (numbers.Integral, "an integer") if isinstance(default, int) else (numbers.Real, "a number")
    if not _is_a(v, kind):
        hint = _number_hint(v) if kind is numbers.Real else ""
        _fail(f"{where}: '{key}' must be {what}, got {v!r}{hint}")
    return v if kind is numbers.Integral else float(v)


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    schema: str
    dataset_path: Path
    schema_path: Path
    k_folds: int
    seed: int
    beta: float
    alpha: float
    metrics: tuple[str, ...]
    output: str | None
    samplers: tuple[tuple[str, SamplerSpec], ...]
    classifiers: tuple[tuple[str, ClassifierSpec], ...]


def _parse_grid(doc: dict, key: str, builder) -> tuple[tuple[str, object], ...]:
    """The named specs of a grid list; an entry's keys are `name` and the spec's fields."""
    allowed = {"name"} | {f.name for f in fields(builder)}
    entries = doc.get(key)
    if not isinstance(entries, list) or not entries:
        _fail(f"config: '{key}' must be a non-empty list")
    out = []
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        where = f"config: {key}[{i}]"
        if not isinstance(entry, dict):
            _fail(f"{where} must be a mapping")
        _check_keys(entry, allowed, where)
        name = entry.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            _fail(f"{where}: 'name' must match {_NAME_RE.pattern}")
        if name in seen:
            _fail(f"{where}: duplicate name '{name}'")
        seen.add(name)
        params = {k: v for k, v in entry.items() if k != "name"}
        try:
            spec = builder(**params)
        except (TypeError, ValueError) as exc:
            _fail(f"{where} ('{name}'): {exc}")
        out.append((name, spec))
    return tuple(out)


def load_run_config(path: Path, seed_override: int | None = None, alpha_override: float | None = None) -> RunConfig:
    doc = _load_yaml(path, "config")
    _check_keys(doc, _RUN_KEYS, "config")
    for req in ("dataset", "schema", "samplers", "classifiers"):
        if req not in doc:
            _fail(f"config: missing required key '{req}'")
    for key in ("dataset", "schema"):
        if not isinstance(doc[key], str) or not doc[key]:
            _fail(f"config: '{key}' must be a file path string")
    k_folds = _as_number(doc, "k_folds", 10, "config")
    if k_folds < 2:
        _fail(f"config: k_folds must be at least 2, got {k_folds}")
    seed = seed_override if seed_override is not None else _as_number(doc, "seed", 0, "config")
    if seed < 0:
        _fail(f"config: 'seed' must be nonnegative, got {seed}")
    beta = _as_number(doc, "beta", 1.0, "config")
    if not 0 < beta < float("inf"):
        _fail(f"config: 'beta' must be positive and finite, got {beta}")
    comparison = doc.get("comparison", {})
    if not isinstance(comparison, dict):
        _fail("config: 'comparison' must be a mapping")
    _check_keys(comparison, _COMPARISON_KEYS, "config: comparison")
    alpha = alpha_override if alpha_override is not None else _as_number(comparison, "alpha", 0.05, "config: comparison")
    if not 0 < alpha < 1:
        _fail(f"config: comparison alpha must be in (0, 1), got {alpha}")
    metrics = doc.get("metrics", ["g_mean", "op"])
    if not isinstance(metrics, list) or not metrics:
        _fail("config: 'metrics' must be a non-empty list")
    for m in metrics:
        if m not in METRIC_COLUMNS:
            _fail(f"config: unknown metric '{m}'; choices are {list(METRIC_COLUMNS)}")
    if len(set(metrics)) != len(metrics):
        _fail("config: 'metrics' contains duplicates")
    output = doc.get("output")
    if output is not None and (not isinstance(output, str) or not output):
        _fail("config: 'output' must be a directory path string")
    samplers = _parse_grid(doc, "samplers", SamplerSpec)
    classifiers = _parse_grid(doc, "classifiers", ClassifierSpec)
    base = path.parent
    dataset_path = (base / doc["dataset"]).resolve()
    schema_path = (base / doc["schema"]).resolve()
    for p in (dataset_path, schema_path):
        if not p.is_file():
            _fail(f"config: referenced file does not exist: {p}")
    return RunConfig(
        dataset=doc["dataset"],
        schema=doc["schema"],
        dataset_path=dataset_path,
        schema_path=schema_path,
        k_folds=k_folds,
        seed=seed,
        beta=beta,
        alpha=alpha,
        metrics=tuple(metrics),
        output=output,
        samplers=samplers,
        classifiers=tuple((n, c) for n, c in classifiers),
    )


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _metric_cells(report: MetricsReport) -> list[str]:
    """The report's METRIC_COLUMNS cells, in column order."""
    return [_fmt(getattr(report, c)) for c in METRIC_COLUMNS]


def _csv(header: list[str], rows) -> str:
    """CSV text: the header line, then one line per row of string cells."""
    return "".join(",".join(line) + "\n" for line in [header, *rows])


def _write(path: Path, content: str | Callable[[Path], None]) -> None:
    """Write content to path, making its directory first: text, or a
    function that writes the file at the path it is given.  An OSError is
    a refusal that names path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if callable(content):
            content(path)
        else:
            path.write_text(content, encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}")


class _Reports:
    """Accumulates report files so the manifest can list them."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.names: list[str] = []

    def write(self, rel_name: str, text: str) -> None:
        _write(self.out_dir / rel_name, text)
        self.names.append(rel_name)


def _folds_csv(cells, results) -> str:
    header = ["sampler", "classifier", "fold", "group", "n_test", "n_train", "n_synthetic_train",
              *METRIC_COLUMNS, "degenerate"]
    rows = (
        [s_name, c_name, str(fr.fold), fr.group, str(fr.truth.size),
         str(fr.train_indices.size + fr.n_synthetic_train), str(fr.n_synthetic_train),
         *_metric_cells(fr.report), ";".join(fr.report.degenerate)]
        for (s_name, c_name), res in zip(cells, results)
        for fr in res.folds
    )
    return _csv(header, rows)


def _p_matrix_csv(rep, field: str) -> str:
    """The treatments' pairwise p-values `field` ("p_raw" or "p_holm"); the diagonal is empty."""
    rows = (
        [a, *("" if i == j else f"{getattr(rep.pair(i, j), field):.6e}" for j in range(len(rep.treatments)))]
        for i, a in enumerate(rep.treatments)
    )
    return _csv(["", *rep.treatments], rows)


def _stats_text(rep) -> str:
    f = rep.friedman
    lines = [
        f"metric: {rep.metric}",
        f"alpha: {rep.alpha:g}",
        f"friedman_statistic: {f.statistic:.6f}",
        f"friedman_df: {f.df}",
        f"friedman_p: {f.p_value:.6e}",
        "average_ranks:",
    ]
    lines += [f"  {name}: {rank:.6f}" for name, rank in zip(rep.treatments, f.average_ranks)]
    lines.append("pairwise_wilcoxon (raw_p, holm_p, significant):")
    for pr in rep.pairwise:
        sig = "yes" if pr.p_holm < rep.alpha else "no"
        lines.append(
            f"  {rep.treatments[pr.i]} vs {rep.treatments[pr.j]}: {pr.p_raw:.6e}, {pr.p_holm:.6e}, {sig}"
        )
    lines.append("cliques (no significant difference within):")
    for clique in rep.cliques:
        lines.append("  {" + ", ".join(rep.treatments[t] for t in clique) + "}")
    return "\n".join(lines) + "\n"


def _loss_markdown(metrics, names, means, losses, combined) -> str:
    parts = ["# Percent loss vs best (fold-mean metrics)", ""]
    for m in metrics:
        parts.append(f"## {m}")
        parts.append("")
        parts.append("| treatment | mean | loss % |")
        parts.append("|---|---|---|")
        for t, name in enumerate(names):
            loss = losses[m][t] if losses[m] else None
            parts.append(f"| {name} | {means[m][t]:.6f} | {'' if loss is None else f'{loss:.2f}'} |")
        parts.append("")
    if combined:
        m1, m2 = metrics[0], metrics[1]
        parts.append(f"## combined ({m1} + {m2})")
        parts.append("")
        parts.append(f"| treatment | loss {m1} % | loss {m2} % | average |")
        parts.append("|---|---|---|---|")
        for t, name in enumerate(names):
            parts.append(f"| {name} | {losses[m1][t]:.2f} | {losses[m2][t]:.2f} | {combined[t]:.2f} |")
        parts.append("")
    return "\n".join(parts) + "\n"


def _model_files(cell_name: str, pipe: PipelineModel) -> list[tuple[str, str]]:
    """(file name, text) of each model file of one refit cell.

    A plain sampler gives `{cell}.json`; clustering_rus gives
    `{cell}.cluster.json` and one `{cell}.{group}.json` per group that has
    a model.
    """
    from .modelfile import model_to_text

    if pipe.partition is None:
        return [(f"{cell_name}.json", model_to_text(group.model)) for group in pipe.groups.values()]
    files = [(f"{cell_name}.cluster.json", model_to_text(pipe.partition.model))]
    files += [(f"{cell_name}.{name}.json", model_to_text(group.model)) for name, group in pipe.groups.items()]
    return files


def _save_cell_models(sampler_name: str, classifiers: tuple[tuple[str, ClassifierSpec], ...], pipes: list) -> list:
    """The model files of every cell of one sampler from its refit pipelines.

    Each classifier's entry is the list of (file name, text) of its cell's
    model files, or the DataError or ValueError that stopped its refit.
    The texts are made in the task, so a worker process returns strings
    rather than model objects, and the caller only writes them.
    """
    return [
        pipe if isinstance(pipe, ValueError) else _outcome(_model_files, f"{sampler_name}+{c_name}", pipe)
        for (c_name, _), pipe in zip(classifiers, pipes)
    ]


def _run_task(d: Dataset, split: FoldSplit, cfg: RunConfig, task: tuple[int, tuple[int, ...], bool]) -> tuple:
    """Run one task, (sampler index, folds, whether to refit).

    Returns one list of entries per fold (see run_sampler) and, for a
    refit, the model files per classifier (see _save_cell_models), else None.
    """
    s, folds, refit = task
    s_name, sampler = cfg.samplers[s]
    specs = [spec for _, spec in cfg.classifiers]
    runs, pipes = run_sampler(d, split, folds, specs, sampler, cfg.seed, cfg.beta, refit)
    return runs, None if pipes is None else _save_cell_models(s_name, cfg.classifiers, pipes)


def _fold_chunks(k_folds: int, n_samplers: int, workers: int) -> list[tuple[int, ...]]:
    """One sampler's folds in min(k_folds, ceil(workers / n_samplers))
    chunks of consecutive folds, so that the samplers' chunks fill the
    workers; one chunk when there are at least as many samplers."""
    n = min(k_folds, -(-workers // n_samplers))
    return [tuple(range(c * k_folds // n, (c + 1) * k_folds // n)) for c in range(n)]


_worker_args: tuple = ()  # (dataset, split, config), set in each pool worker by _init_worker


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _pool_task(task: tuple[int, tuple[int, ...], bool]) -> tuple:
    return _run_task(*_worker_args, task)


def _worker_count(jobs: int, n_tasks: int) -> int:
    """Worker processes to start: no more than asked for, than there are
    tasks, or than the cores this process may run on."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs, n_tasks, cores)


def _run_tasks(d: Dataset, split: FoldSplit, cfg: RunConfig, tasks: list, jobs: int) -> list:
    """Each task's result, in task order; in this process when one worker suffices."""
    workers = _worker_count(jobs, len(tasks))
    if workers == 1:
        return list(map(partial(_run_task, d, split, cfg), tasks))
    # imported here: the pool module costs a one-process run milliseconds of import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(d, split, cfg)) as ex:
        return list(ex.map(_pool_task, tasks))


@click.group()
@click.version_option(__version__, prog_name="crus")
def main() -> None:
    """Imbalance-aware evaluation toolkit: resampling, trees, ensembles."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="YAML run config.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path), default=None,
              help="Output directory (overrides the config's 'output').")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the config seed.")
@click.option("--alpha", type=float, default=None, help="Override the comparison alpha.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for the tasks: each sampler's folds, split into "
                   "chunks when there are fewer samplers than workers, the first of them "
                   "with the sampler's refit.")
@click.option("--save-models", is_flag=True,
              help="Also refit each cell on the full dataset and save the model files.")
def run(config_path: Path, out_dir: Path | None, seed: int | None, alpha: float | None,
        jobs: int, save_models: bool) -> None:
    """Evaluate a sampler x classifier grid with shared stratified folds."""
    if jobs < 1:
        raise click.UsageError(f"--jobs must be at least 1, got {jobs}")
    cfg = load_run_config(config_path, seed, alpha)
    if out_dir is None:
        if cfg.output is None:
            raise click.UsageError("no output directory: set 'output' in the config or pass --out")
        out_dir = config_path.parent / cfg.output
    try:
        d = load_csv(cfg.dataset_path, cfg.schema_path)
        split = stratified_kfold(d, cfg.k_folds, derive_seed(cfg.seed, "folds"))
    except (DataError, ValueError, OSError) as exc:
        _fail(f"cannot evaluate {cfg.dataset}: {exc}")
    smallest = len(d) - int(np.bincount(split.fold_of).max())  # the smallest training split
    fewest_minority = int(d.n_positive) - int(np.bincount(split.fold_of[d.labels == 1]).max(initial=0))
    for s_name, sampler in cfg.samplers:
        if sampler.method == "clustering_rus" and sampler.cluster_k > smallest:
            _fail(f"sampler '{s_name}': cluster_k {sampler.cluster_k} exceeds the {smallest} rows "
                  f"of the smallest training split")
        if sampler.method == "smote" and sampler.k_neighbors >= fewest_minority:
            _fail(f"sampler '{s_name}': k_neighbors {sampler.k_neighbors} is not below the {fewest_minority} "
                  f"minority rows of the smallest training split")
    # an output directory below a file fails here, as its first write would, before any fold runs
    existing = next(p for p in (out_dir, *out_dir.parents) if os.path.exists(p))
    if not os.path.isdir(existing):
        _fail(f"cannot write {out_dir / 'folds.csv'}: {existing} is not a directory")

    cells = [(s_name, c_name) for s_name, _ in cfg.samplers for c_name, _ in cfg.classifiers]
    names = [f"{s}+{c}" for s, c in cells]
    chunks = _fold_chunks(cfg.k_folds, len(cfg.samplers), _worker_count(jobs, len(cfg.samplers) * cfg.k_folds))
    # a sampler's refit grows with its first chunk of folds, the smallest, to even out the chunks
    tasks = [(s, chunk, save_models and c == 0) for s in range(len(cfg.samplers)) for c, chunk in enumerate(chunks)]
    outcomes = {}  # (sampler, fold) -> its classifiers' entries
    model_files = {}  # sampler -> its classifiers' model files, with --save-models
    for (s, folds, _), (runs, files) in zip(tasks, _run_tasks(d, split, cfg, tasks, jobs)):
        outcomes.update(((s, f), r) for f, r in zip(folds, runs))
        if files is not None:
            model_files[s] = files

    # cell i is (sampler s, classifier c) in grid order
    where = [divmod(i, len(cfg.classifiers)) for i in range(len(cells))]
    results: list[CvResult] = []
    for name, (s, c) in zip(names, where):
        runs = [outcomes[s, f][c] for f in range(cfg.k_folds)]
        for f, run in enumerate(runs):
            if isinstance(run, ValueError):
                raise click.ClickException(f"evaluation failed for cell {name}, fold {f}: {run}")
        results.append(cv_result(runs, cfg.beta))

    reports = _Reports(out_dir)
    reports.write("folds.csv", _folds_csv(cells, results))
    reports.write("summary.csv", _csv(
        ["sampler", "classifier", *(f"{kind}_{c}" for kind in ("mean", "pooled") for c in METRIC_COLUMNS)],
        ([s, c, *_metric_cells(res.mean), *_metric_cells(res.pooled)] for (s, c), res in zip(cells, results)),
    ))
    for s_name, _ in cfg.samplers:
        rows = ([c, *_metric_cells(res.mean)] for (s, c), res in zip(cells, results) if s == s_name)
        reports.write(f"table_{s_name}.csv", _csv(["classifier", *METRIC_COLUMNS], rows))

    run_warnings = [
        f"{name}: {w}" for name, res in zip(names, results) for w in res.warnings
    ]
    means = {m: [getattr(res.mean, m) for res in results] for m in cfg.metrics}
    losses: dict[str, list[float] | None] = {}
    for m in cfg.metrics:
        try:
            losses[m] = loss_vs_best(means[m])
        except ValueError:
            losses[m] = None
            run_warnings.append(f"loss_{m}: best mean value is not positive; losses omitted")
        rows = ([name, _fmt(v), "" if loss is None else _fmt(loss)]
                for name, v, loss in zip(names, means[m], losses[m] or [None] * len(names)))
        reports.write(f"loss_{m}.csv", _csv(["treatment", f"mean_{m}", "loss_pct"], rows))
    # the first two metrics' losses and their per-treatment average, when both exist
    pair = cfg.metrics[:2]
    combined = None
    if len(pair) == 2 and all(losses[m] for m in pair):
        first, second = (losses[m] for m in pair)
        combined = [average_combined_loss(a, b) for a, b in zip(first, second)]
        rows = ([name, _fmt(a), _fmt(b), _fmt(c)] for name, a, b, c in zip(names, first, second, combined))
        reports.write("loss_combined.csv",
                      _csv(["treatment", *(f"loss_{m}" for m in pair), "average_combined_loss"], rows))
    reports.write("loss.md", _loss_markdown(list(cfg.metrics), names, means, losses, combined))
    reports.write("tpr_tnr.csv", _csv(
        ["treatment", "tpr", "tnr"],
        ([name, _fmt(res.mean.tpr), _fmt(res.mean.tnr)] for name, res in zip(names, results)),
    ))

    comparisons = "written"
    if len(cells) >= 2:
        for m in cfg.metrics:
            values = np.array(
                [[getattr(res.fold_reports[b], m) for res in results] for b in range(cfg.k_folds)]
            )
            rep = compare_treatments(ScoreMatrix(values, tuple(names), metric=m), cfg.alpha)
            reports.write(f"stats_{m}.txt", _stats_text(rep))
            for kind in ("raw", "holm"):
                reports.write(f"pvalues_{m}_{kind}.csv", _p_matrix_csv(rep, f"p_{kind}"))
            cd = cd_diagram(rep)
            reports.write(f"cd_{m}.svg", cd.to_svg())
            reports.write(f"cd_{m}.txt", cd.to_text())
    else:
        comparisons = "skipped (fewer than 2 treatments)"

    if save_models:
        for name, (s, c) in zip(names, where):
            files = model_files[s][c]
            if isinstance(files, ValueError):
                raise click.ClickException(f"model refit failed for cell {name}: {files}")
            for file_name, text in files:
                reports.write(f"models/{file_name}", text)

    reports.write("warnings.txt", "".join(w + "\n" for w in run_warnings))
    manifest = {
        "tool": "crus",
        "version": __version__,
        "dataset": cfg.dataset,
        "schema": cfg.schema,
        "k_folds": cfg.k_folds,
        "seed": cfg.seed,
        "beta": cfg.beta,
        "alpha": cfg.alpha,
        "metrics": list(cfg.metrics),
        "comparisons": comparisons,
        "samplers": [{"name": n, **asdict(s)} for n, s in cfg.samplers],
        "classifiers": [{"name": n, **asdict(c)} for n, c in cfg.classifiers],
        "treatments": names,
        "outputs": sorted(reports.names + ["manifest.yaml"]),
    }
    _write(out_dir / "manifest.yaml", yaml.safe_dump(manifest, sort_keys=True))
    click.echo(f"evaluated {len(cells)} cells; wrote {len(reports.names) + 1} files")


@main.command("gen-synth")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              default=None, help="YAML generator config (all keys optional).")
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path),
              help="Output CSV path.")
@click.option("--schema-out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Schema path (default: CSV path with .schema.yaml).")
@click.option("--blob-out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Optional CSV mapping row index to ground-truth blob.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the generator seed.")
def gen_synth(config_path: Path | None, out: Path, schema_out: Path | None,
              blob_out: Path | None, seed: int | None) -> None:
    """Write a synthetic imbalanced dataset and its schema."""
    params: dict = {}
    if config_path is not None:
        doc = _load_yaml(config_path, "generator config")
        _check_keys(doc, _GEN_KEYS, "generator config")
        params.update(doc)
    for key in ("blob_sizes", "blob_irs"):
        if key in params:
            if not isinstance(params[key], list):
                _fail(f"generator config: '{key}' must be a list")
            params[key] = tuple(params[key])
    if seed is not None:
        params["seed"] = seed
    try:
        cfg = SyntheticConfig(**params)
    except (TypeError, ValueError) as exc:
        _fail(f"generator config: {exc}")
    data = gen_synthetic(cfg)
    _write(out, partial(write_csv, data.dataset))
    schema_path = schema_out if schema_out is not None else out.with_suffix(".schema.yaml")
    _write(schema_path, partial(save_schema, data.dataset.schema))
    if blob_out is not None:
        _write(blob_out, _csv(["row", "blob"], ([str(i), str(b)] for i, b in enumerate(data.blob_of))))
    for b, ir in enumerate(data.realized_irs):
        click.echo(f"blob {b}: size {cfg.blob_sizes[b]}, imbalance ratio {ir:.4f}")
    click.echo(f"global imbalance ratio: {imbalance_ratio(data.dataset):.4f}")
    click.echo(f"wrote {out} and {schema_path}")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="YAML with 'dataset' and 'schema' paths (optional 'max_stale').")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path),
              help="Output directory.")
def featsel(config_path: Path, out_dir: Path) -> None:
    """Write a gain-ratio ranking and a CFS subset report."""
    from .feature_selection import cfs_best_first, gain_ratio_rank

    doc = _load_yaml(config_path, "config")
    _check_keys(doc, _FEATSEL_KEYS, "config")
    for req in ("dataset", "schema"):
        if req not in doc or not isinstance(doc[req], str):
            _fail(f"config: missing file path '{req}'")
    max_stale = _as_number(doc, "max_stale", 5, "config")
    base = config_path.parent
    try:
        d = load_csv((base / doc["dataset"]).resolve(), (base / doc["schema"]).resolve())
        ranks = gain_ratio_rank(d)
        cfs = cfs_best_first(d, max_stale=max_stale)
    except (DataError, ValueError, OSError) as exc:
        _fail(f"feature selection failed: {exc}")
    rows = ([str(i + 1), r.name, _fmt(r.score)] for i, r in enumerate(ranks))
    _write(out_dir / "gain_ratio_ranking.csv", _csv(["rank", "attribute", "gain_ratio"], rows))
    cfs_text = (
        f"selected: {', '.join(cfs.names)}\n"
        f"merit: {cfs.merit:.6f}\n"
        f"subsets_evaluated: {cfs.n_evaluated}\n"
    )
    _write(out_dir / "cfs_subset.txt", cfs_text)
    click.echo(f"top attribute: {ranks[0].name} ({ranks[0].score:.6f})")
    click.echo(f"cfs selected {len(cfs.selected)} attributes, merit {cfs.merit:.6f}")


@main.command()
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Saved tree or ensemble JSON.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Write the rules here instead of stdout.")
def rules(model_path: Path, out_path: Path | None) -> None:
    """Print the decision rules of a saved model."""
    from .modelfile import model_from_text

    try:
        model = model_from_text(model_path.read_text(encoding="utf-8"))
    except KeyError as exc:
        _fail(f"cannot read model {model_path}: missing key {exc}")
    except (OSError, TypeError, ValueError) as exc:
        _fail(f"cannot read model {model_path}: {exc}")
    if isinstance(model, ClusterModel):
        _fail(f"{model_path} is not a saved tree or ensemble model")
    if isinstance(model, DecisionTree):
        text = "\n".join(export_rules(model)) + "\n"
    else:
        parts = []
        for i, (member, w) in enumerate(zip(model.members, model.member_weights)):
            parts.append(f"member {i} (weight {w:g}):")
            parts += ["  " + r for r in export_rules(member)]
        text = "\n".join(parts) + "\n"
    if out_path is not None:
        _write(out_path, text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)
