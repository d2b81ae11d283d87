"""Run `crus run` in this process with spans around each module's public calls.

Usage: python3 perfbench/tracer.py SPANS_JSON -- CRUS_RUN_ARGS...

The crus package is imported from PYTHONPATH.  Each public function of a
layer is wrapped under the name its caller looks it up by (for example
`crus.ensembles.fit_tree`, not `crus.trees.fit_tree`), so a call is traced
once, at the boundary between two modules.  Spans are kept in memory and
written to SPANS_JSON when the run ends.  A span is
{"name", "parent", "start", "end"} plus the counts its call produced;
"parent" is the index of the enclosing span, or -1 for the root.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn recording a span; count(args, kwargs, result) -> dict of counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1] if stack else -1}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec.update(count(args, kwargs, result))
            return result

        return traced

    def counter(self, fn, count):
        """Return fn adding its counts to the enclosing span, without a span of its own."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec = spans[stack[-1]]
            for key, v in count(args, kwargs, result).items():
                rec[key] = rec.get(key, 0) + v
            return result

        return counted


def _arg(args, kwargs, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def _smote_counts(args, kwargs, out):
    d = _arg(args, kwargs, 0, "d")
    added = len(out) - len(d)
    m = int((d.labels == 1).sum())
    # the m x m float64 minority distance matrix, computed only when rows are added
    return {"synthetic_rows": added, "dist_bytes": 8 * m * m if added else 0}


def _ensemble_counts(args, kwargs, out):
    counts = {"members": len(out.members)}
    if out.method == "adaboost":
        counts["rounds_requested"] = _arg(args, kwargs, 1, "cfg").resolve_members(default=10)
    return counts


def install(tracer: Tracer) -> None:
    """Patch the crus names callers look up.  Span names are `<layer>.<call>`."""
    import crus.cli as cli
    import crus.clustering as clustering
    import crus.ensembles as ensembles
    import crus.evaluation as evaluation
    import crus.metrics as metrics
    import crus.resampling as resampling
    import crus.trees as trees

    def patch(owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    patch(cli, "load_csv", "dataset.load_csv")
    for owner in (cli, evaluation):
        patch(owner, "stratified_kfold", "dataset.stratified_kfold")

    patch(resampling, "kmeans_fit", "clustering.kmeans_fit", lambda a, k, out: {"iters": out.n_iter})
    patch(clustering.ClusterModel, "assign", "clustering.assign")

    patch(evaluation, "smote_oversample", "resampling.smote", _smote_counts)
    patch(evaluation, "rus_undersample", "resampling.rus")
    for owner in (cli, evaluation):
        patch(owner, "plan_cluster_partition", "resampling.plan_partition",
              lambda a, k, out: {"flagged": sum(out.flagged)})
        patch(owner, "apply_clustering_rus", "resampling.apply_clustering_rus")
        owner.fit_classifier = tracer.counter(
            owner.fit_classifier, lambda a, k, out: {"train_rows": len(_arg(a, k, 0, "train"))}
        )

    for owner in (evaluation, ensembles, trees):
        patch(owner, "fit_tree", "trees.fit_tree", lambda a, k, out: {"nodes": out.n_nodes()})
    patch(trees.DecisionTree, "predict_batch", "trees.predict_batch",
          lambda a, k, out: {"rows": len(out[0])})

    for fit in ("fit_bagging", "fit_random_forest", "fit_adaboost", "fit_random_committee"):
        patch(evaluation, fit, "ensembles.fit", _ensemble_counts)
    patch(ensembles.EnsembleModel, "predict_batch", "ensembles.predict_batch")

    patch(evaluation, "compute_report", "metrics.compute_report",
          lambda a, k, out: {"records": len(_arg(a, k, 0, "truth"))})
    patch(metrics, "auc_roc", "metrics.auc_roc")

    patch(cli, "compare_treatments", "stats.compare_treatments")
    patch(cli, "cd_diagram", "stats.cd_diagram")

    patch(cli, "run_experiment", "evaluation.run_experiment",
          lambda a, k, out: {"folds": len(out.fold_reports)})

    patch(cli, "_save_cell_models", "cli.save_models")
    cli.run.callback = tracer.wrap("cli.run", cli.run.callback)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    import click

    import crus.cli

    tracer = Tracer()
    install(tracer)
    try:
        crus.cli.main(args=argv[2:], prog_name="crus", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
