"""The pinned `crus run` workloads of the benchmark.

Every workload draws its data from `crus gen-synth` with 6 numeric and 2
nominal attributes and noise 1.0.  The workload seed picks the generator
seed and the run-config seed of each dataset; the program sees only the
generated CSV, schema and config.

The sizes are scaled down from the shapes they stand for (a 2k-row README
grid, a 60k-row wide run) so that one `crus run` takes a few seconds on a
2-core machine and a benchmark run collects twenty or more samples.  Each
keeps its shape: which layers dominate and how many cells the pool can
spread over.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1
# Never used while tuning the benchmark or writing a change; re-check
# a claim on it with `--heldout`.
HELDOUT_SEED = 7919

# Datasets generated per run.  Runs cycle over them, two at least on each.
# About as many as fit two runs each in 55 s, because the inputs' run times
# differ more than one input's repeats do.
DATASETS_PER_RUN = 9

GEN_COMMON = {"n_numeric": 6, "n_nominal": 2, "noise": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blob_sizes: tuple[int, ...]
    blob_irs: tuple[float, ...]
    samplers: tuple[dict, ...]
    classifiers: tuple[dict, ...]
    jobs: int
    save_models: bool = False
    k_folds: int = 5
    # the clustering_rus cell whose pooled G-mean and OP are reported
    crus_cell: tuple[str, str] = ("crus", "forest")

    @property
    def cells(self) -> int:
        return len(self.samplers) * len(self.classifiers)

    @property
    def rows(self) -> int:
        return sum(self.blob_sizes)

    def gen_config(self) -> dict:
        return {"blob_sizes": list(self.blob_sizes), "blob_irs": list(self.blob_irs), **GEN_COMMON}

    def run_config(self, seed: int) -> dict:
        return {
            "dataset": "data.csv",
            "schema": "data.schema.yaml",
            "k_folds": self.k_folds,
            "seed": seed,
            "samplers": [dict(s) for s in self.samplers],
            "classifiers": [dict(c) for c in self.classifiers],
        }

    def crus_args(self, config: str, out: str, jobs: int | None = None) -> list[str]:
        args = ["run", "--config", config, "--out", out, "--jobs", str(self.jobs if jobs is None else jobs)]
        if self.save_models:
            args.append("--save-models")
        return args


def dataset_seed(seed: int, i: int) -> int:
    """Generator and run-config seed of the i-th dataset of a run."""
    return seed * 16 + i


_CRUS = {"name": "crus", "method": "clustering_rus", "cluster_k": 2, "threshold": 10, "spread": 4.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid12",
            why="the README grid of 4 samplers x 3 classifiers users run: tree growth dominates, "
                "12 cells fill both cores, --save-models adds the refit and model writes",
            blob_sizes=(60, 340),
            blob_irs=(2, 20),
            samplers=(
                {"name": "none", "method": "none"},
                {"name": "rus", "method": "rus", "spread": 4.0},
                {"name": "smote", "method": "smote", "percentage": 200, "k_neighbors": 5},
                _CRUS,
            ),
            classifiers=(
                {"name": "tree", "method": "tree"},
                {"name": "forest", "method": "random_forest", "n_members": 4},
                {"name": "boost", "method": "adaboost", "n_members": 3},
            ),
            jobs=2,
            save_models=True,
        ),
        Workload(
            name="wide",
            why="many rows, small trees, --jobs 1: CSV parsing, k-means, the SMOTE distance matrix "
                "and AUC take half the time; bypasses tree work, shows memory, the single-process baseline",
            blob_sizes=(1000, 2000, 3000),
            blob_irs=(3, 10, 40),
            samplers=(
                {"name": "none", "method": "none"},
                {"name": "smote", "method": "smote", "percentage": 100, "k_neighbors": 5},
                {**_CRUS, "cluster_k": 3},
            ),
            classifiers=({"name": "tree", "method": "tree", "min_leaf_weight": 20},),
            jobs=1,
            crus_cell=("crus", "tree"),
        ),
    )
}

# Tiny versions of every workload, same grids, for the smoke test.
SMOKE = {
    "grid12": {"blob_sizes": (40, 160)},
    "wide": {"blob_sizes": (150, 300, 450)},
}
