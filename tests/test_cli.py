from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import crus.resampling as resampling
from crus.cli import _fold_chunks, _worker_count, main
from crus.dataset import (
    NOMINAL,
    NUMERIC,
    AttributeSpec,
    Dataset,
    DatasetSchema,
    load_csv,
    save_schema,
    stratified_kfold,
    write_csv,
)
from crus.ensembles import EnsembleConfig, fit_bagging
from crus.evaluation import ClassifierSpec, SamplerSpec, SyntheticConfig, gen_synthetic, run_sampler
from crus.modelfile import model_to_text
from crus.seeds import derive_seed
from crus.trees import DecisionTree, TreeConfig, fit_tree


@pytest.fixture
def runner():
    return CliRunner()


def write_dataset(tmp_path, cfg=None):
    data = gen_synthetic(cfg or SyntheticConfig(blob_sizes=(60, 90), blob_irs=(2.0, 5.0), seed=3))
    csv_path = tmp_path / "data.csv"
    schema_path = tmp_path / "data.schema.yaml"
    write_csv(data.dataset, csv_path)
    save_schema(data.dataset.schema, schema_path)
    return csv_path, schema_path


def write_run_config(tmp_path, **overrides):
    doc = {
        "dataset": "data.csv",
        "schema": "data.schema.yaml",
        "k_folds": 3,
        "seed": 5,
        "metrics": ["g_mean", "op"],
        "samplers": [
            {"name": "none", "method": "none"},
            {"name": "rus", "method": "rus", "spread": 2.0},
        ],
        "classifiers": [
            {"name": "tree", "method": "tree"},
            {"name": "bag", "method": "bagging", "n_members": 3},
        ],
    }
    doc.update(overrides)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def read_tree(out_dir):
    return {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def test_run_smoke_writes_report_set(tmp_path, runner):
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    expected = {
        "folds.csv",
        "summary.csv",
        "table_none.csv",
        "table_rus.csv",
        "loss_g_mean.csv",
        "loss_op.csv",
        "loss_combined.csv",
        "loss.md",
        "tpr_tnr.csv",
        "stats_g_mean.txt",
        "stats_op.txt",
        "pvalues_g_mean_raw.csv",
        "pvalues_g_mean_holm.csv",
        "pvalues_op_raw.csv",
        "pvalues_op_holm.csv",
        "cd_g_mean.svg",
        "cd_g_mean.txt",
        "cd_op.svg",
        "cd_op.txt",
        "warnings.txt",
        "manifest.yaml",
    }
    present = {p.name for p in out.iterdir()}
    assert expected <= present
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("sampler,classifier,")
    assert len(summary) == 5  # header + 2x2 grid
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["treatments"] == ["none+tree", "none+bag", "rus+tree", "rus+bag"]
    assert sorted(manifest["outputs"]) == manifest["outputs"]


def test_run_rerun_is_byte_identical(tmp_path, runner):
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    a = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    b = runner.invoke(
        main, ["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--jobs", "2"]
    )
    assert a.exit_code == 0 and b.exit_code == 0, a.output + b.output
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_run_save_models_emits_model_files(tmp_path, runner):
    write_dataset(tmp_path)
    cfg = write_run_config(
        tmp_path,
        samplers=[
            {"name": "crus", "method": "clustering_rus", "threshold": 3.0, "cluster_k": 2},
        ],
        classifiers=[{"name": "tree", "method": "tree"}],
    )
    result = runner.invoke(
        main,
        ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--save-models"],
    )
    assert result.exit_code == 0, result.output
    models = tmp_path / "out" / "models"
    assert (models / "crus+tree.cluster.json").is_file()
    group_files = sorted(p.name for p in models.glob("crus+tree.*_IR_group.json"))
    assert group_files


def test_run_clusters_each_fold_once_for_all_classifiers(tmp_path, runner, monkeypatch):
    """Every classifier of a sampler shares its fold partitions and its refit partition."""
    calls = []
    real = resampling.kmeans_fit

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(resampling, "kmeans_fit", counted)
    write_dataset(tmp_path)
    cfg = write_run_config(
        tmp_path,
        samplers=[
            {"name": "none", "method": "none"},
            {"name": "crus", "method": "clustering_rus", "threshold": 3.0, "cluster_k": 2},
            {"name": "crus_inv", "method": "clustering_rus", "threshold": 3.0, "policy": "invert"},
        ],
        classifiers=[
            {"name": "tree", "method": "tree"},
            {"name": "bag", "method": "bagging", "n_members": 3},
            {"name": "forest", "method": "random_forest", "n_members": 3},
        ],
    )
    args = ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "1", "--save-models"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    k_folds = 3
    assert len(calls) == 2 * (k_folds + 1)
    # each sampler's full-data partition follows its folds'
    assert [len(d) == 150 for d in calls] == ([False] * k_folds + [True]) * 2


def test_run_grows_each_refit_in_its_samplers_lockstep(tmp_path, runner, monkeypatch):
    """With --save-models a sampler's refit grows with its folds: fewer
    scoring calls than its folds and its refit grown apart, and the same
    nodes scored."""
    import crus.trees as trees

    scored = []  # the nodes of each scoring call
    real = trees._gain_ratios

    def counted(d, columns, idx, w, sizes, *args):
        scored.append(len(sizes))
        return real(d, columns, idx, w, sizes, *args)

    monkeypatch.setattr(trees, "_gain_ratios", counted)
    csv_path, schema_path = write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    args = ["run", "--config", str(cfg), "--jobs", "1", "--out"]
    assert runner.invoke(main, [*args, str(tmp_path / "together"), "--save-models"]).exit_code == 0
    together = list(scored)

    scored.clear()
    assert runner.invoke(main, [*args, str(tmp_path / "folds")]).exit_code == 0
    d = load_csv(csv_path, schema_path)
    split = stratified_kfold(d, 3, derive_seed(5, "folds"))
    classifiers = [ClassifierSpec("tree"), ClassifierSpec("bagging", n_members=3)]
    for sampler in (SamplerSpec("none"), SamplerSpec("rus", spread=2.0)):
        run_sampler(d, split, [], classifiers, sampler, seed=5, refit=True)
    assert len(together) < len(scored)
    assert sum(together) == sum(scored)


def test_run_saves_models_in_one_task_per_sampler(tmp_path, runner, monkeypatch):
    """A grid whose samplers fill the workers runs one task per sampler,
    its folds and its refit, with --save-models."""
    import crus.cli as cli

    tasks = []
    real = cli._run_tasks

    def recorded(d, split, cfg, sampler_tasks, jobs):
        tasks.append(list(sampler_tasks))
        return real(d, split, cfg, sampler_tasks, jobs)

    monkeypatch.setattr(cli, "_run_tasks", recorded)
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out), "--jobs", "2", "--save-models"])
    assert result.exit_code == 0, result.output
    assert len(tasks) == 1 and len(tasks[0]) == 2
    assert sorted(p.name for p in (out / "models").iterdir()) == [
        "none+bag.json", "none+tree.json", "rus+bag.json", "rus+tree.json"
    ]


def test_run_failure_names_cell_and_fold_at_any_jobs(tmp_path, runner, monkeypatch):
    """A fit refused on every training set with synthetic rows fails the
    smote cells in every fold; the first failing cell in grid order is
    named, at fold 0.  Forked workers inherit the patch."""
    import crus.evaluation as evaluation

    real = evaluation.classifier_requests

    def requests(d, idx, spec, seed):
        if (d.row_ids[idx] < 0).any():
            raise ValueError("synthetic rows refused")
        return real(d, idx, spec, seed)

    monkeypatch.setattr(evaluation, "classifier_requests", requests)
    write_dataset(tmp_path)
    cfg = write_run_config(
        tmp_path,
        samplers=[
            {"name": "none", "method": "none"},
            {"name": "smote", "method": "smote", "percentage": 100.0, "k_neighbors": 3},
        ],
    )
    messages = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs, "--save-models"]
        )
        assert result.exit_code == 1
        assert not out.exists()
        messages.append(result.output)
    assert messages[0] == messages[1]
    assert messages[0] == "Error: evaluation failed for cell smote+tree, fold 0: synthetic rows refused\n"


def test_run_failure_of_one_classifier_names_its_cell(tmp_path, runner, monkeypatch):
    import crus.evaluation as evaluation

    real = evaluation.classifier_requests

    def requests(d, idx, spec, seed):
        if spec.method == "bagging":
            raise ValueError("bagging refused")
        return real(d, idx, spec, seed)

    monkeypatch.setattr(evaluation, "classifier_requests", requests)
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output == "Error: evaluation failed for cell none+bag, fold 0: bagging refused\n"


def test_run_refit_failure_names_its_cell_after_the_reports(tmp_path, runner, monkeypatch):
    import crus.modelfile as modelfile

    def text(model):
        if not isinstance(model, DecisionTree):
            raise ValueError("ensemble refused")
        return model_to_text(model)

    monkeypatch.setattr(modelfile, "model_to_text", text)
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out), "--save-models"])
    assert result.exit_code == 1
    assert result.output == "Error: model refit failed for cell none+bag: ensemble refused\n"
    assert (out / "summary.csv").is_file() and (out / "models" / "none+tree.json").is_file()
    assert not (out / "manifest.yaml").exists()


def test_worker_count_is_capped_by_tasks_and_cores():
    cores = len(os.sched_getaffinity(0))
    assert _worker_count(1000, 24) == min(24, cores)
    assert _worker_count(1000, 1) == 1
    assert _worker_count(1, 24) == 1


def run_probe(probe: str, env: dict[str, str] | None = None) -> str:
    """The last line a fresh interpreter prints running probe with crus
    imported from this checkout, in env (default: this process's)."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_run_at_one_job_never_imports_the_process_pool(tmp_path):
    write_dataset(tmp_path)
    config = write_run_config(tmp_path)
    probe = (
        "import sys\n"
        "from crus.cli import main\n"
        f"main(args=['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}, '--jobs', '1'],"
        " standalone_mode=False)\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    assert run_probe(probe) == "False"
    assert (tmp_path / "out").is_dir()


# `python -m crus` and the console script `crus` (crus.__main__:main)
ENTRY_POINTS = [
    "import runpy; runpy.run_module('crus', run_name='__main__', alter_sys=True)",
    "from crus.__main__ import main; main()",
]


def version_probe(entry: str) -> str:
    """A probe that runs `crus --version` through entry, then prints the
    process's thread count (Linux) and its OPENBLAS_NUM_THREADS."""
    return (
        "import os, sys\n"
        "sys.argv = ['crus', '--version']\n"
        "try:\n"
        f"    {entry}\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=["python -m crus", "console script"])
def test_the_crus_program_runs_one_thread(entry):
    """numpy's OpenBLAS would start a thread per extra core."""
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS reads the first one set
    env = {k: v for k, v in os.environ.items() if k not in blas}
    assert run_probe(version_probe(entry), env) == "1 1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=["python -m crus", "console script"])
def test_the_crus_program_keeps_the_users_blas_threads(entry):
    assert run_probe(version_probe(entry), {**os.environ, "OPENBLAS_NUM_THREADS": "3"}).split()[1] == "3"


def test_fold_chunks_cover_every_fold_once():
    for k_folds in (2, 3, 5, 10):
        for n_samplers in (1, 2, 3, 4, 7):
            for workers in (1, 2, 3, 4, 8, 16):
                chunks = _fold_chunks(k_folds, n_samplers, workers)
                assert len(chunks) == min(k_folds, math.ceil(workers / n_samplers))
                assert all(chunks) and [f for chunk in chunks for f in chunk] == list(range(k_folds))


def test_run_one_cell_grid_in_fold_chunks_is_byte_identical(tmp_path, runner, monkeypatch):
    """A one-cell grid at --jobs 2 runs as several fold chunks, whose
    reports and models equal those of the one-task run."""
    import crus.cli as cli

    chunkings = []
    real = cli._fold_chunks

    def chunks(*args):
        chunkings.append(real(*args))
        return chunkings[-1]

    monkeypatch.setattr(cli, "_fold_chunks", chunks)
    write_dataset(tmp_path)
    cfg = write_run_config(
        tmp_path,
        samplers=[{"name": "crus", "method": "clustering_rus", "threshold": 3.0, "cluster_k": 2}],
        classifiers=[{"name": "boost", "method": "adaboost", "n_members": 3}],
    )
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs, "--save-models"])
        assert result.exit_code == 0, result.output
        outs.append(read_tree(out))
    assert outs[0] == outs[1]
    assert [len(c) for c in chunkings] == [1, min(2, len(os.sched_getaffinity(0)))]


def test_run_refuses_cluster_k_above_the_smallest_training_split(tmp_path, runner, monkeypatch):
    """Checked right after the fold split, before any fit: 26 rows in 3
    folds leave 17 training rows in the smallest split."""
    calls = []
    monkeypatch.setattr(resampling, "kmeans_fit", lambda *args: calls.append(args))
    write_dataset(tmp_path, SyntheticConfig(blob_sizes=(10, 16), blob_irs=(2.0, 3.0), seed=3))
    cfg = write_run_config(
        tmp_path,
        samplers=[
            {"name": "none", "method": "none"},
            {"name": "crus", "method": "clustering_rus", "threshold": 10, "cluster_k": 30},
        ],
    )
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out), "--save-models"])
    assert result.exit_code == 2
    assert result.output.endswith(
        "Error: sampler 'crus': cluster_k 30 exceeds the 17 rows of the smallest training split\n"
    )
    assert calls == [] and not out.exists()


def test_run_refuses_smote_k_neighbors_at_the_smallest_training_split(tmp_path, runner, monkeypatch):
    """Checked right after the fold split, before any fit: 4 minority rows
    in 2 folds leave 2 in each training split, too few for 5 neighbours."""
    import crus.evaluation as evaluation

    calls = []
    monkeypatch.setattr(evaluation, "smote_oversample", lambda *args: calls.append(args))
    write_dataset(tmp_path, SyntheticConfig(blob_sizes=(20, 12), blob_irs=(5.0, 11.0), n_numeric=1, n_nominal=1,
                                            seed=3))
    cfg = write_run_config(
        tmp_path,
        k_folds=2,
        samplers=[
            {"name": "none", "method": "none"},
            {"name": "smote", "method": "smote", "percentage": 100.0, "k_neighbors": 5},
        ],
    )
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out), "--save-models"])
    assert result.exit_code == 2
    assert result.output.endswith(
        "Error: sampler 'smote': k_neighbors 5 is not below the 2 minority rows of the smallest training split\n"
    )
    assert calls == [] and not out.exists()


def test_run_missing_schema_fails_with_path(tmp_path, runner):
    write_dataset(tmp_path)
    (tmp_path / "data.schema.yaml").unlink()
    cfg = write_run_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.exit_code != 0
    assert "data.schema.yaml" in result.output


def test_run_refuses_a_schema_without_attributes(tmp_path, runner):
    schema = DatasetSchema((), "y", "neg", "pos")
    write_csv(Dataset(schema, np.empty((20, 0)), np.repeat(np.array([1, 0], dtype=np.int8), [5, 15])),
              tmp_path / "data.csv")
    save_schema(schema, tmp_path / "data.schema.yaml")
    cfg = write_run_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.endswith(
        f"Error: cannot evaluate data.csv: schema file {tmp_path.resolve() / 'data.schema.yaml'}: "
        "'attributes' lists no attribute besides the class\n"
    )
    assert not out.exists()


def test_run_unwritable_output_is_one_error_line(tmp_path, runner):
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(blocker / "out")])
    assert result.exit_code == 2
    assert f"Error: cannot write {blocker / 'out' / 'folds.csv'}: " in result.output
    assert result.output.count("Error:") == 1 and "Traceback" not in result.output


@pytest.mark.parametrize("command", ["run", "featsel"])
def test_a_cell_over_the_csv_field_limit_is_one_error_line(tmp_path, runner, command):
    csv_path, _ = write_dataset(tmp_path)
    header, rest = csv_path.read_text(encoding="utf-8").split("\n", 1)
    csv_path.write_text(f"{header}\n{' ' * 140_000}{rest}", encoding="utf-8")
    if command == "run":
        args = ["run", "--config", str(write_run_config(tmp_path))]
        prefix = "Error: cannot evaluate data.csv: "
    else:
        fs = tmp_path / "fs.yaml"
        fs.write_text(yaml.safe_dump({"dataset": "data.csv", "schema": "data.schema.yaml"}), encoding="utf-8")
        args = ["featsel", "--config", str(fs)]
        prefix = "Error: feature selection failed: "
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.output.endswith(f"{prefix}row 2: field larger than field limit (131072)\n")
    assert result.output.count("Error:") == 1 and "Traceback" not in result.output


@pytest.mark.parametrize("kind", ["config", "data", "path"])
def test_a_refused_config_data_file_or_path_is_one_error_line(tmp_path, runner, kind):
    """Exit 2 and one `Error:` line, without the usage text that a
    mistake in the options gets."""
    csv_path, _ = write_dataset(tmp_path)
    cfg = write_run_config(tmp_path, **({"typo_key": 3} if kind == "config" else {}))
    out = tmp_path / "out"
    if kind == "data":
        csv_path.write_text("a,b\n1,2\n", encoding="utf-8")
    elif kind == "path":
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
    expected = {
        "config": "Error: config: unknown keys ['typo_key']; ",
        "data": "Error: cannot evaluate data.csv: ",
        "path": f"Error: cannot write {out / 'folds.csv'}: ",
    }[kind]
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2
    [line] = result.output.splitlines()
    assert line.startswith(expected)


def test_a_mistake_in_the_options_shows_the_usage(tmp_path, runner):
    write_dataset(tmp_path)
    args = ["run", "--config", str(write_run_config(tmp_path)), "--out", str(tmp_path / "out"), "--jobs", "0"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output.startswith("Usage: ")
    assert result.output.endswith("Error: --jobs must be at least 1, got 0\n")


def test_run_invalid_utf8_after_the_first_read_is_one_error_line(tmp_path, runner):
    csv_path, _ = write_dataset(tmp_path, SyntheticConfig(blob_sizes=(700, 1100), blob_irs=(2.0, 5.0), seed=3))
    raw = csv_path.read_bytes()
    at = raw.index(b"\n", 70_000) + 1  # past the first read of 65,536 characters
    csv_path.write_bytes(raw[:at] + b"\xff" + raw[at:])
    result = runner.invoke(main, ["run", "--config", str(write_run_config(tmp_path)), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "Error: cannot evaluate data.csv: 'utf-8' codec can't decode byte 0xff in position " in result.output
    assert result.output.endswith(": invalid start byte\n")
    assert result.output.count("Error:") == 1 and "Traceback" not in result.output


def test_run_output_below_a_file_fails_before_any_fold_runs(tmp_path, runner, monkeypatch):
    import crus.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_sampler", lambda *args: calls.append(args))
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(blocker / "deeper" / "out")])
    assert result.exit_code == 2
    assert f"Error: cannot write {blocker / 'deeper' / 'out' / 'folds.csv'}: " in result.output
    assert calls == []


def test_run_unknown_config_key_rejected(tmp_path, runner):
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path, typo_key=3)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "typo_key" in result.output


def test_negative_seed_rejected_up_front(tmp_path, runner):
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path)
    out = ["--out", str(tmp_path / "out")]
    result = runner.invoke(main, ["run", "--config", str(cfg), "--seed", "-1"] + out)
    assert result.exit_code == 2
    assert "'--seed': -1 is not in the range x>=0" in result.output
    cfg = write_run_config(tmp_path, seed=-2)
    result = runner.invoke(main, ["run", "--config", str(cfg)] + out)
    assert result.exit_code == 2
    assert "config: 'seed' must be nonnegative, got -2" in result.output
    assert not (tmp_path / "out").exists()
    csv_out = ["--out", str(tmp_path / "d.csv")]
    result = runner.invoke(main, ["gen-synth", "--seed", "-3"] + csv_out)
    assert result.exit_code == 2
    assert "'--seed': -3 is not in the range x>=0" in result.output
    gen = tmp_path / "gen.yaml"
    gen.write_text(yaml.safe_dump({"seed": -4}), encoding="utf-8")
    result = runner.invoke(main, ["gen-synth", "--config", str(gen)] + csv_out)
    assert result.exit_code == 2
    assert "generator config: seed must be nonnegative, got -4" in result.output
    assert not (tmp_path / "d.csv").exists()


def test_run_bad_grid_entry_names_the_cell(tmp_path, runner):
    write_dataset(tmp_path)
    cfg = write_run_config(
        tmp_path, classifiers=[{"name": "bad", "method": "perceptron"}]
    )
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "bad" in result.output and "perceptron" in result.output


@pytest.mark.parametrize(
    "key, entry, message",
    [
        ("classifiers", {"min_leaf_weight": "abc"}, "'min_leaf_weight' must be a number, got 'abc'"),
        ("classifiers", {"method": "bagging", "n_members": "x"}, "'n_members' must be an integer, got 'x'"),
        ("classifiers", {"confidence_factor": [1]}, "'confidence_factor' must be a number, got [1]"),
        ("classifiers", {"confidence_factor": 0.7}, "confidence factor must be in (0, 0.5)"),
        ("classifiers", {"use_pruning": "no"}, "'use_pruning' must be true or false, got 'no'"),
        ("samplers", {"method": "rus", "spread": "abc"}, "'spread' must be a number, got 'abc'"),
        (
            "samplers",
            {"method": "clustering_rus", "threshold": 10, "policy": "bogus"},
            "unknown policy 'bogus' (expected 'above' or 'invert')",
        ),
        ("classifiers", {"min_leaf_weight": float("nan")}, "'min_leaf_weight' must be a number, got nan"),
        ("classifiers", {"confidence_factor": float("nan")}, "'confidence_factor' must be a number, got nan"),
        ("samplers", {"method": "rus", "spread": float("nan")}, "'spread' must be a number, got nan"),
        ("samplers", {"method": "smote", "percentage": float("nan")}, "'percentage' must be a number, got nan"),
        (
            "samplers",
            {"method": "clustering_rus", "threshold": float("nan")},
            "'threshold' must be a number, got nan",
        ),
        (
            "samplers",
            {"method": "clustering_rus", "reduction_fraction": float("nan")},
            "'reduction_fraction' must be a number, got nan",
        ),
        ("classifiers", {"min_leaf_weight": float("inf")}, "'min_leaf_weight' must be finite, got inf"),
        ("samplers", {"method": "rus", "spread": float("inf")}, "'spread' must be finite, got inf"),
        ("samplers", {"method": "smote", "percentage": float("inf")}, "'percentage' must be finite, got inf"),
        (
            "samplers",
            {"method": "clustering_rus", "threshold": float("-inf")},
            "'threshold' must be finite, got -inf",
        ),
        ("samplers", {"method": "rus", "spread": -1}, "spread must be positive, got -1"),
        ("samplers", {"method": "smote", "percentage": -5}, "percentage must be nonnegative, got -5"),
        ("samplers", {"method": "smote", "k_neighbors": 0}, "k_neighbors must be at least 1, got 0"),
        ("samplers", {"method": "clustering_rus", "threshold": 10, "cluster_k": 0}, "cluster_k must be at least 1, got 0"),
        ("samplers", {"method": "clustering_rus", "threshold": -1}, "threshold must be positive, got -1"),
        (
            "samplers",
            {"method": "clustering_rus", "reduction_fraction": 5},
            "reduction_fraction must be within [0, 1], got 5",
        ),
        ("classifiers", {"method": "bagging", "n_members": 0}, "n_members must be at least 1, got 0"),
        (
            "classifiers",
            {"min_leaf_weight": "1e300"},
            "'min_leaf_weight' must be a number, got '1e300'; YAML reads 1e300 as text: write it as 1.0e+300",
        ),
    ],
    ids=["min_leaf_weight", "n_members", "confidence_factor", "confidence_range", "use_pruning", "spread", "policy",
         "nan-min_leaf_weight", "nan-confidence_factor", "nan-spread", "nan-percentage", "nan-threshold",
         "nan-reduction_fraction", "inf-min_leaf_weight", "inf-spread", "inf-percentage", "inf-threshold",
         "range-spread", "range-percentage", "range-k_neighbors", "range-cluster_k", "range-threshold",
         "range-reduction_fraction", "range-n_members", "yaml-min_leaf_weight"],
)
def test_run_wrongly_typed_grid_value_rejected_at_load(tmp_path, runner, key, entry, message):
    write_dataset(tmp_path)
    cfg = write_run_config(tmp_path, **{key: [{"name": "t", **entry}]})
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert f"config: {key}[0] ('t'): {message}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "beta, message",
    [
        (0, "'beta' must be positive and finite, got 0.0"),
        (-1.5, "'beta' must be positive and finite, got -1.5"),
        (float("inf"), "'beta' must be positive and finite, got inf"),
        (float("nan"), "'beta' must be a number, got nan"),
        ("2e1", "'beta' must be a number, got '2e1'; YAML reads 2e1 as text: write it as 20.0"),
    ],
    ids=["zero", "negative", "inf", "nan", "yaml"],
)
def test_run_beta_must_be_positive_and_finite(tmp_path, runner, beta, message):
    # empty data files: the config is refused before any data is read
    cfg = write_run_config(tmp_path, beta=beta)
    for name in ("data.csv", "data.schema.yaml"):
        (tmp_path / name).write_text("", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert f"config: {message}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n_numeric": 2.5}, "'n_numeric' must be an integer, got 2.5"),
        ({"blob_sizes": [40.5, 60]}, "'blob_sizes' must be a list of integers, got [40.5, 60]"),
        ({"noise": "abc"}, "'noise' must be a number, got 'abc'"),
        ({"category_bias": float("nan")}, "'category_bias' must be a number, got nan"),
        ({"blob_irs": [2.0, float("nan")]}, "'blob_irs' must be a list of numbers, got [2.0, nan]"),
        ({"noise": float("inf")}, "'noise' must be finite, got inf"),
        ({"blob_spacing": float("-inf")}, "'blob_spacing' must be finite, got -inf"),
        ({"blob_irs": [2, float("inf")]}, "'blob_irs' must be finite and at least 1, got [2, inf]"),
        ({"blob_irs": [0.5, 2]}, "'blob_irs' must be finite and at least 1, got [0.5, 2]"),
    ],
    ids=["n_numeric", "blob_sizes", "noise", "nan-category_bias", "nan-blob_irs", "inf-noise", "inf-blob_spacing",
         "inf-blob_irs", "range-blob_irs"],
)
def test_gen_synth_wrongly_typed_config_value_rejected(tmp_path, runner, doc, message):
    gen = tmp_path / "gen.yaml"
    gen.write_text(yaml.safe_dump(doc), encoding="utf-8")
    result = runner.invoke(main, ["gen-synth", "--config", str(gen), "--out", str(tmp_path / "d.csv")])
    assert result.exit_code == 2
    assert f"generator config: {message}" in result.output
    assert not (tmp_path / "d.csv").exists()


def test_gen_synth_deterministic_and_reports_ir(tmp_path, runner):
    args = ["gen-synth", "--out", str(tmp_path / "a.csv"), "--seed", "0"]
    a = runner.invoke(main, args)
    assert a.exit_code == 0, a.output
    assert "global imbalance ratio: 4.2" in a.output
    b = runner.invoke(main, ["gen-synth", "--out", str(tmp_path / "b.csv"), "--seed", "0"])
    assert b.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.schema.yaml").read_bytes() == (tmp_path / "b.schema.yaml").read_bytes()


def test_gen_synth_unwritable_output_is_one_error_line(tmp_path, runner):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "x.csv"
    result = runner.invoke(main, ["gen-synth", "--out", str(out)])
    assert result.exit_code == 2
    assert f"Error: cannot write {out}: " in result.output
    assert result.output.count("Error:") == 1 and "Traceback" not in result.output


def test_gen_synth_config_and_blob_map(tmp_path, runner):
    cfg = tmp_path / "gen.yaml"
    cfg.write_text(
        yaml.safe_dump({"blob_sizes": [40, 60], "blob_irs": [2, 4], "seed": 1}),
        encoding="utf-8",
    )
    result = runner.invoke(
        main,
        [
            "gen-synth",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "d.csv"),
            "--blob-out",
            str(tmp_path / "blobs.csv"),
        ],
    )
    assert result.exit_code == 0, result.output
    blob_lines = (tmp_path / "blobs.csv").read_text().splitlines()
    assert blob_lines[0] == "row,blob"
    assert len(blob_lines) == 101


def test_gen_synth_rejects_degenerate_blob(tmp_path, runner):
    cfg = tmp_path / "gen.yaml"
    cfg.write_text(yaml.safe_dump({"blob_sizes": [0, 100], "blob_irs": [2, 4]}), encoding="utf-8")
    result = runner.invoke(main, ["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
    assert result.exit_code == 2
    assert "blob" in result.output.lower()


def test_featsel_perfect_attribute_tops_reports(tmp_path, runner):
    rng = np.random.default_rng(0)
    n = 120
    y = (rng.uniform(size=n) < 0.4).astype(np.int8)
    schema = DatasetSchema(
        (
            AttributeSpec("signal", NOMINAL, ("c0", "c1")),
            AttributeSpec("noise", NUMERIC),
        ),
        "y",
        "neg",
        "pos",
    )
    values = np.column_stack([y.astype(np.float64), rng.normal(0, 1, n)])
    d = Dataset(schema, values, y)
    write_csv(d, tmp_path / "d.csv")
    save_schema(schema, tmp_path / "d.schema.yaml")
    cfg = tmp_path / "fs.yaml"
    cfg.write_text(
        yaml.safe_dump({"dataset": "d.csv", "schema": "d.schema.yaml"}), encoding="utf-8"
    )
    result = runner.invoke(main, ["featsel", "--config", str(cfg), "--out", str(tmp_path / "fs")])
    assert result.exit_code == 0, result.output
    ranking = (tmp_path / "fs" / "gain_ratio_ranking.csv").read_text().splitlines()
    assert ranking[0] == "rank,attribute,gain_ratio"
    assert ranking[1].startswith("1,signal,")
    subset = (tmp_path / "fs" / "cfs_subset.txt").read_text()
    assert "signal" in subset
    again = runner.invoke(main, ["featsel", "--config", str(cfg), "--out", str(tmp_path / "fs2")])
    assert again.exit_code == 0
    assert (tmp_path / "fs2" / "gain_ratio_ranking.csv").read_text() == "\n".join(ranking) + "\n"


def test_featsel_no_attributes_errors(tmp_path, runner):
    schema = DatasetSchema((), "y", "neg", "pos")
    d = Dataset(schema, np.empty((4, 0)), np.array([0, 1, 0, 1], dtype=np.int8))
    write_csv(d, tmp_path / "d.csv")
    save_schema(schema, tmp_path / "d.schema.yaml")
    cfg = tmp_path / "fs.yaml"
    cfg.write_text(
        yaml.safe_dump({"dataset": "d.csv", "schema": "d.schema.yaml"}), encoding="utf-8"
    )
    result = runner.invoke(main, ["featsel", "--config", str(cfg), "--out", str(tmp_path / "fs")])
    assert result.exit_code == 2
    assert "attribute" in result.output.lower()


def separable_dataset(rng, n=60):
    schema = DatasetSchema((AttributeSpec("f0", NUMERIC),), "y", "neg", "pos")
    x = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(6, 1, n // 2)])
    y = np.concatenate([np.zeros(n // 2, dtype=np.int8), np.ones(n // 2, dtype=np.int8)])
    return Dataset(schema, x[:, None], y)


def test_rules_tree_one_line_per_leaf(tmp_path, runner):
    rng = np.random.default_rng(1)
    d = separable_dataset(rng)
    tree = fit_tree(d, TreeConfig())
    (tmp_path / "tree.json").write_text(model_to_text(tree), encoding="utf-8")
    result = runner.invoke(main, ["rules", "--model", str(tmp_path / "tree.json")])
    assert result.exit_code == 0, result.output
    lines = [ln for ln in result.output.splitlines() if ln]
    assert len(lines) == tree.n_leaves()
    assert all(ln.startswith("IF ") and " THEN " in ln for ln in lines)


def test_rules_single_leaf_model(tmp_path, runner):
    schema = DatasetSchema((AttributeSpec("f0", NUMERIC),), "y", "neg", "pos")
    d = Dataset(schema, np.zeros((10, 1)), np.array([0] * 9 + [1], dtype=np.int8))
    tree = fit_tree(d, TreeConfig())
    (tmp_path / "leaf.json").write_text(model_to_text(tree), encoding="utf-8")
    result = runner.invoke(main, ["rules", "--model", str(tmp_path / "leaf.json")])
    assert result.exit_code == 0
    lines = [ln for ln in result.output.splitlines() if ln]
    assert lines == ["IF TRUE THEN y = neg"]


def test_rules_ensemble_members_have_headers(tmp_path, runner):
    rng = np.random.default_rng(2)
    d = separable_dataset(rng)
    model = fit_bagging(d, EnsembleConfig(n_members=2, seed=0))
    (tmp_path / "ens.json").write_text(model_to_text(model), encoding="utf-8")
    out_path = tmp_path / "rules.txt"
    result = runner.invoke(
        main, ["rules", "--model", str(tmp_path / "ens.json"), "--out", str(out_path)]
    )
    assert result.exit_code == 0, result.output
    text = out_path.read_text()
    assert "member 0 (weight " in text and "member 1 (weight " in text
    rule_lines = [ln for ln in text.splitlines() if ln.strip().startswith("IF ")]
    assert len(rule_lines) == sum(m.n_leaves() for m in model.members)


def test_rules_rejects_other_json(tmp_path, runner):
    path = tmp_path / "junk.json"
    path.write_text('{"kind": "cluster_model"}', encoding="utf-8")
    result = runner.invoke(main, ["rules", "--model", str(path)])
    assert result.exit_code == 2


def test_rules_refuses_a_saved_cluster_model(tmp_path, runner):
    write_dataset(tmp_path)
    cfg = write_run_config(
        tmp_path,
        samplers=[{"name": "crus", "method": "clustering_rus", "threshold": 3.0, "cluster_k": 2}],
        classifiers=[{"name": "tree", "method": "tree"}],
    )
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--save-models"])
    assert result.exit_code == 0, result.output
    models = tmp_path / "out" / "models"
    path = models / "crus+tree.cluster.json"
    result = runner.invoke(main, ["rules", "--model", str(path)])
    assert result.exit_code == 2
    assert f"{path} is not a saved tree or ensemble model" in result.output
    assert "Traceback" not in result.output
    for group in models.glob("crus+tree.*_IR_group.json"):
        result = runner.invoke(main, ["rules", "--model", str(group)])
        assert result.exit_code == 0 and result.output.startswith("IF "), result.output


LEAF = {"weights": [1.0, 0.0]}
SCHEMA_DOC = {
    "class_attribute": "y",
    "class_labels": ["neg", "pos"],
    "positive_label": "pos",
    "attributes": [
        {"name": "x", "kind": "numeric"},
        {"name": "c", "kind": "nominal", "categories": ["a", "b"]},
    ],
}


def split(**keys):
    """A split node with weights [1, 1] and the given keys."""
    return {"weights": [1.0, 1.0], **keys}


def tree_text(*nodes):
    """A tree file holding the given pre-order node list."""
    return json.dumps({"kind": "tree", "config": {}, "schema": SCHEMA_DOC, "nodes": list(nodes)})


def chain_text(depth):
    """A file nesting `depth` objects deep, built as text: json.dumps of
    the nested document would itself recurse too deeply."""
    root = '{"weights": [1.0, 1.0], "next": ' * depth + "{}" + "}" * depth
    return f'{{"kind": "tree", "config": {{}}, "schema": {json.dumps(SCHEMA_DOC)}, "nodes": [{root}]}}'


def config_text(**config):
    """A leaf tree file with the given config."""
    return json.dumps({"kind": "tree", "config": config, "schema": SCHEMA_DOC, "nodes": [LEAF]})


def ensemble_text(member_config=None, **changes):
    member = {"config": member_config or {}, "nodes": [LEAF]}
    doc = {"kind": "ensemble", "schema": SCHEMA_DOC, "method": "bagging", "combine": "vote", "seed": 0,
           "member_weights": [1.0, 1.0], "members": [member, member], **changes}
    return json.dumps(doc)


def schema_text(**changes):
    """A leaf tree file whose schema document has the given keys changed."""
    return json.dumps({"kind": "tree", "config": {}, "schema": {**SCHEMA_DOC, **changes}, "nodes": [LEAF]})


NUMERIC_SPLIT = split(attribute=0, threshold=0.5)
OLD_NESTED = json.dumps({"kind": "tree", "config": {}, "schema": SCHEMA_DOC,
                         "root": {**NUMERIC_SPLIT, "left": LEAF, "right": LEAF}})
# the schema layout model files had before they shared the sidecar's
OLD_SCHEMA = {"class_attribute": "y", "negative_label": "neg", "positive_label": "pos",
              "attributes": [{"name": "x", "kind": "numeric", "categories": []}]}
OLD_TREE = json.dumps({"kind": "tree", "config": {}, "schema": OLD_SCHEMA, "nodes": [LEAF]})
OLD_ENSEMBLE = json.dumps({"kind": "ensemble", "method": "bagging", "combine": "vote", "seed": 0,
                           "member_weights": [1.0], "members": [json.loads(OLD_TREE)]})


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"kind": "tree"}', "missing key 'config'"),
        ('{"kind": "ensemble", "members": []}', "missing key 'method'"),
        ('{"kind": "tree", "config": {"depth": 3}, "schema": {}, "nodes": []}', "unexpected keyword"),
        ('{"kind": "tree"', "Expecting"),
        (tree_text(split(attribute=5, threshold=0.5), LEAF, LEAF), "node 0: split on attribute 5"),
        (tree_text(split(attribute=1, threshold=0.5), LEAF, LEAF), "node 0: threshold split on nominal"),
        (tree_text(split(attribute=0, categories=[0, 1], fallback=0), LEAF, LEAF), "category split on numeric"),
        (tree_text(split(attribute=1, categories=[0, 2], fallback=0), LEAF, LEAF), "category codes [0, 2] outside"),
        (tree_text(split(attribute=1, categories=[0], fallback=1), LEAF), "fallback 1 is not a child category"),
        (tree_text(split(attribute=1, categories={"0": LEAF, "1": LEAF}, fallback=0)),
         "categories must be a list of ascending integer codes"),
        (tree_text(split(attribute=1, categories=[1, 0], fallback=0), LEAF, LEAF), "integer codes, got [1, 0]"),
        (tree_text(split(attribute=1, categories=[0, 0], fallback=0), LEAF, LEAF), "integer codes, got [0, 0]"),
        (tree_text({"weights": [1.0]}), "node weights must be two numbers"),
        (tree_text({"weights": [1.0, "2"]}), "node weights must be two numbers"),
        (tree_text(NUMERIC_SPLIT, LEAF, {"weights": [float("nan"), 1.0]}), "node 2: node weights must be two numbers"),
        (tree_text(NUMERIC_SPLIT, {"weights": [-3.0, 1.0]}, LEAF), "node 1: node weights must be two numbers"),
        (tree_text(NUMERIC_SPLIT, LEAF, split(attribute=0, threshold=float("nan")), LEAF, LEAF),
         "node 2: threshold must be a finite number, got nan"),
        (tree_text(split(attribute=0, threshold="0.5"), LEAF, LEAF), "threshold must be a finite number, got '0.5'"),
        (tree_text(split(attribute=0.7, threshold=0.5), LEAF, LEAF), "split attribute must be an integer, got 0.7"),
        (tree_text(split(attribute=True, threshold=0.5), LEAF, LEAF), "split attribute must be an integer, got True"),
        (tree_text(split(attribute=1, categories=[0, 1], fallback=1.0), LEAF, LEAF), "fallback 1.0 is not a child"),
        (tree_text(NUMERIC_SPLIT, NUMERIC_SPLIT, LEAF, LEAF), "the node list ends before node 0 has its 2 children"),
        (tree_text(NUMERIC_SPLIT, LEAF, LEAF, LEAF, LEAF), "node 3: 2 nodes left after the tree ends"),
        (tree_text(), "tree nodes must be a nonempty list"),
        (OLD_NESTED, "missing key 'nodes'"),
        (chain_text(1000), "nests too deeply"),
        (ensemble_text(member_weights=[1.0]), "2 members but member_weights [1.0]"),
        (ensemble_text(combine="median"), "unknown combine 'median'"),
        (tree_text(NUMERIC_SPLIT, [1, 2], LEAF), "node 1: a node must be an object, got [1, 2]"),
        (tree_text(NUMERIC_SPLIT, LEAF, {}), "node 2: missing key 'weights'"),
        (tree_text(split(attribute=1, categories=[0, 1]), LEAF, LEAF), "node 0: missing key 'fallback'"),
        (ensemble_text(members=[], member_weights=[]), "an ensemble needs at least one member"),
        (schema_text(attributes=[{"name": "c", "kind": "nominal", "categories": "ab"}]),
         "schema: 'categories' must be a list, got 'ab'"),
        (schema_text(class_labels=[False, True], positive_label=True),
         "schema: False was read as a boolean; quote it"),
        (schema_text(positive_label="maybe"), "schema: positive_label 'maybe' not in class_labels"),
        (OLD_TREE, "schema: missing key 'class_labels'"),
        (OLD_ENSEMBLE, "missing key 'schema'"),
        (ensemble_text(member_weights=[float("nan"), 1.0]),
         "member_weights must be a list of finite, nonnegative numbers, got [nan, 1.0]"),
        (ensemble_text(member_weights=[-1.0, 1.0]), "member_weights must be a list of finite, nonnegative numbers"),
        (ensemble_text(seed=2.7), "seed must be an integer, got 2.7"),
        (ensemble_text(method="boosting"),
         "method must be one of bagging, random_forest, adaboost, random_committee, got 'boosting'"),
        (ensemble_text(epsilons=[0.2, 1.5]), "epsilons must be a list of finite numbers in [0, 1], got [0.2, 1.5]"),
        (ensemble_text(betas=[float("nan")]), "betas must be a list of finite numbers in [0, 1], got [nan]"),
        (ensemble_text(epsilons="0.2"), "epsilons must be a list of finite numbers in [0, 1], got '0.2'"),
        (ensemble_text(oob_error=1.5), "oob_error must be null or a finite number in [0, 1], got 1.5"),
        (ensemble_text(oob_coverage="0.5"), "oob_coverage must be null or a finite number in [0, 1], got '0.5'"),
        (ensemble_text(warnings=[3]), "warnings must be a list of strings, got [3]"),
        (ensemble_text(warnings="careful"), "warnings must be a list of strings, got 'careful'"),
        (config_text(seed=2.7), "config seed must be an integer, got 2.7"),
        (config_text(use_pruning="no"), "config use_pruning must be true or false, got 'no'"),
        (config_text(min_leaf_weight=float("nan")), "config min_leaf_weight must be a finite number, got nan"),
        (config_text(random_subspace_size=2.5), "config random_subspace_size must be null or an integer, got 2.5"),
        (config_text(confidence_factor="0.25"), "config confidence_factor must be a finite number, got '0.25'"),
        (ensemble_text(member_config={"seed": 2.7}), "config seed must be an integer, got 2.7"),
        (ensemble_text(member_config={"use_pruning": "no"}), "config use_pruning must be true or false"),
        (ensemble_text(member_config={"min_leaf_weight": float("nan")}), "config min_leaf_weight must be a finite"),
        (ensemble_text(member_config={"random_subspace_size": 2.5}), "config random_subspace_size must be null"),
        (ensemble_text(member_config=[1]), "config must be an object, got [1]"),
    ],
    ids=["tree-without-config", "ensemble-without-method", "unknown-config-key", "truncated",
         "attribute-outside-schema", "threshold-on-nominal", "categories-on-numeric",
         "category-outside-attribute", "fallback-without-child", "categories-not-a-list",
         "unsorted-categories", "duplicate-categories", "one-weight", "string-weight", "nan-weight",
         "negative-weight", "nan-threshold", "string-threshold", "float-attribute", "bool-attribute",
         "float-fallback", "truncated-node-list", "trailing-nodes", "empty-node-list", "old-nested-file",
         "1000-level-chain", "short-member-weights", "unknown-combine", "node-not-an-object",
         "node-without-weights", "node-without-fallback", "ensemble-without-members",
         "schema-categories-a-string", "schema-boolean-labels", "schema-unknown-positive", "old-tree-schema",
         "old-ensemble", "nan-member-weight", "negative-member-weight", "float-seed", "unknown-method",
         "epsilon-above-one", "nan-beta", "epsilons-not-a-list", "oob-error-above-one", "string-oob-coverage",
         "non-string-warning", "warnings-not-a-list", "float-config-seed", "string-use-pruning",
         "nan-min-leaf-weight", "float-subspace-size", "string-confidence-factor", "member-float-seed",
         "member-string-use-pruning", "member-nan-min-leaf-weight", "member-float-subspace-size",
         "member-config-not-an-object"],
)
def test_rules_malformed_model_fails_with_path(tmp_path, runner, doc, message):
    path = tmp_path / "model.json"
    path.write_text(doc, encoding="utf-8")
    result = runner.invoke(main, ["rules", "--model", str(path)])
    assert result.exit_code == 2
    assert f"cannot read model {path}: " in result.output and message in result.output
    assert "Traceback" not in result.output
