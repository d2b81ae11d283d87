from __future__ import annotations

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from crus.dataset import (
    NOMINAL,
    NUMERIC,
    AttributeSpec,
    DataError,
    Dataset,
    DatasetSchema,
    imbalance_ratio,
    load_csv,
    load_schema,
    save_schema,
    stratified_kfold,
    write_csv,
)
from crus.resampling import smote_oversample


def small_schema() -> DatasetSchema:
    return DatasetSchema(
        attributes=(
            AttributeSpec("age", NUMERIC),
            AttributeSpec("unit", NOMINAL, ("icu", "ward")),
        ),
        class_name="outcome",
        negative_label="no",
        positive_label="yes",
    )


def small_dataset(n_pos: int = 4, n_neg: int = 12, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    n = n_pos + n_neg
    values = np.column_stack([rng.normal(50, 10, n), rng.integers(0, 2, n).astype(float)])
    labels = np.array([1] * n_pos + [0] * n_neg, dtype=np.int8)
    return Dataset(small_schema(), values, labels)


def test_attribute_spec_validation():
    with pytest.raises(DataError):
        AttributeSpec("x", "other")
    with pytest.raises(DataError):
        AttributeSpec("x", NOMINAL)  # nominal needs categories
    with pytest.raises(DataError):
        AttributeSpec("x", NUMERIC, ("a",))  # numeric must not have categories
    with pytest.raises(DataError):
        AttributeSpec("x", NOMINAL, ("a", "a"))


def test_schema_rejects_duplicate_names():
    with pytest.raises(DataError):
        DatasetSchema(
            attributes=(AttributeSpec("x", NUMERIC), AttributeSpec("x", NUMERIC)),
            class_name="y",
            negative_label="n",
            positive_label="p",
        )
    with pytest.raises(DataError):
        DatasetSchema(
            attributes=(AttributeSpec("y", NUMERIC),),
            class_name="y",
            negative_label="n",
            positive_label="p",
        )


def test_dataset_basics():
    d = small_dataset()
    assert len(d) == 16
    assert d.n_positive == 4
    assert d.n_negative == 12
    assert not d.values.flags.writeable
    assert not d.labels.flags.writeable
    assert d.labels[0] == 1 and d.schema.positive_label == "yes"  # code 1 is the positive label
    assert not d.synthetic[0]
    assert d.row_ids.tolist() == list(range(16))


def test_subset_keeps_row_identity():
    d = small_dataset()
    sub = d.subset(np.array([3, 0, 7]))
    assert sub.row_ids.tolist() == [3, 0, 7]
    assert sub.labels.tolist() == [d.labels[3], d.labels[0], d.labels[7]]
    assert np.array_equal(sub.values[1], d.values[0])


def test_synthetic_is_a_negative_row_id(tmp_path):
    write_csv(small_dataset(), tmp_path / "d.csv")
    loaded = load_csv(tmp_path / "d.csv", small_schema())
    grown = smote_oversample(loaded, 100.0, 3, seed=1)
    assert int(grown.synthetic.sum()) == 4
    for d in (loaded, loaded.subset([3, 0, 7]), grown, grown.subset(np.arange(len(grown))[::-2])):
        assert np.array_equal(d.synthetic, d.row_ids < 0)
        assert set(vars(d)) == {"schema", "values", "labels", "row_ids"}


def test_imbalance_ratio():
    d = small_dataset(n_pos=4, n_neg=12)
    assert imbalance_ratio(d) == 3.0
    empty_pos = small_dataset(n_pos=0, n_neg=5)
    with pytest.raises(DataError):
        imbalance_ratio(empty_pos)
    inverted = small_dataset(n_pos=5, n_neg=2)
    with pytest.warns(UserWarning):
        assert imbalance_ratio(inverted) == 2 / 5


def test_schema_roundtrip(tmp_path):
    schema = small_schema()
    path = tmp_path / "schema.yaml"
    save_schema(schema, path)
    assert load_schema(path) == schema


@pytest.mark.parametrize("key", ["class_labels", "attributes", "categories"])
def test_load_schema_rejects_a_value_that_is_not_a_list(tmp_path, key):
    path = tmp_path / "schema.yaml"
    save_schema(small_schema(), path)
    doc = yaml.safe_load(path.read_text())
    if key == "categories":
        doc["attributes"][1]["categories"] = 3
    else:
        doc[key] = 5
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(DataError, match=f"schema file {path}: '{key}' must be a list, got"):
        load_schema(path)


SIDECAR = """\
class_attribute: outcome
class_labels: ['no', 'yes']
positive_label: 'yes'
attributes:
- {name: age, kind: numeric}
- {name: unit, kind: nominal, categories: ['on', 'off']}
"""


@pytest.mark.parametrize(
    "old, quoted, unquoted",
    [
        ("['no', 'yes']", "['no', 'yes']", "[no, yes]"),
        ("positive_label: 'yes'", "positive_label: 'yes'", "positive_label: yes"),
        ("['on', 'off']", "['on', 'off']", "[on, off]"),
        ("name: age", "name: 'off'", "name: off"),
        ("class_attribute: outcome", "class_attribute: 'true'", "class_attribute: true"),
    ],
    ids=["class-labels", "positive-label", "categories", "attribute-name", "class-attribute"],
)
def test_load_schema_refuses_a_yaml_boolean(tmp_path, old, quoted, unquoted):
    """No sidecar value is read as a YAML boolean: an unquoted yes, no, on,
    off or true loads as the same text as its quoted form."""
    path = tmp_path / "schema.yaml"
    path.write_text(SIDECAR.replace(old, quoted), encoding="utf-8")
    schema = load_schema(path)
    path.write_text(SIDECAR.replace(old, unquoted), encoding="utf-8")
    assert load_schema(path) == schema


def test_load_csv_reads_the_categories_a_sidecar_writes(tmp_path):
    # unquoted, YAML would read these as null, 1.5 and the octal 8
    (tmp_path / "schema.yaml").write_text(
        "class_attribute: y\nclass_labels: [~, 010]\npositive_label: 010\n"
        "attributes:\n- {name: c, kind: nominal, categories: [~, 1.50, 010]}\n",
        encoding="utf-8",
    )
    (tmp_path / "d.csv").write_text("c,y\n~,~\n1.50,010\n010,~\n", encoding="utf-8")
    d = load_csv(tmp_path / "d.csv", tmp_path / "schema.yaml")
    assert d.schema.attributes[0].categories == ("~", "1.50", "010")
    assert (d.schema.negative_label, d.schema.positive_label) == ("~", "010")
    assert d.values[:, 0].tolist() == [0.0, 1.0, 2.0]
    assert d.labels.tolist() == [0, 1, 0]


def test_csv_roundtrip(tmp_path):
    d = small_dataset(seed=5)
    path = tmp_path / "data.csv"
    write_csv(d, path)
    schema_path = tmp_path / "schema.yaml"
    save_schema(d.schema, schema_path)
    d2 = load_csv(path, schema_path)
    assert np.array_equal(d.values, d2.values)
    assert np.array_equal(d.labels, d2.labels)


def test_load_csv_errors(tmp_path):
    schema = small_schema()
    schema_path = tmp_path / "schema.yaml"
    save_schema(schema, schema_path)

    def attempt(body: str):
        p = tmp_path / "bad.csv"
        p.write_text(body, encoding="utf-8")
        return pytest.raises(DataError), p

    ctx, p = attempt("age,unit,outcome\nx,icu,no\n")
    with ctx as err:
        load_csv(p, schema_path)
    assert "age" in str(err.value)

    ctx, p = attempt("age,unit,outcome\n1.0,hallway,no\n")
    with ctx as err:
        load_csv(p, schema_path)
    assert "unit" in str(err.value)

    ctx, p = attempt("age,unit,outcome\n1.0,icu,maybe\n")
    with ctx:
        load_csv(p, schema_path)

    ctx, p = attempt("wrong,unit,outcome\n1.0,icu,no\n")
    with ctx:
        load_csv(p, schema_path)

    ctx, p = attempt("age,unit,outcome\n1.0,icu\n")
    with ctx as err:
        load_csv(p, schema_path)
    assert "2" in str(err.value)  # failing row is named

    ctx, p = attempt("age,unit,outcome\n,icu,no\n")
    with ctx:
        load_csv(p, schema_path)


@pytest.mark.parametrize("cell,shown", [("nan", "nan"), ("inf", "inf"), ("-Infinity", "-inf")])
def test_load_csv_rejects_non_finite_numbers(tmp_path, cell, shown):
    schema_path = tmp_path / "schema.yaml"
    save_schema(small_schema(), schema_path)
    p = tmp_path / "bad.csv"
    p.write_text(f"age,unit,outcome\n1.0,icu,no\n{cell},ward,yes\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_csv(p, schema_path)
    assert str(err.value) == f"row 3: {shown} is not a finite number for attribute 'age'"


def test_stratified_kfold_balanced_counts():
    d = small_dataset(n_pos=7, n_neg=23, seed=3)
    split = stratified_kfold(d, 5, seed=11)
    sizes = [split.test_indices(f).size for f in range(5)]
    assert sum(sizes) == 30
    assert max(sizes) - min(sizes) <= 1
    for f in range(5):
        test = split.test_indices(f)
        train = split.train_indices(f)
        assert np.intersect1d(test, train).size == 0
        assert test.size + train.size == 30
        # stratification: every fold holds at least one positive
        assert d.labels[test].sum() >= 1
    pos_per_fold = [int(d.labels[split.test_indices(f)].sum()) for f in range(5)]
    assert max(pos_per_fold) - min(pos_per_fold) <= 1


def test_stratified_kfold_determinism_and_errors():
    d = small_dataset(n_pos=6, n_neg=14, seed=2)
    a = stratified_kfold(d, 4, seed=9)
    b = stratified_kfold(d, 4, seed=9)
    assert np.array_equal(a.fold_of, b.fold_of)
    c = stratified_kfold(d, 4, seed=10)
    assert not np.array_equal(a.fold_of, c.fold_of)
    with pytest.raises(ValueError):
        stratified_kfold(d, 1, seed=0)
    with pytest.raises(ValueError):
        stratified_kfold(d, 7, seed=0)  # more folds than positives


def test_stratified_kfold_cursor_carries_between_classes():
    # with counts not divisible by k, total fold sizes still differ by <= 1
    d = small_dataset(n_pos=5, n_neg=8, seed=1)
    split = stratified_kfold(d, 4, seed=0)
    sizes = [split.test_indices(f).size for f in range(4)]
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_stratified_kfold_class_counts_per_fold_differ_by_at_most_one(data):
    k = data.draw(st.integers(2, 8), label="k")
    n_pos = data.draw(st.integers(k, 40), label="n_pos")
    n_neg = data.draw(st.integers(k, 60), label="n_neg")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    d = small_dataset(n_pos=n_pos, n_neg=n_neg)
    split = stratified_kfold(d, k, seed)
    for cls in (0, 1):
        counts = np.bincount(split.fold_of[d.labels == cls], minlength=k)
        assert counts.max() - counts.min() <= 1
