from __future__ import annotations

import csv
import json
import tempfile
import tracemalloc
from pathlib import Path

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
    _read_cells,
    _read_columns,
    imbalance_ratio,
    load_csv,
    load_schema,
    save_schema,
    schema_to_doc,
    stratified_kfold,
    write_csv,
)
from crus.evaluation import SyntheticConfig, gen_synthetic
from crus.modelfile import model_from_text
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


def _write(path, text: str, newline: str = "\n"):
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return path


def _outcome(read, path, schema):
    """Values and labels as bytes, or the type and text of the refusal."""
    try:
        values, labels = read(path, schema)
    except (ValueError, csv.Error) as exc:  # DataError, invalid UTF-8, or csv's field limit
        return type(exc), str(exc)
    return values.shape, values.tobytes(), np.asarray(labels, dtype=np.int8).tobytes()


def _load(path, schema):
    d = load_csv(path, schema)
    return d.values, d.labels


def test_load_csv_drops_one_byte_order_mark(tmp_path):
    schema_path = tmp_path / "schema.yaml"
    save_schema(small_schema(), schema_path)
    body = "age,unit,outcome\n1.5,icu,no\n2.5,ward,yes\n"
    plain = load_csv(_write(tmp_path / "plain.csv", body), schema_path)
    for name, text in [("bom", body), ("quoted", body.replace("icu", '"icu"'))]:  # both readers
        d = load_csv(_write(tmp_path / f"{name}.csv", "\ufeff" + text), schema_path)
        assert d.values.tobytes() == plain.values.tobytes()
        assert d.labels.tobytes() == plain.labels.tobytes()
    with pytest.raises(DataError, match=r"header \['\\ufeffage'"):
        load_csv(_write(tmp_path / "two.csv", "\ufeff\ufeff" + body), schema_path)


@pytest.mark.parametrize(
    "value, problem",
    [("a,b", "contains a comma"), ("", "is empty"), ("a\nb", "contains a line break"),
     ("a\u2028", "contains a line break")],
)
@pytest.mark.parametrize("where", ["category", "label"])
def test_schema_refuses_a_value_no_csv_cell_can_hold(tmp_path, value, problem, where):
    doc = schema_to_doc(small_schema())
    if where == "category":
        doc["attributes"][1]["categories"] = ["icu", value, "ward"]
        owner = "attribute 'unit': category"
    else:
        doc["class_labels"] = ["no", value]
        doc["positive_label"] = value
        owner = "class attribute 'outcome': label"
    path = tmp_path / "schema.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    message = f"{owner} {value!r} {problem}, which no CSV cell can hold"
    with pytest.raises(DataError) as err:
        load_schema(path)
    assert str(err.value) == f"schema file {path}: {message}"
    tree = {"kind": "tree", "schema": doc, "config": {}, "nodes": [{"weights": [1.0, 1.0]}]}
    with pytest.raises(DataError) as err:
        model_from_text(json.dumps(tree))
    assert str(err.value) == f"schema: {message}"


LONG = "k" * 63  # the longest category the column reader takes
READER_SCHEMA = DatasetSchema(
    (AttributeSpec("x", NUMERIC), AttributeSpec("c", NOMINAL, ("icu", "é ward", LONG)), AttributeSpec("z", NUMERIC)),
    "y", "no", "yes",
)
PLAIN = "x,c,z,y\n1.5,icu,-2,no\n 2.5e3\t,é ward,3,yes\n-0.0,{long},1e-320,no\n"


@pytest.mark.parametrize(
    "body, newline, columns",
    [
        (PLAIN, "\n", True),
        (PLAIN, "\r\n", True),
        (PLAIN, "\r", True),
        ("x,c,z,y\n1.5,icu,-2,no\n\xa02.5e3\u3000,é ward,3,yes", "\n", True),  # no final newline
        ("x,c,z,y\n1.5\x1f,icu,-2,no\n", "\n", False),  # loadtxt strips it from a number, float() not
        ("\ufeffx,c,z,y\n1.5,icu,-2,no\n", "\r\n", True),
        ("x,c,z,y\n1_0,icu,-2,no\n", "\n", False),  # float() reads it, loadtxt does not
        ("x,c,z,y\n１２,icu,-2,no\n", "\n", False),  # full-width digits, likewise
        ("x,c,z,y\n1.5,icu,-2,no\n", "\n", True),
        ("x,c,z,y\n", "\n", False),  # header only: loadtxt warns
        ("x,c,z,y", "\n", False),
        ("", "\n", False),
        ("x,c,z,y\n1.5,icu,-2,no\n\n2,icu,3,no\n", "\n", False),  # loadtxt skips a blank line
        ("x,c,z,y\n1.5,icu,-2,no\n\n", "\r\n", False),
        ("x,c,z,y\n\n1.5,icu,-2,no\n", "\r", False),
        ("x,c,z,y\n1.5,\"icu\",-2,no\n", "\n", False),
        ("x,c,z,y\n1.5,\"i,cu\",-2,no\n", "\n", False),
        ("x,c,z,y\n1.5,icu\x00,-2,no\n", "\n", False),  # a text cell drops a trailing NUL
        ("x,c,z,y\n1.5\x0b,icu,-2,no\n", "\n", False),  # loadtxt reads 1.5 and whitespace
        ("x,c,z,y\n1.5\x1c,icu,-2,no\n", "\n", False),
        ("x,c,z,y\n1.5\x85,icu,-2,no\n", "\n", False),
        ("x,c,z,y\n1.5\u2029,icu,-2,no\n", "\n", False),
        ("x,c,z,y\n#1,icu,-2,no\n", "\n", False),
        ("x,c,z,y\n1.5,icu,-2\n", "\n", False),
        ("x,c,z,y\n1.5,icu,-2,no,\n", "\n", False),
        ("x,c,z,y\nnan,icu,-2,no\n", "\n", False),
        ("x,c,z,y\n1.5,icu,1e999,no\n", "\n", False),
        ("x,c,z,y\n,icu,-2,no\n", "\n", False),
        ("x,c,z,y\n1.5,ICU,-2,no\n", "\n", False),
        ("x,c,z,y\n1.5,{long}k,-2,no\n", "\n", False),  # read cut to the column's width
        ("x,c,z,y\n1.5,icu,-2,maybe\n", "\n", False),
        ("x,c,z,y\n1.5,icu,-2, no\n", "\n", False),
        ("x,c,z,y,w\n1.5,icu,-2,no\n", "\n", False),
        (f"x,c,z,y\n{' ' * 140_000}1.5,icu,-2,no\n", "\n", False),  # over csv's field limit
    ],
)
def test_load_csv_reads_plain_files_as_columns_and_the_rest_per_cell(tmp_path, body, newline, columns):
    path = _write(tmp_path / "d.csv", body.format(long=LONG), newline)
    assert (_read_columns(path, READER_SCHEMA) is not None) == columns
    assert _outcome(_load, path, READER_SCHEMA) == _outcome(_read_cells, path, READER_SCHEMA)


def test_load_csv_sends_a_file_to_the_per_cell_parser_for_a_long_category(tmp_path):
    schema = DatasetSchema((AttributeSpec("c", NOMINAL, ("k" * 64,)),), "y", "no", "yes")
    path = _write(tmp_path / "d.csv", f"c,y\n{'k' * 64},no\n")
    assert _read_columns(path, schema) is None
    assert load_csv(path, schema).values.tolist() == [[0.0]]


def _mostly(usual, odd, one_in: int):
    """`odd` once in about `one_in` draws, else `usual`."""
    return st.integers(1, one_in).flatmap(lambda i: odd if i == 1 else usual)


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([" 1.5", "2 ", "\t-3e2\t", "\xa04\u3000", ".5", "5.", "+7", "1e-400"]),
)
_ODD_NUMBERS = st.sampled_from(["1_0", "１２", "nan", "-inf", "1e999", "", "x", "#1", '"4.5"', '"1,5"',
                                "0x10", "1 5", "1e", "--1", "4\x1f"])
_TEXT = _mostly(
    st.text(alphabet="abk0 \xe9#\t", min_size=1, max_size=8),
    st.one_of(
        st.text(alphabet='ab"\x00\x1f\u3000', min_size=1, max_size=3),
        st.text(alphabet="k", min_size=60, max_size=66),  # around the longest the column reader takes
    ),
    one_in=16,
)
_ODD_TEXT = st.one_of(st.sampled_from(["", "zz", " a", '"a"']), _TEXT)
_INSERTS = ["\n", "\r", '"', "#", "\x00", ",", " ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
            "\u2028", "\u2029", "\ufeff", "\xff"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_load_csv_matches_the_per_cell_parser(data):
    """The column reader and the per-cell parser give byte-identical values
    and labels, or the same refusal, on valid and malformed files."""
    holdable = _TEXT.filter(lambda t: "," not in t and t.splitlines() == [t])
    labels = data.draw(st.lists(holdable, min_size=2, max_size=2, unique=True), label="labels")
    attrs = []
    for i in range(data.draw(st.integers(1, 3), label="n_attributes")):
        if data.draw(st.booleans(), label="nominal"):
            cats = data.draw(st.lists(holdable, min_size=1, max_size=3, unique=True), label="categories")
            attrs.append(AttributeSpec(f"a{i}", NOMINAL, tuple(cats)))
        else:
            attrs.append(AttributeSpec(f"a{i}", NUMERIC))
    schema = DatasetSchema(tuple(attrs), "y", labels[0], labels[1])
    odd_cells = data.draw(_mostly(st.just(False), st.just(True), one_in=3), label="odd cells")

    def cell(attr: AttributeSpec | None) -> str:
        if attr is not None and attr.kind == NUMERIC:
            usual, odd = _NUMBERS, _ODD_NUMBERS
        else:
            usual, odd = st.sampled_from(labels if attr is None else attr.categories), _ODD_TEXT
        return data.draw(_mostly(usual, odd, one_in=4) if odd_cells else usual)

    lines = [",".join([a.name for a in attrs] + ["y"])]
    for _ in range(data.draw(_mostly(st.integers(1, 6), st.just(0), one_in=8), label="n_rows")):
        lines.append(",".join(cell(a) for a in (*attrs, None)))
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]), label="final newline")
    text = text.replace("\n", data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line break"))
    if data.draw(st.booleans(), label="byte-order mark"):
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    inserts = _mostly(st.just([]), st.lists(st.sampled_from(_INSERTS), min_size=1, max_size=2), one_in=4)
    for insert in data.draw(inserts, label="inserts"):
        at = data.draw(st.integers(0, len(raw)), label="at")
        raw = raw[:at] + (b"\xff" if insert == "\xff" else insert.encode("utf-8")) + raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(raw)
        assert _outcome(_load, path, schema) == _outcome(_read_cells, path, schema)


def test_load_csv_peak_memory_stays_within_four_value_matrices(tmp_path):
    """A 20,000-row file loads in less than four times its value matrix,
    which rules out holding its text or a Python float per cell."""
    data = gen_synthetic(SyntheticConfig(blob_sizes=(8000, 12000), blob_irs=(3.0, 10.0), n_numeric=6, seed=4))
    path = tmp_path / "data.csv"
    write_csv(data.dataset, path)
    tracemalloc.start()
    try:
        d = load_csv(path, data.dataset.schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(d.values, data.dataset.values)
    assert peak < 4 * d.values.nbytes, f"peak {peak} bytes for a {d.values.nbytes}-byte matrix"

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
