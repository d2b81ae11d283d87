from __future__ import annotations

import contextlib
import csv
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import crus.dataset
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


def _reference_cell(cell: str, attr: AttributeSpec, row_no: int) -> float:
    if cell == "":
        raise DataError(f"row {row_no}: missing value for attribute '{attr.name}'")
    if "," in cell:
        raise DataError(f"row {row_no}: cell for '{attr.name}' contains a comma")
    if attr.kind == NUMERIC:
        try:
            return float(cell)
        except ValueError:
            raise DataError(
                f"row {row_no}: '{cell}' is not numeric for attribute '{attr.name}'"
            ) from None
    try:
        return float(attr.categories.index(cell))
    except ValueError:
        raise DataError(
            f"row {row_no}: unknown category '{cell}' for attribute '{attr.name}'"
        ) from None


def _reference(data_path: Path, schema: DatasetSchema) -> tuple[np.ndarray, np.ndarray]:
    """The reference parser: the whole text split by str.splitlines, one
    csv.reader over its lines and one row at a time, with every refusal's
    text.  `load_csv` must give the same values, labels and refusals."""
    text = data_path.read_text(encoding="utf-8-sig")
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{data_path}: empty file, expected a header row") from None
    expected = [a.name for a in schema.attributes] + [schema.class_name]
    if header != expected:
        raise DataError(
            f"{data_path}: header {header!r} does not match schema columns {expected!r}"
        )
    rows: list[list[float]] = []
    labels: list[int] = []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(expected):
            raise DataError(
                f"row {row_no}: expected {len(expected)} cells, found {len(row)}"
            )
        rows.append([_reference_cell(cell, attr, row_no) for cell, attr in zip(row, schema.attributes)])
        cls = row[-1]
        if cls == schema.positive_label:
            labels.append(1)
        elif cls == schema.negative_label:
            labels.append(0)
        else:
            raise DataError(f"row {row_no}: unknown class label '{cls}'")
    values = np.array(rows, dtype=np.float64) if rows else np.empty((0, schema.n_attributes))
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataError(
            f"row {r + 2}: {values[r, c]} is not a finite number for attribute "
            f"'{schema.attributes[c].name}'"
        )
    return values, np.array(labels, dtype=np.int8)


def _outcome(read, path, schema):
    """Values and labels as bytes, or the type and text of the refusal."""
    try:
        values, labels = read(path, schema)
    except (ValueError, csv.Error) as exc:  # DataError, invalid UTF-8, or csv's own refusal
        if isinstance(exc.__cause__, csv.Error):  # load_csv adds the row to csv's refusal
            exc = exc.__cause__
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
    for name, text in [("bom", body), ("quoted", body.replace("icu", '"icu"'))]:
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


LONG = "k" * 63
READER_SCHEMA = DatasetSchema(
    (AttributeSpec("x", NUMERIC), AttributeSpec("c", NOMINAL, ("icu", "é ward", LONG)), AttributeSpec("z", NUMERIC)),
    "y", "no", "yes",
)
PLAIN = "x,c,z,y\n1.5,icu,-2,no\n 2.5e3\t,é ward,3,yes\n-0.0,{long},1e-320,no\n"


@pytest.mark.parametrize(
    "body, newline",
    [
        (PLAIN, "\n"),
        (PLAIN, "\r\n"),
        (PLAIN, "\r"),
        ("x,c,z,y\n1.5,icu,-2,no\n\xa02.5e3\u3000,é ward,3,yes", "\n"),  # no final newline
        ("x,c,z,y\n1.5\x1f,icu,-2,no\n", "\n"),
        ("\ufeffx,c,z,y\n1.5,icu,-2,no\n", "\r\n"),
        ("x,c,z,y\n1_0,icu,-2,no\n", "\n"),
        ("x,c,z,y\n１２,icu,-2,no\n", "\n"),  # full-width digits
        ("x,c,z,y\n1.5,icu,-2,no\n", "\n"),
        ("x,c,z,y\n", "\n"),
        ("x,c,z,y", "\n"),
        ("", "\n"),
        ("x,c,z,y\n1.5,icu,-2,no\n\n2,icu,3,no\n", "\n"),
        ("x,c,z,y\n1.5,icu,-2,no\n\n", "\r\n"),
        ("x,c,z,y\n\n1.5,icu,-2,no\n", "\r"),
        ("x,c,z,y\n1.5,\"icu\",-2,no\n", "\n"),
        ("x,c,z,y\n1.5,\"i,cu\",-2,no\n", "\n"),
        ("x,c,z,y\n1.5,icu\x00,-2,no\n", "\n"),
        ("x,c,z,y\n1.5\x0b,icu,-2,no\n", "\n"),
        ("x,c,z,y\n1.5\x1c,icu,-2,no\n", "\n"),
        ("x,c,z,y\n1.5\x85,icu,-2,no\n", "\n"),
        ("x,c,z,y\n1.5\u2029,icu,-2,no\n", "\n"),
        ("x,c,z,y\n#1,icu,-2,no\n", "\n"),
        ("x,c,z,y\n1.5,icu,-2\n", "\n"),
        ("x,c,z,y\n1.5,icu,-2,no,\n", "\n"),
        ("x,c,z,y\nnan,icu,-2,no\n", "\n"),
        ("x,c,z,y\n1.5,icu,1e999,no\n", "\n"),
        ("x,c,z,y\n,icu,-2,no\n", "\n"),
        ("x,c,z,y\n1.5,ICU,-2,no\n", "\n"),
        ("x,c,z,y\n1.5,{long}k,-2,no\n", "\n"),
        ("x,c,z,y\n1.5,icu,-2,maybe\n", "\n"),
        ("x,c,z,y\n1.5,icu,-2, no\n", "\n"),
        ("x,c,z,y,w\n1.5,icu,-2,no\n", "\n"),
    ],
)
def test_load_csv_matches_the_reference_parser_on_listed_files(tmp_path, body, newline):
    path = _write(tmp_path / "d.csv", body.format(long=LONG), newline)
    assert _outcome(_load, path, READER_SCHEMA) == _outcome(_reference, path, READER_SCHEMA)


def test_load_csv_names_the_row_of_a_cell_over_the_csv_field_limit(tmp_path):
    """The one listed file on which load_csv and the reference differ: the
    reference lets csv's error out, load_csv names the row."""
    path = _write(tmp_path / "d.csv", f"x,c,z,y\n1.5,icu,-2,no\n{' ' * 140_000}1.5,icu,-2,no\n")
    with pytest.raises(csv.Error) as reference:
        _reference(path, READER_SCHEMA)
    with pytest.raises(DataError) as err:
        load_csv(path, READER_SCHEMA)
    assert str(err.value) == f"row 3: {reference.value}"
    assert str(reference.value) == f"field larger than field limit ({csv.field_size_limit()})"


def test_load_csv_reads_a_64_character_category(tmp_path):
    schema = DatasetSchema((AttributeSpec("c", NOMINAL, ("k" * 64,)),), "y", "no", "yes")
    path = _write(tmp_path / "d.csv", f"c,y\n{'k' * 64},no\n")
    assert load_csv(path, schema).values.tolist() == [[0.0]]


def _tiny_blocks():
    """Blocks of 2 rows and reads of 8 characters, so that blocks split a file."""
    return mock.patch.multiple(crus.dataset, _BLOCK_ROWS=2, _READ_CHARS=8)


@pytest.mark.parametrize(
    "body, refusal",
    [
        ("x,c,z,y\nnan,icu,1,no\n1,icu,1,no\n1,icu,1,no\n1,ICU,1,no\n",
         "row 5: unknown category 'ICU' for attribute 'c'"),
        ("x,c,z,y\n1,icu,1,no\n1,icu,1,no\n1,icu,1,no,\n1,icu,1,no\n",
         "row 4: expected 4 cells, found 5"),
        ("x,c,z,y\n1,icu,1,no\nnan,icu,1,no\n1,icu,1,no\n1,icu,inf,yes\n",
         "row 3: nan is not a finite number for attribute 'x'"),
        (f"x,c,z,y\n1,icu,1,no\n1,icu,1,no\n1,ICU,1,no\n{' ' * 140_000}1,icu,1,no\n",
         "row 4: unknown category 'ICU' for attribute 'c'"),
    ],
    ids=["unknown-category-after-a-nan", "cell-count-in-the-second-block", "first-non-finite",
         "bad-cell-before-one-over-the-field-limit"],
)
def test_load_csv_refusals_keep_their_row_order_across_blocks(tmp_path, body, refusal):
    path = _write(tmp_path / "d.csv", body)
    with _tiny_blocks():
        assert _outcome(_load, path, READER_SCHEMA) == (DataError, refusal)
    assert _outcome(_reference, path, READER_SCHEMA) == (DataError, refusal)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_load_csv_reads_a_quoted_line_break_at_a_read_block_boundary(tmp_path, newline):
    # the header fills the first 8-character read, so the read block ends in the quoted cell
    path = _write(tmp_path / "d.csv", 'x,c,z,y\n"1.5\n",icu,-2,no\n2,"é ward",3,yes\n', newline)
    with _tiny_blocks():
        assert _outcome(_load, path, READER_SCHEMA) == _outcome(_reference, path, READER_SCHEMA)
        assert load_csv(path, READER_SCHEMA).values.tolist() == [[1.5, 0.0, -2.0], [2.0, 1.0, 3.0]]


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
        st.text(alphabet="k", min_size=60, max_size=66),
    ),
    one_in=16,
)
_ODD_TEXT = st.one_of(st.sampled_from(["", "zz", " a", '"a"']), _TEXT)
_INSERTS = ["\n", "\r", '"', "#", "\x00", ",", " ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
            "\u2028", "\u2029", "\ufeff", "\xff"]


@pytest.mark.parametrize("tiny", [False, True], ids=["default-blocks", "tiny-blocks"])
@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_csv_matches_the_reference_parser_on_generated_files(tiny, data):
    """load_csv and the reference parser give byte-identical values and
    labels, or the same refusal, on valid and malformed files, also when
    tiny blocks split every file."""
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
        with _tiny_blocks() if tiny else contextlib.nullcontext():
            assert _outcome(_load, path, schema) == _outcome(_reference, path, schema)


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
