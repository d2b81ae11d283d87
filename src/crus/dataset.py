"""Tabular datasets with mixed numeric/nominal attributes and a binary class.

The on-disk format is a plain comma-separated file with a header row plus a
YAML schema sidecar declaring attribute kinds, nominal categories, the class
column and which label is the positive (minority) one.  In memory a dataset
is a dense float matrix: numeric cells hold their value, nominal cells hold
the category index from the schema.

The schema has one document layout, shared by the sidecar and the model
files: `schema_to_doc` builds it and `schema_from_doc` is its one checked
reader.  It refuses a category or class label that no CSV cell can hold:
an empty one, or one with a comma or a line break.

`load_csv` streams a file: it reads a block of whole lines at a time,
splits them into rows with one `csv.reader` and converts a few hundred rows
at a time, a column at a time, so it never holds the whole text or a Python
float per cell.  Every refusal names its row and, for a bad cell, its
attribute.  One leading byte-order mark is dropped.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

NUMERIC = "numeric"
NOMINAL = "nominal"


class DataError(ValueError):
    """Raised for malformed schema or data files."""


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str  # NUMERIC or NOMINAL
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, NOMINAL):
            raise DataError(f"attribute '{self.name}': unknown kind '{self.kind}'")
        if self.kind == NOMINAL and len(self.categories) < 1:
            raise DataError(f"attribute '{self.name}': nominal attribute needs categories")
        if self.kind == NOMINAL and len(set(self.categories)) != len(self.categories):
            raise DataError(f"attribute '{self.name}': duplicate categories")
        if self.kind == NUMERIC and self.categories:
            raise DataError(f"attribute '{self.name}': numeric attribute takes no categories")


@dataclass(frozen=True)
class DatasetSchema:
    attributes: tuple[AttributeSpec, ...]
    class_name: str
    negative_label: str
    positive_label: str

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes] + [self.class_name]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
        if self.negative_label == self.positive_label:
            raise DataError("class labels must be distinct")

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def numeric_mask(self) -> np.ndarray:
        return np.array([a.kind == NUMERIC for a in self.attributes], dtype=bool)


@dataclass
class Dataset:
    """Immutable matrix-backed dataset; label 1 is the positive class."""

    schema: DatasetSchema
    values: np.ndarray      # (n, d) float64; nominal cells are category indices
    labels: np.ndarray      # (n,) int8; 1 = positive, 0 = negative
    # (n,) int64 row index in the loaded data; negative for a synthetic row
    row_ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        n = self.labels.shape[0]
        if self.values.shape != (n, self.schema.n_attributes):
            raise DataError(
                f"value matrix shape {self.values.shape} does not match "
                f"{n} rows x {self.schema.n_attributes} attributes"
            )
        if self.row_ids is None:
            self.row_ids = np.arange(n, dtype=np.int64)
        else:
            self.row_ids = np.asarray(self.row_ids, dtype=np.int64)
        for arr in (self.values, self.labels, self.row_ids):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def synthetic(self) -> np.ndarray:
        """True for each row that a sampler made rather than loaded."""
        return self.row_ids < 0

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    @property
    def n_negative(self) -> int:
        return int(np.count_nonzero(self.labels == 0))

    def subset(self, indices: np.ndarray | list[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, self.values[idx], self.labels[idx], self.row_ids[idx])


def schema_to_doc(schema: DatasetSchema) -> dict:
    """The schema document, the one layout of a schema sidecar and of the
    schema inside a model file.

    Keys: ``class_attribute`` (column name), ``class_labels`` (two labels,
    negative first), ``positive_label`` (one of the two), ``attributes``
    (list of ``{name, kind, categories?}`` entries in column order; only a
    nominal attribute lists its categories).
    """
    return {
        "class_attribute": schema.class_name,
        "class_labels": [schema.negative_label, schema.positive_label],
        "positive_label": schema.positive_label,
        "attributes": [
            {"name": a.name, "kind": a.kind, **({"categories": list(a.categories)} if a.kind == NOMINAL else {})}
            for a in schema.attributes
        ],
    }


def schema_from_doc(doc: object, where: str) -> DatasetSchema:
    """The schema a schema document holds, checked; the refusals made here
    start with `where` (those of AttributeSpec and DatasetSchema do not).

    A sidecar gives only text (see `load_schema`).  In a JSON model file,
    a number given for a name, label or category becomes its text and a
    boolean is refused.
    """
    if not isinstance(doc, dict):
        raise DataError(f"{where}: expected a mapping at top level")
    for key in ("class_attribute", "class_labels", "positive_label", "attributes"):
        if key not in doc:
            raise DataError(f"{where}: missing key '{key}'")

    def listed(value: object, key: str) -> list:
        if not isinstance(value, list):
            raise DataError(f"{where}: '{key}' must be a list, got {value!r}")
        return value

    def text(value: object) -> str:
        if isinstance(value, bool):
            raise DataError(
                f"{where}: {value!r} was read as a boolean; quote it to keep it text "
                "(JSON reads an unquoted true or false as a boolean)"
            )
        return str(value)

    def cell(value: str, owner: str) -> str:
        """`value`, a category or label, if a CSV cell can hold it."""
        if value == "":
            problem = "is empty"
        elif "," in value:
            problem = "contains a comma"
        elif value.splitlines() != [value]:
            problem = "contains a line break"
        else:
            return value
        raise DataError(f"{where}: {owner} {value!r} {problem}, which no CSV cell can hold")

    class_name = text(doc["class_attribute"])
    labels = [text(v) for v in listed(doc["class_labels"], "class_labels")]
    if len(labels) != 2:
        raise DataError(f"{where}: class_labels must list exactly two labels")
    for label in labels:
        cell(label, f"class attribute '{class_name}': label")
    positive = text(doc["positive_label"])
    if positive not in labels:
        raise DataError(f"{where}: positive_label '{positive}' not in class_labels")
    negative = labels[0] if labels[1] == positive else labels[1]
    attrs = []
    for entry in listed(doc["attributes"], "attributes"):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise DataError(f"{where}: each attribute needs 'name' and 'kind'")
        name = text(entry["name"])
        cats = tuple(
            cell(text(c), f"attribute '{name}': category")
            for c in listed(entry.get("categories") or [], "categories")
        )
        attrs.append(AttributeSpec(name, str(entry["kind"]), cats))
    if not attrs:
        raise DataError(f"{where}: 'attributes' lists no attribute besides the class")
    return DatasetSchema(tuple(attrs), class_name, negative, positive)


def load_schema(path: str | Path) -> DatasetSchema:
    """Read a YAML schema sidecar holding the document `schema_to_doc` gives.

    Every scalar is read as the text written, so an unquoted ~, 1.50, 010
    or yes is that text and matches the same CSV cell.
    """
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.BaseLoader)
    except FileNotFoundError:
        raise DataError(f"schema file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise DataError(f"schema file {path} is not valid YAML: {exc}") from None
    return schema_from_doc(raw, f"schema file {path}")


def save_schema(schema: DatasetSchema, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(schema_to_doc(schema), sort_keys=False), encoding="utf-8")


def _parse_cell(cell: str, attr: AttributeSpec, row_no: int) -> float:
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


def _parse_row(row: list[str], schema: DatasetSchema, row_no: int) -> list[float]:
    """A data row's values and then its class code (1 for the positive
    label), or the refusal of its first bad cell."""
    if len(row) != schema.n_attributes + 1:
        raise DataError(
            f"row {row_no}: expected {schema.n_attributes + 1} cells, found {len(row)}"
        )
    values = [_parse_cell(cell, attr, row_no) for cell, attr in zip(row, schema.attributes)]
    labels = (schema.negative_label, schema.positive_label)
    if row[-1] not in labels:
        raise DataError(f"row {row_no}: unknown class label '{row[-1]}'")
    return [*values, float(labels.index(row[-1]))]


# The file is read a block of this many characters (plus the rest of its last
# line) at a time, and its rows converted this many at a time, so that the
# whole text, or a Python object per cell, is never held.
_READ_CHARS = 1 << 16
_BLOCK_ROWS = 256


def _lines(fh) -> Iterator[str]:
    """The lines of text file `fh`, as str.splitlines splits its whole text."""
    while block := fh.read(_READ_CHARS):
        yield from (block + fh.readline()).splitlines()


def _convert(rows: list[list[str]], row_no: int, schema: DatasetSchema) -> np.ndarray:
    """`rows`, the first of which is row `row_no`, as a table of their values
    and then their class codes.  A block that does not convert a column at a
    time is parsed row by row, which raises its first refusal."""
    labels = {schema.negative_label: 0.0, schema.positive_label: 1.0}
    converters = [
        float if a.kind == NUMERIC else {c: float(i) for i, c in enumerate(a.categories)}.__getitem__
        for a in schema.attributes
    ]
    table = np.empty((len(rows), len(converters) + 1))
    try:
        if any(len(row) != table.shape[1] for row in rows):
            raise ValueError("a row has the wrong number of cells")
        for convert, cells, column in zip([*converters, labels.__getitem__], zip(*rows), table.T):
            column[:] = np.fromiter(map(convert, cells), np.float64, len(cells))
    except (KeyError, ValueError):
        for i, row in enumerate(rows):
            table[i] = _parse_row(row, schema, row_no + i)
    return table


def _read_tables(fh, data_path: Path, schema: DatasetSchema) -> list[np.ndarray]:
    """The data rows of open file `fh` as tables of `_BLOCK_ROWS` rows (see
    `_convert`), after a check of its header row."""
    rows = csv.reader(_lines(fh))
    tables = [np.empty((0, schema.n_attributes + 1))]
    block: list[list[str]] = []
    row_no = 1  # of block[0]; the header is row 1
    try:
        header = next(rows, None)
        if header is None:
            raise DataError(f"{data_path}: empty file, expected a header row")
        expected = [a.name for a in schema.attributes] + [schema.class_name]
        if header != expected:
            raise DataError(
                f"{data_path}: header {header!r} does not match schema columns {expected!r}"
            )
        row_no = 2
        for row in rows:
            block.append(row)
            if len(block) == _BLOCK_ROWS:
                tables.append(_convert(block, row_no, schema))
                block, row_no = [], row_no + _BLOCK_ROWS
    except csv.Error as exc:  # such as a cell over csv's field size limit
        _convert(block, row_no, schema)  # a refusal of an earlier row comes first
        raise DataError(f"row {row_no + len(block)}: {exc}") from exc
    tables.append(_convert(block, row_no, schema))
    return tables


def load_csv(data_path: str | Path, schema: DatasetSchema | str | Path) -> Dataset:
    """Load a CSV file against a schema (or a schema file path).

    The file is streamed: read a block of whole lines at a time, split into
    rows by one `csv.reader` and converted `_BLOCK_ROWS` rows at a time,
    numeric cells by `float` and nominal cells and class labels by lookup.
    A refusal names its row and, for a bad cell, its attribute; a non-finite
    number is refused after the last row.  One leading byte-order mark is
    dropped.
    """
    if not isinstance(schema, DatasetSchema):
        schema = load_schema(schema)
    data_path = Path(data_path)
    try:
        with data_path.open(encoding="utf-8-sig") as fh:
            tables = _read_tables(fh, data_path, schema)
    except FileNotFoundError:
        raise DataError(f"data file not found: {data_path}") from None
    values = np.concatenate([t[:, :-1] for t in tables])
    labels = np.concatenate([t[:, -1] for t in tables]).astype(np.int8)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataError(
            f"row {r + 2}: {values[r, c]} is not a finite number for attribute "
            f"'{schema.attributes[c].name}'"
        )
    return Dataset(schema, values, labels)


def _format_value(v: float, attr: AttributeSpec) -> str:
    if attr.kind == NOMINAL:
        return attr.categories[int(v)]
    return repr(float(v))


def write_csv(d: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV (synthetic flags are not persisted)."""
    lines = [",".join([a.name for a in d.schema.attributes] + [d.schema.class_name])]
    for i in range(len(d)):
        cells = [_format_value(v, a) for v, a in zip(d.values[i], d.schema.attributes)]
        cells.append(d.schema.positive_label if d.labels[i] == 1 else d.schema.negative_label)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def imbalance_ratio(d: Dataset) -> float:
    """Majority/minority count ratio, with label 1 declared the minority.

    Raises on zero positive instances.  If positives actually outnumber
    negatives the declared minority is not the true minority; the ratio is
    still negatives/positives and a UserWarning is emitted.
    """
    pos = d.n_positive
    neg = d.n_negative
    if pos == 0:
        raise DataError("imbalance ratio undefined: no positive (minority) instances")
    if pos > neg:
        import warnings

        warnings.warn(
            "declared minority class outnumbers the majority; ratio is below 1",
            UserWarning,
            stacklevel=2,
        )
    return neg / pos


@dataclass(frozen=True)
class FoldSplit:
    """Assignment of every instance to one of k cross-validation folds."""

    fold_of: np.ndarray  # (n,) int64 fold index per instance

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def stratified_kfold(d: Dataset, k: int, seed: int) -> FoldSplit:
    """Stratified k-fold assignment.

    Within each class the indices are shuffled by `seed` and dealt
    round-robin to folds; the dealing position carries over between classes
    so total fold sizes differ by at most one.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    counts = (d.n_negative, d.n_positive)
    if k > min(counts):
        raise ValueError(
            f"k={k} exceeds the smallest class count ({min(counts)}); "
            "every fold needs at least one instance of each class"
        )
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(d), dtype=np.int64)
    cursor = 0
    for cls in (0, 1):
        idx = np.flatnonzero(d.labels == cls)
        idx = rng.permutation(idx)
        for j, i in enumerate(idx):
            fold_of[i] = (cursor + j) % k
        cursor = (cursor + len(idx)) % k
    return FoldSplit(fold_of)
