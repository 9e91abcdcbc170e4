"""Core dataset types, the dimensionality-normalized norm, the Gram-form
distance kernel, row checks for prediction input, the nearest-class
rule on class scores, and CSV ingestion.

Conventions
-----------
- Samples are rows, features are columns, all values 64-bit floats.
- Class labels are integers ``1..k`` and every class must occur.
- Inside the library feature/row indices are 0-based numpy arrays; the
  file formats (CSV, model JSON) and all printed output use 1-based
  indices instead.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np


class CsvFormatError(ValueError):
    """Raised when an input CSV does not match the ingestion format."""


@dataclass(frozen=True)
class LabeledDataset:
    """A dense matrix of finite floats, samples as rows, plus integer
    class labels in ``1..k``.

    The matrix needs at least one row and one column; it is copied and
    frozen, so the caller's array is left untouched.  Every class in
    ``1..k`` must be represented, and ``k`` may not exceed either
    dimension of the matrix.

    The per-class quantities that fits share (`class_x`, `class_means`,
    `class_ss`) are computed on first use and kept, read-only.
    """

    x: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("data matrix must be 2-dimensional")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("data matrix must have at least one row and one column")
        if not np.all(np.isfinite(x)):
            raise ValueError("data matrix contains NaN or infinite entries")
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
            raise ValueError("labels must be one per data-matrix row")
        if self.k < 1:
            raise ValueError("class count must be at least 1")
        if self.k > min(x.shape):
            raise ValueError(
                f"class count k={self.k} exceeds min(n_rows, n_cols)={min(x.shape)}")
        present = np.unique(labels)
        if present[0] < 1 or present[-1] > self.k:
            raise ValueError("labels must lie in 1..k")
        if len(present) != self.k:
            missing = sorted(set(range(1, self.k + 1)) - set(present.tolist()))
            raise ValueError(f"classes with no samples: {missing}")
        x.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_arrays(cls, x, labels, k: int | None = None) -> "LabeledDataset":
        labels = np.asarray(labels, dtype=np.int64)
        if k is None:
            k = int(labels.max()) if labels.size else 0
        return cls(x, labels, k)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @cached_property
    def class_x(self) -> tuple[np.ndarray, ...]:
        """Each class's rows as one block: element j-1 holds the rows
        labeled j, in their original order."""
        return tuple(_frozen(self.x[self.labels == j]) for j in range(1, self.k + 1))

    @cached_property
    def class_means(self) -> np.ndarray:
        """The (k x p) per-class column means."""
        return _frozen(np.stack([xs.mean(axis=0) for xs in self.class_x]))

    @cached_property
    def class_ss(self) -> np.ndarray:
        """The (k x p) within-class sums of squares about each class mean."""
        return _frozen(np.stack([np.square(xs - mean).sum(axis=0)
                                 for xs, mean in zip(self.class_x, self.class_means)]))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FeaturePartition:
    """Disjoint feature-index groups covering ``0..p-1``.

    ``groups[0]`` is the special unused-feature group when ``has_special``
    is set; it may be empty.  All other groups correspond to classes
    ``1..k`` in order and must stay non-empty.  Each group lists its
    indices in strictly increasing order, the order of the centroid
    entries a model pairs with it; any other order raises ValueError.
    """

    groups: tuple[np.ndarray, ...]
    has_special: bool = False

    def __post_init__(self):
        frozen = []
        for pos, g in enumerate(self.groups):
            arr = np.array(g, dtype=np.int64).reshape(-1)
            if np.any(arr[1:] <= arr[:-1]):
                raise ValueError(f"feature group {pos} must list its indices in increasing order")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "groups", tuple(frozen))

    @property
    def class_groups(self) -> tuple[np.ndarray, ...]:
        """The groups tied to classes 1..k, excluding the special group."""
        return self.groups[1:] if self.has_special else self.groups

    @property
    def special(self) -> np.ndarray | None:
        return self.groups[0] if self.has_special else None

    def groups_1based(self) -> list[list[int]]:
        return [(g + 1).tolist() for g in self.groups]


def dn_norm_sq(v) -> float:
    """Squared dimensionality-normalized norm: mean of squared entries."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("dn-norm of an empty vector is undefined")
    return float(np.mean(np.square(v)))


def row_sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of ``a``."""
    return np.einsum("ij,ij->i", a, a)


def sq_distances(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``.

    Gram form ||a||^2 - 2 a.b + ||b||^2 with the row norms passed in, so
    callers can compute them once; one BLAS product makes the cross term
    and the result is clamped at 0 against cancellation.
    """
    d2 = a @ b.T
    d2 *= -2.0
    d2 += a_sq[:, None]
    d2 += b_sq[None, :]
    return np.maximum(d2, 0.0, out=d2)


def nearest_class(scores: np.ndarray) -> np.ndarray:
    """The class (1-based column) of each row's smallest score in the
    (rows x k) ``scores``; ties go to the smallest class.

    Raises ValueError on the first row (1-based) with no finite class
    score, as when all its squared distances overflow: such a row has no
    nearest class, and a tie-broken label would be a guess.
    """
    bad = np.flatnonzero(~np.isfinite(scores.min(axis=1)))
    if bad.size:
        raise ValueError(f"row {bad[0] + 1}: no class score is finite (its squared distances overflow)")
    return scores.argmin(axis=1) + 1


def feature_rows(x, p: int) -> np.ndarray:
    """Rows to classify, as a 2-D float64 array of ``p`` columns.

    A single 1-D row is accepted.  Raises ValueError on a column-count
    mismatch and on the first row (1-based) holding a NaN or infinity.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got {x.ndim} dimensions")
    if x.shape[1] != p:
        raise ValueError(f"expected {p} features, got {x.shape[1]}")
    finite = np.isfinite(x)
    if not finite.all():
        bad = int(np.flatnonzero(~finite.all(axis=1))[0]) + 1
        raise ValueError(f"row {bad} holds a NaN or infinite value")
    return x


def validate_partition(part: FeaturePartition, p: int, k: int) -> str | None:
    """Return None if ``part`` is a valid partition for (p, k), else the
    first violation found, as a human-readable message."""
    if len(part.class_groups) != k:
        return f"expected {k} class groups, found {len(part.class_groups)}"
    seen = np.zeros(p, dtype=bool)
    for pos, g in enumerate(part.groups):
        if len(g) and (g[0] < 0 or g[-1] >= p):
            return f"group {pos}: feature index out of range 1..{p}"
        dup = g[seen[g]]
        if dup.size:
            return f"overlap at feature {int(dup[0]) + 1}"
        seen[g] = True
    for pos, g in enumerate(part.class_groups):
        if len(g) == 0:
            return f"class group {pos + 1} is empty"
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0]) + 1
        return f"feature {missing} not covered"
    return None


def read_labeled_csv(path, label_col: str = "label") -> LabeledDataset:
    """Read the delimited ingestion format: a header row, one integer label
    column, and numeric feature columns taken in file order.  A leading
    UTF-8 byte-order mark is dropped."""
    x, labels, _, _ = _read_csv(path, label_col, require_labels=True)
    try:
        return LabeledDataset.from_arrays(x, labels)
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from exc


def read_feature_csv(path, label_col: str = "label"):
    """Read features from CSV, tolerating an absent label column.

    Returns ``(x, labels_or_none, raw_header, raw_rows)`` where the raw
    parts preserve the file text for pass-through output.
    """
    return _read_csv(path, label_col, require_labels=False)


def _read_csv(path, label_col, require_labels):
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _read_rows(path, fh, label_col, require_labels)
    except UnicodeDecodeError:
        # the decoder reads 8 KiB ahead of the row checks, so read again a
        # line at a time: a fault in a row before the undecodable line is
        # then named first.  No UTF-8 sequence spans a line break, so each
        # line decodes alone.
        with open(path, "rb") as raw:
            data = raw.read()
        return _read_rows(path, _utf8_lines(path, data), label_col, require_labels)


def _utf8_lines(path, data: bytes):
    """The lines of ``data`` as text, line ends kept, as a file opened with
    ``newline=""`` splits them; CsvFormatError at the first line that is
    not UTF-8."""
    for line, chunk in enumerate(data.splitlines(keepends=True), 1):
        try:
            yield chunk.decode("utf-8-sig" if line == 1 else "utf-8")
        except UnicodeDecodeError:
            raise CsvFormatError(f"{path}: row {line}: not UTF-8 text") from None


def _read_rows(path, lines, label_col, require_labels):
    """Parse and check the CSV text ``lines``, in file order."""
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file")
        if header.count(label_col) > 1:
            raise CsvFormatError(f"{path}: column '{label_col}' appears "
                                 f"{header.count(label_col)} times in the header")
        label_idx = header.index(label_col) if label_col in header else None
        if require_labels and label_idx is None:
            raise CsvFormatError(f"{path}: no '{label_col}' column in header")
        feat_idx = [i for i in range(len(header)) if i != label_idx]
        if not feat_idx:
            raise CsvFormatError(f"{path}: no feature columns")
        # itemgetter of one index returns the cell itself, not a 1-tuple
        feature_cells = (itemgetter(*feat_idx) if len(feat_idx) > 1
                         else lambda row: (row[feat_idx[0]],))
        values, labels, rows = array("d"), array("q"), None if require_labels else []
        for row in filter(None, reader):
            line = reader.line_num  # blank lines skipped but counted
            if len(row) != len(header):
                raise CsvFormatError(f"{path}: row {line} has {len(row)} cells, header has {len(header)}")
            try:
                floats = list(map(float, feature_cells(row)))
                clean = math.isfinite(sum(floats))
            except ValueError:
                clean = False
            if not clean:  # name the first cell that is not a finite float
                for i in feat_idx:
                    try:
                        fault = None if math.isfinite(float(row[i])) else "non-finite"
                    except ValueError:
                        fault = "non-numeric"
                    if fault:
                        raise CsvFormatError(f"{path}: row {line}, column '{header[i]}': "
                                             f"{fault} value {row[i]!r}")
            values.fromlist(floats)  # only a sum that overflows gets here unclean
            if label_idx is not None:
                try:
                    labels.append(int(row[label_idx]))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {line}: non-integer label {row[label_idx]!r}") from None
                except OverflowError:  # an integer beyond int64
                    raise CsvFormatError(
                        f"{path}: row {line}: label {row[label_idx]!r} out of range") from None
            if rows is not None:  # only the pass-through keeps cell text
                rows.append(row)
    except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
        raise CsvFormatError(f"{path}: row {reader.line_num}: {exc}") from None
    if not values:
        raise CsvFormatError(f"{path}: no data rows")
    x = np.frombuffer(values, dtype=np.float64).reshape(-1, len(feat_idx))
    return x, None if label_idx is None else np.frombuffer(labels, dtype=np.int64), header, rows


def write_labeled_csv(path, ds: LabeledDataset, label_col: str = "label") -> None:
    """Write the ingestion format with the label column first.

    The header goes through csv.writer, since ``label_col`` may need
    quoting; a data row is its label and the ``repr`` of each value,
    which for a finite float never needs quoting.
    """
    # csv leaves a "\r" unquoted under a "\n" terminator, and the reader
    # drops a leading U+FEFF as a byte-order mark: quote such names
    quote = "\r" in label_col or label_col.startswith("\ufeff")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n",
                   quoting=csv.QUOTE_ALL if quote else csv.QUOTE_MINIMAL).writerow(
            [label_col] + [f"x{i}" for i in range(1, ds.p + 1)])
        for label, row in zip(ds.labels.tolist(), ds.x):
            fh.write(f"{label}," + ",".join(map(repr, row.tolist())) + "\n")
