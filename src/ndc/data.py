"""Core dataset types, the dimensionality-normalized norm, the Gram-form
distance kernel, the byte budget that cuts scored rows into blocks, row
checks for prediction input, the nearest-class rule on class scores, and
CSV ingestion.

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


# Bytes each of a scorer's per-row arrays may take at once (see
# `row_blocks`): kNN's block of test x train distances, or nc's and nsc's
# block of the rows x k x p differences.  At 1000 training rows a kNN
# block holds about a hundred test rows.
ROW_BYTES = 1 << 20


def row_blocks(n: int, row_bytes: int, unit: int = 2) -> list[slice]:
    """In-order slices cutting ``range(n)`` into blocks whose arrays of
    ``row_bytes`` bytes a row fit `ROW_BYTES`.

    Each block holds a multiple of ``unit`` rows, and at least ``unit``
    even where that is over the budget; a remainder of fewer rows joins
    the last block.  So only an input of fewer than ``unit`` rows makes a
    block that small, and then it is the one block.
    """
    size = max(unit, ROW_BYTES // row_bytes // unit * unit)
    cuts = list(range(size, n - unit + 1, size))
    return [slice(start, stop) for start, stop in zip([0] + cuts, cuts + [n])]


def nearest_class(scores: np.ndarray, is_exact=None) -> np.ndarray:
    """The class (1-based column) of each row's smallest score in the
    (rows x k) ``scores``; ties go to the smallest class.

    A row has no nearest class, and raises ValueError naming it (1-based),
    where no class score is finite, as when all its squared distances
    overflow, or, given ``is_exact(i, j)`` (whether row i's 0 score for
    class j is exact rather than underflowed), where two or more classes
    score 0 and all of them underflowed.  Otherwise a row whose smallest
    score is 0 goes to the smallest class with an exact 0.
    """
    bad = np.flatnonzero(~np.isfinite(scores.min(axis=1)))
    if bad.size:
        raise ValueError(f"row {bad[0] + 1}: no class score is finite (its squared distances overflow)")
    labels = scores.argmin(axis=1) + 1
    for i in np.flatnonzero(scores.min(axis=1) == 0) if is_exact else ():
        zero = np.flatnonzero(scores[i] == 0)
        exact = [j for j in zero if is_exact(i, j)]
        if exact:
            labels[i] = exact[0] + 1
        elif len(zero) > 1:
            raise ValueError(f"row {i + 1}: {len(zero)} class scores underflow to 0 "
                             "(its squared distances are below the float range)")
    return labels


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
    """Read features from CSV, tolerating an absent label column; returns
    ``(x, labels_or_none, header, rows)`` for pass-through output: the
    header's cells, and each data row as one string, its cells joined by
    commas.  Every such cell is one that float() or int() accepts, so none
    holds a comma or a double quote, and ``text.split(",")`` gives back
    the row's cells."""
    return _read_csv(path, label_col, require_labels=False)


def _read_csv(path, label_col, require_labels):
    """Parse and check the CSV at ``path`` in one pass, in file order.  An
    undecodable byte reads as a lone surrogate, which float() and int()
    refuse, so every row holding one reaches `fault`, which names it."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        first = 1  # the first line of the record just read; blank lines count

        def fault(row, suffix=None):
            """CsvFormatError "row N<suffix>" for the record ``row`` just read, N
            being its last line, or "not UTF-8 text" on the line of its first
            undecodable byte; None for neither."""
            line, text = reader.line_num, ",".join(row)
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:  # the line breaks before the byte are in cells
                before = text[:exc.start]
                line = first + before.count("\n") + before.count("\r") - before.count("\r\n")
                suffix = ": not UTF-8 text"
            return None if suffix is None else CsvFormatError(f"{path}: row {line}{suffix}")

        try:
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: empty file")
            if undecodable := fault(header):
                raise undecodable
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
            last = reader.line_num
            for row in reader:
                first, last = last + 1, reader.line_num
                if not row:  # a blank line
                    continue
                if len(row) != len(header):
                    raise fault(row, f" has {len(row)} cells, header has {len(header)}")
                try:
                    floats = list(map(float, feature_cells(row)))
                    clean = math.isfinite(sum(floats))
                except ValueError:
                    clean = False
                if not clean:  # name the first cell that is not a finite float
                    for i in feat_idx:
                        try:
                            bad = None if math.isfinite(float(row[i])) else "non-finite"
                        except ValueError:
                            bad = "non-numeric"
                        if bad:
                            raise fault(row, f", column '{header[i]}': {bad} value {row[i]!r}")
                values.fromlist(floats)  # only a sum that overflows gets here unclean
                if label_idx is not None:
                    try:
                        labels.append(int(row[label_idx]))
                    except ValueError:
                        raise fault(row, f": non-integer label {row[label_idx]!r}") from None
                    except OverflowError:  # an integer beyond int64
                        raise fault(row, f": label {row[label_idx]!r} out of range") from None
                if rows is not None:  # only the pass-through keeps text, one string a row
                    rows.append(",".join(row))
        except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
            raise CsvFormatError(f"{path}: row {reader.line_num}: {exc}") from None
    if not values:
        raise CsvFormatError(f"{path}: no data rows")
    x = np.frombuffer(values, dtype=np.float64).reshape(-1, len(feat_idx))
    return x, None if label_idx is None else np.frombuffer(labels, dtype=np.int64), header, rows


def write_header(fh, cells: list[str]) -> None:
    """Write ``cells`` as the first row of the text file ``fh`` so that
    the readers give them back.  csv leaves a "\r" unquoted under a "\n"
    terminator, and the readers drop a leading U+FEFF as a byte-order
    mark, so a header holding either is quoted whole."""
    quote = any("\r" in cell for cell in cells) or cells[0].startswith("\ufeff")
    csv.writer(fh, lineterminator="\n",
               quoting=csv.QUOTE_ALL if quote else csv.QUOTE_MINIMAL).writerow(cells)


def write_labeled_csv(path, ds: LabeledDataset, label_col: str = "label") -> None:
    """Write the ingestion format with the label column first.

    The features are named ``x1`` ... ``xp``; a ``label_col`` equal to one
    of them raises ValueError before the file is opened, since the reader
    refuses a header naming its label column twice.  The header goes
    through `write_header`, since ``label_col`` may need quoting; a data row
    is its label and the ``repr`` of each value, which for a finite float
    never needs quoting.
    """
    names = [f"x{i}" for i in range(1, ds.p + 1)]
    if label_col in names:
        raise ValueError(f"label column '{label_col}' would share its name with a feature column")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_header(fh, [label_col] + names)
        for label, row in zip(ds.labels.tolist(), ds.x):
            fh.write(f"{label}," + ",".join(map(repr, row.tolist())) + "\n")
