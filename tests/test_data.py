import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ndc.data import (
    CsvFormatError,
    FeaturePartition,
    LabeledDataset,
    dn_norm_sq,
    read_feature_csv,
    read_labeled_csv,
    validate_partition,
    write_labeled_csv,
)


def test_dn_norm_sq_examples():
    assert dn_norm_sq([3, 4]) == 12.5
    assert dn_norm_sq([0.0, 0.0, 0.0]) == 0.0
    assert dn_norm_sq([-2.5]) == 6.25  # singleton: plain squared value


def test_dn_norm_sq_empty_rejected():
    with pytest.raises(ValueError):
        dn_norm_sq([])


def test_dn_norm_matches_euclidean_identity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 40)) * rng.uniform(0.01, 100)
        expected = float(np.dot(v, v)) / len(v)
        assert dn_norm_sq(v) == pytest.approx(expected, rel=1e-15)


def test_dn_norm_permutation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=rng.integers(2, 30))
        assert dn_norm_sq(rng.permutation(v)) == pytest.approx(dn_norm_sq(v), rel=1e-12)


def test_class_x_examples():
    ds = LabeledDataset.from_arrays(np.zeros((4, 4)) + np.eye(4), [1, 2, 1, 2])
    blocks = ds.class_x
    assert blocks[0].tolist() == [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert blocks[1].tolist() == [[0, 1, 0, 0], [0, 0, 0, 1]]

    ds1 = LabeledDataset.from_arrays(np.ones((3, 3)), [1, 1, 1])
    assert ds1.class_x[0].tolist() == [[1, 1, 1]] * 3

    ds2 = LabeledDataset.from_arrays(np.eye(3), [2, 2, 1])
    blocks = ds2.class_x
    assert blocks[0].tolist() == [[0, 0, 1]]
    assert blocks[1].tolist() == [[1, 0, 0], [0, 1, 0]]


def test_class_x_partition_rows():
    # every row lands in its class's block once, in its original order
    rng = np.random.default_rng(3)
    labels = rng.integers(1, 4, size=60)
    labels[:3] = [1, 2, 3]
    ds = LabeledDataset.from_arrays(rng.normal(size=(60, 5)), labels)
    joined = np.concatenate(ds.class_x)
    np.testing.assert_array_equal(joined, ds.x[np.argsort(labels, kind="stable")])


def test_class_x_is_cached_read_only():
    rng = np.random.default_rng(4)
    labels = rng.integers(1, 4, size=40)
    labels[:3] = [1, 2, 3]
    ds = LabeledDataset.from_arrays(rng.normal(size=(40, 6)), labels)
    blocks = ds.class_x
    for j, xs in enumerate(blocks, start=1):
        np.testing.assert_array_equal(xs, ds.x[ds.labels == j])
        assert not xs.flags.writeable
    with pytest.raises(ValueError):
        blocks[0][0, 0] = 1.0
    again = ds.class_x
    assert again is blocks and all(a is b for a, b in zip(again, blocks))
    for name in ("class_means", "class_ss"):
        stat = getattr(ds, name)
        assert stat.shape == (ds.k, ds.p) and not stat.flags.writeable
        assert getattr(ds, name) is stat
    np.testing.assert_array_equal(ds.class_means,
                                  np.stack([ds.x[ds.labels == j].mean(axis=0) for j in (1, 2, 3)]))
    # a new dataset starts its own cache
    other = LabeledDataset.from_arrays(ds.x, ds.labels)
    assert other.class_x[0] is not blocks[0]


def test_missing_class_rejected():
    with pytest.raises(ValueError, match="no samples"):
        LabeledDataset.from_arrays(np.eye(3), [1, 1, 3])


def test_k_bounds_enforced():
    with pytest.raises(ValueError, match="exceeds"):
        LabeledDataset.from_arrays(np.ones((3, 1)), [1, 2, 3])


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="NaN or infinite"):
        LabeledDataset.from_arrays(np.array([[1.0, np.nan]]), [1])
    with pytest.raises(ValueError, match="NaN or infinite"):
        LabeledDataset.from_arrays(np.array([[np.inf, 1.0]]), [1])


def test_matrix_shape_rejected():
    with pytest.raises(ValueError, match="2-dimensional"):
        LabeledDataset.from_arrays(np.ones(3), [1, 1, 1])
    with pytest.raises(ValueError, match="at least one row and one column"):
        LabeledDataset.from_arrays(np.ones((2, 0)), [1, 1])


def test_matrix_copied_and_frozen():
    x = np.eye(2)
    ds = LabeledDataset.from_arrays(x, [1, 2])
    x[0, 0] = 5.0
    assert ds.x[0, 0] == 1.0
    assert not ds.x.flags.writeable
    with pytest.raises(ValueError):
        ds.x[0, 0] = 5.0


def test_validate_partition_cases():
    ok = FeaturePartition((np.array([0]), np.array([1, 2])))
    assert validate_partition(ok, p=3, k=2) is None

    overlap = FeaturePartition((np.array([0, 1]), np.array([1, 2])))
    assert "overlap at feature 2" in validate_partition(overlap, p=3, k=2)

    special_ok = FeaturePartition((np.array([], dtype=int), np.array([0]), np.array([1])),
                                  has_special=True)
    assert validate_partition(special_ok, p=2, k=2) is None

    empty_class = FeaturePartition((np.array([0, 1]), np.array([], dtype=int)))
    assert "empty" in validate_partition(empty_class, p=2, k=2)

    uncovered = FeaturePartition((np.array([0]), np.array([2])))
    assert "not covered" in validate_partition(uncovered, p=3, k=2)

    wrong_k = FeaturePartition((np.array([0, 1, 2]),))
    assert "class groups" in validate_partition(wrong_k, p=3, k=2)


def test_partition_rejects_unsorted_or_repeated_indices():
    # a model pairs centroid entries with group indices in order, so an
    # unsorted group would misalign them instead of being re-sorted
    with pytest.raises(ValueError, match="group 0 must list its indices in increasing order"):
        FeaturePartition((np.array([1, 0]), np.array([2])))
    with pytest.raises(ValueError, match="group 2 .* increasing order"):
        FeaturePartition(([], [0], [1, 1]), has_special=True)
    given = np.array([0, 2])
    part = FeaturePartition((given, np.array([1])))
    given[0] = 1  # the partition keeps its own copy
    assert part.groups[0].tolist() == [0, 2]


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    ds = LabeledDataset.from_arrays(rng.normal(size=(7, 3)), [1, 2, 1, 2, 1, 2, 2])
    path = tmp_path / "data.csv"
    write_labeled_csv(path, ds)
    back = read_labeled_csv(path)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.x, ds.x)  # repr round-trips exactly


@st.composite
def _datasets(draw):
    n, p = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(1, min(n, p)))
    labels = draw(st.permutations([i % k + 1 for i in range(n)]))
    floats = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]))
    return LabeledDataset(draw(arrays(np.float64, (n, p), elements=floats)), labels, k)


@settings(max_examples=100)
@given(ds=_datasets(),
       label_col=st.text(max_size=6) | st.sampled_from(
           ['a,b', 'say "hi"', "two\nlines", "cr\rlf", "\ufeffmark", "nul\x00", "x1"]),
       bom=st.booleans())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, ds, label_col, bom):
    path = tmp_path_factory.getbasetemp() / "round-trip.csv"
    write_labeled_csv(path, ds, label_col=label_col)
    if bom:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = read_labeled_csv(path, label_col=label_col)
    assert back.k == ds.k
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.x.tobytes() == ds.x.tobytes()  # bit-exact, -0.0 and subnormals included


def test_a_cell_longer_than_the_csv_field_limit_is_refused(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(f"label,x1\n1,{'0' * (csv.field_size_limit() + 1)}\n")
    with pytest.raises(CsvFormatError, match="row 2: field larger than field limit"):
        read_labeled_csv(path)


def _expected_read(fields):
    """What reading the labeled CSV of these header and row ``fields``
    must give, worked out from them directly: ``(x, labels)``, or None
    where the file must be refused."""
    header, *rows = fields
    if header.count("label") != 1 or len(header) < 2:  # no label column, or two
        return None
    if any(len(cell) > csv.field_size_limit() for row in fields for cell in row):
        return None
    try:  # an undecodable byte is written as a lone surrogate
        "".join(cell for row in fields for cell in row).encode("utf-8")
    except UnicodeEncodeError:
        return None
    label_idx = header.index("label")
    try:
        labels = [int(row[label_idx]) for row in rows]
        x = [[float(cell) for i, cell in enumerate(row) if i != label_idx] for row in rows]
        if not all(-2**63 <= label < 2**63 for label in labels):
            return None
        ds = LabeledDataset.from_arrays(np.array(x), labels)  # refuses non-finite cells
    except ValueError:
        return None
    return ds.x, ds.labels


_ODD_TEXTS = [
    "1.0", " label ", "+1", "1_0", " 2 ", "1e0", "0", "2", "-1", "", " ", "nan", "-inf", "1e999",
    "0x1", "9" * 20, "label", "x1", "\ufefflabel", "a,b", 'say "hi"', "two\nlines", "cr\rlf",
    "nul\x00", "0" * 140_000, "\udce9"]


@settings(max_examples=40)
@given(ds=_datasets(), data=st.data())
def test_a_csv_with_one_field_replaced_reads_right_or_is_refused(tmp_path_factory, ds, data):
    # the label name, a feature name, a label and a feature cell of a
    # valid file, each in a file of its own, take some text, quoted; each file
    # then reads to the arrays that its fields describe (the same arrays
    # where the text spells the same value) or is refused with
    # CsvFormatError, never any other exception
    fields = [["label", *(f"x{i}" for i in range(1, ds.p + 1))]]
    fields += [[str(label), *map(repr, row)] for label, row in zip(ds.labels.tolist(), ds.x.tolist())]
    r, c = data.draw(st.integers(1, ds.n)), data.draw(st.integers(1, ds.p))
    texts = [*data.draw(st.permutations(_ODD_TEXTS))[:3], data.draw(st.text(max_size=6))]
    for i, j in ((0, 0), (0, c), (r, 0), (r, c)):
        for new in (*texts, f" {fields[i][j]}\n"):
            assert_reads_as_described(tmp_path_factory.getbasetemp() / "one-field-replaced.csv",
                                      fields, i, j, new)


def assert_reads_as_described(path, fields, i, j, new):
    fields = [list(row) for row in fields]
    fields[i][j] = new
    lines = [",".join('"' + cell.replace('"', '""') + '"' if (a, b) == (i, j) else cell
                      for b, cell in enumerate(row)) for a, row in enumerate(fields)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    want = _expected_read(fields)
    if want is None:
        with pytest.raises(CsvFormatError):
            read_labeled_csv(path)
        return
    back = read_labeled_csv(path)
    assert back.x.tobytes() == want[0].tobytes()
    np.testing.assert_array_equal(back.labels, want[1])


def test_csv_label_column_position_free(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("a,label,b\n1.5,2,2.5\n0.5,1,0.25\n")
    ds = read_labeled_csv(path)
    assert ds.labels.tolist() == [2, 1]
    assert ds.x.tolist() == [[1.5, 2.5], [0.5, 0.25]]


def test_csv_non_numeric_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,x1\n1,apple\n2,1.0\n")
    with pytest.raises(CsvFormatError, match="non-numeric"):
        read_labeled_csv(path)


def test_csv_non_finite_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,x1,x2\n1,0.5,1.0\n2,1.0,inf\n1,nan,0.0\n")
    with pytest.raises(CsvFormatError, match=r"row 3, column 'x2': non-finite value 'inf'"):
        read_labeled_csv(path)
    with pytest.raises(CsvFormatError, match="row 3"):
        read_feature_csv(path)


@pytest.mark.parametrize("bad_row, message", [
    ("1,abc,1.0", r"row 4, column 'x1': non-numeric value 'abc'"),
    ("1,0.5,nan", r"row 4, column 'x2': non-finite value 'nan'"),
    ("x,0.5,1.0", r"row 4: non-integer label 'x'"),
    ("1,0.5", r"row 4 has 2 cells"),
])
def test_csv_error_rows_count_blank_lines(tmp_path, bad_row, message):
    # the blank line 3 is skipped, but the faulty row is still named by its line
    path = tmp_path / "bad.csv"
    path.write_text(f"label,x1,x2\n1,0.5,1.0\n\n{bad_row}\n2,1.0,0.0\n")
    with pytest.raises(CsvFormatError, match=message):
        read_labeled_csv(path)


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("x1,x2\n1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="no 'label' column"):
        read_labeled_csv(path)
    x, labels, header, rows = read_feature_csv(path)
    assert labels is None
    assert x.tolist() == [[1.0, 2.0]]


def test_csv_label_column_named_twice_rejected(tmp_path):
    # the second 'label' column is no feature; the header is named before
    # row 2's faults
    path = tmp_path / "twice.csv"
    path.write_text("label,x1,label\n1,0.5,2\n2,nan,1\n")
    message = "twice.csv: column 'label' appears 2 times in the header"
    with pytest.raises(CsvFormatError, match=message):
        read_labeled_csv(path)
    with pytest.raises(CsvFormatError, match=message):
        read_feature_csv(path)
    path.write_text("y,label,x1,y,y\n1,1,0.5,3,1\n")
    with pytest.raises(CsvFormatError, match="column 'y' appears 3 times"):
        read_labeled_csv(path, label_col="y")
    # a feature name may repeat
    assert read_labeled_csv(path).x.tolist() == [[1.0, 0.5, 3.0, 1.0]]


def test_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,x1\n")
    with pytest.raises(CsvFormatError, match="no data rows"):
        read_labeled_csv(path)
    path.write_text("label\n")  # the header's faults come before the missing rows
    with pytest.raises(CsvFormatError, match="no feature columns"):
        read_labeled_csv(path)


def test_a_labeled_read_holds_the_matrix_not_the_cell_text(tmp_path):
    # rows are converted as they are read, so the peak is the float buffer,
    # the dataset's copy and one row's text; every cell kept as a string
    # until the end would cost about 12 times the matrix
    ds = LabeledDataset.from_arrays(np.random.default_rng(3).normal(size=(12, 5000)),
                                    np.arange(12) % 3 + 1)
    path = tmp_path / "wide.csv"
    write_labeled_csv(path, ds)
    tracemalloc.start()
    try:
        back = read_labeled_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.x.tobytes() == ds.x.tobytes()
    assert peak < 6 * ds.x.nbytes


def _reference_csv_bytes(ds, label_col="label"):
    """The file a per-cell csv.writer of repr(float(v)) writes."""
    import csv
    import io
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([label_col] + [f"x{i}" for i in range(1, ds.p + 1)])
    for label, row in zip(ds.labels, ds.x):
        writer.writerow([int(label)] + [repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


EDGE_VALUES = np.array([[-0.0, 5e-324, 1e16, 1e-5],
                        [1e300, -1e-300, 0.1, 2.0 ** 53 + 2],
                        [1 / 3, -2.5e-7, 123456789.123, 1e22]])


@pytest.mark.parametrize("label_col", ["label", 'cl,ass "id"'])
def test_csv_writer_bytes_match_a_per_cell_csv_writer(tmp_path, label_col):
    rng = np.random.default_rng(5)
    x = np.vstack([EDGE_VALUES, rng.normal(size=(20, 4)) * 10.0 ** rng.integers(-8, 9, (20, 1))])
    ds = LabeledDataset.from_arrays(x, np.arange(len(x)) % 3 + 1)
    path = tmp_path / "edge.csv"
    write_labeled_csv(path, ds, label_col=label_col)
    assert path.read_bytes() == _reference_csv_bytes(ds, label_col)
    back = read_labeled_csv(path, label_col=label_col)
    # bit for bit, so -0.0 and the subnormal come back as written
    assert back.x.tobytes() == ds.x.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_csv_one_feature_column_mid_label_and_float_syntax(tmp_path):
    # float() syntax is the cell syntax: surrounding whitespace, digit
    # underscores, a leading '+' or '.', and a signed zero
    path = tmp_path / "syntax.csv"
    path.write_text("a,label,b\n 1.5 ,1,1_0\n-0,2,+3e2\n\t4\t,1,.5\n")
    ds = read_labeled_csv(path)
    assert ds.labels.tolist() == [1, 2, 1]
    assert ds.x.tolist() == [[1.5, 10.0], [-0.0, 300.0], [4.0, 0.5]]
    assert np.signbit(ds.x[1, 0])

    for text in ("label,g\n1,2.5\n2, 7 \n", "g,label\n2.5,1\n 7 ,2\n"):
        path.write_text(text)
        x, labels, header, _ = read_feature_csv(path)
        assert x.shape == (2, 1) and x[:, 0].tolist() == [2.5, 7.0]
        assert labels.tolist() == [1, 2] and "g" in header
    path.write_text("g\n2.5\n1_0\n")
    x, labels, _, _ = read_feature_csv(path)
    assert labels is None and x[:, 0].tolist() == [2.5, 10.0]
    path.write_text("label,g\n1,2.5\n2,ten\n")
    with pytest.raises(CsvFormatError, match=r"row 3, column 'g': non-numeric value 'ten'"):
        read_labeled_csv(path)


@pytest.mark.parametrize("rows, message", [
    # an earlier row's bad label beats a later row's bad cell
    ("1,0.5,1.0\nq,0.5,1.0\n2,abc,1.0", r"row 3: non-integer label 'q'"),
    # a row's first bad column is named
    ("1,0.5,1.0\n2,zz,yy", r"row 3, column 'x1': non-numeric value 'zz'"),
    ("1,0.5,1.0\n2,0.5,yy", r"row 3, column 'x2': non-numeric value 'yy'"),
    # a row's bad cell beats its own bad label
    ("1,0.5,1.0\nq,0.5,yy", r"row 3, column 'x2': non-numeric value 'yy'"),
    # a short row beats its own bad cell
    ("1,abc\n2,0.5,1.0", r"row 2 has 2 cells, header has 3"),
    # faults are named in file order: an earlier row's non-finite cell
    # beats a later row's bad label
    ("1,nan,1.0\nq,0.5,1.0", r"row 2, column 'x1': non-finite value 'nan'"),
    ("1,0.5,1.0\n2,1.0,inf\n1,nan,0.0", r"row 3, column 'x2': non-finite value 'inf'"),
    # one scan names a row's first bad cell, non-finite or non-numeric
    ("2,inf,abc", r"row 2, column 'x1': non-finite value 'inf'"),
    ("1,,1.0\n2,0.5,1.0", r"row 2, column 'x1': non-numeric value ''"),
])
def test_csv_reports_the_first_fault_of_several(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,x1,x2\n{rows}\n")
    with pytest.raises(CsvFormatError, match=message):
        read_labeled_csv(path)


def test_csv_row_whose_sum_overflows_is_read(tmp_path):
    # a row's cells are checked one by one only when their sum is not
    # finite; finite cells whose sum overflows pass that check
    path = tmp_path / "big.csv"
    path.write_text("label,x1,x2\n1,1e308,1.5e308\n2,-1e308,-1e308\n")
    ds = read_labeled_csv(path)
    assert ds.x.tolist() == [[1e308, 1.5e308], [-1e308, -1e308]]


def test_csv_leading_byte_order_mark_is_accepted(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbflabel,a,b\n1,0.5,1.5\n2,1.5,0.5\n")
    ds = read_labeled_csv(path)
    assert ds.labels.tolist() == [1, 2]
    assert ds.x.tolist() == [[0.5, 1.5], [1.5, 0.5]]
    _, labels, header, _ = read_feature_csv(path)
    assert header == ["label", "a", "b"] and labels.tolist() == [1, 2]
    write_labeled_csv(path, ds)
    assert path.read_bytes().startswith(b"label,x1,x2\n")  # writers add no mark


@pytest.mark.parametrize("text, message", [
    (b"label,x\xe9\n1,1\n2,2\n", "row 1: not UTF-8 text"),  # the header
    (b"label,label\xe9,x1\n1,1,2\n", "row 1: not UTF-8 text"),  # before the header's faults
    (b"label,x1,x2\n1,0.5,1\n2,\xe9,1\n", "row 3: not UTF-8 text"),  # a feature cell
    (b"label,x1,x2\n1,0.5,1\n2,nan,\xe9\n", "row 3: not UTF-8 text"),  # beats the row's own fault
    (b"label,x1\n1,0.5\n\xe9,1\n", "row 3: not UTF-8 text"),  # the label cell
    (b"label,x1\n1,2\n\xe9\n", "row 3: not UTF-8 text"),  # a row of one bad byte
    (b"label,x1,x2\n1,0.5,1\n2,\xe9\n", "row 3: not UTF-8 text"),  # a short row
    (b"label,x1,x2\n1,0.5,1\n2,\xe9,1,4\n", "row 3: not UTF-8 text"),  # a long row
    (b"label,x1\n1,abc\n2,\xe9\n1,xyz\n", "row 2, column 'x1': non-numeric value 'abc'"),
    (b"label,x1\n1,0.5\n2,\xe9\n1,xyz\n", "row 3: not UTF-8 text"),  # before a later fault
    (b"\xef\xbb\xbflabel,x1\n1,0.5\n2,\xe9\n", "row 3: not UTF-8 text"),  # behind a BOM
    (b"\xef\xbb\xbflabel\xe9,x1\n1,0.5\n2,1\n", "row 1: not UTF-8 text"),
    (b"label,x1\r\n1,0.5\r\n2,\xe9\r\n", "row 3: not UTF-8 text"),  # CRLF line ends
    (b"label,x1\r1,0.5\r2,\xe9\r1,1\r", "row 3: not UTF-8 text"),  # CR-only line ends
    (b"label,x1\n1,0.5\n\n\n2,\xe9\n", "row 5: not UTF-8 text"),  # after blank lines
    (b'label,x1\n1,0.5\n2,"a\n\xe9b"\n', "row 4: not UTF-8 text"),  # a quoted two-line cell
    (b'label,x1\n1,0.5\n2,"a\xe9\nb"\n', "row 3: not UTF-8 text"),  # its first line
    (b'label,x1\r\n1,0.5\r\n2,"a\xe9\r\nb\r\nc"\r\n1,2\r\n', "row 3: not UTF-8 text"),
    (b'"lab\xe9\nel",x1\n1,2\n', "row 1: not UTF-8 text"),  # a two-line header cell
    (b"label,x1\n1,2\n2,\xe2\x82\n", "row 3: not UTF-8 text"),  # a truncated sequence
    (b"label,x1\n1,2\n2,\xed\xa0\x80\n", "row 3: not UTF-8 text"),  # an encoded surrogate
    (b"label,x1\n1" + b"0" * 30 + b"\xe9,2\n", "row 2: not UTF-8 text"),  # not out of range
    (b"\xe9\n", "row 1: not UTF-8 text"),
])
@pytest.mark.parametrize("read", [read_labeled_csv, read_feature_csv])
def test_a_csv_that_is_not_utf8_is_named_at_its_row_in_file_order(tmp_path, read, text, message):
    # an undecodable byte is a row fault like any other: an earlier row's
    # fault comes first, and the byte's own row is named as not UTF-8 text
    path = tmp_path / "latin.csv"
    path.write_bytes(text)
    with pytest.raises(CsvFormatError) as info:
        read(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("text", [b"label,x1\n1,0.5\n2,1.5\n", b"label,x1\n1,0.5\n2,\xe9\n"])
def test_a_read_opens_its_file_once(tmp_path, monkeypatch, text):
    path = tmp_path / "once.csv"
    path.write_bytes(text)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr("ndc.data.open", counting_open, raising=False)
    for read in (read_labeled_csv, read_feature_csv):
        try:
            read(path)
        except CsvFormatError:
            pass
    assert opened == [path, path]


def _read_peak(path):
    """The tracemalloc peak of reading ``path``, and its CsvFormatError text
    or None."""
    tracemalloc.start()
    try:
        try:
            read_labeled_csv(path)
            error = None
        except CsvFormatError as exc:
            error = str(exc)
        return tracemalloc.get_traced_memory()[1], error
    finally:
        tracemalloc.stop()


def test_a_bad_byte_in_the_last_row_costs_no_more_memory_than_a_clean_file(tmp_path):
    # the bad byte is met in the one pass, so the faulty read holds the
    # float buffer and a line or two of text, less than the clean read's
    # copy of the matrix; reading the whole file again cost about 7 times
    # the matrix.  (A line holding a surrogate is 2-byte text, so with few,
    # very long rows, 12 x 5000, the faulty read peaks 4 % higher.)
    ds = LabeledDataset.from_arrays(np.random.default_rng(3).normal(size=(120, 500)),
                                    np.arange(120) % 3 + 1)
    path = tmp_path / "wide.csv"
    write_labeled_csv(path, ds)
    clean, error = _read_peak(path)
    assert error is None
    path.write_bytes(path.read_bytes()[:-2] + b"\xe9\n")
    bad, error = _read_peak(path)
    assert error == f"{path}: row 121: not UTF-8 text"
    assert bad <= clean
