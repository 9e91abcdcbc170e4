import argparse
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ndc
from ndc.classifier import compute_centroids, save_model, with_lambda
from ndc.cli import build_parser, main
from ndc.data import FeaturePartition, LabeledDataset, read_labeled_csv, write_labeled_csv


@pytest.fixture
def toy_csv(tmp_path, toy_ds):
    path = tmp_path / "toy.csv"
    write_labeled_csv(path, toy_ds)
    return path


def test_simulate_writes_expected_shapes(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    code = main(["simulate", "--sim", "2", "--level", "0.9", "--d", "10",
                 "--seed", "5", "--out-train", str(train), "--out-test", str(test)])
    assert code == 0
    lines = train.read_text().splitlines()
    assert len(lines) == 1001
    assert lines[0].split(",")[0] == "label"
    assert len(lines[0].split(",")) == 41
    ds = read_labeled_csv(train)
    assert (ds.n, ds.p, ds.k) == (1000, 40, 4)
    assert not np.array_equal(read_labeled_csv(test).x, ds.x)


def test_simulate_sim4_shape(tmp_path):
    train = tmp_path / "t.csv"
    test = tmp_path / "e.csv"
    code = main(["simulate", "--sim", "4", "--level", "0.9", "--r", "80",
                 "--seed", "1", "--out-train", str(train), "--out-test", str(test)])
    assert code == 0
    assert len(train.read_text().splitlines()[0].split(",")) == 101


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["simulate", "--sim", "1", "--level", "0.3", "--d", "3",
              "--seed", "9", "--out-train", str(out), "--out-test", str(tmp_path / "x.csv")])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bad_grid_exit_2(tmp_path):
    code = main(["simulate", "--sim", "1", "--level", "0.5", "--d", "3",
                 "--out-train", str(tmp_path / "t.csv"),
                 "--out-test", str(tmp_path / "e.csv")])
    assert code == 2


def test_simulate_label_col_naming_a_feature_exit_2_writing_nothing(tmp_path, capsys):
    # the features are x1 ... x40, and a header naming x1 twice would be
    # refused by every reader of the file
    train, test = tmp_path / "t.csv", tmp_path / "e.csv"
    assert main(["simulate", "--sim", "2", "--level", "0.9", "--d", "10", "--label-col", "x1",
                 "--out-train", str(train), "--out-test", str(test)]) == 2
    assert capsys.readouterr().err == (
        "error: label column 'x1' would share its name with a feature column\n")
    assert not train.exists() and not test.exists()


def test_fit_prints_training_error_and_writes_model(tmp_path, toy_csv, capsys):
    model_path = tmp_path / "model.json"
    code = main(["fit", str(toy_csv), "--restarts", "10", "--seed", "3",
                 "--out", str(model_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "training error: 0.0" in out
    assert "selected features: 2 of 2" in out
    doc = json.loads(model_path.read_text())
    assert doc["k"] == 2 and doc["p"] == 2


def test_fit_and_predict_one_class(tmp_path, capsys):
    # k = 1 is valid input: every feature goes to the one class
    data = tmp_path / "one.csv"
    data.write_text("label,x1,x2\n1,0.5,2.0\n1,-1.0,3.0\n1,4.0,0.0\n")
    model = tmp_path / "m.json"
    assert main(["fit", str(data), "--restarts", "3", "--out", str(model)]) == 0
    assert "training error: 0.0\n" in capsys.readouterr().out
    pred = tmp_path / "p.csv"
    assert main(["predict", str(model), str(data), "--out", str(pred)]) == 0
    lines = pred.read_text().splitlines()
    assert lines[0] == "label,x1,x2,predicted"
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["1", "1", "1"]


def test_fit_lambda_inf_same_as_omitted(tmp_path, toy_csv):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["fit", str(toy_csv), "--restarts", "5", "--seed", "4", "--out", str(a)])
    for inf in ("inf", "Infinity"):
        main(["fit", str(toy_csv), "--lambda", inf, "--restarts", "5", "--seed", "4",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_fit_deterministic_files(tmp_path, toy_csv):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        main(["fit", str(toy_csv), "--restarts", "1", "--seed", "7", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_fit_k_mismatch_and_parse_errors(tmp_path, toy_csv):
    assert main(["fit", str(toy_csv), "--k", "3", "--out", str(tmp_path / "m.json")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("label,x1,x2\n1,a,b\n2,1,2\n")
    assert main(["fit", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert main(["fit", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("lam", ["0", "-1", "nan"])
def test_fit_non_positive_lambda_exit_2(tmp_path, toy_csv, capsys, lam):
    assert main(["fit", str(toy_csv), "--lambda", lam, "--out", str(tmp_path / "m.json")]) == 2
    assert "lambda must be positive" in capsys.readouterr().err


def test_fit_unparsable_lambda_exit_2(tmp_path, toy_csv):
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(toy_csv), "--lambda", "abc", "--out", str(tmp_path / "m.json")])
    assert exc.value.code == 2


def test_fit_selection_with_too_few_features_exit_2(tmp_path, toy_csv, capsys):
    # 2 features and 2 classes: selection would need k + 1 = 3 groups
    assert main(["fit", str(toy_csv), "--lambda", "0.9", "--restarts", "3",
                 "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "lambda=0.9" in err and "k + 1 = 3" in err and "p = 2" in err
    assert not (tmp_path / "m.json").exists()


def test_fit_all_constant_data_exit_3(tmp_path, capsys):
    # every feature column is the same point, so k-means never fills
    # both groups and every restart exhausts its attempts
    data = tmp_path / "const.csv"
    write_labeled_csv(data, LabeledDataset.from_arrays(np.ones((6, 3)), [1, 1, 1, 2, 2, 2]))
    assert main(["fit", str(data), "--restarts", "5", "--out", str(tmp_path / "m.json")]) == 3
    assert "fit failed" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_then_predict_round_trip(tmp_path, toy_csv, toy_ds, capsys):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "10", "--seed", "3", "--out", str(model)])
    fit_out = capsys.readouterr().out
    printed_err = float(fit_out.split("training error: ")[1].splitlines()[0])
    pred = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(toy_csv), "--out", str(pred)]) == 0
    lines = pred.read_text().splitlines()
    assert lines[0].endswith(",predicted")
    predicted = [int(line.split(",")[-1]) for line in lines[1:]]
    assert (np.array(predicted) != toy_ds.labels).mean() == printed_err


def test_fit_and_predict_accept_a_byte_order_mark(tmp_path, toy_csv):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + toy_csv.read_bytes())
    models, preds = [], []
    for data in (toy_csv, bom):
        model = tmp_path / f"{data.stem}.json"
        pred = tmp_path / f"{data.stem}-pred.csv"
        assert main(["fit", str(data), "--restarts", "3", "--seed", "2", "--out", str(model)]) == 0
        assert main(["predict", str(model), str(data), "--out", str(pred)]) == 0
        models.append(model.read_bytes())
        preds.append(pred.read_bytes())
    assert models[0] == models[1]
    assert preds[0] == preds[1]
    assert preds[1].startswith(b"label,x1,x2,predicted\n")


def test_predict_copies_rows_verbatim_and_appends_the_label(tmp_path, toy_csv):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    data = tmp_path / "odd.csv"
    # quoted cells, float()-only syntax and a label column in the middle
    data.write_text('"x,1",label,x2\n 0.0 ,"1",5_0\n4,2,+6e0\n"6",2,6.\n')
    out = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(data), "--out", str(out)]) == 0
    predicted = ndc.predict_many(ndc.load_model(model), [[0.0, 50.0], [4.0, 6.0], [6.0, 6.0]])
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["x,1", "label", "x2", "predicted"])
    for row, label in zip([[" 0.0 ", "1", "5_0"], ["4", "2", "+6e0"], ["6", "2", "6."]],
                          predicted):
        writer.writerow(row + [int(label)])
    assert out.read_text() == expected.getvalue()


# float() and int() strip Unicode whitespace and read Unicode decimal
# digits and underscores between digits, so accepted cells may hold them
_SPACES = [" ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c", "\x85", "\xa0",
           "\u2003", "\u2028", "\u3000"]
_DIGITS = ["0123456789", "".join(map(chr, range(0x0660, 0x066A))),
           "".join(map(chr, range(0xFF10, 0xFF1A))), "".join(map(chr, range(0x0966, 0x0970)))]


@st.composite
def _accepted_cell(draw, pattern):
    """A CSV field that float() (or int(), for an integer ``pattern``)
    accepts, quoted or bare; one holding a line break is always quoted."""
    text = draw(st.from_regex(pattern, fullmatch=True))
    cuts = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
    for i in sorted(draw(st.sets(st.sampled_from(cuts))) if cuts else (), reverse=True):
        text = text[:i] + "_" + text[i:]
    text = text.translate(str.maketrans("0123456789", draw(st.sampled_from(_DIGITS))))
    pad = st.lists(st.sampled_from(_SPACES), max_size=2).map("".join)
    cell = draw(pad) + text + draw(pad)
    assert float(cell) == float(text)
    quoted = "\r" in cell or "\n" in cell or draw(st.booleans())
    return f'"{cell}"' if quoted else cell


@st.composite
def _feature_file(draw):
    """The text of a CSV that `ndc predict` accepts, and its feature count."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    label_at = draw(st.none() | st.integers(0, p))
    names = [f"x{i}" for i in range(1, p + 1)]
    feature = _accepted_cell(r"[+-]?[0-9]{1,4}(\.[0-9]{0,3})?([eE][+-]?[0-9])?")
    label = _accepted_cell(r"[+-]?[0-9]{1,3}")
    rows = [[draw(feature) for _ in range(p)] for _ in range(n)]
    if label_at is not None:
        names.insert(label_at, draw(st.sampled_from(["label", '"label"'])))
        for row in rows:
            row.insert(label_at, draw(label))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(",".join(row) for row in [names] + rows) + draw(st.sampled_from(["", end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, p


@given(file=_feature_file())
def test_predict_writes_what_csv_writer_writes(tmp_path_factory, file):
    # each row goes out as its cells' text joined by commas, which reads back
    # as the cells, and is byte for byte the csv.writer row of the cells read
    # unless a cell holds a carriage return, which csv.writer leaves unquoted
    text, p = file
    base = tmp_path_factory.getbasetemp()
    data, model, out = base / "cells.csv", base / f"m{p}.json", base / "pred.csv"
    data.write_bytes(text.encode("utf-8"))
    k = min(p, 2)
    ds = LabeledDataset.from_arrays(np.arange(4.0 * p).reshape(4, p) ** 1.5, np.arange(4) % k + 1)
    groups = tuple(np.arange(p)[np.arange(p) % k == j] for j in range(k))
    save_model(compute_centroids(ds, FeaturePartition(groups)), model)
    assert main(["predict", str(model), str(data), "--out", str(out)]) == 0
    with open(data, newline="", encoding="utf-8-sig") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    features = [i for i, name in enumerate(header) if name != "label"]
    predicted = ndc.predict_many(ndc.load_model(model),
                                 [[float(row[i]) for i in features] for row in rows])
    written = [row + [label] for row, label in zip(rows, predicted.tolist())]
    with open(out, newline="", encoding="utf-8-sig") as fh:
        assert list(csv.reader(fh)) == [header + ["predicted"]] + [
            row + [str(label)] for row, label in zip(rows, predicted.tolist())]
    if not any("\r" in cell for row in [header] + rows for cell in row):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header + ["predicted"])
        writer.writerows(written)
        assert out.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("text,header", [
    ('"x\r1",x2\n"3\r",4\n1,2\n', ["x\r1", "x2"]),
    ('\ufeff"\ufeffx1",x2\n3,4\n1,"2\r\n"\n', ["\ufeffx1", "x2"]),
])
def test_predict_output_reads_back_cells_holding_a_carriage_return(tmp_path, text, header):
    # csv.writer leaves a "\r" unquoted, and a reader drops a leading U+FEFF:
    # written so, the first file's output reads back as five broken rows
    data, model, out = tmp_path / "cr.csv", tmp_path / "m.json", tmp_path / "pred.csv"
    data.write_text(text, encoding="utf-8", newline="")
    ds = LabeledDataset.from_arrays([[0.0, 5.0], [0.0, 7.0], [4.0, 6.0], [6.0, 6.0]], [1, 1, 2, 2])
    save_model(compute_centroids(ds, FeaturePartition((np.array([0]), np.array([1])))), model)
    assert main(["predict", str(model), str(data), "--out", str(out)]) == 0
    with open(data, newline="", encoding="utf-8-sig") as fh:
        _, *rows = csv.reader(fh)
    assert any("\r" in cell for row in rows for cell in row)
    labels = ndc.predict_many(ndc.load_model(model), [[3.0, 4.0], [1.0, 2.0]]).tolist()
    with open(out, newline="", encoding="utf-8-sig") as fh:
        assert list(csv.reader(fh)) == [header + ["predicted"]] + [
            row + [str(label)] for row, label in zip(rows, labels)]


def test_predict_feature_mismatch_exit_2(tmp_path, toy_csv):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    wide = tmp_path / "wide.csv"
    wide.write_text("label,x1,x2,x3\n1,0,5,1\n")
    assert main(["predict", str(model), str(wide), "--out", str(tmp_path / "p.csv")]) == 2


def test_predict_empty_rows_exit_2(tmp_path, toy_csv):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    empty = tmp_path / "empty.csv"
    empty.write_text("label,x1,x2\n")
    assert main(["predict", str(model), str(empty), "--out", str(tmp_path / "p.csv")]) == 2


def test_predict_non_finite_row_exit_2(tmp_path, toy_csv, capsys):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n0.0,5.0\n1.0,nan\n-inf,2.0\n")
    capsys.readouterr()
    assert main(["predict", str(model), str(bad), "--out", str(tmp_path / "p.csv")]) == 2
    # rows are numbered as in the file, the header being row 1
    assert "row 3, column 'x2': non-finite value 'nan'" in capsys.readouterr().err


def test_fit_and_predict_refuse_a_label_column_named_twice(tmp_path, toy_csv, capsys):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    twice = tmp_path / "twice.csv"
    twice.write_text("label,x1,label\n1,0.0,5.0\n2,4.0,6.0\n1,0.0,7.0\n2,6.0,6.0\n")
    capsys.readouterr()
    assert main(["fit", str(twice), "--restarts", "3", "--out", str(tmp_path / "m2.json")]) == 2
    assert "column 'label' appears 2 times in the header" in capsys.readouterr().err
    assert not (tmp_path / "m2.json").exists()
    assert main(["predict", str(model), str(twice), "--out", str(tmp_path / "p.csv")]) == 2
    assert "column 'label' appears 2 times in the header" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_predict_model_without_has_special_exit_2(tmp_path, toy_csv, capsys):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    doc = json.loads(model.read_text())
    del doc["has_special"]
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", str(model), str(toy_csv), "--out", str(tmp_path / "p.csv")]) == 2
    assert "has_special" in capsys.readouterr().err


@pytest.mark.parametrize("index", [10**30, -(10**30)])
def test_predict_model_index_beyond_int64_exit_2(tmp_path, toy_csv, capsys, index):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    doc = json.loads(model.read_text())
    doc["partition"][1] = sorted(doc["partition"][1] + [index])
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", str(model), str(toy_csv), "--out", str(tmp_path / "p.csv")]) == 2
    assert "partition slot 1: feature index out of range 1..2" in capsys.readouterr().err


def test_predict_model_with_huge_p_exit_2(tmp_path, toy_csv, capsys):
    # 2**40 features would need a terabyte to check coverage: the count
    # of listed indices refuses it before anything of length p is built
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    doc = json.loads(model.read_text())
    doc["p"] = 2**40
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", str(model), str(toy_csv), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: model partition lists 2 feature indices, fewer than p={2**40}\n"
    assert not (tmp_path / "p.csv").exists()


def test_predict_refuses_rows_whose_scores_overflow(tmp_path, capsys):
    # the model and row of the unscaled (0, 1) centroids and row (7, 5),
    # class 2, scaled by 2**520: the squared distances overflow
    s = 2.0 ** 520
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format_version": 1, "k": 2, "p": 2, "has_special": False,
                                 "partition": [[1], [2]], "centroids": [[0.0], [s]]}))
    data = tmp_path / "rows.csv"
    data.write_text(f"x1,x2\n{7 * s!r},{5 * s!r}\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["predict", str(model), str(data), "--out", str(tmp_path / "p.csv")]) == 2
    # the refusal is the only message: numpy's overflow warning is not shown
    assert capsys.readouterr().err == ("error: row 1: no class score is finite "
                                       "(its squared distances overflow)\n")
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "p.csv").exists()


def test_predict_refuses_rows_whose_scores_underflow(tmp_path, capsys):
    # the same model and row scaled by 2**-560: both squared distances
    # underflow to 0, and the unscaled model's class 2 cannot be told apart
    s = 2.0 ** -560
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format_version": 1, "k": 2, "p": 2, "has_special": False,
                                 "partition": [[1], [2]], "centroids": [[0.0], [s]]}))
    data = tmp_path / "rows.csv"
    data.write_text(f"x1,x2\n{7 * s!r},{5 * s!r}\n")
    capsys.readouterr()
    assert main(["predict", str(model), str(data), "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: row 1: 2 class scores underflow to 0")
    assert not (tmp_path / "p.csv").exists()


def test_predict_truncated_model_file_exit_2_naming_it(tmp_path, toy_csv, capsys):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    model.write_text(model.read_text()[:8])
    capsys.readouterr()
    assert main(["predict", str(model), str(toy_csv), "--out", str(tmp_path / "p.csv")]) == 2
    assert f"error: {model}: not a JSON model file (" in capsys.readouterr().err


@pytest.mark.parametrize("rows_before", [0, 1000])
def test_fit_non_utf8_csv_exit_2_naming_file_and_row(tmp_path, capsys, rows_before):
    # the text reader decodes 8 KiB ahead of the row it hands out; 1000
    # rows put the bad byte past the first 8 KiB
    data = tmp_path / "latin.csv"
    good = "".join(f"{i % 2 + 1},{i}.25\n" for i in range(rows_before)).encode()
    data.write_bytes(b"label,x1\n" + good + b"1,\xe9\n2,3\n")
    assert rows_before == 0 or len(good) > 8192
    assert main(["fit", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == f"error: {data}: row {rows_before + 2}: not UTF-8 text\n"


@pytest.mark.parametrize("rows_before", [0, 1000])
def test_fit_non_utf8_csv_names_an_earlier_fault_first(tmp_path, capsys, rows_before):
    # the bad byte is decoded in the same 8 KiB block as the row before it,
    # whose fault comes first in the file
    data = tmp_path / "latin.csv"
    good = "".join(f"{i % 2 + 1},{i}.25\n" for i in range(rows_before)).encode()
    data.write_bytes(b"label,x1\n" + good + b"1,abc\n2,\xe9\n")
    assert main(["fit", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {data}: row {rows_before + 2}, column 'x1': non-numeric value 'abc'\n")


def test_predict_non_utf8_csv_exit_2_writing_nothing(tmp_path, toy_csv, capsys):
    model = tmp_path / "model.json"
    main(["fit", str(toy_csv), "--restarts", "3", "--seed", "1", "--out", str(model)])
    data = tmp_path / "latin.csv"
    data.write_bytes(b"x1,x2\n0.0,5.0\n4.0,6.0\n6.0,\xe9\n")
    out = tmp_path / "p.csv"
    capsys.readouterr()
    assert main(["predict", str(model), str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {data}: row 4: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--sim", "2", "--level", "0.9", "--d", "3", "--out-train", "{dir}",
     "--out-test", "{tmp}/test.csv"],
    ["fit", "{dir}"],
    ["fit", "{data}", "--restarts", "2", "--out", "{dir}"],
    ["predict", "{dir}", "{data}"],
    ["predict", "{model}", "{dir}"],
    ["predict", "{model}", "{data}", "--out", "{dir}"],
    ["benchmark", "--data", "{dir}"],
    ["benchmark", "--sim", "2", "--level", "0.9", "--d", "3", "--classifiers", "nc",
     "--reps", "2", "--threads", "1", "--out", "{dir}"],
    ["oracle", "--data", "{dir}"],
], ids=["simulate-out", "fit-in", "fit-out", "predict-model", "predict-data", "predict-out",
        "benchmark-data", "benchmark-out", "oracle-data"])
def test_a_path_that_cannot_be_opened_exit_2(tmp_path, toy_csv, toy_partition, toy_ds, capsys,
                                                args):
    # a directory where a file is read or written raises IsADirectoryError,
    # an OSError like FileNotFoundError
    directory = tmp_path / "a-directory"
    directory.mkdir()
    model = tmp_path / "model.json"
    save_model(compute_centroids(toy_ds, toy_partition), model)
    paths = {"dir": directory, "tmp": tmp_path, "data": toy_csv, "model": model}
    assert main([arg.format(**paths) for arg in args]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{directory}'\n"


@pytest.mark.parametrize("label", ["1" + "0" * 30, "-" + "9" * 20])
def test_fit_label_beyond_int64_exit_2(tmp_path, capsys, label):
    data = tmp_path / "big.csv"
    data.write_text(f"label,x1,x2\n1,0.0,5.0\n{label},1.0,4.0\n2,5.0,0.0\n")
    assert main(["fit", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert f"row 3: label '{label}' out of range" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_predict_ignores_special_group_columns(tmp_path):
    rng = np.random.default_rng(60)
    ds = LabeledDataset.from_arrays(rng.normal(size=(6, 3)), [1, 1, 1, 2, 2, 2])
    part = FeaturePartition((np.array([1]), np.array([0]), np.array([2])),
                            has_special=True)
    model_path = tmp_path / "m.json"
    save_model(with_lambda(compute_centroids(ds, part), 0.9), model_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x1,x2,x3\n1.0,50.0,2.0\n-1.0,0.0,3.0\n")
    b.write_text("x1,x2,x3\n1.0,-999.0,2.0\n-1.0,123.4,3.0\n")  # only I0 differs
    pa = tmp_path / "pa.csv"
    pb = tmp_path / "pb.csv"
    assert main(["predict", str(model_path), str(a), "--out", str(pa)]) == 0
    assert main(["predict", str(model_path), str(b), "--out", str(pb)]) == 0
    col = lambda p: [line.split(",")[-1] for line in p.read_text().splitlines()[1:]]
    assert col(pa) == col(pb)


def test_benchmark_cv_mode(tmp_path, toy_ds, capsys):
    x = np.tile(toy_ds.x, (6, 1))
    labels = np.tile(toy_ds.labels, 6)
    data = tmp_path / "data.csv"
    write_labeled_csv(data, LabeledDataset.from_arrays(x, labels))
    out = tmp_path / "report.csv"
    code = main(["benchmark", "--data", str(data), "--folds", "3",
                 "--classifiers", "ndc,nc", "--restarts", "5",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "classifier" in printed and "not available in this build" in printed
    rows = out.read_text().splitlines()
    assert rows[0] == "classifier,setting,mean_error,se_error,mean_features,se_features,reps"
    assert len(rows) == 3


def test_benchmark_data_report_is_the_same_in_one_process_and_in_workers(tmp_path, toy_ds):
    x = np.tile(toy_ds.x, (6, 1)) + np.random.default_rng(4).normal(size=(24, 2))
    data = tmp_path / "data.csv"
    write_labeled_csv(data, LabeledDataset.from_arrays(x, np.tile(toy_ds.labels, 6)))
    reports = []
    for threads in (["--threads", "1"], []):
        out = tmp_path / f"report{len(reports)}.csv"
        assert main(["benchmark", "--data", str(data), "--folds", "3", "--restarts", "3",
                     "--tune-restarts", "2", "--seed", "2", "--out", str(out), *threads]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_benchmark_sim_mode_quick(tmp_path, capsys):
    code = main(["benchmark", "--sim", "2", "--level", "0.9", "--d", "3",
                 "--classifiers", "nc,knn", "--reps", "2", "--threads", "1",
                 "--seed", "3"])
    assert code == 0
    assert "sim2" in capsys.readouterr().out


def test_benchmark_zero_restarts_exit_2(toy_csv, capsys):
    assert main(["benchmark", "--data", str(toy_csv), "--classifiers", "ndc,ndc-s",
                 "--restarts", "0", "--tune-restarts", "0"]) == 2
    assert "restart counts must be >= 1" in capsys.readouterr().err


def test_benchmark_unknown_classifier_exit_2(tmp_path, toy_csv):
    assert main(["benchmark", "--data", str(toy_csv), "--classifiers", "mystery"]) == 2
    assert main(["benchmark", "--data", str(toy_csv), "--classifiers", "svm"]) == 2


def test_benchmark_needs_mode(tmp_path):
    assert main(["benchmark", "--classifiers", "nc"]) == 2


@pytest.mark.parametrize("mode", [["--sim", "2", "--level", "0.9", "--d", "10", "--reps", "2"],
                                  ["--data", "DATA"]])
def test_benchmark_empty_classifier_list_exit_2(toy_csv, capsys, mode):
    args = [str(toy_csv) if arg == "DATA" else arg for arg in mode]
    assert main(["benchmark", *args, "--classifiers", ","]) == 2
    captured = capsys.readouterr()
    assert "no classifiers given" in captured.err
    assert captured.out == ""


def test_every_option_is_read_by_its_subcommand():
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    for name, sub in subcommands.items():
        source = inspect.getsource(sub.get_default("func"))
        unread = [action.dest for action in sub._actions
                  if action.dest != "help" and f"args.{action.dest}" not in source]
        assert not unread, f"ndc {name} never reads {unread}"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_benchmark_threads_below_one_exit_2(capsys, threads):
    assert main(["benchmark", "--sim", "2", "--level", "0.9", "--d", "3", "--reps", "2",
                 "--classifiers", "nc", "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert f"threads must be >= 1, got {threads}" in captured.err
    assert captured.out == ""


def test_benchmark_data_and_sim_conflict_exit_2(toy_csv, capsys):
    assert main(["benchmark", "--data", str(toy_csv), "--sim", "2", "--level", "0.9",
                 "--d", "3", "--classifiers", "nc"]) == 2
    captured = capsys.readouterr()
    assert "need exactly one of --data, --sim, got --data and --sim" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("modes", [("--corollary", "--consistency"),
                                   ("--data", "--corollary"),
                                   ("--data", "--consistency")])
def test_oracle_mode_conflict_exit_2(toy_csv, capsys, modes):
    args = [arg for mode in modes
            for arg in ([mode, str(toy_csv)] if mode == "--data" else [mode])]
    assert main(["oracle", *args]) == 2
    captured = capsys.readouterr()
    assert f"got {' and '.join(modes)}" in captured.err
    assert captured.out == ""


def test_oracle_data_mode(toy_csv, capsys):
    assert main(["oracle", "--data", str(toy_csv)]) == 0
    out = capsys.readouterr().out
    assert "I_1: [1]" in out
    assert "I_2: [2]" in out
    assert "W*: 0.0" in out


def test_oracle_diagonal_check_pass(capsys):
    code = main(["oracle", "--corollary", "--k", "2", "--d", "2",
                 "--sigma1", "1", "--sigma2", "2"])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_oracle_guard_exit_2(tmp_path):
    rng = np.random.default_rng(61)
    ds = LabeledDataset.from_arrays(rng.normal(size=(3, 15)), [1, 2, 3])
    big = tmp_path / "big.csv"
    write_labeled_csv(big, ds)
    assert main(["oracle", "--data", str(big)]) == 2


@pytest.mark.parametrize("args, message", [
    (["--corollary", "--k", "0"], "need k >= 1 classes and block width d >= 1, got k=0"),
    (["--corollary", "--d", "0"], "need k >= 1 classes and block width d >= 1, got k=2, d=0"),
    (["--consistency", "--d", "0"], "need k >= 1 classes and block width d >= 1, got k=2, d=0"),
    (["--consistency", "--reps", "0"], "reps must be >= 1, got 0"),
    (["--consistency", "--reps", "-3"], "reps must be >= 1, got -3"),
    (["--consistency", "--n-grid", ","], "n_grid must hold at least one sample size"),
    (["--corollary", "--k", "1"], "the diagonal check needs k >= 2 classes, got k=1"),
    (["--consistency", "--sigma1", "inf"], "means and standard deviations must be finite"),
    (["--corollary", "--mu2", "nan"], "means and standard deviations must be finite"),
    # a 2 x 2e9 spec would take 32 GB: the guard decides from k and k * d first
    (["--corollary", "--k", "2", "--d", "1000000000"], "2^2000000000 assignments exceed"),
    (["--consistency", "--k", "2", "--d", "1000000000"], "2^2000000000 assignments exceed"),
    # a one-class spec is refused before its 1 x d spec is built, whatever d
    (["--corollary", "--k", "1", "--d", "10000000000"],
     "the diagonal check needs k >= 2 classes, got k=1"),
    (["--consistency", "--k", "1", "--d", "10000000000"],
     "the consistency experiment needs k >= 2 classes, got k=1"),
    (["--consistency", "--k", "1", "--d", "3"],
     "the consistency experiment needs k >= 2 classes, got k=1"),
])
def test_oracle_bad_shape_exit_2(capsys, args, message):
    assert main(["oracle", *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_oracle_consistency_tsv(capsys):
    code = main(["oracle", "--consistency", "--k", "2", "--d", "2",
                 "--sigma1", "1", "--sigma2", "2", "--n-grid", "30",
                 "--reps", "1", "--restarts", "5", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n\trep\tfitted_population_risk\tW_star\tgap"
    assert out[1].startswith("30\t0\t")


def test_console_entry_point(toy_csv):
    # the child interpreter imports the same ndc sources as this test, and
    # writes no bytecode beside them either
    env = {**os.environ, "PYTHONPATH": str(Path(ndc.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "ndc.cli", "oracle",
                           "--data", str(toy_csv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "W*: 0.0" in proc.stdout
