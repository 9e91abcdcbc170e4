import json
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from ndc.classifier import (
    NdcModel,
    compute_centroids,
    empirical_risk,
    load_model,
    predict_many,
    predict_scores_many,
    save_model,
    training_error,
    with_lambda,
)
from ndc.data import FeaturePartition, LabeledDataset


def test_centroids_toy(toy_ds, toy_partition):
    model = compute_centroids(toy_ds, toy_partition)
    assert model.centroids[0].tolist() == [0.0]
    assert model.centroids[1].tolist() == [6.0]
    assert model.selected_feature_count == 2


def test_centroids_single_sample_per_class():
    ds = LabeledDataset.from_arrays([[1.0, 2.0], [3.0, 4.0]], [1, 2])
    model = compute_centroids(ds, FeaturePartition((np.array([0]), np.array([1]))))
    assert model.centroids[0].tolist() == [1.0]
    assert model.centroids[1].tolist() == [4.0]


def test_centroids_with_special_group_bookkeeping():
    rng = np.random.default_rng(0)
    ds = LabeledDataset.from_arrays(rng.normal(size=(6, 5)), [1, 1, 1, 2, 2, 2])
    part = FeaturePartition(
        (np.array([1, 2, 4]), np.array([0]), np.array([3])), has_special=True)
    model = compute_centroids(ds, part)
    assert [len(c) for c in model.centroids] == [1, 1]
    assert model.selected_feature_count == 2


def test_predict_toy_examples(toy_ds, toy_partition):
    model = compute_centroids(toy_ds, toy_partition)
    assert predict_many(model, [1.0, 3.0])[0] == 1  # squared distances 1 vs 9
    assert predict_many(model, [5.0, 6.1])[0] == 2  # 25 vs 0.01
    assert predict_many(model, [2.0, 4.0])[0] == 1  # exact tie 4 vs 4 -> class 1
    assert predict_scores_many(model, [1.0, 3.0])[0].tolist() == [1.0, 9.0]


def test_predict_scores_zero_at_centroids(toy_ds, toy_partition):
    model = compute_centroids(toy_ds, toy_partition)
    x = [0.0, 6.0]  # concatenated centroids in feature order
    assert predict_scores_many(model, x)[0].tolist() == [0.0, 0.0]


def test_predict_matches_score_argmin():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ds = random_dataset(rng)
        part = _cyclic_partition(ds.p, ds.k)
        model = compute_centroids(ds, part)
        probes = rng.normal(size=(30, ds.p))
        scores = predict_scores_many(model, probes)
        np.testing.assert_array_equal(predict_many(model, probes),
                                      scores.argmin(axis=1) + 1)


def test_scores_invariant_to_within_group_permutation(toy_ds):
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, k=2, p=6, n_per_class=5)
    part = FeaturePartition((np.array([0, 1, 2]), np.array([3, 4, 5])))
    model = compute_centroids(ds, part)
    # permuting coordinates inside a group together with its centroid
    perm = np.array([2, 0, 1])
    part2 = FeaturePartition((np.array([0, 1, 2]), np.array([3, 4, 5])))
    model2 = NdcModel(part2, (model.centroids[0][perm], model.centroids[1]),
                      k=2, p=6)
    x = rng.normal(size=6)
    x2 = x.copy()
    x2[[0, 1, 2]] = x[[0, 1, 2]][perm]
    np.testing.assert_allclose(predict_scores_many(model, x)[0],
                               predict_scores_many(model2, x2)[0], rtol=1e-12)


def test_dimension_mismatch_rejected(toy_ds, toy_partition):
    model = compute_centroids(toy_ds, toy_partition)
    with pytest.raises(ValueError, match="expected 2 features"):
        predict_many(model, [1.0, 2.0, 3.0])[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_predict_rejects_non_finite_row(toy_ds, toy_partition, bad):
    model = compute_centroids(toy_ds, toy_partition)
    x = np.array([[0.0, 5.0], [4.0, 6.0], [bad, 6.0], [bad, bad]])
    with pytest.raises(ValueError, match=r"\brow 3\b"):
        predict_many(model, x)


def test_predict_refuses_a_row_whose_scores_overflow():
    # at 2**520 every squared distance of the third row overflows to inf,
    # and a tie-broken argmin would call it class 1; unscaled, it is class 2
    s = 2.0 ** 520
    part = FeaturePartition((np.array([0]), np.array([1])))
    unscaled = NdcModel(part, (np.array([0.0]), np.array([1.0])), k=2, p=2)
    assert predict_many(unscaled, [7.0, 5.0]).tolist() == [2]
    model = NdcModel(part, (np.array([0.0]), np.array([s])), k=2, p=2)
    rows = [[0.0, s], [7 * s, s], [7 * s, 5 * s]]
    with np.errstate(over="ignore"):
        # tied at 0; then class 1's score overflows and class 2's, 0, is nearest
        assert predict_many(model, rows[:2]).tolist() == [1, 2]
        with pytest.raises(ValueError, match=r"^row 3: no class score is finite"):
            predict_many(model, rows)


def test_predict_refuses_a_row_whose_scores_underflow_alike():
    # at 2**-560 the squares of differences near 2**-560 underflow to 0
    s = 2.0 ** -560
    part = FeaturePartition((np.array([0]), np.array([1])))
    model = NdcModel(part, (np.array([0.0]), np.array([s])), k=2, p=2)
    rows = [[0.0, 5 * s],      # class 1 exact, class 2 underflowed: class 1
            [7 * s, s],        # class 1 underflowed, class 2 exact: class 2, not the tie's 1
            [s, 2.0 ** -500],  # only class 1 scores 0, so it is nearest
            [0.0, s],          # both exact: the tie goes to class 1
            [7 * s, 5 * s]]    # both underflowed: unscaled, class 2 (49 against 16)
    assert predict_many(model, rows[:4]).tolist() == [1, 2, 1, 1]
    with pytest.raises(ValueError, match=r"^row 5: 2 class scores underflow to 0"):
        predict_many(model, rows)


def test_empirical_risk_toy(toy_ds, toy_partition, toy_partition_swapped):
    optimal = compute_centroids(toy_ds, toy_partition)
    assert empirical_risk(toy_ds, optimal) == 0.0
    swapped = compute_centroids(toy_ds, toy_partition_swapped)
    assert empirical_risk(toy_ds, swapped) == 1.0


def test_centroids_minimize_risk_for_fixed_partition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ds = random_dataset(rng)
        part = _cyclic_partition(ds.p, ds.k)
        model = compute_centroids(ds, part)
        base = empirical_risk(ds, model)
        for _ in range(5):
            perturbed = NdcModel(
                part,
                tuple(c + 1e-3 * rng.normal(size=c.shape) for c in model.centroids),
                k=ds.k, p=ds.p)
            assert empirical_risk(ds, perturbed) >= base


def test_row_blocks_match_index_gathers():
    # the reference gathers each class's rows and group's columns with
    # np.ix_, as the centroids and the risk once did; the class row blocks
    # hold the same entries in the same order, so results are exactly equal
    rng = np.random.default_rng(9)
    for _ in range(20):
        base = random_dataset(rng)
        order = rng.permutation(base.n)
        ds = LabeledDataset.from_arrays(base.x[order], base.labels[order], k=base.k)
        has_special = ds.p > ds.k and bool(rng.integers(2))
        n_groups = ds.k + has_special
        assignment = rng.permutation(np.arange(ds.p) % n_groups)
        part = FeaturePartition(tuple(np.flatnonzero(assignment == j) for j in range(n_groups)),
                                has_special=has_special)
        model = compute_centroids(ds, part)
        rows = [np.flatnonzero(ds.labels == j) for j in range(1, ds.k + 1)]
        total = 0.0
        for s, g, c in zip(rows, part.class_groups, model.centroids):
            np.testing.assert_array_equal(c, ds.x[np.ix_(s, g)].mean(axis=0))
            total += np.square(ds.x[np.ix_(s, g)] - c).mean(axis=1).sum()
        assert empirical_risk(ds, model) == float(total) / ds.n


def test_common_scaling_scales_risk_and_keeps_predictions():
    rng = np.random.default_rng(8)
    for scale in (0.5, 3.0, 17.0):
        ds = random_dataset(rng, k=2, p=5, n_per_class=6)
        part = _cyclic_partition(ds.p, ds.k)
        model = compute_centroids(ds, part)
        scaled_ds = LabeledDataset.from_arrays(ds.x * scale, ds.labels)
        scaled_model = compute_centroids(scaled_ds, part)
        assert empirical_risk(scaled_ds, scaled_model) == pytest.approx(
            scale ** 2 * empirical_risk(ds, model), rel=1e-12)
        probes = rng.normal(size=(25, ds.p))
        np.testing.assert_array_equal(predict_many(model, probes),
                                      predict_many(scaled_model, probes * scale))


def test_training_error_toy(toy_ds, toy_partition):
    model = compute_centroids(toy_ds, toy_partition)
    assert training_error(toy_ds, model) == 0.0
    # same distances, labels inverted: swap which class owns each centroid
    inverted = NdcModel(
        FeaturePartition((np.array([1]), np.array([0]))),
        (model.centroids[1], model.centroids[0]),
        k=2, p=2)
    assert training_error(toy_ds, inverted) == 1.0


def test_training_error_single_class():
    ds = LabeledDataset.from_arrays([[1.0], [2.0], [3.0]], [1, 1, 1])
    model = compute_centroids(ds, FeaturePartition((np.array([0]),)))
    assert training_error(ds, model) == 0.0


def test_model_round_trip(tmp_path, toy_ds, toy_partition):
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, k=3, p=7, n_per_class=5)
    part = FeaturePartition(
        (np.array([5]), np.array([0, 3]), np.array([1, 6]), np.array([2, 4])),
        has_special=True)
    model = with_lambda(compute_centroids(ds, part), 0.9)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.k == model.k and back.p == model.p
    assert back.lambda_used == 0.9
    assert back.partition.has_special
    probes = rng.normal(size=(40, ds.p))
    np.testing.assert_array_equal(predict_many(model, probes),
                                  predict_many(back, probes))
    for a, b in zip(model.centroids, back.centroids):
        np.testing.assert_array_equal(a, b)


def test_model_json_uses_one_based_indices(tmp_path, toy_ds, toy_partition):
    import json
    model = compute_centroids(toy_ds, toy_partition)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["partition"] == [[1], [2]]
    assert doc["has_special"] is False
    assert "lambda" not in doc


def test_model_json_inf_lambda(tmp_path, toy_ds, toy_partition):
    model = with_lambda(compute_centroids(toy_ds, toy_partition), math.inf)
    path = tmp_path / "m.json"
    save_model(model, path)
    assert load_model(path).lambda_used is None


def test_model_json_inf_lambda_loads_as_no_selection_and_resaves_without_it(tmp_path):
    import json
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**_toy_model_doc(), "lambda": "inf"}))
    model = load_model(path)
    assert model.lambda_used is None
    again = tmp_path / "again.json"
    save_model(model, again)
    assert "lambda" not in json.loads(again.read_text())
    assert load_model(again).lambda_used is None
    built = NdcModel(model.partition, model.centroids, k=model.k, p=model.p,
                     lambda_used=math.inf)
    assert built.lambda_used is None


def _cyclic_partition(p, k):
    assignment = np.arange(p) % k
    return FeaturePartition(tuple(np.flatnonzero(assignment == j) for j in range(k)))


def _toy_model_doc():
    return {"format_version": 1, "k": 2, "p": 3, "has_special": True,
            "partition": [[3], [1], [2]], "centroids": [[], [0.5], [6.0]]}


def test_load_model_accepts_valid_document(tmp_path):
    import json
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**_toy_model_doc(), "lambda": 0.9}))
    model = load_model(path)
    assert model.partition.special.tolist() == [2]
    assert model.centroids[1].tolist() == [6.0]
    assert model.lambda_used == 0.9


@pytest.mark.parametrize("change, message", [
    (lambda d: d.pop("has_special"), "lacks has_special"),
    (lambda d: d.pop("centroids"), "lacks centroids"),
    (lambda d: d.update(k="2"), "positive integers"),
    (lambda d: d.update(p=True), "positive integers"),
    (lambda d: d.update(has_special=1), "has_special"),
    (lambda d: d.update(partition=[[3], [1, 2]]), "list of 3"),
    (lambda d: d.update(centroids={"1": [0.5]}), "list of 3"),
    (lambda d: d["partition"].__setitem__(1, [1.0]), "integer feature indices"),
    (lambda d: d["partition"].__setitem__(1, [2, 1]), "increasing order"),
    (lambda d: d["centroids"].__setitem__(2, ["6.0"]), "numbers"),
    (lambda d: d["centroids"].__setitem__(2, [float("nan")]), "NaN or infinite"),
    (lambda d: d["centroids"].__setitem__(2, [6.0, 1.0]), "2 values, expected 1"),
    (lambda d: d["centroids"].__setitem__(0, [1.0]), "1 values, expected 0"),
    (lambda d: d.__setitem__("lambda", -1.0), "lambda"),
    (lambda d: d["partition"].__setitem__(1, [4]), "out of range"),
    (lambda d: d["partition"].__setitem__(2, [0, 2]), "slot 2: feature index out of range 1..3"),
    (lambda d: d["partition"].__setitem__(1, [10**30]), "slot 1: feature index out of range"),
    (lambda d: d.update(format_version=True), "format version True"),
    (lambda d: d.update(format_version=1.0), "format version 1.0"),
    (lambda d: d.update(p=2**40), f"lists 3 feature indices, fewer than p={2**40}"),
    (lambda d: d["centroids"].__setitem__(2, [10**400]), "slot 2 must hold numbers"),
    (lambda d: d.__setitem__("lambda", 10**400), "lambda must be a positive number"),
])
def test_load_model_rejects_bad_document(tmp_path, change, message):
    import json
    doc = _toy_model_doc()
    change(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_load_model_rejects_non_object(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_model(path)


@pytest.mark.parametrize("build, message", [
    (lambda ds, part, cs: NdcModel(FeaturePartition((np.array([0, 1]),)), cs[:1], k=2, p=2),
     "invalid partition: expected 2 class groups, found 1"),
    (lambda ds, part, cs: NdcModel(FeaturePartition((np.array([0, 1]), np.array([], int))),
                                   (np.zeros(2), np.zeros(0)), k=2, p=2),
     "invalid partition: class group 2 is empty"),
    (lambda ds, part, cs: compute_centroids(
        ds, FeaturePartition((np.array([0, 1]), np.array([], int)))),
     "invalid partition: class group 2 is empty"),
    (lambda ds, part, cs: NdcModel(part, cs[:1], k=2, p=2), "need one centroid per class"),
    (lambda ds, part, cs: NdcModel(part, (cs[0], np.zeros(2)), k=2, p=2),
     "centroid length must match its feature group"),
])
def test_model_refuses_a_bad_partition_or_centroids(toy_ds, toy_partition, build, message):
    with pytest.raises(ValueError, match=message):
        build(toy_ds, toy_partition, (np.zeros(1), np.zeros(1)))


_MODEL_DOCS = [
    {**_toy_model_doc(), "lambda": 0.9},
    {"format_version": 1, "k": 3, "p": 4, "has_special": False,
     "partition": [[1, 4], [2], [3]], "centroids": [[0.5, -1.0], [2.0], [3.5]]},
]


def _value_paths(value, path=()):
    """The path of every value in a JSON document, the document included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _value_paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, new):
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = new
    return doc


def _doc_scores(doc, x):
    """Each row's mean squared residual to each class centroid, read off
    the document."""
    skip = int(doc["has_special"])
    scores = [np.square(x[:, np.array(g, dtype=np.int64) - 1] - np.array(c)).mean(axis=1)
              for g, c in zip(doc["partition"][skip:], doc["centroids"][skip:])]
    return np.stack(scores, axis=1)


# integers stay small or start at 2**40, so that a loader which sized
# anything by a file's p would fail fast instead of allocating gigabytes
_INTS = st.integers(-10**4, 10**4) | st.integers(2**40, 10**400)
_SCALARS = {bool: st.booleans(), int: _INTS, float: st.floats(),
            str: st.sampled_from(["inf", "1", ""]) | st.text(max_size=4)}
_JSON_VALUES = st.recursive(
    st.none() | st.one_of(*_SCALARS.values()),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=5)


@st.composite
def _one_value_replaced(draw):
    """A model document, the path of one of its values, and a new value."""
    doc = draw(st.sampled_from(_MODEL_DOCS))
    path = draw(st.sampled_from(list(_value_paths(doc))))
    # a value of the original's own kind half the time, so that many
    # replaced files still load and their predictions get compared
    same_kind = _SCALARS.get(type(_at(doc, path)))
    return doc, path, draw(_JSON_VALUES if same_kind is None else same_kind | _JSON_VALUES)


@settings(max_examples=100)
@given(case=_one_value_replaced())
# centroids near the float limit: every score overflows, so the file
# loads and each row is refused
@example(case=(_MODEL_DOCS[0], ("centroids",), [[], [1e308], [-1.5e308]]))
def test_a_model_file_with_one_value_replaced_loads_right_or_is_refused(tmp_path_factory, case):
    doc, path, new = case
    mutated = _replaced(doc, path, new)
    model_path = tmp_path_factory.getbasetemp() / "mutated-model.json"
    model_path.write_text(json.dumps(mutated))
    try:
        model = load_model(model_path)
    except ValueError:
        event("refused")
        return
    event("loaded")
    x = np.random.default_rng(7).normal(size=(20, doc["p"])) * 3
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _doc_scores(mutated, x)
        overflowed = np.flatnonzero(~np.isfinite(scores.min(axis=1)))
        if overflowed.size:  # a row with no nearest centroid is refused, never guessed
            event("overflowed")
            with pytest.raises(ValueError, match=rf"^row {overflowed[0] + 1}: "):
                predict_many(model, x)
            return
        np.testing.assert_array_equal(predict_many(model, x), scores.argmin(axis=1) + 1)
