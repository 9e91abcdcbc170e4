"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed when constructed
(that is the set-up the benchmark times), runs one round of operations
in ``run_round`` (the timed part), keeps what the checks need in
``record`` (untimed; returns the round's failed operations), and checks
every kept output in ``check`` after the last round.  The program is
driven only through its public names, looked up on the module at call
time so that a tracer can replace them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

import ndc
import ndc.cli
import ndc.evaluate
import ndc.kmeans
import ndc.oracle

import checks


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed for the named part of a run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ndc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli_guarded(argv) -> tuple[int | None, str, str]:
    """``run_cli`` for an operation expected to reject its input; an
    exception escaping ``main`` is that operation's failure."""
    try:
        return run_cli(argv)
    except Exception as exc:  # noqa: BLE001 - any escape is the fault being counted
        return None, "", f"{type(exc).__name__}: {exc}"


class _Deterministic:
    """Rounds with the same index must give the same outputs."""

    def __init__(self):
        self.outputs: dict = {}
        self.problems: list[str] = []

    def keep(self, key, summary) -> None:
        if key in self.outputs and self.outputs[key] != summary:
            self.problems.append(f"round {key}: output differs from the same inputs' earlier run")
        self.outputs.setdefault(key, summary)


class Sim4Study(_Deterministic):
    """The paper's feature-selection study (sim 4, level 0.9, r = 80:
    n = 1000, p = 100, k = 4), every classifier, single process.  Round
    i draws its repetitions from seed i mod POOL, so a run meets each
    seed of the pool and then repeats them, and a repeat must give the
    same outputs."""

    name = "sim4-study"
    CLASSIFIERS = ("ndc", "ndc-s", "nc", "nsc", "knn")
    REPS = 2
    POOL = 3
    LAMBDA_GRID = (0.8, 0.9, 1.0)
    K, P = 4, 100
    ops_per_round = REPS * len(CLASSIFIERS)

    def __init__(self, workdir: Path, seed: int):
        super().__init__()
        self.seed = seed
        self.options = ndc.HarnessOptions(lambda_grid=self.LAMBDA_GRID, tune_restarts=4,
                                          final_restarts=20, knn_neighbors=15,
                                          delta_grid_size=10)

    def run_round(self, i: int):
        return ndc.evaluate.run_simulation_benchmark(
            4, 0.9, 80, self.REPS, list(self.CLASSIFIERS), derive(self.seed, i % self.POOL),
            self.options, threads=1)

    def record(self, i: int, report) -> int:
        self.keep(i % self.POOL, {s.name: (tuple(s.errors), tuple(s.features),
                               tuple(tuple(sorted(p.items())) for p in s.params), s.failures)
                      for s in report.stats})
        return sum(s.failures for s in report.stats)

    def check(self) -> list[str]:
        problems = list(self.problems)
        for i, stats in self.outputs.items():
            for name in self.CLASSIFIERS:
                errors, features, params, failures = stats[name]
                if failures or len(errors) != self.REPS:
                    problems.append(f"seed {i}: {name} failed {failures} of {self.REPS} reps")
                if any(not 0.0 <= e <= 1.0 for e in errors):
                    problems.append(f"seed {i}: {name} error outside [0, 1]: {errors}")
                if name in ("ndc", "nc", "knn") and any(f != self.P for f in features):
                    problems.append(f"seed {i}: {name} used {features} features, not {self.P}")
            _, s_feat, s_params, _ = stats["ndc-s"]
            if any(not self.K <= f <= self.P for f in s_feat):
                problems.append(f"seed {i}: ndc-s selected {s_feat} features")
            if any(dict(p).get("lambda") not in self.LAMBDA_GRID for p in s_params):
                problems.append(f"seed {i}: ndc-s lambda {s_params} not from the grid")
        # The paper's claim holds on average, not on every repetition: a
        # final fit can settle in a poor local optimum (seed 15, pool entry
        # 1 gives one ndc-s error of 0.489 against nc's 0.435).
        s_mean, nc_mean = (np.mean([e for stats in self.outputs.values() for e in stats[name][0]])
                           for name in ("ndc-s", "nc"))
        if not s_mean < nc_mean:
            problems.append(f"ndc-s mean error {s_mean:.4f} does not beat nc's {nc_mean:.4f}")
        return problems

    def reference(self) -> dict:
        out = {}
        for name in self.CLASSIFIERS:
            errors = [e for stats in self.outputs.values() for e in stats[name][0]]
            out[name] = {"mean_error": float(np.mean(errors)), "units": len(errors)}
        out["ndc-s"]["lambdas"] = sorted({dict(p)["lambda"] for stats in self.outputs.values()
                                          for p in stats["ndc-s"][2]})
        out["ndc-s"]["mean_features"] = float(np.mean(
            [f for stats in self.outputs.values() for f in stats["ndc-s"][1]]))
        out["nsc"]["mean_delta"] = float(np.mean(
            [dict(p)["delta"] for stats in self.outputs.values() for p in stats["nsc"][2]]))
        return out


class WideCv(_Deterministic):
    """``ndc benchmark --data`` on gene-expression-shaped CSVs: k = 3,
    20 rows per class, 1000 columns of N(0, 1) noise, 10 of them per
    class shifted by +1.5 on that class's rows.  A pool of datasets is
    written at set-up; round i uses dataset i mod POOL."""

    name = "wide-cv"
    K, PER_CLASS, P, INFORMATIVE, SHIFT = 3, 20, 1000, 10, 1.5
    POOL = 4
    FOLDS = 3
    CLASSIFIERS = ("ndc", "ndc-s", "nc", "nsc", "knn")
    ops_per_round = FOLDS * len(CLASSIFIERS)

    def __init__(self, workdir: Path, seed: int):
        super().__init__()
        self.workdir = workdir
        names = [f"g{i}" for i in range(1, self.P + 1)]
        labels = np.repeat(np.arange(1, self.K + 1), self.PER_CLASS)
        self.datasets = []
        for d in range(self.POOL):
            rng = np.random.default_rng(derive(seed, 1, d))
            x = rng.standard_normal((len(labels), self.P))
            for j in range(self.K):
                x[labels == j + 1, j * self.INFORMATIVE:(j + 1) * self.INFORMATIVE] += self.SHIFT
            path = workdir / f"wide-{d}.csv"
            checks.write_labeled(path, x, labels, names)
            self.datasets.append((path, derive(seed, 2, d)))

    def run_round(self, i: int):
        path, cli_seed = self.datasets[i % self.POOL]
        report = self.workdir / f"report-{i % self.POOL}.csv"
        code, out, err = run_cli([
            "benchmark", "--data", str(path), "--folds", str(self.FOLDS),
            "--classifiers", ",".join(self.CLASSIFIERS), "--restarts", "4",
            "--tune-restarts", "1", "--seed", str(cli_seed), "--out", str(report)])
        return code, err, report

    def record(self, i: int, outcome) -> int:
        code, err, report = outcome
        rows = checks.read_report(report) if code == 0 else {}
        self.keep(i % self.POOL, (code, err, rows))
        scored = sum(int(r["reps"]) for r in rows.values())
        return self.ops_per_round - scored

    def check(self) -> list[str]:
        problems = list(self.problems)
        for d, (code, err, rows) in self.outputs.items():
            if code != 0:
                problems.append(f"dataset {d}: ndc benchmark exited {code}: {err.strip()}")
                continue
            path, cli_seed = self.datasets[d]
            _, _, labels, x = checks.read_labeled(path)
            folds = ndc.evaluate.k_fold_split(ndc.LabeledDataset.from_arrays(x, labels),
                                              ndc.CvConfig(folds=self.FOLDS, seed=cli_seed))
            nc_err, knn_err = checks.nc_knn_cv_errors(x, labels, folds, m=15)
            problems += [f"dataset {d}: {p}" for p in checks.check_cv_report(
                rows, self.FOLDS, self.CLASSIFIERS, {"nc": nc_err, "knn": knn_err})]
        return problems

    def reference(self) -> dict:
        return {f"dataset {d}": {name: {"mean_error": float(r["mean_error"]),
                                        "mean_features": float(r["mean_features"])}
                                 for name, r in rows.items()}
                for d, (_, _, rows) in sorted(self.outputs.items())}


class CsvIo(_Deterministic):
    """A closed loop of CLI calls: ``ndc simulate`` (sim 4, level 0.9,
    r = 80) writes train and test CSVs, ``ndc predict`` scores both with
    a model written from the known block structure, and two predictions
    on fixed faulty inputs must be refused."""

    name = "csv-io"
    K, D, R, MU1 = 4, 5, 80, 0.9
    ops_per_round = 5
    # A fixed two-class model on four features and a CSV whose rows 2 and
    # 3 hold a NaN and an infinity; neither depends on the seed.
    TINY_MODEL = {"format_version": 1, "k": 2, "p": 4, "has_special": False,
                  "partition": [[1, 2], [3, 4]], "centroids": [[0.0, 0.0], [1.0, 1.0]]}
    TINY_ROWS = (("0.1", "0.2", "0.9", "1.1"), ("nan", "0.0", "1.0", "1.0"),
                 ("0.0", "inf", "1.0", "1.0"), ("1.0", "1.0", "0.0", "0.1"))

    def __init__(self, workdir: Path, seed: int):
        super().__init__()
        self.seed = seed
        self.files = {name: workdir / name for name in (
            "train.csv", "test.csv", "model.json", "pred-train.csv", "pred-test.csv",
            "tiny.json", "tiny-no-special.json", "tiny.csv", "nonfinite.csv", "pred-tiny.csv")}
        p = self.K * self.D + self.R
        model = {"format_version": 1, "k": self.K, "p": p, "has_special": True,
                 "partition": [list(range(self.K * self.D + 1, p + 1))]
                 + [list(range(j * self.D + 1, (j + 1) * self.D + 1)) for j in range(self.K)],
                 "centroids": [[]] + [[self.MU1] * self.D for _ in range(self.K)]}
        self._write_json("model.json", model)
        self._write_json("tiny.json", self.TINY_MODEL)
        self._write_json("tiny-no-special.json",
                         {k: v for k, v in self.TINY_MODEL.items() if k != "has_special"})
        header = "x1,x2,x3,x4\n"
        self.files["tiny.csv"].write_text(header + "0.1,0.2,0.9,1.1\n", encoding="utf-8")
        self.files["nonfinite.csv"].write_text(
            header + "".join(",".join(r) + "\n" for r in self.TINY_ROWS), encoding="utf-8")

    def _write_json(self, name, doc) -> None:
        with open(self.files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def run_round(self, i: int):
        f = {k: str(v) for k, v in self.files.items()}
        return (
            run_cli(["simulate", "--sim", "4", "--level", str(self.MU1), "--r", str(self.R),
                     "--seed", str(self.seed), "--out-train", f["train.csv"],
                     "--out-test", f["test.csv"]]),
            run_cli(["predict", f["model.json"], f["train.csv"], "--out", f["pred-train.csv"]]),
            run_cli(["predict", f["model.json"], f["test.csv"], "--out", f["pred-test.csv"]]),
            run_cli_guarded(["predict", f["tiny.json"], f["nonfinite.csv"],
                             "--out", f["pred-tiny.csv"]]),
            run_cli_guarded(["predict", f["tiny-no-special.json"], f["tiny.csv"],
                             "--out", f["pred-tiny.csv"]]),
        )

    def record(self, i: int, outcome) -> int:
        simulate, pred_train, pred_test, nonfinite, no_special = outcome
        codes = tuple(r[0] for r in (simulate, pred_train, pred_test))
        digest = hashlib.sha256()
        for name in ("train.csv", "test.csv", "pred-train.csv", "pred-test.csv"):
            digest.update(self.files[name].read_bytes())
        self.keep(0, (codes, digest.hexdigest()))
        failed = sum(code != 0 for code in codes)
        # refusing a non-finite row must exit 2 and name the row
        failed += not (nonfinite[0] == 2 and re.search(r"\brow [234]\b", nonfinite[2]))
        failed += no_special[0] != 2
        return failed

    def check(self) -> list[str]:
        problems = list(self.problems)
        codes, _ = self.outputs[0]
        if codes != (0, 0, 0):
            return problems + [f"simulate/predict exit codes {codes}"]
        for name in ("train.csv", "test.csv"):
            problems += checks.check_simulated(self.files[name], k=self.K, n_per_class=250,
                                               d=self.D, r=self.R, mu1=self.MU1,
                                               sigma1=1.0, sigma2=1.0 + self.MU1)
        for src, out in (("train.csv", "pred-train.csv"), ("test.csv", "pred-test.csv")):
            problems += checks.check_predictions(self.files[src], self.files[out],
                                                 self.files["model.json"])
        return problems

    def reference(self) -> dict:
        _, _, test_labels, x = checks.read_labeled(self.files["test.csv"])
        predicted = checks.dn_predict(self.files["model.json"], x)
        return {"test_error": float(np.mean(predicted != test_labels))}


class OracleExact(_Deterministic):
    """Exact risk minimization on small block problems: each class's own
    block is N(0, 1), every other entry N(0, 2^2), 20 rows per class.
    Per problem, one ``brute_force_minimizer`` and one short ``fit_best``;
    per round, one ``check_diagonal_optimality`` on the k = 2, d = 6
    block spec with sigma1 = 1 < sigma2 = 2."""

    name = "oracle-exact"
    BLOCKS = ((5, 5), (6, 6), (3, 3, 2))  # feature block widths, one per class
    PER_CLASS = 20
    SIGMA1, SIGMA2 = 1.0, 2.0
    DIAG_K, DIAG_D = 2, 6
    FIT_RESTARTS = 10
    ops_per_round = 2 * len(BLOCKS) + 1

    def __init__(self, workdir: Path, seed: int):
        super().__init__()
        self.problems_in = []
        for b, widths in enumerate(self.BLOCKS):
            k, p = len(widths), sum(widths)
            labels = np.repeat(np.arange(1, k + 1), self.PER_CLASS)
            owner = np.repeat(np.arange(1, k + 1), widths)
            sd = np.where(labels[:, None] == owner[None, :], self.SIGMA1, self.SIGMA2)
            x = sd * np.random.default_rng(derive(seed, 3, b)).standard_normal(sd.shape)
            self.problems_in.append((k, x, labels, ndc.LabeledDataset.from_arrays(x, labels, k=k),
                                     ndc.FitConfig(restarts=self.FIT_RESTARTS,
                                                   seed=derive(seed, 4, b))))
        k, d = self.DIAG_K, self.DIAG_D
        owner = np.repeat(np.arange(k), d)
        sds = np.where(np.arange(k)[:, None] == owner[None, :], self.SIGMA1, self.SIGMA2)
        self.class_probs = np.full(k, 1.0 / k)
        self.spec = ndc.BlockDistributionSpec(self.class_probs, np.zeros((k, k * d)), sds)

    def run_round(self, i: int):
        out = []
        for _, _, _, ds, config in self.problems_in:
            part, w_star = ndc.oracle.brute_force_minimizer(ds)
            fit_part, _, err = ndc.kmeans.fit_best(ds, config)
            out.append((part, w_star, fit_part, err))
        return out, ndc.oracle.check_diagonal_optimality(self.spec, self.DIAG_D)

    def record(self, i: int, outcome) -> int:
        exact, diag = outcome
        self.keep(0, (tuple((tuple(map(tuple, part.groups_1based())), w_star,
                             tuple(map(tuple, fit_part.groups_1based())), err)
                            for part, w_star, fit_part, err in exact),
                      (diag.passed, diag.diagonal_risk)))
        return 0

    def check(self) -> list[str]:
        problems = list(self.problems)
        exact, (passed, diagonal_risk) = self.outputs[0]
        for (k, x, labels, _, _), (groups, w_star, fit_groups, _) in zip(self.problems_in, exact):
            zero_based = [np.asarray(g, dtype=np.int64) - 1 for g in groups]
            fit_zero = [np.asarray(g, dtype=np.int64) - 1 for g in fit_groups]
            problems += [f"k={k}, p={x.shape[1]}: {p}" for p in checks.check_exact(
                x, labels, k, w_star, zero_based, [fit_zero])]
        problems += checks.check_diagonal(passed, diagonal_risk, self.SIGMA1, self.SIGMA2,
                                          self.class_probs)
        return problems

    def reference(self) -> dict:
        exact, (passed, diagonal_risk) = self.outputs[0]
        return {"W*": [w for _, w, _, _ in exact],
                "fit_best_train_error": [e for _, _, _, e in exact],
                "diagonal_risk": diagonal_risk, "diagonal_passed": passed}


WORKLOADS = {w.name: w for w in (Sim4Study, WideCv, CsvIo, OracleExact)}
