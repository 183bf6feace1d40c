"""The three workloads: synthetic inputs, one operation each, and its checks.

Every workload is single-process and closed-loop: the harness in run.py
calls ``op(i)`` for i = 0, 1, ... and issues the next call only after the
previous one returned. The program is driven only through
``intelm.cli.main(argv)`` with stdout captured in-process and through the
library API, always looked up by module attribute at call time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import tracemalloc
from pathlib import Path

import numpy as np

import checks as ck
from checks import CheckFailed, require
from intelm import cli, data, elm, experiments, intinfer, modelio, quantize

PREPROCESSING = ["l2_normalize"]
INPUT_RANGE = (0, 255)
IELM_BETA_MAX = 2**31 - 1  # integer beta is stored as i32
# Labels may differ from the float model's only on near-ties within the
# quantizer's error; every label is checked against that error bound.
AGREEMENT_FLOOR = 0.99


class ProgramFailed(Exception):
    """The program raised or exited non-zero."""


def run_cli(argv: list[str]) -> str:
    """Run one ``intelm`` command in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as e:  # argparse usage errors
            code = e.code
    if code != 0:
        raise ProgramFailed(f"intelm {argv[0]} exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def make_task(rng, count, shape, classes, *, protos=2, blobs=4, shift=2, noise=25.0, mix=0.4):
    """A labelled u8 image task: learnable, but not linearly trivial.

    Each class has `protos` prototypes made of Gaussian blobs. A sample is
    one prototype of its class plus `mix` times a prototype of another
    class, shifted by up to `shift` pixels, scaled to a random brightness,
    with Gaussian noise; values below 16 are set to 0, as in MNIST's
    background. Every sample has a nonzero pixel.
    """
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    T = np.zeros((classes, protos, h, w))
    for c in range(classes):
        for p in range(protos):
            for _ in range(blobs):
                cy, cx = rng.uniform(0.2 * h, 0.8 * h), rng.uniform(0.15 * w, 0.85 * w)
                s = rng.uniform(1.5, 3.5)
                T[c, p] += rng.uniform(0.5, 1.0) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
            T[c, p] /= T[c, p].max()
    y = rng.integers(0, classes, count)
    p = rng.integers(0, protos, (count, 2))
    other = (y + rng.integers(1, classes, count)) % classes
    shifts = rng.integers(-shift, shift + 1, (count, 2))
    brightness = rng.uniform(0.35, 1.0, count)
    X = np.empty((count, h * w))
    for i in range(count):
        img = T[y[i], p[i, 0]] + mix * T[other[i], p[i, 1]]
        img = np.roll(img, tuple(shifts[i]), axis=(0, 1))
        X[i] = (brightness[i] * 255.0 / img.max()) * img.ravel()
    X = np.clip(np.rint(X + rng.normal(0.0, noise, X.shape)), 0, 255)
    X[X < 16] = 0
    X[~X.any(axis=1), 0] = 16
    return X.astype(np.uint8), y


def _seed_stream(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(workload.encode(), "little")])


def _train_served_model(X_train, y_train, classes, L, rng, path):
    """Train, quantize and save a model through the library.

    Weight seeds are drawn from `rng` until the trained beta is
    `quantizable`. Returns the float model and the number of models that
    were not.
    """
    raw = data.RawDataset(X_train.astype(np.int64), y_train, classes, source="synthetic")
    norm = data.preprocess(raw, PREPROCESSING)
    skipped = 0
    while True:
        wseed = int(rng.integers(2**31))
        W = elm.gen_weights_ternary(norm.n, L, wseed)
        fm = elm.train(
            norm.samples,
            elm.one_hot(norm.labels, classes),
            W,
            1.0,
            seed=wseed,
            weight_kind="ternary",
            metadata={"preprocessing": PREPROCESSING, "dataset": "synthetic"},
        )
        if quantizable(fm.beta):
            modelio.save_model(quantize_for_storage(fm), path)
            return fm, skipped
        skipped += 1


def quantizable(beta) -> bool:
    """Whether beta / (its minimum nonzero magnitude) fits in int64.

    ``quantize.quantize_beta`` casts that quotient to int64 without a range
    check. A hidden unit fed only by rounding noise gets a beta row near
    1e-17, the quotient then passes 2**63, and the cast returns garbage
    that the quantizer check rejects. Which trained models have such a unit
    depends on the seed, so the workloads do not quantize them. The limit is
    2**62, a bit short of 2**63, so that rounding cannot reach it.
    """
    magnitudes = np.abs(beta[beta != 0.0])
    return float(magnitudes.max()) / float(magnitudes.min()) < 2.0**62


def quantize_for_storage(model):
    """Integer model of a trained ternary model, storable in an IELM file.

    This is ``intelm quantize`` plus the library's headroom fit and, after
    it, as many ladder rungs as the file's 32-bit beta storage needs. Both
    act only on models with a near-zero beta entry; on all others the result
    equals ``intelm quantize``'s. `model` must be `quantizable`.
    """
    qm = experiments.make_quantized(model, INPUT_RANGE, fit_headroom=True)
    ib = qm.int_beta
    while ib.max_abs > IELM_BETA_MAX:
        ib = quantize.reduce_precision_step(ib)
    return qm if ib is qm.int_beta else dataclasses.replace(qm, int_beta=ib)


def check_agreement(agreement: float, where: str) -> None:
    """The integer labels must agree with the float model's on nearly every sample."""
    require(agreement >= AGREEMENT_FLOOR,
            f"integer labels agree with the float model's on {agreement:.4f} {where}")


def _accuracy(pred, labels) -> float:
    return float(np.mean(np.asarray(pred) == np.asarray(labels)))


def bit_width(V: np.ndarray) -> int:
    return 1 + int(np.abs(V).max()).bit_length()


def count_ops(model, path, samples) -> dict[str, float]:
    """Mean integer adds and multiplies of the audited path per sample.

    The audited path's labels are checked against the exact reference.
    """
    f = ck.read_ielm(path)
    adds, muls = [], []
    for x in samples:
        counter = intinfer.OpCounter()
        label = intinfer.classify_int_counted(model, x, counter)
        require(counter.float_ops == 0, f"audited path used {counter.float_ops} float ops")
        require(label == ck.lowest_argmax(ck.int_scores_pyint(f.W, f.beta, x)),
                "audited path label differs from the reference")
        adds.append(counter.int_adds)
        muls.append(counter.int_muls)
    return {"intinfer.int_adds_per_sample": float(np.mean(adds)),
            "intinfer.int_muls_per_sample": float(np.mean(muls))}


class Workload:
    name = ""
    samples_per_op = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(workdir)
        self.arrays = self.dir / "inputs.npz"
        self.path = self.dir / "served.ielm"  # the model a serving workload loads

    def prepare(self) -> None:
        """Make the inputs, and the model a workload serves, as files in the workdir.

        run.py calls this in a child process, so that the input generation
        and the training it does stay out of the measured process's peak
        memory.
        """
        raise NotImplementedError

    def load(self) -> None:
        """Read what the timed phase and the checks need from the workdir."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, outputs: dict[int, object]) -> tuple[dict[int, str], dict]:
        """Reasons for the ops whose output is wrong, and reference figures.

        Raises CheckFailed if something that is not one operation is wrong.
        """
        raise NotImplementedError

    def model_bytes(self) -> int:
        raise NotImplementedError

    def counters(self, output) -> dict[str, float]:
        """Per-operation counts measured at the program's boundary."""
        return {}

    def trace_extras(self) -> dict[str, float]:
        """Per-layer figures measured outside the timed phase of a traced run."""
        return {}


class TrainCli(Workload):
    """One ``intelm train`` plus one library quantization per operation.

    The quantization is ``quantize_for_storage``: load the trained model,
    quantize it and save the integer model, as ``intelm quantize`` does.
    ``intelm quantize`` itself is not used, because it fails on the models
    that have a near-zero beta entry, which depend on the seed.
    """

    name = "train_cli"
    shape = (28, 28)
    classes = 10
    # L is the smaller MNIST-shaped width of the ROADMAP; n_train keeps one
    # operation near 90 ms on the reference host, so that a 20-s run holds
    # about 200 operations, twice the 100 that op_p90_ms needs.
    L = 500
    n_train = 1000
    samples_per_op = n_train
    n_test = 500
    check_every = 8  # residual, accuracy and float-model checks on every 8th model
    accuracy_floor = 0.4  # chance is 0.1
    residual_tol = 1e-9
    model_size = 0  # bytes of the last integer model file checked

    def prepare(self):
        rng = _seed_stream(self.seed, self.name)
        X, y = make_task(rng, self.n_train + self.n_test, self.shape, self.classes)
        ck.write_idx_images(self.dir / "train-images.idx", X[: self.n_train].reshape(-1, *self.shape))
        ck.write_idx_labels(self.dir / "train-labels.idx", y[: self.n_train])
        np.savez(self.arrays, X=X, y=y, op_seeds=rng.integers(0, 2**31, 1 << 16))

    def load(self):
        self.images, self.labels = self.dir / "train-images.idx", self.dir / "train-labels.idx"
        with np.load(self.arrays) as a:
            X, y, self.op_seeds = a["X"], a["y"], a["op_seeds"]
        self.X_train, self.y_train = X[: self.n_train], y[: self.n_train]
        self.X_test, self.y_test = X[self.n_train :], y[self.n_train :]

    def op(self, i):
        seed = int(self.op_seeds[i % self.op_seeds.size])
        fpath, qpath = self.dir / f"float-{i}.ielm", self.dir / f"int-{i}.ielm"
        trained = run_cli(
            ["train", "--images", self.images, "--labels", self.labels, "--L", self.L,
             "--weight-kind", "ternary", "--preprocess", ",".join(PREPROCESSING),
             "--seed", seed, "--out", fpath]
        )
        model = modelio.load_model(fpath)
        if not quantizable(model.beta):
            return seed, trained, fpath, None
        modelio.save_model(quantize_for_storage(model), qpath)
        return seed, trained, fpath, qpath

    def check(self, outputs):
        failures, accs, agree, widths, residuals, unquantized = {}, [], [], [], [], []
        for i, (seed, trained, fpath, qpath) in outputs.items():
            try:
                require(trained.startswith(f"trained L={self.L} "), f"train printed {trained!r}")
                f = ck.read_ielm(fpath)
                require((f.n, f.L, f.m) == (self.X_train.shape[1], self.L, self.classes),
                        f"float model shape {(f.n, f.L, f.m)}")
                require(not f.integer and f.weight_code == 1 and f.seed == seed, "float model header")
                require(f.metadata.get("preprocessing") == PREPROCESSING, f"metadata {f.metadata}")
                require(bool(np.isin(f.W, (-1, 0, 1)).all()), "input weights not ternary")
                if i % self.check_every == 0:
                    r = ck.normal_equation_residual(self.X_train, self.y_train, f.W, f.beta, f.gamma)
                    require(r <= self.residual_tol, f"normal-equation residual {r:.3e}")
                    residuals.append(r)
                if qpath is None:
                    unquantized.append(i)
                    continue
                q = ck.read_ielm(qpath)
                self.model_size = qpath.stat().st_size
                require(q.integer and q.input_range == INPUT_RANGE, "int model header")
                require(np.array_equal(q.W, f.W), "int model input weights differ from the float model's")
                ck.check_quantizer(f.beta, q.beta, q.tau, q.ladder_step)
                if i % self.check_every == 0:
                    labels = np.argmax(ck.int_scores_batch(q.W, q.beta, self.X_test), axis=1)
                    float_labels, admitted = ck.float_model_check(
                        f.W, f.beta, self.X_test, labels, q.tau, q.ladder_step)
                    require(bool(admitted.all()), "an integer label is beyond the quantizer's error "
                            f"from the float model's, on held-out sample {np.argmin(admitted)}")
                    acc = _accuracy(labels, self.y_test)
                    require(acc >= self.accuracy_floor, f"held-out accuracy {acc:.3f}")
                    accs.append(acc)
                    agree.append(_accuracy(labels, float_labels))
                    widths.append(bit_width(q.beta))
            except CheckFailed as e:
                failures[i] = str(e)
            finally:
                fpath.unlink(missing_ok=True)
                if qpath is not None:
                    qpath.unlink(missing_ok=True)
        if agree:
            check_agreement(float(np.median(agree)), "median over the checked models")
        reference = {
            "heldout_accuracy_median": float(np.median(accs)) if accs else None,
            "agreement_with_float_model_median": float(np.median(agree)) if agree else None,
            "agreement_with_float_model_min": min(agree) if agree else None,
            "int_beta_bits_max": max(widths) if widths else None,
            "residual_max": max(residuals) if residuals else None,
            "models_fully_checked": len(accs),
            "models_not_quantizable": unquantized,
        }
        return failures, reference

    def model_bytes(self):
        return self.model_size


class ServeSingle(Workload):
    """One ``intinfer.classify_int`` call on one raw sample per operation."""

    name = "serve_single"
    shape = (28, 28)
    classes = 10
    n_train = 3000
    n_pool = 1000
    L = 2000  # the larger MNIST-shaped width of the ROADMAP, its single-sample baseline
    pyint_subset = 16  # pool samples also scored in Python ints
    accuracy_floor = 0.5  # chance is 0.1
    alloc_probes = 8
    counted_probes = 2

    def prepare(self):
        rng = _seed_stream(self.seed, self.name)
        X, y = make_task(rng, self.n_train + self.n_pool, self.shape, self.classes)
        fm, skipped = _train_served_model(X[: self.n_train], y[: self.n_train], self.classes, self.L,
                                          rng, self.path)
        np.savez(self.arrays, pool=X[self.n_train :], pool_labels=y[self.n_train :], trained_beta=fm.beta,
                 skipped=skipped)

    def load(self):
        self.model = modelio.load_model(self.path)
        with np.load(self.arrays) as a:
            self.pool = a["pool"].astype(np.int64)
            self.pool_labels, self.trained_beta = a["pool_labels"], a["trained_beta"]
            self.skipped = int(a["skipped"])

    def op(self, i):
        return intinfer.classify_int(self.model, self.pool[i % self.n_pool])

    def check(self, outputs):
        f = ck.read_ielm(self.path)
        scores = ck.int_scores_batch(f.W, f.beta, self.pool)
        expected = np.argmax(scores, axis=1)
        for j in range(self.pyint_subset):
            exact = ck.int_scores_pyint(f.W, f.beta, self.pool[j])
            require(exact == [int(s) for s in scores[j]], f"reference scores disagree on sample {j}")
            expected[j] = ck.lowest_argmax(exact)
        float_labels, admitted = ck.float_model_check(
            f.W, self.trained_beta, self.pool, expected, f.tau, f.ladder_step)
        acc = _accuracy(expected, self.pool_labels)
        require(acc >= self.accuracy_floor, f"served model held-out accuracy {acc:.3f}")
        agreement = _accuracy(expected, float_labels)
        check_agreement(agreement, "on the pool")
        failures = {}
        for i, label in outputs.items():
            j = i % self.n_pool
            if not isinstance(label, (int, np.integer)) or label != expected[j]:
                failures[i] = f"sample {j}: label {label!r}, exact integer argmax {expected[j]}"
            elif not admitted[j]:
                failures[i] = f"sample {j}: label {label} is beyond the quantizer's error from the float model's"
        reference = {
            "heldout_accuracy": acc,
            "agreement_with_float_model": agreement,
            "int_beta_bits": bit_width(f.beta),
            "models_not_quantizable": self.skipped,
        }
        return failures, reference

    def model_bytes(self):
        return self.path.stat().st_size

    def trace_extras(self):
        peaks = []
        tracemalloc.start()
        try:
            for j in range(self.alloc_probes):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                intinfer.classify_int(self.model, self.pool[j])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return {"intinfer.classify_int_alloc_peak_bytes": float(np.median(peaks)),
                **count_ops(self.model, self.path, self.pool[: self.counted_probes])}


class ClassifyCli(Workload):
    """One ``intelm classify --scores`` over a small CIFAR-shaped IDX file per operation."""

    name = "classify_cli"
    shape = (32, 96)  # 32x32x3 stored as 32 rows of 96 bytes
    classes = 2
    n_train = 1000
    n_test = 500
    files = 16
    # The ROADMAP names no width for the CIFAR shape; L is train_cli's. With
    # 4 rows a file, one operation takes about 80 ms on the reference host
    # (8 rows: 170 ms), so a 20-s run holds about 240 operations.
    L = 500
    rows = 4
    samples_per_op = rows
    accuracy_floor = 0.6  # chance is 0.5
    counted_probes = 2

    def prepare(self):
        rng = _seed_stream(self.seed, self.name)
        n_inputs = self.files * self.rows
        X, y = make_task(rng, self.n_train + self.n_test + n_inputs, self.shape, self.classes,
                         protos=3, blobs=6, shift=3, noise=30.0)
        fm, skipped = _train_served_model(X[: self.n_train], y[: self.n_train], self.classes, self.L,
                                          rng, self.path)
        held, held_labels = X[self.n_train :], y[self.n_train :]
        inputs = held[self.n_test :].reshape(self.files, self.rows, *self.shape)
        for k in range(self.files):
            ck.write_idx_images(self.dir / f"input-{k}.idx", inputs[k])
        np.savez(self.arrays, X_test=held[: self.n_test], y_test=held_labels[: self.n_test],
                 inputs=inputs.reshape(self.files, self.rows, -1), trained_beta=fm.beta, skipped=skipped)

    def load(self):
        self.input_paths = [self.dir / f"input-{k}.idx" for k in range(self.files)]
        with np.load(self.arrays) as a:
            self.X_test, self.y_test = a["X_test"], a["y_test"]
            self.inputs, self.trained_beta = a["inputs"].astype(np.int64), a["trained_beta"]
            self.skipped = int(a["skipped"])

    def op(self, i):
        k = i % self.files
        return k, run_cli(["classify", "--model", self.path, "--input", self.input_paths[k], "--scores"])

    def check(self, outputs):
        f = ck.read_ielm(self.path)
        held_out = np.argmax(ck.int_scores_batch(f.W, f.beta, self.X_test), axis=1)
        acc = _accuracy(held_out, self.y_test)
        require(acc >= self.accuracy_floor, f"served model held-out accuracy {acc:.3f}")
        float_labels, _ = ck.float_model_check(f.W, self.trained_beta, self.X_test, held_out, f.tau, f.ladder_step)
        agreement = _accuracy(held_out, float_labels)
        check_agreement(agreement, "on the held-out set")
        exact = [[ck.int_scores_pyint(f.W, f.beta, x) for x in rows] for rows in self.inputs]
        admitted = [ck.float_model_check(f.W, self.trained_beta, rows, [ck.lowest_argmax(s) for s in ex],
                                         f.tau, f.ladder_step)[1] for rows, ex in zip(self.inputs, exact)]
        failures = {}
        for i, (k, stdout) in outputs.items():
            try:
                lines = stdout.splitlines()
                require(len(lines) == self.rows, f"file {k}: {len(lines)} output lines")
                for r, line in enumerate(lines):
                    fields = [int(v) for v in line.split(",")]
                    label, scores = fields[0], fields[1:]
                    require(scores == exact[k][r], f"file {k} row {r}: scores {scores} != {exact[k][r]}")
                    require(label == ck.lowest_argmax(exact[k][r]), f"file {k} row {r}: label {label}")
                    require(bool(admitted[k][r]),
                            f"file {k} row {r}: label {label} is beyond the quantizer's error from the float model's")
            except (CheckFailed, ValueError) as e:
                failures[i] = str(e)
        reference = {
            "heldout_accuracy": acc,
            "agreement_with_float_model": agreement,
            "int_beta_bits": bit_width(f.beta),
            "models_not_quantizable": self.skipped,
        }
        return failures, reference

    def model_bytes(self):
        return self.path.stat().st_size

    def counters(self, output):
        return {"cli.stdout_bytes": len(output[1].encode())}

    def trace_extras(self):
        model = modelio.load_model(self.path)
        return count_ops(model, self.path, self.inputs[0][: self.counted_probes])


WORKLOADS = {w.name: w for w in (TrainCli, ServeSingle, ClassifyCli)}
