"""The benchmark's four workloads: inputs, operations and output checks.

Each workload is built from the workload seed alone.  ``setup`` generates
the inputs and reference values and fills ``ops``, the operations one round
of work consists of.  An operation takes a repetition index ``i``, times
only its call into exactrb, then checks what the call produced.  The runner
uses the first operation with ``i = 0`` as the warm-up, and runs it again
at the end to compare the artifacts byte for byte.  Why each workload exists, and which layers it
loads, is written down in README.md next to this file.

Importing this module imports numpy and exactrb; the runner times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from exactrb import channels, cli, designs, haar, irreps, paulis, rb

# rb1q_long: the criterion-10 configuration
RB1_LENGTHS = (1, 2, 3, 5, 8, 12, 18, 26, 38, 55, 80, 115, 165, 235, 335, 475)
RB1_SEQUENCES = 15
RB1_SHOTS = 1000
RB1_NOISE = {"model": "noise1", "p": 0.02, "q": 0.98}
RB1_SPAM = {"eta_prep": 0.1, "eta_meas": 0.1}
# |estimate - closed form| bound, in standard errors of the estimate
RB1_K = 8.0

# rb2q_product: short sequences from the interleaved 4-design, no shots
RB2_LENGTHS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48)
RB2_SEQUENCES = 16
RB2_NOISE = {"model": "noise2", "p": 0.02, "q": 0.9}
RB2_SETTINGS = (("v1", 1, "ZZ", "P00"), ("v2_zz_p00", 2, "ZZ", "P00"),
                ("v2_zz_zz", 2, "ZZ", "ZZ"), ("v2_rm_rm", 2, "rho_minus", "rho_minus"))
# largest allowed |pull| of a sampled point against the exact curve
RB2_K = 10.0

# fit_synth: synthetic decay curves with Gaussian noise of stated stderr
FIT_MS = (1, 2, 3, 4, 6, 8, 11, 15, 20, 27, 36, 48, 64, 85, 113, 150, 200)
FIT_SIGMA = 1e-3
# |fitted - true| rate bound, in fitted standard errors
FIT_K = 5.0

# certify: the interleaved frame potential at t = 4 equals Haar's (24)
FP_INTERLEAVED_TOL = 1e-3
QUDIT_TOL = 1e-9
# the product design that `design build --type qudit --d 3 --t 2` writes
QUDIT_3_2_SIZE = 10460353203
MC_VERIFY_SAMPLES = 200


@dataclass
class Outcome:
    """What one operation did: its timed seconds, whether its outputs passed
    their check, the numbers it produced, and the bytes it wrote."""

    seconds: float
    ok: bool
    detail: str = ""
    values: list = field(default_factory=list)
    artifact_bytes: int = 0
    artifact_hash: str = ""


@dataclass
class Op:
    name: str
    run: Callable[[int], Outcome]


def unit_seed(seed: int, *key: int) -> int:
    """A 31-bit seed for one operation input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0] >> 1)


def run_cli(argv):
    """exactrb.cli.main in-process with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - t0
    return code, seconds, out.getvalue() + err.getvalue()


def artifact_digest(paths) -> tuple[int, str]:
    """Bytes and sha256 of a list of files.  Manifests are hashed without
    their wall-clock field, the one part allowed to differ between
    identical runs."""
    total = 0
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        total += len(blob)
        if path.endswith("manifest.json"):
            doc = json.loads(blob)
            doc.pop("wall_clock", None)
            blob = json.dumps(doc, sort_keys=True).encode()
        h.update(os.path.basename(path).encode() + b"\0" + blob + b"\0")
    return total, h.hexdigest()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _finish(outcome: Outcome, directory: str) -> Outcome:
    outcome.artifact_bytes, outcome.artifact_hash = artifact_digest(
        [os.path.join(directory, n) for n in sorted(os.listdir(directory))])
    return outcome


def _failed_cli(seconds, code, text) -> Outcome:
    return Outcome(seconds, False, "exit code %d: %s" % (code, text.strip()[-300:]))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []

    def setup(self) -> None:
        """Generate inputs and reference values and fill ``ops``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


def run_rb_config(workdir: str, tag: str, cfg: dict):
    """`exactrb rb --mode mc` on a config written to the work directory."""
    out = fresh_dir(os.path.join(workdir, tag))
    cfg_path = os.path.join(workdir, tag + ".json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    code, secs, text = run_cli(["rb", "--config", cfg_path, "--mode", "mc", "--out-dir", out])
    return out, code, secs, text


def _read_curves(directory, names):
    return {n: rb.DecayCurve.from_csv(os.path.join(directory, n + ".csv")) for n in names}


class RB1QLong(Workload):
    name = "rb1q_long"

    def setup(self) -> None:
        ref = channels.noise1_closed_form(RB1_NOISE["p"], RB1_NOISE["q"])
        computed = channels.metrics(channels.noise_from_config(RB1_NOISE))
        if abs(computed.F - ref.F) > 1e-12 or abs(computed.u - ref.u) > 1e-12:
            raise RuntimeError("noise1 metrics disagree with their closed form")
        self.ref = ref
        self.ops = [Op("rb_1q", self.run_rb)]

    def run_rb(self, i: int) -> Outcome:
        d, code, secs, text = run_rb_config(self.workdir, "rb1q", {
            "pipeline": "1q", "noise": RB1_NOISE, "design": {"type": "icosahedral"},
            "sequence_lengths": list(RB1_LENGTHS), "n_sequences": RB1_SEQUENCES,
            "n_shots": RB1_SHOTS, "spam": RB1_SPAM, "seed": unit_seed(self.seed, i)})
        if code != 0:
            return _failed_cli(secs, code, text)
        with open(os.path.join(d, "metrics.json")) as fh:
            est = json.load(fh)
        bad = []
        for key in ("F", "u"):
            pull = abs(est[key] - getattr(self.ref, key)) / est["stderr"][key]
            if not pull <= RB1_K:
                bad.append("%s off by %.2f stderr" % (key, pull))
        curves = _read_curves(d, ("v1", "v2"))
        values = [est[k] for k in ("f", "F", "u", "h", "H")]
        values += [v for c in curves.values() for v in c.values]
        return _finish(Outcome(secs, not bad, "; ".join(bad), values), d)


class RB2QProduct(Workload):
    name = "rb2q_product"

    def setup(self) -> None:
        noise = channels.noise_from_config(RB2_NOISE)
        pset = irreps.projector_set(2)
        self.ref = {}
        for name, t_order, ini, meas in RB2_SETTINGS:
            o_ini, o_meas = paulis.named_operator(ini), paulis.named_operator(meas)
            if t_order == 1:
                curve = rb.v1_exact(noise, o_ini, o_meas, RB2_LENGTHS)
            else:
                curve = rb.v2_exact(noise, o_ini, o_meas, RB2_LENGTHS, pset,
                                    noisy_inverse=True)
            self.ref[name] = curve.values
        self.ops = [Op("rb_2q", self.run_rb)]

    def run_rb(self, i: int) -> Outcome:
        d, code, secs, text = run_rb_config(self.workdir, "rb2q", {
            "pipeline": "2q", "noise": RB2_NOISE, "design": {"type": "interleaved-4design"},
            "sequence_lengths": list(RB2_LENGTHS), "n_sequences": RB2_SEQUENCES,
            "n_shots": 0, "seed": unit_seed(self.seed, i)})
        if code != 0:
            return _failed_cli(secs, code, text)
        curves = _read_curves(d, self.ref)
        bad = []
        values = []
        for name, curve in curves.items():
            pulls = np.abs(curve.values - self.ref[name]) / curve.stderrs
            if not pulls.max() <= RB2_K:
                bad.append("%s: pull %.2f" % (name, pulls.max()))
            values += list(curve.values)
        with open(os.path.join(d, "metrics.json")) as fh:
            est = json.load(fh)
        values += [est["rates"][k] for k in sorted(est["rates"])]
        return _finish(Outcome(secs, not bad, "; ".join(bad), values), d)


class FitSynth(Workload):
    """Five fit shapes, each one operation on a fresh synthetic curve.

    A shape is (terms, pinned rates, true amplitudes, true rates).  The true
    values are fixed; only the noise is drawn from the seed.  Pinned rates
    are the true ones, as the pipelines pin rates fitted from earlier curves.
    """

    name = "fit_synth"

    SHAPES = {
        # v1-like: a constant (rate 1, pinned) plus one decay
        "fit_known1": (2, 1, (0.5, 0.4), (1.0, 0.975)),
        "fit_free_separated": (2, 0, (0.2, 0.7), (0.995, 0.92)),
        "fit_free_close": (2, 0, (0.45, 0.45), (0.975, 0.95)),
        # the 2q pipeline: later curves pin the rates fitted before
        "fit_3_pin2": (3, 2, (0.15, 0.35, 0.35), (0.995, 0.97, 0.92)),
        "fit_4_pin3": (4, 3, (0.08, 0.35, 0.25, 0.25), (0.995, 0.975, 0.955, 0.915)),
    }

    def setup(self) -> None:
        self.ops = [Op(name, functools.partial(self.run_fit, k, name))
                    for k, name in enumerate(self.SHAPES)]

    def run_fit(self, k: int, name: str, i: int) -> Outcome:
        n_terms, n_pinned, amps, rates = self.SHAPES[name]
        g = np.random.default_rng(unit_seed(self.seed, k, i))
        ms = np.array(FIT_MS, dtype=float)
        clean = sum(a * r ** ms for a, r in zip(amps, rates))
        noisy = clean + g.normal(0.0, FIT_SIGMA, ms.size)
        d = fresh_dir(os.path.join(self.workdir, name))
        curve = rb.DecayCurve(points=tuple(
            (int(m), float(v), FIT_SIGMA, 0, 0) for m, v in zip(FIT_MS, noisy)))
        curve_path = os.path.join(self.workdir, name + ".csv")
        curve.to_csv(curve_path)
        argv = ["fit", "--curve", curve_path, "--terms", str(n_terms),
                "--out", os.path.join(d, "fit.json")]
        if n_pinned:
            argv += ["--known", ",".join(repr(r) for r in rates[:n_pinned])]
        code, secs, text = run_cli(argv)
        if code != 0:
            return _failed_cli(secs, code, text)
        with open(os.path.join(d, "fit.json")) as fh:
            fit = json.load(fh)
        cov = np.array(fit["covariance"])
        true_free = sorted(rates[n_pinned:], reverse=True)
        bad = []
        for j, true in enumerate(true_free):
            got = fit["rates"][n_pinned + j]
            se = math.sqrt(max(cov[n_terms + j, n_terms + j], 0.0))
            if not abs(got - true) <= FIT_K * se:
                bad.append("rate %.6f fitted as %.6f +- %.2g" % (true, got, se))
        values = fit["amplitudes"] + fit["rates"]
        return _finish(Outcome(secs, not bad, "; ".join(bad), values), d)


class Certify(Workload):
    """Design construction and certification: the designs, haar and zonal
    layers do the work and rb does none.

    Every operation is one that finishes in a few seconds at most, so that a
    run repeats each of them several times.  Left out, at 3 to 5 s each:
    building the 11,520-element two-qubit Clifford group with its JSON
    write, its dense verification at t = 2, and its exact-pairs frame
    potential at t = 4.
    """

    name = "certify"

    def setup(self) -> None:
        self.interleaved = designs.interleaved_clifford_design()
        self.fp_interleaved = float(haar.haar_frame_potential(4, 4))
        self.qudit_path = os.path.join(self.workdir, "qudit_3_2.json")
        self.build_hash = None
        # the build writes the file the sampled verification reads
        self.ops = [Op("design_build", self.build), Op("verify_mc", self.verify_mc),
                    Op("fp_interleaved", self.fp_reduced), Op("qudit_2_3", self.qudit)]

    def build(self, i: int) -> Outcome:
        code, secs, text = run_cli(["design", "build", "--type", "qudit", "--d", "3",
                                    "--t", "2", "--out", self.qudit_path])
        if code != 0:
            return _failed_cli(secs, code, text)
        # every build writes the same bytes: it is rerun with identical inputs
        size, digest = artifact_digest([self.qudit_path, self.qudit_path + ".manifest.json"])
        self.build_hash = self.build_hash or digest
        ok = ("(%d elements)" % QUDIT_3_2_SIZE) in text and digest == self.build_hash
        with open(self.qudit_path, "rb") as fh:
            # the embedded manifest digest covers the output path
            design = re.sub(rb'"manifest_digest":"[0-9a-f]*"', b"", fh.read())
        values = [hashlib.sha256(design).hexdigest()]
        return Outcome(secs, ok, "" if ok else text.strip(), values, size, digest)

    def verify_mc(self, i: int) -> Outcome:
        out = fresh_dir(os.path.join(self.workdir, "verify_mc"))
        code, secs, text = run_cli(["design", "verify", "--design", self.qudit_path,
                                    "--t", "2", "--mc-samples", str(MC_VERIFY_SAMPLES),
                                    "--seed", str(unit_seed(self.seed, i)),
                                    "--out", os.path.join(out, "report.json")])
        if code != 0:
            return _failed_cli(secs, code, text)
        with open(os.path.join(out, "report.json")) as fh:
            rep = json.load(fh)
        ok = rep["passed"] and rep["mode"] == "mc"
        values = [rep["residuals"][k] for k in sorted(rep["residuals"])]
        return _finish(Outcome(secs, ok, "" if ok else text.strip(), values), out)

    def _timed(self, fn):
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0

    def fp_reduced(self, i: int) -> Outcome:
        (fp, _), secs = self._timed(lambda: designs.frame_potential(
            self.interleaved, 4, mode="interleaved-reduced"))
        ok = abs(fp - self.fp_interleaved) <= FP_INTERLEAVED_TOL
        return Outcome(secs, ok, "" if ok else "frame potential %.9f" % fp, [fp])

    def qudit(self, i: int) -> Outcome:
        def work():
            e = designs.build_qudit_design(2, 3)
            return e, designs.verify_strong_design(e, 3, tol=QUDIT_TOL,
                                                   frame_potential_mode="skip")
        (e, rep), secs = self._timed(work)
        worst = max(rep.residuals.values())
        ok = e.size == 65536 and rep.passed and worst < QUDIT_TOL
        return Outcome(secs, ok, "" if ok else "size %d residual %.3g" % (e.size, worst),
                       [e.size, worst])


WORKLOADS = {w.name: w for w in (RB1QLong, RB2QProduct, FitSynth, Certify)}
