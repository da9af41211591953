"""Benchmark runner for exactrb: one workload, one seed, one process.

    python3 perfbench/run.py --workload rb1q_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports exactrb from ``src/`` there.
BLAS is pinned to one thread before numpy loads.  The run is one closed-loop
client: each operation starts when the previous one has finished.

Set-up (imports, inputs, reference values and one warm-up operation) is
timed three times, twice in child processes started one after the other and
once in this process, and ``setup_s`` is their median.  The run then repeats
rounds of the workload's operations until ``--seconds`` have passed and
every operation has run at least once.  ``wall_s`` is the mean time of one
round of the workload's fixed work: the sum over the operations of each
one's mean time.  Every output is checked; the warm-up operation is
repeated at the end and its artifacts must match byte for byte.

Both times are given at the machine's reference speed.  After every
operation, and after each set-up, a fixed loop (the speed probe) runs for a
tenth of the time just measured, and the time is scaled by the probe's
time on an idle machine over its mean time in the run.  On a shared
machine a single-threaded loop runs up to twice as slow while other tenants
load the same core, in episodes that last from seconds to minutes; the
probe slows down with the operations around it, so the scaled times stay
put where the raw ones do not.  The raw times are printed too.

With ``--trace 1`` the run reports per-layer metrics instead: each
operation runs twice back to back, first on the unmodified package and
then with every public function wrapped in a span (see tracing.py), and the
difference of the two mean round times, unscaled, is the tracing overhead.
Spans are written to ``perfbench/traces/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1
# the speed probe runs for this share of the time it calibrates
PROBE_SHARE = 0.1
# the probe's time on an idle 2-vCPU Intel Xeon virtual machine
PROBE_REFERENCE_S = 0.02
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120

WORKLOADS = ("rb1q_long", "rb2q_product", "fit_synth", "certify")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics measured on the work of one round (medians over the
# traced rounds), except those in SETUP_SCOPE, measured over set-up
PER_LAYER = (
    "rb.self_s", "rb.v_t_monte_carlo.s", "rb.run_sequence.s", "rb.run_sequence.calls",
    "rb.sequences", "rb.gate_steps", "rb.shots",
    "designs.UnitaryEnsemble.sample.s", "designs.UnitaryEnsemble.sample.calls",
    "designs.sampled_unitaries", "paulis.pauli_basis.calls", "paulis.self_s",
    "designs.clifford_group.s", "designs.interleaved_clifford_design.s",
    "designs.icosahedral_group.s",
    "rb.fit_exponentials.s", "rb.fit_exponentials.calls", "rb.fit.chi2_evals",
    "rb.fit.flagged", "rb.estimate_metrics_1q.s", "rb.estimate_metrics_2q.s",
    "designs.frame_potential.s", "designs.frame_potential.terms",
    "designs.verify_strong_design.s", "designs.build_qudit_design.s",
    "haar.mixed_moment.s", "haar.mixed_moment.calls", "haar.haar_moment_projector.s",
    "haar.haar_frame_potential.s", "zonal.find_angles.s", "zonal.find_angles.calls",
    "haar.self_s", "zonal.self_s", "designs.self_s",
    "designs.save_design.s", "designs.load_design.s", "cli.cmd_rb.s", "cli.cmd_fit.s",
    "cli.cmd_design_build.s", "cli.cmd_design_verify.s", "cli.artifact_bytes",
    "cli.self_s",
    "irreps.projector_set.s", "irreps.decay_rates.s", "irreps.coefficients.s",
    "haar.haar_twirl_ptm2.s", "rb.v1_exact.s", "rb.v2_exact.s",
    "channels.noise_from_config.s", "channels.metrics.s", "numerics.matexp.s",
    "numerics.pinv_psd.s", "irreps.self_s", "channels.self_s", "numerics.self_s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
)
SETUP_SCOPE = frozenset((
    "irreps.projector_set.s", "irreps.decay_rates.s", "irreps.coefficients.s",
    "haar.haar_twirl_ptm2.s", "rb.v1_exact.s", "rb.v2_exact.s",
    "channels.noise_from_config.s", "channels.metrics.s", "numerics.matexp.s",
    "numerics.pinv_psd.s", "irreps.self_s", "channels.self_s", "numerics.self_s",
))


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit (used for the "
                        "set-up samples taken in child processes)")
    return p.parse_args(argv)


def workdir(name: str) -> str:
    """Scratch directory of this process, relative to the checkout root."""
    return os.path.join("perfbench", "work", "%s-%d" % (name, os.getpid()))


def set_up(name: str, seed: int, tracer=None):
    """Import, build the workload's inputs and references, warm up."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import exactrb
    import workloads

    if not os.path.abspath(exactrb.__file__).startswith(SRC + os.sep):
        raise RuntimeError("exactrb imported from %s, not from %s" % (exactrb.__file__, SRC))
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    wl = workloads.WORKLOADS[name](seed, workdir(name))
    os.makedirs(wl.workdir, exist_ok=True)
    try:
        wl.setup()
        warmup = wl.ops[0].run(0)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
    if not warmup.ok:
        raise RuntimeError("warm-up operation failed its check: " + warmup.detail)
    return wl, warmup, time.perf_counter() - t0


def probe() -> float:
    """Time one pass of the speed probe: a fixed loop of 4x4 matrix
    products and rescalings, the kind of work exactrb's inner loops do."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
    b = a.copy()
    t0 = time.perf_counter()
    for _ in range(6000):
        b = a @ b
        b /= np.abs(b).max()
    return time.perf_counter() - t0


def probe_for(seconds: float) -> list:
    """Probe times, one pass after another until ``seconds`` have passed."""
    times = [probe()]
    while sum(times) < seconds:
        times.append(probe())
    return times


def at_reference_speed(seconds: float, probes: list) -> float:
    """A time measured while the probe took ``mean(probes)``, scaled to
    the probe's time on an idle machine."""
    return seconds * PROBE_REFERENCE_S / statistics.mean(probes)


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up in a child process failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(op, i, tracer=None):
    from workloads import Outcome

    if tracer is not None:
        tracer.install()
        tracer.op = "%s#%d" % (op.name, i)
    t0 = time.perf_counter()
    try:
        out = op.run(i)
    except Exception:  # noqa: BLE001 - one failed operation must not end the run
        out = Outcome(time.perf_counter() - t0, False, traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
    if not out.ok:
        print("operation %s#%d failed: %s" % (op.name, i, out.detail), file=sys.stderr)
    return out


def measure(wl, seconds: float, tracer=None) -> dict:
    """Rounds of the workload's operations until the time is up.  Without
    a tracer the speed probe runs after every operation."""
    probes = []
    plain = {op.name: [] for op in wl.ops}
    traced = {op.name: [] for op in wl.ops}
    modes = [(None, plain)] + ([(tracer, traced)] if tracer is not None else [])
    written = {op.name: [] for op in wl.ops}
    first_values = {}
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    done = False
    while not done:
        i += 1
        for op in wl.ops:
            for tr, times in modes:
                out = run_op(op, i, tr)
                times[op.name].append(out.seconds)
                written[op.name].append(out.artifact_bytes)
                first_values.setdefault(op.name, out.values)
                attempted += 1
                failed += not out.ok
            if tracer is None:
                probes += probe_for(PROBE_SHARE * out.seconds)
            if time.perf_counter() - start >= seconds and (i > 1 or op is wl.ops[-1]):
                done = True
                break
    return {"plain": plain, "traced": traced, "written": written,
            "first_values": first_values, "attempted": attempted, "failed": failed,
            "rounds": i, "probes": probes}


def round_time(per_op: dict) -> float:
    """Mean time of one round: the sum over its operations of each one's
    mean.  Means, unlike medians or minima, add up the machine's slow and
    fast episodes in proportion, as the probe's mean does."""
    return sum(statistics.mean(v) for v in per_op.values())


def layer_metrics(tracer, wl) -> dict:
    per_op = tracer.summarize()
    round_total: dict = {}
    for op in wl.ops:
        runs = [s for key, s in per_op.items()
                if key is not None and key.rsplit("#", 1)[0] == op.name]
        for name in set().union(*runs):
            round_total[name] = round_total.get(name, 0) + statistics.median(
                r.get(name, 0) for r in runs)
    setup = per_op.get("setup", {})
    return {name: (setup if name in SETUP_SCOPE else round_total).get(name, 0)
            for name in PER_LAYER}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed}


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own, then a table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    if not args.trace:
        print("%-14s %12s %12s %14s  %s" % ("workload", "setup_s [s]", "wall_s [s]",
                                            "peak_rss_mb [MB]", "fail_ratio [ratio]"))
        for name, res in rows:
            m = res["metrics"]
            print("%-14s %12.4f %12.4f %14.1f    %.4g (%d of %d)"
                  % (name, m["setup_s"]["value"], m["wall_s"]["value"],
                     m["peak_rss_mb"]["value"], res["failed"] / res["attempted"],
                     res["failed"], res["attempted"]))
    print(json.dumps({
        "correct": all(res["correct"] for _, res in rows),
        "attempted": sum(res["attempted"] for _, res in rows),
        "failed": sum(res["failed"] for _, res in rows),
        "metrics": {"%s.%s" % (name, key): v for name, res in rows
                    for key, v in res["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "exactrb", "__init__.py")):
        print("no exactrb package under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    import tracing

    if args.setup_only:
        wl, _, seconds = set_up(args.workload, args.seed)
        shutil.rmtree(wl.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": at_reference_speed(
            seconds, probe_for(PROBE_SHARE * seconds))}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    try:
        setups = [] if tracer else [setup_in_child(args.workload, args.seed)
                                    for _ in range(SETUP_CHILDREN)]
        wl, warmup, seconds = set_up(args.workload, args.seed, tracer)
        setups.append(at_reference_speed(seconds, probe_for(PROBE_SHARE * seconds)))
        result = measure(wl, args.seconds, tracer)
        again = run_op(wl.ops[0], 0)
    finally:
        shutil.rmtree(workdir(args.workload), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir(args.workload)))
    rerun_ok = again.ok and again.artifact_hash == warmup.artifact_hash
    if not rerun_ok:
        print("rerun of %s#0 differs from the warm-up" % wl.ops[0].name,
              file=sys.stderr)
    attempted = result["attempted"] + 1
    failed = result["failed"] + (not rerun_ok)

    # numeric outputs of the warm-up and of the first round: fixed by the seed
    outputs = [warmup.values] + [result["first_values"][op.name] for op in wl.ops]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print("workload %s seed %d: %d rounds, output digest %s"
          % (args.workload, args.seed, result["rounds"], digest))
    print("fail_ratio %.6g (%d of %d operations failed)"
          % (failed / attempted, failed, attempted))
    print("setup samples " + " ".join("%.4f" % s for s in setups)
          + " s at reference speed; this process's set-up took %.4f s" % seconds)
    for name, times in result["plain"].items():
        print("op %-20s n=%-3d mean %.4f s  median %.4f s  min %.4f s  max %.4f s"
              % (name, len(times), statistics.mean(times), statistics.median(times),
                 min(times), max(times)))
    if tracer is None:
        probes = result["probes"]
        print("speed probe: mean %.4f s over %d passes, %.4f s on an idle machine; "
              "unscaled wall_s %.4f s" % (statistics.mean(probes), len(probes),
                                           PROBE_REFERENCE_S, round_time(result["plain"])))
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": at_reference_speed(round_time(result["plain"]), probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, wl)
        metrics["cli.artifact_bytes"] = round_time(result["written"])
        metrics["trace.wall_s"] = round_time(result["traced"])
        metrics["trace.untraced_wall_s"] = round_time(result["plain"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units = {name: unit_of(name) for name in PER_LAYER}
        os.makedirs(os.path.join("perfbench", "traces"), exist_ok=True)
        tracer.dump(os.path.join("perfbench", "traces",
                                 "%s-seed%d.json" % (args.workload, args.seed)))
    for name, value in metrics.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
