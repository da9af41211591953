"""Command-line front end: design construction and certification, RB runs,
channel metrics, and standalone curve fitting.

Every command is a pure function of (arguments, config files, seed): reruns
write byte-identical artifacts except for the manifest's wall-clock field.
Each output file embeds the digest of the run manifest that produced it.

Exit codes: 0 success or verified pass, 1 verified fail, 2 usage or parse
error, 3 construction failure, 4 fit flags under --strict.

Only the standard library is imported at module level so that --threads can
pin the numeric backend's thread pools before numpy is first loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__

_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_STRICT_FIT = 4


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _json_artifact(doc: dict):
    """Writer of a JSON artifact: doc with the manifest digest added."""
    return lambda path, digest: _write_json(path, dict(doc, manifest_digest=digest))


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(argv, config_digest, seed, artifacts, manifest_path) -> None:
    """Write a run's artifacts, then the manifest that names them.

    artifacts maps each output path to a writer(path, digest).  The digest
    covers every manifest field except the wall clock, so identical reruns
    write identical artifacts; each writer embeds it in its file.
    """
    doc = {"command_line": list(argv), "config_digest": config_digest,
           "master_seed": seed, "version": __version__, "outputs": sorted(artifacts)}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["digest"] = hashlib.sha256(blob.encode()).hexdigest()
    for path, write in artifacts.items():
        write(path, doc["digest"])
    doc["wall_clock"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    _write_json(manifest_path, doc)


def _load_design_arg(design_doc):
    """Design from a config entry: {"file": path} or {"type": ..., ...}."""
    from . import designs

    if "file" in design_doc:
        return designs.load_design(design_doc["file"])
    kind = design_doc["type"]
    if kind == "w1":
        return designs.w1(int(design_doc["t"]))
    if kind == "qudit":
        if "cap" in design_doc:
            raise ValueError("the design key 'cap' (a count of elements) is gone; the "
                             "qudit tower multiplies out stacks of at most %d bytes"
                             % designs.TOWER_BYTES)
        return designs.build_qudit_design(int(design_doc["d"]), int(design_doc["t"]))
    if kind == "icosahedral":
        return designs.icosahedral_group()
    if kind == "clifford":
        return designs.clifford_group(int(design_doc.get("q", 1)))
    if kind == "interleaved-4design":
        return designs.interleaved_clifford_design()
    if kind == "qubit-circuit":
        return designs.build_qubit_circuit_design(
            int(design_doc["n"]), int(design_doc["t"]),
            angle_tables=design_doc.get("angle_tables"))
    raise ValueError("unknown design type %r" % kind)


def cmd_design_build(args, argv) -> int:
    from . import designs

    design_doc = {"type": args.type, "t": args.t, "d": args.d, "q": args.q, "n": args.n}
    if args.angles:
        with open(args.angles) as fh:
            raw = json.load(fh)
        tables = {}
        for k, v in raw.items():
            n_val, part = json.loads(k) if isinstance(k, str) else k
            tables[(int(n_val), tuple(part))] = v
        design_doc["angle_tables"] = tables
    try:
        clean = {k: v for k, v in design_doc.items() if v is not None}
        ensemble = _load_design_arg(clean)
    except KeyError as exc:
        # a field the build type reads was not given
        print("design build --type %s needs --%s" % (args.type, exc.args[0]), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print("construction failed: %s" % exc, file=sys.stderr)
        return EXIT_CONSTRUCTION
    # "cap": "None" keeps the digests of builds from when --cap was a flag
    config = json.dumps(dict({k: str(v) for k, v in design_doc.items()}, cap="None"),
                        sort_keys=True, separators=(",", ":"))

    def write(path, digest):
        designs.save_design(ensemble, path, extra={"manifest_digest": digest})

    _emit(argv, hashlib.sha256(config.encode()).hexdigest(), None,
          {args.out: write}, args.out + ".manifest.json")
    print("wrote %s (%d elements)" % (args.out, ensemble.size))
    return EXIT_PASS


def cmd_design_verify(args, argv) -> int:
    from . import designs

    try:
        ensemble = designs.load_design(args.design)
    except (OSError, ValueError, KeyError) as exc:
        print("cannot load design: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        report = designs.verify_strong_design(
            ensemble, args.t, tol=args.tol, mc_samples=args.mc_samples,
            strong=args.strong, seed=args.seed)
    except ValueError as exc:
        print("cannot verify: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    _emit(argv, _sha256_file(args.design), args.seed,
          {args.out: _json_artifact(report.to_json_dict())}, args.out + ".manifest.json")
    print("design %s at t=%d: %s (worst residual %.3g)"
          % (args.design, args.t, "PASS" if report.passed else "FAIL",
             max(report.residuals.values())))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_design_sample(args, argv) -> int:
    import numpy as np

    from . import designs

    if args.n < 1:
        print("--n must be at least 1, got %d" % args.n, file=sys.stderr)
        return EXIT_USAGE
    try:
        ensemble = designs.load_design(args.design)
    except (OSError, ValueError, KeyError) as exc:
        print("cannot load design: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    us = ensemble.sample(rng, args.n)
    doc = {
        "d": ensemble.d,
        "n": args.n,
        "seed": args.seed,
        "unitaries": [designs._matrix_to_json(u) for u in us],
    }
    _emit(argv, _sha256_file(args.design), args.seed,
          {args.out: _json_artifact(doc)}, args.out + ".manifest.json")
    print("wrote %d samples to %s" % (args.n, args.out))
    return EXIT_PASS


def _estimates_json(est) -> dict:
    return {
        "f": est.f, "F": est.F, "u": est.u, "h": est.h, "H": est.H,
        "stderr": est.stderr,
        "rates": est.rates,
        "rate_stderr": est.rate_stderr,
        "flags": list(est.flags),
        "alpha_norm_sq": est.alpha_norm_sq,
    }


def _curve_seed(seed: int, k: int) -> int:
    """Seed of the k-th curve of an rb run, spawned from the master seed.

    Curves of one run, and curves of runs with different master seeds,
    get unrelated seeds, so no two of them share sequence streams.
    """
    import numpy as np

    ss = np.random.SeedSequence(seed, spawn_key=(k,))
    return int(ss.generate_state(1, np.uint64)[0])


def _optional_float(value):
    return None if value is None else float(value)


def cmd_rb(args, argv) -> int:
    from . import channels, irreps, paulis, rb

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        pipeline = cfg["pipeline"]
        if pipeline not in ("1q", "2q"):
            raise ValueError("pipeline must be '1q' or '2q'")
        noise = channels.noise_from_config(cfg["noise"])
        m_list = [int(m) for m in cfg["sequence_lengths"]]
        seed = int(cfg.get("seed", 0))
        # the largest fit has 2 (1q) or 4 (2q) terms, 2 * terms + 1 points
        need = 5 if pipeline == "1q" else 9
        if len(m_list) < need:
            raise ValueError("the %s pipeline needs at least %d sequence lengths, got %d"
                             % (pipeline, need, len(m_list)))
        alpha_norm_sq = _optional_float(cfg.get("alpha_norm_sq"))
        u_external = _optional_float(cfg.get("u_external"))
        if args.mode == "mc":
            design = _load_design_arg(cfg.get(
                "design", {"type": "icosahedral" if pipeline == "1q" else "clifford", "q": 2}))
            n_sequences = int(cfg["n_sequences"])
            n_shots = int(cfg.get("n_shots", 0))
            spam = None
            if cfg.get("spam"):
                em = cfg["spam"].get("eta_meas", 0.0)
                spam = rb.SPAMModel(
                    eta_prep=float(cfg["spam"].get("eta_prep", 0.0)),
                    eta_meas=tuple(map(float, em)) if isinstance(em, list) else float(em))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print("bad rb config: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    q = 1 if pipeline == "1q" else 2
    settings_1q = [("v1", 1, "Z", "P0"), ("v2", 2, "Z", "P0")]
    settings_2q = [("v1", 1, "ZZ", "P00"), ("v2_zz_p00", 2, "ZZ", "P00"),
                   ("v2_zz_zz", 2, "ZZ", "ZZ"), ("v2_rm_rm", 2, "rho_minus", "rho_minus")]
    settings = settings_1q if q == 1 else settings_2q

    curves = {}
    if args.mode == "exact":
        pset = irreps.projector_set(q)
        for name, t_order, ini, meas in settings:
            o_ini = paulis.named_operator(ini)
            o_meas = paulis.named_operator(meas)
            if t_order == 1:
                curves[name] = rb.v1_exact(noise, o_ini, o_meas, m_list)
            else:
                curves[name] = rb.v2_exact(noise, o_ini, o_meas, m_list, pset,
                                           noisy_inverse=False)
    else:
        tables = {}  # the curves share the design's M table, when it has one
        try:
            for k, (name, t_order, ini, meas) in enumerate(settings):
                rcfg = rb.RBConfig(
                    design=design, noise=noise, t_order=t_order,
                    sequence_lengths=tuple(m_list), n_sequences=n_sequences,
                    n_shots=n_shots, seed=_curve_seed(seed, k),
                    o_ini=paulis.named_operator(ini),
                    o_meas=paulis.named_operator(meas), spam=spam)
                curves[name] = rb.v_t_monte_carlo(rcfg, tables)
        except ValueError as exc:
            print("bad rb config: %s" % exc, file=sys.stderr)
            return EXIT_USAGE

    try:
        if q == 1:
            est = rb.estimate_metrics_1q(curves["v1"], curves["v2"],
                                         alpha_norm_sq=alpha_norm_sq)
        else:
            table = {"zz_p00": curves["v2_zz_p00"], "zz_zz": curves["v2_zz_zz"],
                     "rm_rm": curves["v2_rm_rm"], "v1": curves["v1"]}
            est = rb.estimate_metrics_2q(table, u_external=u_external,
                                         alpha_norm_sq=alpha_norm_sq)
    except ValueError as exc:
        print("estimation failed: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    os.makedirs(args.out_dir, exist_ok=True)
    artifacts = {os.path.join(args.out_dir, name + ".csv"): curves[name].to_csv
                 for name, *_ in settings}
    artifacts[os.path.join(args.out_dir, "metrics.json")] = _json_artifact(_estimates_json(est))
    _emit(argv, _sha256_file(args.config), seed, artifacts,
          os.path.join(args.out_dir, "manifest.json"))
    print("wrote %d curves and metrics to %s" % (len(curves), args.out_dir))

    bad = [f for f in est.flags if f in ("non_converged", "ill_conditioned")]
    if args.strict and bad:
        print("strict mode: fit flags %s" % bad, file=sys.stderr)
        return EXIT_STRICT_FIT
    return EXIT_PASS


def cmd_metrics(args, argv) -> int:
    from . import channels

    try:
        noise = channels.load_noise_config(args.noise)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("bad noise config: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    m = channels.metrics(noise)
    _emit(argv, _sha256_file(args.noise), None,
          {args.out: _json_artifact(m.to_json_dict())}, args.out + ".manifest.json")
    print("F=%.6f u=%.6f H=%.6f |alpha|^2=%.3g" % (m.F, m.u, m.H, m.alpha_norm_sq))
    return EXIT_PASS


def cmd_fit(args, argv) -> int:
    import numpy as np

    from . import rb

    try:
        curve = rb.DecayCurve.from_csv(args.curve)
        known = [float(x) for x in args.known.split(",")] if args.known else None
        fit = rb.fit_exponentials(curve, args.terms, known_rates=known)
    except (OSError, ValueError) as exc:
        print("fit failed: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    doc = {
        "amplitudes": list(fit.amplitudes),
        "rates": list(fit.rates),
        "residual_norm": fit.residual_norm,
        "covariance": np.asarray(fit.covariance).tolist(),
        "flags": list(fit.flags),
        "n_evaluations": fit.n_evaluations,
    }
    _emit(argv, _sha256_file(args.curve), None,
          {args.out: _json_artifact(doc)}, args.out + ".manifest.json")
    print("rates:", " ".join("%.6f" % r for r in fit.rates), "flags:", list(fit.flags))
    if args.strict and fit.flags:
        return EXIT_STRICT_FIT
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="exactrb",
        description="Exact unitary designs and higher-order randomized benchmarking.")
    p.add_argument("--threads", type=int, default=None,
                   help="thread count for the numeric backend (default: all cores, "
                        "or EXACTRB_THREADS); results do not depend on it")
    sub = p.add_subparsers(dest="cmd", required=True)

    pd = sub.add_parser("design", help="build, verify, or sample unitary designs")
    dsub = pd.add_subparsers(dest="subcmd", required=True)

    pb = dsub.add_parser("build", help="construct a design and write it as JSON")
    pb.add_argument("--type", required=True,
                    choices=["w1", "qudit", "icosahedral", "clifford",
                             "interleaved-4design", "qubit-circuit"])
    pb.add_argument("--t", type=int, default=None)
    pb.add_argument("--d", type=int, default=None)
    pb.add_argument("--q", type=int, default=None)
    pb.add_argument("--n", type=int, default=None)
    pb.add_argument("--angles", default=None,
                    help="JSON file of rotation-angle tables for qubit-circuit")
    pb.add_argument("--out", required=True)

    pv = dsub.add_parser("verify", help="certify a design file at order t")
    pv.add_argument("--design", required=True)
    pv.add_argument("--t", type=int, required=True)
    pv.add_argument("--strong", action="store_true",
                    help="check all mixed moments r,s <= t, not only r = s")
    pv.add_argument("--tol", type=float, default=1e-10)
    pv.add_argument("--mc-samples", type=int, default=None,
                    help="sample count, at least 2, for layered designs (default: exact)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default="design_report.json")

    ps = dsub.add_parser("sample", help="draw unitaries from a design file")
    ps.add_argument("--design", required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True)

    pr = sub.add_parser("rb", help="run the RB pipeline from a JSON config")
    pr.add_argument("--config", required=True)
    pr.add_argument("--mode", choices=["exact", "mc"], required=True,
                    help="exact theoretical curves or Monte Carlo simulation")
    pr.add_argument("--out-dir", required=True)
    pr.add_argument("--strict", action="store_true",
                    help="exit 4 if any fit is flagged")

    pm = sub.add_parser("metrics", help="channel metrics from a noise config")
    pm.add_argument("--noise", required=True)
    pm.add_argument("--out", default="metrics.json")

    pf = sub.add_parser("fit", help="fit exponential decays to an external CSV")
    pf.add_argument("--curve", required=True)
    pf.add_argument("--terms", type=int, required=True)
    pf.add_argument("--known", default=None,
                    help="comma-separated rates to pin")
    pf.add_argument("--strict", action="store_true")
    pf.add_argument("--out", default="fit.json")
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        threads = args.threads
        if threads is None and os.environ.get("EXACTRB_THREADS"):
            try:
                threads = int(os.environ["EXACTRB_THREADS"])
            except ValueError:
                parser.error("EXACTRB_THREADS must be an integer")
        if threads is not None:
            if threads < 1:
                parser.error("--threads must be positive")
            for var in _THREAD_ENV:
                os.environ[var] = str(threads)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # the manifest records the command from its name on: the only global
    # option, --threads, does not change any result
    argv = argv[argv.index(args.cmd):]

    if args.cmd == "design":
        handler = {"build": cmd_design_build, "verify": cmd_design_verify,
                   "sample": cmd_design_sample}[args.subcmd]
        return handler(args, argv)
    if args.cmd == "rb":
        return cmd_rb(args, argv)
    if args.cmd == "metrics":
        return cmd_metrics(args, argv)
    return cmd_fit(args, argv)


if __name__ == "__main__":
    sys.exit(main())
