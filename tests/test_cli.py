"""End-to-end CLI checks: exit codes, artifacts, digests, determinism."""

import hashlib
import json

import numpy as np
import pytest
import scipy.linalg

from exactrb import channels, cli, designs, haar, paulis, rb


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_design_build_w1(tmp_path):
    out = tmp_path / "w1.json"
    assert run("design", "build", "--type", "w1", "--t", "4",
               "--out", str(out)) == cli.EXIT_PASS
    e = designs.load_design(str(out))
    assert e.size == 5
    doc = read_json(out)
    assert len(doc["manifest_digest"]) == 64
    # written once, with the trailing newline of every JSON artifact
    assert out.read_bytes().endswith(b"}\n")
    assert doc["manifest_digest"] == read_json(str(out) + ".manifest.json")["digest"]


def test_design_build_unknown_type(tmp_path):
    assert run("design", "build", "--type", "bogus",
               "--out", str(tmp_path / "x.json")) == cli.EXIT_USAGE


def test_design_build_missing_tables(tmp_path, capsys):
    # The two-qubit circuit construction needs external angle tables.
    assert run("design", "build", "--type", "qubit-circuit", "--n", "2",
               "--t", "2", "--out", str(tmp_path / "x.json")) \
        == cli.EXIT_CONSTRUCTION
    assert "angle tables" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flags", [
    (["--type", "qudit", "--t", "2"], "--d"),
    (["--type", "qudit", "--d", "2"], "--t"),
    (["--type", "w1"], "--t"),
    (["--type", "qubit-circuit", "--t", "1", "--q", "2"], "--n"),
])
def test_design_build_missing_parameter_is_usage_error(tmp_path, capsys, argv, flags):
    assert run("design", "build", *argv, "--out", str(tmp_path / "x.json")) \
        == cli.EXIT_USAGE
    assert "needs %s" % flags in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_design_build_qudit_past_four(tmp_path):
    # the tower lifts product layers: d = 5 builds and certifies by sampling
    design = tmp_path / "d51.json"
    assert run("design", "build", "--type", "qudit", "--d", "5", "--t", "1",
               "--out", str(design)) == cli.EXIT_PASS
    assert run("design", "verify", "--design", str(design), "--t", "1",
               "--mc-samples", "500", "--out", str(tmp_path / "r.json")) == cli.EXIT_PASS


def test_design_verify_pass_and_fail(tmp_path):
    ico = tmp_path / "ico.json"
    assert run("design", "build", "--type", "icosahedral",
               "--out", str(ico)) == cli.EXIT_PASS
    report = tmp_path / "report.json"
    assert run("design", "verify", "--design", str(ico), "--t", "4",
               "--out", str(report)) == cli.EXIT_PASS
    doc = read_json(report)
    assert doc["passed"] is True
    assert abs(doc["frame_potential"] - 14.0) < 1e-9

    cl = tmp_path / "c1.json"
    assert run("design", "build", "--type", "clifford", "--q", "1",
               "--out", str(cl)) == cli.EXIT_PASS
    assert run("design", "verify", "--design", str(cl), "--t", "4",
               "--out", str(tmp_path / "r2.json")) == cli.EXIT_FAIL
    assert run("design", "verify", "--design", str(cl), "--t", "3",
               "--out", str(tmp_path / "r3.json")) == cli.EXIT_PASS


def test_design_verify_over_budget(tmp_path, monkeypatch, capsys):
    ico = tmp_path / "ico.json"
    assert run("design", "build", "--type", "icosahedral",
               "--out", str(ico)) == cli.EXIT_PASS
    monkeypatch.setattr(haar, "MOMENT_BYTES", 2 ** 20)
    assert run("design", "verify", "--design", str(ico), "--t", "4",
               "--out", str(tmp_path / "r.json")) == cli.EXIT_USAGE
    assert "d = 2, t = 4 needs" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("samples", ["1", "0", "-4"])
def test_design_verify_refuses_fewer_than_two_samples(tmp_path, capsys, samples):
    # one sample's infinite standard error passed a 2-design check at t = 2
    # with residual 3.74; 0 and -4 reached other messages or numpy's errors
    design = tmp_path / "q22.json"
    assert run("design", "build", "--type", "qudit", "--d", "2", "--t", "2",
               "--out", str(design)) == cli.EXIT_PASS
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    assert run("design", "verify", "--design", str(design), "--t", "2",
               "--mc-samples", samples, "--out", str(out / "r.json")) == cli.EXIT_USAGE
    assert "mc_samples must be at least 2, got %s" % samples in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_design_verify_commutant(tmp_path):
    # the interleaved 4-design is certified at t = 4 in the Clifford
    # commutant, without samples and with the same bytes at 1 and 2 BLAS
    # threads; its refined U_c angles pass at the default tolerance
    design = tmp_path / "d.json"
    assert run("design", "build", "--type", "interleaved-4design",
               "--out", str(design)) == cli.EXIT_PASS
    reports = []
    for threads in ("1", "2"):
        cwd = tmp_path / ("threads" + threads)
        cwd.mkdir()
        proc = _main_in_fresh_process(
            cwd, "--threads", threads, "design", "verify", "--design", str(design),
            "--t", "4", "--out", "r.json")
        assert proc.returncode == cli.EXIT_PASS, proc.stdout + proc.stderr
        reports.append((cwd / "r.json").read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["mode"] == "commutant" and doc["passed"] is True
    assert doc["stderrs"] is None
    assert doc["residuals"]["4,4"] < 1e-11
    assert abs(doc["residuals"]["4,4"] ** 2 - (doc["frame_potential"] - 24.0)) < 1e-12

    # a U_c kicked off the design fails the same check
    doc = read_json(design)
    kick = scipy.linalg.expm(0.05j * np.kron(paulis.X, paulis.Z))
    uc = designs._matrix_from_json(doc["layers"][1]["matrix"])
    doc["layers"][1]["matrix"] = designs._matrix_to_json(uc @ kick)
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(doc))
    report = tmp_path / "rp.json"
    assert run("design", "verify", "--design", str(perturbed), "--t", "4",
               "--tol", "1e-6", "--out", str(report)) == cli.EXIT_FAIL
    doc = read_json(report)
    assert doc["mode"] == "commutant" and doc["passed"] is False
    assert doc["residuals"]["4,4"] > 1e-3


def test_design_verify_missing_file(tmp_path):
    assert run("design", "verify", "--design", str(tmp_path / "nope.json"),
               "--t", "2") == cli.EXIT_USAGE


def test_design_sample(tmp_path):
    ico = tmp_path / "ico.json"
    run("design", "build", "--type", "icosahedral", "--out", str(ico))
    out = tmp_path / "samples.json"
    assert run("design", "sample", "--design", str(ico), "--n", "7",
               "--seed", "3", "--out", str(out)) == cli.EXIT_PASS
    doc = read_json(out)
    assert len(doc["unitaries"]) == 7


def write_rb_config(path, **kw):
    cfg = {
        "pipeline": "1q",
        "noise": {"model": "noise1", "p": 0.02, "q": 0.98},
        "design": {"type": "icosahedral"},
        "sequence_lengths": [1, 2, 3, 5, 8, 12, 20, 35, 60, 100],
        "n_sequences": 20,
        "n_shots": 100,
        "seed": 5,
    }
    cfg.update(kw)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return cfg


def test_rb_exact_reproduces_closed_form(tmp_path):
    cfg = tmp_path / "rb.json"
    write_rb_config(str(cfg), sequence_lengths=[1, 2, 3, 5, 8, 12, 17, 25,
                                                35, 50, 70, 100, 140, 200])
    out = tmp_path / "out"
    assert run("rb", "--config", str(cfg), "--mode", "exact",
               "--out-dir", str(out)) == cli.EXIT_PASS
    met = read_json(out / "metrics.json")
    want = channels.noise1_closed_form(0.02, 0.98)
    assert abs(met["F"] - want.F) < 1e-6
    assert abs(met["u"] - want.u) < 1e-6
    assert abs(met["H"] - want.H) < 1e-5
    manifest = read_json(out / "manifest.json")
    assert met["manifest_digest"] == manifest["digest"]
    first = (out / "v1.csv").read_text().splitlines()[0]
    assert first == "# manifest: " + manifest["digest"]
    curve = rb.DecayCurve.from_csv(str(out / "v2.csv"))
    assert len(curve.points) == 14


def test_rb_mc_deterministic_rerun(tmp_path):
    cfg = tmp_path / "rb.json"
    write_rb_config(str(cfg), sequence_lengths=[1, 2, 4, 7, 12, 20],
                    n_sequences=12, n_shots=50)
    out = tmp_path / "out"
    assert run("rb", "--config", str(cfg), "--mode", "mc",
               "--out-dir", str(out)) == cli.EXIT_PASS
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "manifest.json"}
    manifest_a = read_json(out / "manifest.json")
    assert run("rb", "--config", str(cfg), "--mode", "mc",
               "--out-dir", str(out)) == cli.EXIT_PASS
    for name, blob in snapshot.items():
        assert (out / name).read_bytes() == blob, name
    manifest_b = read_json(out / "manifest.json")
    assert manifest_a["digest"] == manifest_b["digest"]
    only = {k for k in manifest_a if manifest_a[k] != manifest_b[k]}
    assert only <= {"wall_clock"}


def test_rb_mc_2q_interleaved(tmp_path):
    cfg = tmp_path / "rb.json"
    write_rb_config(str(cfg), pipeline="2q",
                    noise={"model": "noise2", "p": 0.02, "q": 0.9},
                    design={"type": "interleaved-4design"},
                    sequence_lengths=[1, 2, 3, 4, 6, 8, 12, 16, 24],
                    n_sequences=4, n_shots=0)
    out = tmp_path / "out"
    assert run("rb", "--config", str(cfg), "--mode", "mc",
               "--out-dir", str(out)) == cli.EXIT_PASS
    names = ("v1", "v2_zz_p00", "v2_zz_zz", "v2_rm_rm")
    for name in names:
        assert len(rb.DecayCurve.from_csv(str(out / (name + ".csv"))).points) == 9
    met = read_json(out / "metrics.json")
    for key in ("u", "C_I", "C_II", "C_III"):
        assert 0.0 <= met["rates"][key] <= 1.0, key
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "manifest.json"}
    assert set(snapshot) == {n + ".csv" for n in names} | {"metrics.json"}
    manifest_a = read_json(out / "manifest.json")
    assert run("rb", "--config", str(cfg), "--mode", "mc",
               "--out-dir", str(out)) == cli.EXIT_PASS
    for name, blob in snapshot.items():
        assert (out / name).read_bytes() == blob, name
    manifest_b = read_json(out / "manifest.json")
    assert {k for k in manifest_a if manifest_a[k] != manifest_b[k]} <= {"wall_clock"}


def test_rb_builds_one_m_table_per_run(tmp_path, monkeypatch):
    # the four curves of a 2q run on the two-qubit Clifford group share one
    # design and one noise, so they share one M table; 240 sequences draw
    # the group's 11,520 elements at the lengths from 48 on
    built = []

    def counted(design, noise_mat):
        built.append(design.size)
        return table(design, noise_mat)

    table = rb._m_table
    monkeypatch.setattr(rb, "_m_table", counted)
    cfg = tmp_path / "rb.json"
    write_rb_config(str(cfg), pipeline="2q",
                    noise={"model": "noise2", "p": 0.02, "q": 0.9},
                    design={"type": "clifford", "q": 2},
                    sequence_lengths=[1, 2, 4, 8, 16, 32, 48, 64, 96], n_sequences=240,
                    n_shots=0)
    code = run("rb", "--config", str(cfg), "--mode", "mc", "--out-dir", str(tmp_path / "out"))
    assert code in (cli.EXIT_PASS, cli.EXIT_FAIL)
    assert built == [11520]


def test_curve_seeds_distinct():
    # Every (master seed, setting index) pair gets its own curve seed; the
    # name-sum offsets this replaced gave v1 at seed s + 1 the streams of
    # v2 at seed s.
    seeds = {cli._curve_seed(s, k) for s in range(100) for k in range(4)}
    assert len(seeds) == 400
    assert cli._curve_seed(1, 0) != cli._curve_seed(0, 1)


def test_rb_short_m_list_is_usage_error(tmp_path, monkeypatch, capsys):
    # the largest fit needs 2 * terms + 1 lengths, 5 for 1q and 9 for 2q:
    # refused while the config is read, before any simulation or output
    monkeypatch.setattr(rb, "v_t_monte_carlo", None)
    cfg = tmp_path / "rb.json"
    out = tmp_path / "out"
    write_rb_config(str(cfg), sequence_lengths=[1, 3, 8, 20])
    assert run("rb", "--config", str(cfg), "--mode", "mc",
               "--out-dir", str(out)) == cli.EXIT_USAGE
    assert "needs at least 5 sequence lengths, got 4" in capsys.readouterr().err
    write_rb_config(str(cfg), pipeline="2q", noise={"model": "noise2", "p": 0.02, "q": 0.9},
                    sequence_lengths=[1, 2, 3, 4, 6, 8, 12, 16])
    for mode in ("mc", "exact"):
        assert run("rb", "--config", str(cfg), "--mode", mode,
                   "--out-dir", str(out)) == cli.EXIT_USAGE
        assert "needs at least 9 sequence lengths, got 8" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rb.json"]


def test_rb_exact_2q_reproduces_closed_form(tmp_path):
    # the exact 2q curves fitted back give the sector rates of noise2
    cfg = tmp_path / "rb.json"
    write_rb_config(str(cfg), pipeline="2q", noise={"model": "noise2", "p": 0.02, "q": 0.9},
                    sequence_lengths=[1, 2, 3, 5, 8, 12, 17, 25, 35, 50, 70, 100, 140, 200])
    out = tmp_path / "out"
    assert run("rb", "--config", str(cfg), "--mode", "exact",
               "--out-dir", str(out)) == cli.EXIT_PASS
    rates = read_json(out / "metrics.json")["rates"]
    want = channels.noise2_closed_form(0.02, 0.9)
    for key in ("u", "C_I", "C_II", "C_III"):
        assert abs(rates[key] - want[key]) < 1e-9, key


BAD_FIELDS = {
    "n_sequences null": ("mc", {"n_sequences": None}),
    "n_shots list": ("mc", {"n_shots": [1]}),
    "design t null": ("mc", {"design": {"type": "qudit", "d": 2, "t": None}}),
    "alpha_norm_sq list": ("mc", {"alpha_norm_sq": [1]}),
    "eta_prep string": ("mc", {"spam": {"eta_prep": "x"}}),
    "spam string": ("mc", {"spam": "x"}),
    "u_external string": ("exact", {"pipeline": "2q", "u_external": "abc",
                                    "noise": {"model": "noise2", "p": 0.02, "q": 0.9}}),
}


@pytest.mark.parametrize("case", list(BAD_FIELDS) + ["design sample --n -1"])
def test_wrong_input_types_are_usage_errors(tmp_path, monkeypatch, case):
    # a config field of the wrong JSON type, or a negative sample count, is
    # refused while the input is read: exit 2, nothing written
    monkeypatch.setattr(rb, "v_t_monte_carlo", None)
    if case in BAD_FIELDS:
        mode, fields = BAD_FIELDS[case]
        cfg = tmp_path / "rb.json"
        write_rb_config(str(cfg), sequence_lengths=list(range(1, 10)), **fields)
        argv = ["rb", "--config", str(cfg), "--mode", mode, "--out-dir", str(tmp_path / "out")]
    else:
        cfg = tmp_path / "ico.json"
        designs.save_design(designs.icosahedral_group(), str(cfg))
        argv = ["design", "sample", "--design", str(cfg), "--n", "-1",
                "--out", str(tmp_path / "s.json")]
    assert run(*argv) == cli.EXIT_USAGE
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


def test_rb_design_cap_key_is_refused(tmp_path, monkeypatch, capsys):
    # "cap" counted elements; the tower's byte budget replaced it
    monkeypatch.setattr(rb, "v_t_monte_carlo", None)
    cfg = tmp_path / "rb.json"
    write_rb_config(str(cfg), sequence_lengths=list(range(1, 10)),
                    design={"type": "qudit", "d": 2, "t": 3, "cap": 100000})
    assert run("rb", "--config", str(cfg), "--mode", "mc",
               "--out-dir", str(tmp_path / "out")) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "'cap'" in err and "%d bytes" % designs.TOWER_BYTES in err
    assert [p.name for p in tmp_path.iterdir()] == ["rb.json"]


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    assert run("design", "build", "--type", "icosahedral",
               "--out", str(d / "ico.json")) == cli.EXIT_PASS
    (d / "noise.json").write_text(json.dumps({"model": "noise1", "p": 0.02, "q": 0.98}))
    write_rb_config(str(d / "rb1q.json"))
    write_rb_config(str(d / "rb2q.json"), pipeline="2q",
                    noise={"model": "noise2", "p": 0.02, "q": 0.9},
                    design={"type": "interleaved-4design"},
                    sequence_lengths=[1, 2, 3, 4, 6, 8, 12, 16, 24],
                    n_sequences=2, n_shots=0)
    ms = [1, 2, 3, 5, 8, 12, 20, 35, 60, 100]
    rb.DecayCurve(points=tuple((m, 0.25 + 0.75 * 0.96 ** m, 0.0, 0, 0) for m in ms)
                  ).to_csv(str(d / "curve.csv"))
    return d


CONTRACT = {
    "design build": lambda i, o: ["design", "build", "--type", "icosahedral",
                                  "--out", o + "/ico.json"],
    "design verify": lambda i, o: ["design", "verify", "--design", i + "/ico.json",
                                   "--t", "2", "--out", o + "/report.json"],
    "design sample": lambda i, o: ["design", "sample", "--design", i + "/ico.json",
                                   "--n", "3", "--out", o + "/samples.json"],
    "rb exact 1q": lambda i, o: ["rb", "--config", i + "/rb1q.json", "--mode", "exact",
                                 "--out-dir", o + "/rb"],
    "rb mc 2q": lambda i, o: ["rb", "--config", i + "/rb2q.json", "--mode", "mc",
                              "--out-dir", o + "/rb"],
    "metrics": lambda i, o: ["metrics", "--noise", i + "/noise.json", "--out", o + "/met.json"],
    "fit": lambda i, o: ["fit", "--curve", i + "/curve.csv", "--terms", "2",
                         "--out", o + "/fit.json"],
}


@pytest.mark.parametrize("command", CONTRACT)
def test_artifact_contract(contract_inputs, tmp_path, command):
    # a run writes its outputs and one manifest naming exactly them; each
    # output embeds the manifest's digest, as the manifest_digest key of a
    # JSON file or the first line of a CSV file
    assert run(*CONTRACT[command](str(contract_inputs), str(tmp_path))) == cli.EXIT_PASS
    written = {str(p) for p in tmp_path.rglob("*") if p.is_file()}
    manifest = [p for p in written if p.endswith("manifest.json")]
    assert len(manifest) == 1
    man = read_json(manifest[0])
    assert set(man["outputs"]) == written - set(manifest)
    fields = {k: v for k, v in man.items() if k not in ("digest", "wall_clock")}
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
    assert man["digest"] == hashlib.sha256(blob).hexdigest()
    for path in man["outputs"]:
        if path.endswith(".csv"):
            with open(path, "rb") as fh:
                assert fh.readline() == b"# manifest: %s\n" % man["digest"].encode()
        else:
            assert read_json(path)["manifest_digest"] == man["digest"]


def test_rb_bad_noise_model(tmp_path):
    cfg = tmp_path / "rb.json"
    write_rb_config(str(cfg), noise={"model": "nope"})
    assert run("rb", "--config", str(cfg), "--mode", "exact",
               "--out-dir", str(tmp_path / "out")) == cli.EXIT_USAGE


@pytest.mark.parametrize("command", ["rb", "metrics"])
def test_non_cp_noise_is_usage_error(tmp_path, monkeypatch, capsys, command):
    # lindblad with a negative delay is trace preserving but not completely
    # positive: refused while the config is read, naming the eigenvalue
    monkeypatch.setattr(rb, "v_t_monte_carlo", None)
    noise = {"model": "lindblad", "t1": 10, "t2": 5, "delay": -1}
    if command == "rb":
        cfg = tmp_path / "rb.json"
        write_rb_config(str(cfg), noise=noise)
        argv = ["rb", "--config", str(cfg), "--mode", "mc", "--out-dir",
                str(tmp_path / "out")]
    else:
        cfg = tmp_path / "noise.json"
        cfg.write_text(json.dumps(noise))
        argv = ["metrics", "--noise", str(cfg), "--out", str(tmp_path / "met.json")]
    assert run(*argv) == cli.EXIT_USAGE
    assert "smallest Choi eigenvalue -0.085" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


def test_metrics_command(tmp_path):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"model": "noise1", "p": 0.02, "q": 0.98}))
    out = tmp_path / "met.json"
    assert run("metrics", "--noise", str(noise), "--out", str(out)) \
        == cli.EXIT_PASS
    met = read_json(out)
    want = channels.noise1_closed_form(0.02, 0.98)
    assert abs(met["F"] - want.F) < 1e-12
    assert abs(met["H"] - want.H) < 1e-12
    assert len(met["manifest_digest"]) == 64


def test_fit_command(tmp_path):
    ms = np.array([1, 2, 3, 5, 8, 12, 20, 35, 60, 100], dtype=float)
    y = 0.25 + 0.75 * 0.96 ** ms
    curve = rb.DecayCurve(points=tuple(
        (int(m), float(v), 0.0, 0, 0) for m, v in zip(ms, y)))
    path = tmp_path / "curve.csv"
    curve.to_csv(str(path))
    out = tmp_path / "fit.json"
    assert run("fit", "--curve", str(path), "--terms", "2",
               "--known", "1.0", "--out", str(out)) == cli.EXIT_PASS
    doc = read_json(out)
    assert abs(doc["rates"][1] - 0.96) < 1e-8
    assert abs(doc["amplitudes"][0] - 0.25) < 1e-8


def test_fit_strict_flags(tmp_path):
    ms = np.array([1, 2, 3, 5, 8, 12, 20, 35, 60, 100], dtype=float)
    y = 0.5 * 0.95 ** ms + 0.5 * (0.95 - 1e-6) ** ms
    curve = rb.DecayCurve(points=tuple(
        (int(m), float(v), 0.0, 0, 0) for m, v in zip(ms, y)))
    path = tmp_path / "curve.csv"
    curve.to_csv(str(path))
    assert run("fit", "--curve", str(path), "--terms", "2", "--strict",
               "--out", str(tmp_path / "f.json")) == cli.EXIT_STRICT_FIT


def test_threads_flag_sets_env(tmp_path, monkeypatch):
    for var in cli._THREAD_ENV:
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "w1.json"
    assert run("--threads", "1", "design", "build", "--type", "w1",
               "--t", "2", "--out", str(out)) == cli.EXIT_PASS
    import os
    assert os.environ["OMP_NUM_THREADS"] == "1"


def _python_in_fresh_process(cwd, code, *argv):
    """A Python snippet in a process of its own that imports this exactrb,
    with no thread-count variables set."""
    import os
    import subprocess
    import sys

    import exactrb
    env = {k: v for k, v in os.environ.items()
           if k not in cli._THREAD_ENV and k != "EXACTRB_THREADS"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactrb.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def _main_in_fresh_process(cwd, *argv):
    """exactrb's CLI in a process of its own, so --threads reaches the BLAS
    pool before numpy loads it."""
    return _python_in_fresh_process(
        cwd, "import sys; from exactrb.cli import main; sys.exit(main())", *argv)


def test_imports_leave_out_scipy(tmp_path):
    # the package is numpy only; importing scipy.linalg costs every process
    # about 0.2 s and 25 MB
    proc = _python_in_fresh_process(
        tmp_path, "import sys, exactrb.cli, exactrb.rb, exactrb.designs, exactrb.zonal, "
        "exactrb.channels; "
        "sys.exit(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or None)")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_sampled_verify_report_independent_of_threads(tmp_path):
    # 500 samples: eight 64-row chunks, each GEMM inside one BLAS K panel
    # and the chunks added in order, so no sum depends on the thread count.
    design = tmp_path / "q32.json"
    assert run("design", "build", "--type", "qudit", "--d", "3", "--t", "2",
               "--out", str(design)) == cli.EXIT_PASS
    reports = []
    for threads in ("1", "2"):
        cwd = tmp_path / ("threads" + threads)
        cwd.mkdir()
        proc = _main_in_fresh_process(
            cwd, "--threads", threads, "design", "verify", "--design", str(design),
            "--t", "2", "--strong", "--mc-samples", "500", "--seed", "0",
            "--out", "report.json")
        assert proc.returncode == cli.EXIT_PASS, proc.stdout + proc.stderr
        reports.append((cwd / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_mc_curves_independent_of_threads(tmp_path):
    # v_t_monte_carlo promises curves that do not depend on the BLAS thread
    # count: every product of a sequence is a small GEMM of its own
    cfg = tmp_path / "rb2q.json"
    cfg.write_text(json.dumps({
        "pipeline": "2q", "noise": {"model": "noise2", "p": 0.02, "q": 0.9},
        "design": {"type": "interleaved-4design"},
        "sequence_lengths": [1, 2, 3, 4, 6, 8, 12, 16, 24], "n_sequences": 4, "seed": 5}))
    names = ("v1", "v2_zz_p00", "v2_zz_zz", "v2_rm_rm")
    bodies = []
    for threads in ("1", "2"):
        out = "threads" + threads
        proc = _main_in_fresh_process(tmp_path, "--threads", threads, "rb", "--config",
                                      str(cfg), "--mode", "mc", "--out-dir", out)
        assert proc.returncode == cli.EXIT_PASS, proc.stdout + proc.stderr
        # the first line holds the manifest digest, which covers --out-dir
        bodies.append([(tmp_path / out / (name + ".csv")).read_text().split("\n", 1)[1]
                       for name in names])
    assert bodies[0] == bodies[1]
