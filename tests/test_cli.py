"""CLI exit codes, artifact schemas, determinism."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from spincm.cli import main


def run(tmp_path, *argv):
    return main(list(argv))


def read(path):
    return path.read_text()


def csv_body(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def footer(text, key):
    for line in text.splitlines():
        if line.startswith(f"# {key}:"):
            return line.split(":", 1)[1].strip()
    return None


def test_simulate_free_flight(tmp_path):
    out = tmp_path / "free.csv"
    assert run(tmp_path, "simulate", "--preset", "free-flight",
               "--out", str(out)) == 0
    text = read(out)
    header, rows = csv_body(text)
    assert header[0] == "t" and "Re_q_1" in header
    assert len(rows) == 101
    # q columns affine in t
    ts = np.array([float(r[0]) for r in rows])
    q1 = np.array([float(r[header.index("Re_q_1")]) for r in rows])
    assert np.abs(q1 - (1.0 + 2.0 * ts)).max() < 1e-9
    assert float(footer(text, "energy_drift")) <= 1e-12
    assert footer(text, "config_hash") is not None
    assert footer(text, "spincm_version") is not None


def test_simulate_energy_drift_footer(tmp_path):
    out = tmp_path / "r.csv"
    assert run(tmp_path, "simulate", "--preset", "rational-sl2",
               "--out", str(out)) == 0
    assert float(footer(read(out), "energy_drift")) <= 1e-9


def test_simulate_blowup_exit4(tmp_path):
    out = tmp_path / "c.csv"
    assert run(tmp_path, "simulate", "--preset", "collision-sl2",
               "--out", str(out)) == 4
    text = read(out)
    t_last = float(footer(text, "blowup_at"))
    assert abs(t_last - 2.0 / 3.0) < 1e-2
    _, rows = csv_body(text)
    assert 0 < len(rows) < 101  # partial output


def test_audit_blowup_exit4(tmp_path):
    """audit exits 4 on an oracle blow-up, like simulate and compare, and
    still writes its JSON, flagged, with drifts up to the last good time."""
    for name in ("collision-sl2", "trig-sl2-breakdown"):
        out = tmp_path / f"{name}.json"
        assert run(tmp_path, "audit", "--preset", name, "--out", str(out)) == 4
        d = json.loads(read(out))
        assert d["blowup"] is True
        assert {"energy_drift", "momentum_drift", "eig_drift"} <= d.keys()


def test_exact_exit_codes(tmp_path):
    out = tmp_path / "e.csv"
    fac = tmp_path / "f.json"
    assert run(tmp_path, "exact", "--preset", "rational-sl2", "--out", str(out),
               "--dump-factors", str(fac)) == 0
    d = json.loads(read(fac))
    assert set(d) >= {"times", "g", "d", "h", "k"}
    assert run(tmp_path, "exact", "--preset", "elliptic-sl2",
               "--out", str(tmp_path / "x.csv")) == 5
    out2 = tmp_path / "brk.csv"
    assert run(tmp_path, "exact", "--preset", "collision-sl2",
               "--out", str(out2)) == 3
    text = read(out2)
    assert abs(float(footer(text, "breakdown_at")) - 2.0 / 3.0) <= 1e-3
    _, rows = csv_body(text)
    assert len(rows) > 0


def test_exact_reduced_breakdown_dumps_no_factors(tmp_path):
    """A reduced point has no factorization to dump, also when it breaks down."""
    model = {"N": 2, "family": "rational",
             "root_subset": {"kind": "delta", "members": [[1, 2], [2, 1]]}}
    init = {"q": [[1, 0], [-1, 0]], "p": [[-1, 0], [1, 0]],
            "s": [[0, 0], [1, 0], [1, 0], [0, 0]]}
    mfile, ifile = tmp_path / "m.json", tmp_path / "i.json"
    mfile.write_text(json.dumps(model))
    ifile.write_text(json.dumps(init))
    out, fac = tmp_path / "r.csv", tmp_path / "f.json"
    assert run(tmp_path, "exact", "--model", str(mfile), "--init", str(ifile),
               "--out", str(out), "--dump-factors", str(fac)) == 3
    assert footer(read(out), "breakdown_at") is not None
    assert len(csv_body(read(out))[1]) > 0
    assert not fac.exists()


def test_exact_trig_breakdown(tmp_path):
    assert run(tmp_path, "exact", "--preset", "trig-sl2-breakdown",
               "--out", str(tmp_path / "tb.csv")) == 3


@pytest.mark.parametrize("t_end", ["4", "6"])
def test_exact_own_check_failure_is_breakdown(tmp_path, capsys, t_end):
    """trig-sl2 run to t = 4 or 6: at some output time the solver's own
    output fails a check (q no longer traceless, or the two sign branches of
    p(t) apart by more than P_SIGN_TOL).  exact exits 3 with the rows before
    that output time and one breakdown_at naming it; compare exits 3 with its
    one stderr line."""
    out = tmp_path / "e.csv"
    assert run(tmp_path, "exact", "--preset", "trig-sl2", "--t-end", t_end,
               "--out", str(out)) == 3
    text = read(out)
    assert sum(l.startswith("# breakdown_at:") for l in text.splitlines()) == 1
    at = footer(text, "breakdown_at")
    ts = [float(r[0]) for r in csv_body(text)[1]]
    assert float(at) in np.linspace(0.0, float(t_end), 101)
    assert ts and max(ts) < float(at)
    capsys.readouterr()
    assert run(tmp_path, "compare", "--preset", "trig-sl2", "--t-end", t_end,
               "--out", str(tmp_path / "cmp.json")) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"breakdown_at: {at};" in err


@pytest.mark.parametrize("t_end, codes", [("15", (3,)), ("11.5", (0, 3))])
def test_exact_long_trig_horizon_ends_in_time(tmp_path, t_end, codes):
    """trig-sl2 far past its conditioning limit ends within 30 s wall time
    (3.5 and 4.6 s on one core of a shared 2-core machine) with no
    traceback: its transport stalls near t = 9.85 and ends at the budget of
    steps per output interval, and at 15 the parabolic blocks turn singular
    from t = 14.25.  `--t-end 15` exits 3 with one breakdown_at and the rows
    before it; `--t-end 11.5` exits 0 or 3."""
    out = tmp_path / "long.csv"
    t0 = time.perf_counter()
    code = run(tmp_path, "exact", "--preset", "trig-sl2", "--t-end", t_end,
               "--out", str(out))
    assert time.perf_counter() - t0 <= 30.0
    assert code in codes
    text = read(out)
    at = [l for l in text.splitlines() if l.startswith("# breakdown_at:")]
    assert len(at) == (code == 3)
    ts = [float(r[0]) for r in csv_body(text)[1]]
    assert ts and (code == 0 or max(ts) < float(footer(text, "breakdown_at")))


def test_scipy_is_imported_by_the_trigonometric_expm_only(tmp_path):
    """A fresh process that imports spincm, runs simulate, audit and curve,
    then a rational exact and compare, loads no scipy module; its first
    trigonometric exact solve loads scipy.linalg (for ``expm``)."""
    script = textwrap.dedent("""
        import sys
        import spincm, spincm.cli
        runs = [(cmd, "elliptic-sl2") for cmd in ("simulate", "audit", "curve")]
        runs += [(cmd, "rational-sl2") for cmd in ("exact", "compare")]
        for cmd, preset in runs:
            assert spincm.cli.main([cmd, "--preset", preset, "--out",
                                    f"{sys.argv[1]}/{cmd}.out"]) == 0
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        assert spincm.cli.main(["exact", "--preset", "trig-sl2", "--out",
                                f"{sys.argv[1]}/trig.csv"]) == 0
        print("scipy.linalg" in sys.modules)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_exact_honours_tol(tmp_path):
    """exact integrates its transport at --tol: a looser tolerance takes fewer
    f-evaluations, and one outside [1e-13, 1e-3] is a validation error."""
    nfev = {}
    for tol in ("1e-6", "1e-12"):
        fac = tmp_path / f"f{tol}.json"
        assert run(tmp_path, "exact", "--preset", "rational-sl3-full", "--tol", tol,
                   "--samples", "3", "--out", str(tmp_path / "e.csv"),
                   "--dump-factors", str(fac)) == 0
        nfev[tol] = json.loads(read(fac))["diagnostics"]["nfev"]
    assert nfev["1e-6"] < nfev["1e-12"]
    assert run(tmp_path, "exact", "--preset", "rational-sl2", "--tol", "1e-2",
               "--out", str(tmp_path / "x.csv")) == 2


def test_compare(tmp_path):
    out = tmp_path / "cmp.json"
    assert run(tmp_path, "compare", "--preset", "rational-sl2",
               "--threshold", "1e-6", "--out", str(out)) == 0
    d = json.loads(read(out))
    assert d["pass"] and d["sup_q"] <= 1e-6 and d["sup_xi"] <= 1e-6
    assert run(tmp_path, "compare", "--preset", "trig-sl3",
               "--threshold", "1e-5", "--out", str(tmp_path / "c2.json")) == 0
    assert run(tmp_path, "compare", "--preset", "reduced-rational-sl2",
               "--threshold", "1e-6", "--out", str(tmp_path / "c3.json")) == 0
    # free flight: gaps at rounding level
    assert run(tmp_path, "compare", "--preset", "free-flight",
               "--threshold", "1e-12", "--out", str(tmp_path / "c4.json")) == 0


def test_compare_blowup_exit4_names_blowup_at(tmp_path, capsys):
    """compare on an oracle blow-up exits 4, writes no report and names the
    oracle's blowup_at, the one of simulate, on one stderr line."""
    sim = tmp_path / "sim.csv"
    assert run(tmp_path, "simulate", "--preset", "collision-sl2", "--out", str(sim)) == 4
    capsys.readouterr()
    out = tmp_path / "cmp.json"
    assert run(tmp_path, "compare", "--preset", "collision-sl2", "--out", str(out)) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no report written" in err
    assert f"blowup_at: {footer(read(sim), 'blowup_at')};" in err


def test_compare_breakdown_exit3_names_breakdown_at(tmp_path, capsys, monkeypatch):
    """compare on a breakdown of the exact solver where the oracle runs
    through exits 3, writes no report and names the breakdown_at on one
    stderr line.  An eigen-gap floor above every gap of rational-sl2 stalls
    its transport at t = 0."""
    from spincm import exact
    monkeypatch.setattr(exact, "GAP_COLLIDE", 1e3)
    out = tmp_path / "cmp.json"
    assert run(tmp_path, "compare", "--preset", "rational-sl2", "--out", str(out)) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no report written" in err
    assert "breakdown_at: 0.0;" in err


def test_audit_reports(tmp_path):
    out = tmp_path / "a.json"
    assert run(tmp_path, "audit", "--preset", "free-flight",
               "--out", str(out)) == 0
    d = json.loads(read(out))
    assert d["energy_drift"] <= 1e-12
    assert d["momentum_drift"] <= 1e-12
    assert d["eig_drift"] <= 1e-12


def test_simulate_drifts_are_audits(tmp_path):
    """simulate's drift footers are audit's energy and momentum drifts."""
    csv, js = tmp_path / "s.csv", tmp_path / "a.json"
    assert run(tmp_path, "simulate", "--preset", "trig-sl3", "--out", str(csv)) == 0
    assert run(tmp_path, "audit", "--preset", "trig-sl3", "--out", str(js)) == 0
    text, d = read(csv), json.loads(read(js))
    for key in ("energy_drift", "momentum_drift"):
        assert float(footer(text, key)) == d[key], key


def test_curve_reports(tmp_path):
    out = tmp_path / "curve.json"
    assert run(tmp_path, "curve", "--preset", "elliptic-sl2",
               "--out", str(out)) == 0
    d = json.loads(read(out))
    assert d["N"] == 2 and d["B"] == 6 and d["genus"] == 2
    assert d["ga1"] and d["ga2"]
    assert abs(d["ga2_min_abs"] - 2 ** 0.5) < 1e-12
    out2 = tmp_path / "curven.json"
    assert run(tmp_path, "curve", "--preset", "nilpotent-xi-sl2",
               "--out", str(out2)) == 0
    d2 = json.loads(read(out2))
    assert d2["ga2"] is False and d2["genus"] is None


def test_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(tmp_path, "simulate", "--preset", "rational-sl3", "--seed", "7",
        "--out", str(a))
    run(tmp_path, "simulate", "--preset", "rational-sl3", "--seed", "7",
        "--out", str(b))
    assert read(a) == read(b)


def test_curve_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(tmp_path, "curve", "--preset", "elliptic-sl3", "--out", str(a)) == 0
    assert run(tmp_path, "curve", "--preset", "elliptic-sl3", "--out", str(b)) == 0
    assert read(a) == read(b)


def test_model_and_init_files(tmp_path):
    model = {"N": 2, "family": "rational",
             "root_subset": {"kind": "delta", "members": [[1, 2], [2, 1]]}}
    init = {"q": [[1, 0], [-1, 0]], "p": [[2, 0], [-2, 0]],
            "xi": [[0, 0], [1, 0], [1, 0], [0, 0]]}
    mfile, ifile = tmp_path / "m.json", tmp_path / "i.json"
    mfile.write_text(json.dumps(model))
    ifile.write_text(json.dumps(init))
    out = tmp_path / "t.csv"
    assert run(tmp_path, "simulate", "--model", str(mfile), "--init", str(ifile),
               "--t-end", "0.5", "--samples", "11", "--out", str(out)) == 0
    _, rows = csv_body(read(out))
    assert len(rows) == 11


def test_validation_exit2(tmp_path, capsys, monkeypatch):
    assert run(tmp_path, "simulate", "--preset", "no-such-preset") == 2
    assert run(tmp_path, "simulate") == 2  # neither preset nor model/init
    assert run(tmp_path, "curve", "--preset", "rational-sl2") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(tmp_path, "simulate", "--model", str(bad),
               "--init", str(bad)) == 2
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "N": 2, "family": "rational",
        "root_subset": {"kind": "delta", "members": [[1, 2], [2, 1]]}}))
    no_q = tmp_path / "no_q.json"
    no_q.write_text(json.dumps({"p": [[2, 0], [-2, 0]],
                                "xi": [[0, 0], [0, 0], [0, 0], [0, 0]]}))
    assert run(tmp_path, "simulate", "--model", str(model),
               "--init", str(no_q)) == 2
    capsys.readouterr()
    # malformed or out-of-domain outside input: exit 2 with one error line,
    # before any integration runs
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"q": [1, -1], "p": [2, -2], "xi": [0, 0, 0, 0]}))
    bad_n = tmp_path / "bad_n.json"
    bad_n.write_text(json.dumps({
        "N": "two", "family": "rational",
        "root_subset": {"kind": "delta", "members": [[1, 2], [2, 1]]}}))
    ok_init = tmp_path / "ok.json"
    ok_init.write_text(json.dumps({"q": [[1, 0], [-1, 0]], "p": [[2, 0], [-2, 0]],
                                   "xi": [[0, 0], [1, 0], [1, 0], [0, 0]]}))
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({"q": [[0, 0], [0, 0]], "p": [[2, 0], [-2, 0]],
                                    "xi": [[0, 0], [1, 0], [1, 0], [0, 0]]}))
    off_j = tmp_path / "off_j.json"
    off_j.write_text(json.dumps({"q": [[1, 0], [-1, 0]], "p": [[2, 0], [-2, 0]],
                                 "xi": [[1, 0], [1, 0], [1, 0], [-1, 0]]}))
    (tmp_path / "soon.json").write_text(json.dumps({
        "model": json.loads(model.read_text()), "init": json.loads(ok_init.read_text()),
        "defaults": {"t_end": "soon"}}))
    (tmp_path / "frac.json").write_text(json.dumps({
        "model": json.loads(model.read_text()), "init": json.loads(ok_init.read_text()),
        "defaults": {"samples": 2.5}}))
    # fractional or boolean numbers in a model are not truncated to integers
    frac_models = []
    for name, d in (("n_frac", {"N": 2.7, "family": "rational", "root_subset": {
                        "kind": "delta", "members": [[1, 2], [2, 1]]}}),
                    ("delta_frac", {"N": 2, "family": "rational", "root_subset": {
                        "kind": "delta", "members": [[1.5, 2], [2, 1.9]]}}),
                    ("pi_bool", {"N": 2, "family": "trigonometric", "root_subset": {
                        "kind": "pi", "members": [True]}})):
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
        frac_models.append(str(tmp_path / f"{name}.json"))
    monkeypatch.setenv("SPINCM_PRESET_DIR", str(tmp_path))
    out = tmp_path / "never.csv"
    for argv in (
            ("audit", "--preset", "rational-sl2", "--z-samples", "foo"),
            *((cmd, "--preset", "rational-sl2", "--t-end", t_end, "--out", str(out))
              for cmd in ("simulate", "exact", "compare", "audit")
              for t_end in ("nan", "inf")),
            ("compare", "--preset", "rational-sl2", "--threshold", "nan",
             "--out", str(out)),
            ("simulate", "--preset", "soon", "--out", str(out)),
            ("simulate", "--preset", "frac", "--out", str(out)),
            ("simulate", "--preset", "rational-sl2", "--z-samples", "0",
             "--out", str(out)),
            # non-finite z-samples, refused before the integration
            *(("audit", "--preset", name, "--z-samples", z, "--out", str(out))
              for name, z in (("rational-sl2", "nan"), ("rational-sl2", "inf"),
                              ("trig-sl3", "1+infj"), ("elliptic-sl2", "nan"))),
            ("simulate", "--model", str(model), "--init", str(bare)),
            ("simulate", "--model", str(bad_n), "--init", str(ok_init)),
            ("simulate", "--model", str(model), "--init", str(singular)),
            ("exact", "--model", str(model), "--init", str(off_j)),
            ("compare", "--model", str(model), "--init", str(off_j)),
            *(("compare", "--model", m, "--init", str(ok_init), "--out", str(out))
              for m in frac_models),
            ("simulate", "--preset", "rational-sl3", "--seed", "-1", "--out", str(out)),
            *(("exact", "--preset", "rational-sl2", f"--samples={n}",
               "--out", str(out)) for n in (-3, 1))):
        assert run(tmp_path, *argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        if any(a.startswith("--samples=") for a in argv):
            assert err == ["error: samples must be >= 2"], (argv, err)
    assert not out.exists()


def test_compare_threshold_failure_exit1(tmp_path):
    out = tmp_path / "cmp.json"
    assert run(tmp_path, "compare", "--preset", "rational-sl2",
               "--threshold", "1e-30", "--out", str(out)) == 1
    d = json.loads(read(out))
    assert d["pass"] is False and d["threshold"] == 1e-30


def test_z_samples_flag(tmp_path):
    out = tmp_path / "az.json"
    assert run(tmp_path, "audit", "--preset", "rational-sl2",
               "--z-samples", "0.5,1.2j,0.3+0.4j", "--out", str(out)) == 0
    d = json.loads(read(out))
    assert d["z_samples"] == [[0.5, 0.0], [0.0, 1.2], [0.3, 0.4]]


def test_z_samples_value_may_start_with_minus(tmp_path, capsys):
    """`--z-samples VALUE` parses as `--z-samples=VALUE`, also for a value
    that argparse would otherwise read as an option."""
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert run(tmp_path, "audit", "--preset", "trig-sl3", "--z-samples", "-0.5+1j",
               "--out", str(spaced)) == 0
    assert run(tmp_path, "audit", "--preset", "trig-sl3", "--z-samples=-0.5+1j",
               "--out", str(joined)) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert json.loads(read(joined))["z_samples"] == [[-0.5, 1.0]]
    capsys.readouterr()
    assert run(tmp_path, "audit", "--preset", "trig-sl3", "--z-samples", "-inf") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_preset_dir_env(tmp_path, monkeypatch, capsys):
    preset = {
        "model": {"N": 2, "family": "rational",
                  "root_subset": {"kind": "delta", "members": [[1, 2], [2, 1]]}},
        "init": {"q": [[1, 0], [-1, 0]], "p": [[2, 0], [-2, 0]],
                 "xi": [[0, 0], [0, 0], [0, 0], [0, 0]]},
        "defaults": {"t_end": 0.25, "samples": 6, "tol": 1e-9},
    }
    (tmp_path / "custom.json").write_text(json.dumps(preset))
    monkeypatch.setenv("SPINCM_PRESET_DIR", str(tmp_path))
    out = tmp_path / "c.csv"
    assert run(tmp_path, "simulate", "--preset", "custom", "--out", str(out)) == 0
    _, rows = csv_body(read(out))
    assert len(rows) == 6 and abs(float(rows[-1][0]) - 0.25) < 1e-12
    # preset z-samples are checked like --z-samples, before any integration:
    # a Lax pole, a malformed pair, an empty list and a non-finite sample
    # give exit 2, one error line and no output
    capsys.readouterr()
    for zs in ([[0, 0]], [[0.5]], [], [[float("nan"), 0]], [[float("inf"), 0]]):
        preset["defaults"]["z_samples"] = zs
        (tmp_path / "bad-z.json").write_text(json.dumps(preset))
        for cmd in ("simulate", "audit"):
            out = tmp_path / f"bad-z.{cmd}"
            assert run(tmp_path, cmd, "--preset", "bad-z", "--out", str(out)) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), (zs, cmd, err)
            assert not out.exists()
