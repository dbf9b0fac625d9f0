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
from spincm.models import reduce_point
from spincm.presets import load_preset


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


@pytest.mark.parametrize("cmd", ["simulate", "exact"])
def test_short_horizon_runs_to_the_end(tmp_path, cmd):
    """rational-sl2 at --t-end 1e-15, its 101 samples 1e-17 apart: exit 0
    and every row written."""
    out = tmp_path / f"{cmd}.csv"
    assert run(tmp_path, cmd, "--preset", "rational-sl2", "--t-end", "1e-15",
               "--out", str(out)) == 0
    assert len(csv_body(read(out))[1]) == 101


def test_coarse_grid_regular_run_is_no_stall(tmp_path):
    """elliptic-sl2 to t = 20 and 70 on two samples: one output interval of
    about 1,560 and 5,430 accepted steps on a regular trajectory, which no
    step budget ends, so exit 0 and both rows written, not a blow-up."""
    out = tmp_path / "e.csv"
    for t_end in ("20", "70"):
        assert run(tmp_path, "simulate", "--preset", "elliptic-sl2", "--t-end",
                   t_end, "--samples", "2", "--out", str(out)) == 0
        assert footer(read(out), "blowup_at") is None
        assert len(csv_body(read(out))[1]) == 2


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
    output fails a check (q no longer traceless, or xi(t) off J^-1(0) by
    more than MOMENTUM_TOL).  exact exits 3 with the rows before
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


@pytest.mark.parametrize("argv, cause", [
    (("--preset", "collision-sl2"), "eigenvalue collision"),
    (("--preset", "trig-sl2", "--t-end", "4"), "fails its check")])
def test_breakdown_names_its_cause(tmp_path, capsys, argv, cause):
    """On exit 3 exact writes the breakdown's message as its one stderr
    line; compare, where its oracle reaches the end (trig-sl2; on
    collision-sl2 the oracle blows up first), appends it to its one line
    after breakdown_at."""
    out = tmp_path / "e.csv"
    capsys.readouterr()
    assert run(tmp_path, "exact", *argv, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and cause in err
    code = run(tmp_path, "compare", *argv, "--out", str(tmp_path / "c.json"))
    assert code == (4 if "collision-sl2" in argv else 3)
    if code == 3:
        at = footer(read(out), "breakdown_at")
        assert capsys.readouterr().err == (
            f"compare: factorization breakdown, breakdown_at: {at}; "
            f"{err.strip()}; no report written\n")


@pytest.mark.parametrize("t_end, codes", [("15", (3,)), ("11.5", (3,))])
def test_exact_long_trig_horizon_ends_in_time(tmp_path, t_end, codes):
    """trig-sl2 far past its conditioning limit: the first row that fails its
    check (J^-1(0) at t = 3.9 of --t-end 15, q's trace at 3.91 of 11.5) ends
    the transport by the next in-run check, so exit 3 with one breakdown_at
    and the 26 and 34 rows before it, after at most 5,000 f-evaluations
    (1,399 and 1,461) and within 30 s wall time."""
    at, rows = {"15": (3.9, 26), "11.5": (3.91, 34)}[t_end]
    out = tmp_path / "long.csv"
    t0 = time.perf_counter()
    code = run(tmp_path, "exact", "--preset", "trig-sl2", "--t-end", t_end,
               "--out", str(out))
    assert time.perf_counter() - t0 <= 30.0
    assert code in codes
    text = read(out)
    assert [l for l in text.splitlines() if l.startswith("# breakdown_at:")] == [
        f"# breakdown_at: {at!r}"]
    ts = [float(r[0]) for r in csv_body(text)[1]]
    assert len(ts) == rows and max(ts) < at
    assert int(footer(text, "nfev")) <= 5000


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


def test_elliptic_audit_energy_within_bound(tmp_path):
    """audit --preset elliptic-sl2 at its defaults: most of its 101 samples
    come from the dense output, each checked by its defect, and the energy
    drift stays within 1e-8 (4.4e-9; with each defect measured but none
    failing its sample, 1.2e-8)."""
    out = tmp_path / "a.json"
    assert run(tmp_path, "audit", "--preset", "elliptic-sl2", "--out", str(out)) == 0
    assert json.loads(read(out))["energy_drift"] <= 1e-8


@pytest.mark.parametrize("preset", ["rational-sl2", "collision-sl2"])
def test_step_count_footers(tmp_path, preset):
    """simulate writes the oracle's nfev, nsteps and nrejected after its
    drift lines; exact writes its transport's nfev, nrejected, min_gap and
    eig_residual, also when it ends in a breakdown (collision-sl2).  Each
    reads back equal to the trajectory's stats."""
    from spincm.errors import BreakdownError
    from spincm.presets import load_preset
    from spincm.rk import integrate
    from spincm.solver_rational import solve_rational
    data = load_preset(preset)
    spec, pt, d = data["model"], data["init"], data["defaults"]
    sim, ex = tmp_path / "s.csv", tmp_path / "e.csv"
    run(tmp_path, "simulate", "--preset", preset, "--out", str(sim))
    run(tmp_path, "exact", "--preset", preset, "--out", str(ex))
    def trailer(text):  # the keys of the '#' lines after the last row
        lines = text.splitlines()
        last = max(i for i, l in enumerate(lines) if not l.startswith("#"))
        return [l[2:].split(":")[0] for l in lines[last + 1:]]

    broke = preset == "collision-sl2"
    text = read(sim)
    assert trailer(text) == ["energy_drift", "momentum_drift", "nfev", "nsteps",
                             "nrejected"] + ["blowup_at"] * broke
    stats = integrate(spec, pt, d["t_end"], samples=d["samples"], tol=d["tol"]).stats
    for key in ("nfev", "nsteps", "nrejected"):
        assert int(footer(text, key)) == stats[key], key
    try:
        traj = solve_rational(spec, pt, np.linspace(0, d["t_end"], d["samples"]),
                              d["tol"])[0]
    except BreakdownError as exc:
        traj = exc.partial
    text = read(ex)
    assert trailer(text) == ["nfev", "nrejected", "min_gap",
                             "eig_residual"] + ["breakdown_at"] * broke
    for key in ("nfev", "nrejected", "min_gap", "eig_residual"):
        assert float(footer(text, key)) == traj.stats[key], key


@pytest.mark.parametrize("cmd", ["simulate", "exact", "compare", "audit"])
def test_non_finite_point_exit2(tmp_path, capsys, cmd):
    """An --init point with a NaN in q or an infinite xi entry is refused
    with exit 2 and one error line naming the field, before any
    integration, by every command that integrates."""
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "N": 2, "family": "rational",
        "root_subset": {"kind": "delta", "members": [[1, 2], [2, 1]]}}))
    out = tmp_path / "never.out"
    for field, init in (
            ("q", {"q": [[float("nan"), 0], [0, 0]], "p": [[2, 0], [-2, 0]],
                   "xi": [[0, 0], [1, 0], [1, 0], [0, 0]]}),
            ("xi", {"q": [[1, 0], [-1, 0]], "p": [[2, 0], [-2, 0]],
                    "xi": [[0, 0], [float("inf"), 0], [1, 0], [0, 0]]})):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(init))
        assert run(tmp_path, cmd, "--model", str(model), "--init", str(path),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {field} must be finite"], err
    assert not out.exists()


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


def test_curve_on_a_reduced_point(tmp_path):
    # a reduced point is counted at its lift xi := s, the same curve as xi's
    d = load_preset("elliptic-sl2")
    model, init = tmp_path / "model.json", tmp_path / "init.json"
    model.write_text(json.dumps(d["model"].to_json_dict()))
    init.write_text(json.dumps(reduce_point(d["model"].ctx, d["init"]).to_json_dict()))
    out = tmp_path / "curve.json"
    assert run(tmp_path, "curve", "--model", str(model), "--init", str(init),
               "--out", str(out)) == 0
    rep = json.loads(read(out))
    assert (rep["B"], rep["genus"]) == (6, 2)


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
            ("curve", "--preset", "rational-sl2", "--out", str(out)),
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


@pytest.mark.parametrize("family", ["rational", "elliptic"])
def test_model_and_point_of_different_n_exit2(tmp_path, monkeypatch, capsys, family):
    """A model and an initial point of different N are refused with exit 2
    and one error line by all five commands, in both directions and from
    --model/--init as from a SPINCM_PRESET_DIR preset."""
    dicts = {}
    for N in (2, 3):
        d = load_preset(f"{family}-sl{N}")
        dicts[N] = d["model"].to_json_dict(), d["init"].to_json_dict()
        (tmp_path / f"model{N}.json").write_text(json.dumps(dicts[N][0]))
        (tmp_path / f"init{N}.json").write_text(json.dumps(dicts[N][1]))
    monkeypatch.setenv("SPINCM_PRESET_DIR", str(tmp_path))
    out = tmp_path / "never.out"
    for m, n in ((2, 3), (3, 2)):
        (tmp_path / f"mixed{m}{n}.json").write_text(json.dumps(
            {"model": dicts[m][0], "init": dicts[n][1]}))
        for cmd in ("simulate", "exact", "compare", "audit", "curve"):
            for source in (("--model", str(tmp_path / f"model{m}.json"),
                            "--init", str(tmp_path / f"init{n}.json")),
                           ("--preset", f"mixed{m}{n}")):
                assert run(tmp_path, cmd, *source, "--out", str(out)) == 2
                err = capsys.readouterr().err.splitlines()
                assert err == [f"error: initial point has N = {n}, "
                               f"the model has N = {m}"], (cmd, source, err)
    assert not out.exists()


_MODEL_SL2 = {"N": 2, "family": "rational",
              "root_subset": {"kind": "delta", "members": [[1, 2], [2, 1]]}}
_INIT_SL2 = {"q": [[1, 0], [-1, 0]], "p": [[2, 0], [-2, 0]],
             "xi": [[0, 0], [1, 0], [1, 0], [0, 0]]}


_PRESET = "a whole preset"


@pytest.mark.parametrize("argv, model, init, code, err", [
    (("simulate",), _MODEL_SL2, {"q": _INIT_SL2["q"], "p": _INIT_SL2["p"]}, 2,
     "error: initial point JSON needs an 'xi' or 's' field"),
    (("simulate",), _MODEL_SL2, {**_INIT_SL2, "xi": _INIT_SL2["xi"][:3]}, 2,
     "error: xi must have 4 entries, got 3"),
    (("simulate",), {**_MODEL_SL2, "root_subset": {
        "kind": "delta", "members": [[1, 3], [3, 1]]}}, _INIT_SL2, 2,
     "error: root pair (1, 3) out of range for N=2"),
    (("simulate",), {**_MODEL_SL2, "N": 3, "root_subset": {
        "kind": "delta", "members": [[1, 2]]}}, _INIT_SL2, 2,
     "error: Delta' not symmetric: (1,2) present but (2,1) missing"),
    (("simulate",), {**_MODEL_SL2, "N": 3, "root_subset": {
        "kind": "delta", "members": [[1, 2], [2, 1], [2, 3], [3, 2]]}}, _INIT_SL2, 2,
     "error: Delta' not closed: partition ((1, 2, 3),) requires (1, 3)"),
    (("simulate",), {"N": 3, "family": "trigonometric", "root_subset": {
        "kind": "pi", "members": [3]}}, _INIT_SL2, 2,
     "error: simple-root index 3 out of range for N=3"),
    (("simulate",), {**_MODEL_SL2, "root_subset": {"kind": "gamma", "members": []}},
     _INIT_SL2, 2, "error: unknown root-subset kind 'gamma'"),
    (("simulate",), {**_MODEL_SL2, "family": "hyperbolic"}, _INIT_SL2, 2,
     "error: unknown family 'hyperbolic'"),
    (("compare", "--preset", "elliptic-sl2"), None, None, 5,
     "compare requires a family with an exact solver"),
    (("simulate", "--preset", "rational-sl2"), None, None, 0, None),
    (("compare", "--preset", "rational-sl2"), None, None, 0, None),
    (("simulate", "--preset", "listed-defaults"),
     {"model": _MODEL_SL2, "init": _INIT_SL2, "defaults": [1, 2]}, _PRESET, 2,
     "error: preset JSON's 'defaults' must be an object"),
    *((("simulate", "--preset", "not-an-object"), top, _PRESET, 2,
       "error: preset JSON must be an object")
      for top in (5, None, True, "model init")),
], ids=["no-xi-or-s", "xi-entry-count", "root-pair-range", "root-pair-asymmetric",
        "root-subset-not-closed", "simple-root-range", "root-subset-kind",
        "family", "compare-elliptic", "simulate-stdout", "compare-stdout",
        "preset-defaults-not-object", "preset-number", "preset-null",
        "preset-bool", "preset-string"])
def test_command_outcome(tmp_path, monkeypatch, capsys, argv, model, init, code,
                         err):
    """The exit code and the one stderr line of a command with no --out; an
    exit-0 run writes its artifact to stdout, the bytes that --out writes.
    A refused root subset is named by the model JSON's own 1-based indices.
    With `init` _PRESET, `model` is the JSON of a whole SPINCM_PRESET_DIR
    preset, named by the last argument; a preset file must hold a JSON
    object."""
    argv = list(argv)
    monkeypatch.setenv("SPINCM_PRESET_DIR", str(tmp_path))
    if init is _PRESET:
        (tmp_path / f"{argv[-1]}.json").write_text(json.dumps(model))
    elif model is not None:
        for name, d in (("model", model), ("init", init)):
            (tmp_path / f"{name}.json").write_text(json.dumps(d))
            argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert run(tmp_path, *argv) == code
    cap = capsys.readouterr()
    if err is not None:
        assert (cap.out, cap.err.splitlines()) == ("", [err])
        return
    out = tmp_path / "out"
    assert run(tmp_path, *argv, "--out", str(out)) == code
    assert cap.err == "" and cap.out == out.read_text()
