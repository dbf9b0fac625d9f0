"""Tests of the benchmark's own checks, failure accounting and tracing.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spincm import cli  # noqa: E402

LATTICE = (1.0, 0.35 + 0.8j)


@pytest.fixture
def outdir(request):
    path = BENCH / "_out" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def lattice_sum():
    return checks.LatticeSum(*LATTICE)


def _cli(args, out):
    return cli.main(args + ["--out", str(out)])


def test_lattice_sum_solves_weierstrass_equation(lattice_sum):
    g2, g3 = 60 * lattice_sum.S4, 140 * lattice_sum.S6
    h = 1e-4
    for z in (0.3 + 0.1j, -0.2 + 0.35j, 0.45 - 0.05j):
        wp = lattice_sum.wp(z)
        dwp = (lattice_sum.wp(z + h) - lattice_sum.wp(z - h)) / (2 * h)
        assert abs(dwp**2 - (4 * wp**3 - g2 * wp - g3)) <= 1e-6 * abs(dwp) ** 2
        assert abs(lattice_sum.wp(z + 2 * LATTICE[0]) - wp) <= 1e-9 * abs(wp)


def test_wp_check_passes_and_detects(lattice_sum):
    from spincm.special import EllipticLattice
    lat = EllipticLattice(*LATTICE)
    z = np.array([0.31 + 0.11j, 0.62 + 0.22j, -0.2 + 0.4j])
    assert checks.check_wp(lattice_sum, lat, z) == []
    other = EllipticLattice(1.0, 0.36 + 0.8j)
    assert [t for t, _ in checks.check_wp(lattice_sum, other, z)] == ["wp_lattice_sum"]


def test_free_flight_outputs(outdir):
    assert _cli(["simulate", "--preset", "free-flight"], outdir / "s.csv") == 0
    traj = checks.read_trajectory(outdir / "s.csv")
    assert traj.q.shape == (101, 2) and traj.m.shape == (101, 2, 2)
    assert set(traj.footer) == {"energy_drift", "momentum_drift"}
    assert checks.check_free_flight(traj, [1, -1], [2, -2]) == []
    assert checks.check_free_flight(traj, [1, -1], [2.001, -2.001]) != []
    model = {"family": "rational", "root_subset": {"members": [[1, 2], [2, 1]]}}
    assert abs(checks.hamiltonian(model, traj.q[7], traj.p[7], traj.m[7]) - 4.0) < 1e-12


def test_rational_eigenflow_check_detects_a_wrong_q(outdir):
    assert _cli(["exact", "--preset", "rational-sl3-full"], outdir / "e.csv") == 0
    traj = checks.read_trajectory(outdir / "e.csv")
    model = json.loads(json.dumps(workloads.model_json("rational", 3)))
    assert checks.check_rational_eigenflow(traj, model) == []
    assert checks.check_exact(0, traj, 101) == []
    traj.q[50, 0] += 1e-6
    assert [t for t, _ in checks.check_rational_eigenflow(traj, model)] == ["eigen_q"]


def test_check_compare_and_curve_reports():
    ok = {"sup_q": 1e-12, "sup_p": 1e-12, "sup_xi": 1e-11, "threshold": 1e-6, "pass": True}
    assert checks.check_compare(0, ok, 1e-6) == []
    bad = dict(ok, sup_xi=3.3, **{"pass": False})
    assert {t for t, _ in checks.check_compare(1, bad, 1e-6)} == {"compare_fail", "sup_xi"}
    assert [t for t, _ in checks.check_compare(4, None, 1e-6)] == ["exit"]
    xi = np.array([[0, 1, 0.2], [0.5, 0, 1], [0.3, 0.7, 0]], dtype=complex)
    lam = np.linalg.eigvals(xi)
    gap = min(abs(lam[i] - lam[j]) for i in range(3) for j in range(i + 1, 3))
    rep = {"ga1": True, "ga2": True, "ga2_min_gap": gap, "genus": 4, "B": 12}
    assert checks.check_curve(0, rep, xi) == []
    assert [t for t, _ in checks.check_curve(0, dict(rep, genus=3), xi)] == ["genus"]


def test_classify_known_fault_only_by_its_tags():
    op = workloads.Op("compare:x", [], Path("x"), None, fault="pivot-reanchor")
    assert op.classify([]) == "ok"
    assert op.classify([("compare_fail", ""), ("sup_xi", "")]) == "fault"
    assert op.classify([("compare_fail", ""), ("sup_xi", ""), ("sup_q", "")]) == "wrong"
    plain = workloads.Op("compare:y", [], Path("y"), None)
    assert plain.classify([("sup_xi", "")]) == "wrong"


def test_failed_operations_are_the_known_faults(outdir):
    wl = workloads.build("exact-compare", 7, outdir)
    keep = {"simulate:seeded-rati-n3", "exact:seeded-rati-n3", "compare:seeded-rati-n3",
            "compare:seeded-rati-n4", "compare:seeded-trig-n3"}
    wl.ops = [op for op in wl.ops if op.name in keep]
    wl.warmup = 0
    worker = run.Worker(wl, outdir)
    try:
        reply = worker.round()
        final = worker.stop()
    finally:
        worker.close()
    status = {op.name: s for op, s, _ in run.check_round(wl.ops, reply["codes"], reply["errors"])}
    assert status == {"simulate:seeded-rati-n3": "ok", "exact:seeded-rati-n3": "ok",
                      "compare:seeded-rati-n3": "fault", "compare:seeded-rati-n4": "fault",
                      "compare:seeded-trig-n3": "ok"}
    assert set(reply["cost"]) == keep
    assert run.pass_cost([reply["cost"]], "run_cal") > 0 < run.pass_cost([reply["cost"]], "cpu_cal")
    assert final["peak_rss_mb"] > 0 and worker.proc.returncode == 0


def test_inputs_are_a_function_of_the_seed(outdir):
    def inputs(seed, tag):
        d = outdir / tag
        d.mkdir()
        workloads.build("large-n", seed, d)
        return {p.name: p.read_text() for p in sorted(d.iterdir())}
    a, b, c = inputs(5, "a"), inputs(5, "b"), inputs(6, "c")
    assert a == b
    seeded_inits = {k for k in a if k.startswith("seeded-") and k.endswith(".init.json")}
    assert {k for k in a if a[k] != c[k]} == seeded_inits and len(seeded_inits) == 4


def test_symmetry_image_keeps_the_energy():
    model = workloads.model_json("rational", 4)
    q, p, xi = workloads.regular_point("rational", 4, np.random.default_rng(0))
    q2, p2, xi2 = workloads.symmetry_image(q, p, xi, np.random.default_rng(1), relabel=True)
    assert not np.allclose(xi, xi2)
    assert abs(checks.hamiltonian(model, q, p, xi) - checks.hamiltonian(model, q2, p2, xi2)) < 1e-12


def test_tracer_counts_and_restores(outdir):
    import spincm.rk
    original = spincm.rk.integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _cli(["simulate", "--preset", "nilpotent-xi-sl2"], outdir / "s.csv") == 0
    finally:
        tracer.uninstall()
    tracer.mark_round(0)
    assert spincm.rk.integrate is original and cli.integrate is original
    assert tracer.missing == []
    row = tracer.per_round()[0]
    assert row["cli.jobs"] == 1
    assert row["models.eom_calls"] == row["rk.nfev"] > 0
    assert row["special.calls"] > 0 and row["special.reduce_calls"] > 0
    assert row["cli.write_s"] > 0 and row["rk.integrate_s"] > 0
    assert tracer.self_times().min() >= 0


def test_refuses_to_run_without_the_program(outdir):
    shutil.copytree(BENCH, outdir / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", outdir)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-compare",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=outdir, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
