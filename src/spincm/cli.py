"""Batch front door: simulate / exact / compare / audit / curve commands.

Exit codes: 0 success, 1 `compare` threshold failed (report still written,
with "pass": false), 2 validation error (malformed or out-of-domain input,
found before any integration), 3 factorization breakdown: an eigenvalue
collision, or the exact solver's own output failing a check (`exact`: partial
CSV still written, and the breakdown's message on one stderr line), 4 oracle
blow-up (`simulate`: partial CSV still written; `audit`: JSON still written,
with "blowup": true and drifts up to the last good time), 5 requested exact
mode unsupported for the family.  `compare` writes no report on 3 or 4: one
stderr line names the exact solver's breakdown_at and the breakdown's
message, or the oracle's blowup_at.  Outputs embed the config
hash, the library version and the seed; identical configs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (BreakdownError, ValidationError, _finite, _integral,
                     require_keys)
from .models import (PhasePoint, ReducedPoint, _check_momentum_zero,
                     _check_z_regular, check_regular, model_from_json_dict)
from .presets import load_preset, preset_names
from .rk import (audit, conserved, default_z_samples, drift, integrate,
                 trajectory_csv_lines)
from .solver_rational import solve_rational
from .solver_trig import solve_trig
from .spectral import _count_branch_points, genericity_check

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_VALIDATION = 2
EXIT_BREAKDOWN = 3
EXIT_BLOWUP = 4
EXIT_UNSUPPORTED = 5


def _parse_z_samples(text):
    return [complex(tok.strip().replace(" ", "")) for tok in text.split(",") if tok.strip()]


def _checked(what, fn, *args):
    """fn(*args) on outside input: a TypeError or ValueError (DomainError and
    ContractError among them) becomes a ValidationError naming `what`."""
    try:
        return fn(*args)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: {exc}") from exc


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _point_from_json(d):
    if "xi" in d:
        return PhasePoint.from_json_dict(d)
    if "s" in d:
        return ReducedPoint.from_json_dict(d)
    raise ValidationError("initial point JSON needs an 'xi' or 's' field")


def _resolve(args):
    """(spec, pt, params, config_dict) from --preset or --model/--init, with
    the input checked before any integration: the seed against [0, 2^64),
    the JSON records, the point's N against the model's, the run parameters
    (of the command line or the preset) as finite numbers, with `samples` an
    integer >= 2 and stored as an int, the z-samples (of --z-samples or the
    preset) against the Lax poles, q against the singular set and, for
    `exact` and `compare` on a full point, J^-1(0)."""
    if not 0 <= args.seed < 2 ** 64:
        raise ValidationError(f"--seed must be in [0, 2^64), got {args.seed}")
    params = {"t_end": 1.0, "samples": 101, "tol": 1e-10, "threshold": 1e-6}
    if args.preset:
        preset_dir = os.environ.get("SPINCM_PRESET_DIR")
        if preset_dir and os.path.exists(os.path.join(preset_dir, args.preset + ".json")):
            d = _load_json(os.path.join(preset_dir, args.preset + ".json"))
            if not isinstance(d, dict):
                raise ValidationError("preset JSON must be an object")
            require_keys(d, ("model", "init"), "preset")
            spec = _checked("preset model", model_from_json_dict, d["model"])
            pt = _checked("preset init", _point_from_json, d["init"])
            defaults = d.get("defaults", {})
            if not isinstance(defaults, dict):
                raise ValidationError("preset JSON's 'defaults' must be an object")
            params.update(defaults)
        else:
            data = load_preset(args.preset, seed=args.seed)
            spec = data["model"]
            pt = data["init"]
            params.update(data["defaults"])
    else:
        if not args.model or not args.init:
            raise ValidationError("need either --preset or both --model and --init")
        spec = _checked("model JSON", model_from_json_dict, _load_json(args.model))
        pt = _checked("init JSON", _point_from_json, _load_json(args.init))
    if pt.q.size != spec.ctx.N:
        raise ValidationError(f"initial point has N = {pt.q.size}, "
                              f"the model has N = {spec.ctx.N}")
    for name in ("t_end", "samples", "tol", "threshold"):
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
        params[name] = _checked(
            name, _integral if name == "samples" else _finite, params[name])
    if params["samples"] < 2:
        raise ValidationError("samples must be >= 2")
    if args.z_samples:
        zs = _checked("--z-samples", _parse_z_samples, args.z_samples)
        params["z_samples"] = [[z.real, z.imag] for z in zs]
    if "z_samples" in params:
        what = "--z-samples" if args.z_samples else "preset z_samples"
        zs = _checked(what, _z_list, spec, params)
        _checked(what, _check_z_regular, spec, zs)
    _checked("initial q", check_regular, spec, pt.q)
    if args.command in ("exact", "compare") and spec.family != "elliptic":
        _checked("initial point", _check_momentum_zero, pt.xi)
    init_json = pt.to_json_dict()
    config = {"command": args.command, "model": spec.to_json_dict(),
              "init": init_json, "params": {k: v for k, v in params.items()
                                            if k != "t_star"},
              "seed": args.seed, "preset": args.preset}
    return spec, pt, params, config


def _config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _meta(config):
    return {"spincm_version": __version__, "config_hash": _config_hash(config),
            "seed": config["seed"]}


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(path, obj):
    _write_lines(path, [json.dumps(obj, sort_keys=True, indent=1)])


def _z_list(spec, params):
    """The finite z-samples of params (at least one), else the family's defaults."""
    if "z_samples" not in params:
        return default_z_samples(spec)
    zs = [complex(_finite(a), _finite(b)) for a, b in params["z_samples"]]
    if not zs:
        raise ValueError("no z-sample given")
    return zs


def cmd_simulate(args):
    spec, pt, params, config = _resolve(args)
    traj = integrate(spec, pt, params["t_end"], samples=params["samples"],
                     tol=params["tol"])
    energy, mom = conserved(spec, traj)
    lines = trajectory_csv_lines(traj, _meta(config))
    lines.append(f"# energy_drift: {drift(energy)!r}")
    lines.append(f"# momentum_drift: {drift(mom)!r}")
    lines += [f"# {key}: {traj.stats[key]}" for key in ("nfev", "nsteps", "nrejected")]
    if traj.blowup:
        lines.append(f"# blowup_at: {float(traj.last_good_time)!r}")
    _write_lines(args.out, lines)
    return EXIT_BLOWUP if traj.blowup else EXIT_OK


def _exact(spec, pt, params):
    """(trajectory, factorization or None) of the family's exact solver at
    the error tolerance --tol; a reduced point gives no factorization."""
    times = np.linspace(0.0, params["t_end"], params["samples"])
    solve = {"rational": solve_rational, "trigonometric": solve_trig}[spec.family]
    return solve(spec, pt, times, params["tol"])


def cmd_exact(args):
    spec, pt, params, config = _resolve(args)
    if spec.family == "elliptic":
        sys.stderr.write(
            "exact mode is unsupported for the elliptic family: the explicit "
            "solution runs through Riemann theta functions of a genus-"
            f"{(spec.ctx.N ** 2 - spec.ctx.N + 2) // 2} spectral curve, which "
            "is out of scope; use `simulate` and `curve` instead.\n")
        return EXIT_UNSUPPORTED
    code = EXIT_OK
    try:
        traj, fact = _exact(spec, pt, params)
    except BreakdownError as exc:
        traj, fact = exc.partial, exc.factors
        code = EXIT_BREAKDOWN
        sys.stderr.write(f"{exc}\n")
    lines = trajectory_csv_lines(traj, _meta(config))
    lines += [f"# {key}: {int(traj.stats[key])}" for key in ("nfev", "nrejected")]
    lines += [f"# {key}: {traj.stats[key]!r}" for key in ("min_gap", "eig_residual")]
    if traj.breakdown_time is not None:
        lines.append(f"# breakdown_at: {float(traj.breakdown_time)!r}")
    _write_lines(args.out, lines)
    if args.dump_factors and fact is not None:
        _write_json(args.dump_factors, fact.to_json_dict())
    return code


def cmd_compare(args):
    spec, pt, params, config = _resolve(args)
    if spec.family == "elliptic":
        sys.stderr.write("compare requires a family with an exact solver\n")
        return EXIT_UNSUPPORTED
    traj_o = integrate(spec, pt, params["t_end"], samples=params["samples"],
                       tol=params["tol"])
    if traj_o.blowup:
        sys.stderr.write(f"compare: oracle blow-up, blowup_at: "
                         f"{float(traj_o.last_good_time)!r}; no report written\n")
        return EXIT_BLOWUP
    try:
        traj_e, _fact = _exact(spec, pt, params)
    except BreakdownError as exc:
        sys.stderr.write(f"compare: factorization breakdown, breakdown_at: "
                         f"{float(exc.time)!r}; {exc}; no report written\n")
        return EXIT_BREAKDOWN
    report = {f"sup_{v}": float(np.abs(getattr(traj_e, v) - getattr(traj_o, v)).max())
              for v in ("q", "p", "xi")}
    thr = params["threshold"]
    ok = all(v <= thr for v in report.values())
    report.update({"threshold": thr, "pass": bool(ok)})
    report.update(_meta(config))
    _write_json(args.out, report)
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_audit(args):
    spec, pt, params, config = _resolve(args)
    traj = integrate(spec, pt, params["t_end"], samples=params["samples"],
                     tol=params["tol"])
    rep = audit(spec, traj, _z_list(spec, params))
    report = rep.to_json_dict()
    report["blowup"] = bool(traj.blowup)
    report.update(_meta(config))
    _write_json(args.out, report)
    return EXIT_BLOWUP if traj.blowup else EXIT_OK


def cmd_curve(args):
    spec, pt, params, config = _resolve(args)
    if spec.family != "elliptic":
        raise ValidationError("curve requires the elliptic family")
    rep = genericity_check(spec, pt)
    report = {"N": spec.ctx.N}
    report.update(rep.to_json_dict())
    if rep.ga1_ok and rep.ga2_ok:
        B, genus = _count_branch_points(spec, pt)
        report["B"] = B
        report["genus"] = genus
    else:
        report["B"] = None
        report["genus"] = None
    report.update(_meta(config))
    _write_json(args.out, report)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spincm",
        description="spin Calogero-Moser systems: simulate, solve exactly, audit")
    ap.add_argument("command",
                    choices=["simulate", "exact", "compare", "audit", "curve"])
    ap.add_argument("--model", help="model JSON file")
    ap.add_argument("--init", help="initial point JSON file")
    ap.add_argument("--preset", help=f"named preset; one of {preset_names()}")
    ap.add_argument("--t-end", dest="t_end", type=float, default=None)
    ap.add_argument("--samples", type=int, default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--z-samples", dest="z_samples",
                    help="comma-separated complex numbers, e.g. '0.7,1.3j'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="output path (stdout when omitted)")
    ap.add_argument("--dump-factors", dest="dump_factors",
                    help="write factorization path JSON here (exact only)")
    ap.add_argument("--threshold", type=float, default=None,
                    help="acceptance threshold for compare")
    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # `--z-samples VALUE` as `--z-samples=VALUE`, so that VALUE may be -0.5+1j
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--z-samples":
            argv[i:i + 2] = [f"--z-samples={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    handler = {"simulate": cmd_simulate, "exact": cmd_exact,
               "compare": cmd_compare, "audit": cmd_audit,
               "curve": cmd_curve}[args.command]
    try:
        return handler(args)
    except (ValidationError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
