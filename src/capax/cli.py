"""Command line front end.

Verbs mirror the library: cap, cap0, coeffs, psi, entropy, scale, probe.
Inputs are JSON files (operators as {"n", "m", "kraus"}, exponential-sum
problems as {"u", "d"}); results go to stdout as one line of sorted-key
JSON so repeated runs with the same seed are byte identical. Exit codes:
0 success, 1 domain or input error (error class name on stderr), 2 usage
or configuration error.

A JSON config file (--config) supplies defaults; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .capacity import (
    CapacityConfig,
    cap,
    cap0,
    cap_direct_pd,
    cap_unitary_search,
    cap_via_scaling,
    report_to_dict,
)
from .coeffs import d_cauchy_binet, d_interpolate, d_leibniz
from .cpop import from_json
from .errors import CapaxError, ConfigError
from .expsum import entropy_dual, problem_from_json, psi_minimize, psi_result_to_dict
from .holderlab import export_csv, random_direction, run_probe, scaling_direction

__all__ = ["main"]

_CONFIG_KEYS = {
    "tol",
    "seed",
    "restarts",
    "method",
    "max_steps",
    "residual_tol",
    "scales",
    "direction",
    "theta",
    "check_psi",
    "check_scaling",
    "output",
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(payload) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return payload


def _pick(args: argparse.Namespace, cfg: dict, key: str, default):
    """Flag value if given, else config file value, else the default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _load_operator(path: str):
    return from_json(Path(path).read_text())


def _load_problem(path: str):
    return problem_from_json(Path(path).read_text())


def _parse_floats(text) -> list[float]:
    if isinstance(text, list):
        return [float(v) for v in text]
    try:
        return [float(piece) for piece in str(text).split(",") if piece.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma separated numbers, got {text!r}") from exc


def _cmd_cap(args: argparse.Namespace, cfg: dict) -> dict:
    t = _load_operator(args.operator)
    method = _pick(args, cfg, "method", "direct")
    tol = float(_pick(args, cfg, "tol", 1e-9))
    seed = int(_pick(args, cfg, "seed", 0))
    # the unitary search's starts, for --method psi and --check-psi alike
    restarts = int(_pick(args, cfg, "restarts", CapacityConfig.restarts_unitary))
    if method == "direct":
        check_psi = bool(_pick(args, cfg, "check_psi", False))
        check_scaling = bool(_pick(args, cfg, "check_scaling", False))
        config = CapacityConfig(tol, restarts, seed, check_psi, check_scaling)
        report = cap(t, config)
    elif method == "psi":
        report = cap_unitary_search(t, tol=tol, restarts=restarts, seed=seed)
    elif method == "scaling":
        max_steps = int(_pick(args, cfg, "max_steps", 2000))
        residual_tol = float(_pick(args, cfg, "residual_tol", 1e-8))
        report = cap_via_scaling(t, max_steps=max_steps, residual_tol=residual_tol)
    else:
        raise ConfigError(f"unknown capacity method {method!r}")
    return report_to_dict(report)


def _cmd_cap0(args: argparse.Namespace, cfg: dict) -> dict:
    t = _load_operator(args.operator)
    tol = float(_pick(args, cfg, "tol", 1e-10))
    return report_to_dict(cap0(t, tol=tol))


def _coeff_payload(cv) -> dict:
    return {
        "n": cv.n,
        "m": cv.m,
        "indices": [list(j) for j in cv.indices],
        "d": [float(v) for v in cv.values],
    }


def _cmd_coeffs(args: argparse.Namespace, cfg: dict) -> dict:
    t = _load_operator(args.operator)
    method = _pick(args, cfg, "method", "leibniz")
    output = _pick(args, cfg, "output", None)
    if method == "leibniz":
        cv = d_leibniz(t)
    elif method == "cauchy-binet":
        cv = d_cauchy_binet(t)
    elif method == "interpolate":
        seed = _pick(args, cfg, "seed", None)
        cv = d_interpolate(t) if seed is None else d_interpolate(t, seed=int(seed))
    elif method == "all":
        if output is None:
            raise ConfigError("coeffs --method all needs -o for the CSV output")
        ref = d_leibniz(t)
        cb = d_cauchy_binet(t)
        seed = _pick(args, cfg, "seed", None)
        fit = d_interpolate(t) if seed is None else d_interpolate(t, seed=int(seed))
        ref.to_csv(output)
        return {
            "count": len(ref.values),
            "max_delta_cauchy_binet": float(np.abs(ref.values - cb.values).max(initial=0.0)),
            "max_delta_interpolate": float(np.abs(ref.values - fit.values).max(initial=0.0)),
            "output": str(output),
        }
    else:
        raise ConfigError(f"unknown coefficient method {method!r}")
    if output is not None:
        cv.to_csv(output)
        return {"count": len(cv.values), "output": str(output)}
    return _coeff_payload(cv)


def _cmd_psi(args: argparse.Namespace, cfg: dict) -> dict:
    prob = _load_problem(args.problem)
    tol = float(_pick(args, cfg, "tol", 1e-10))
    return psi_result_to_dict(psi_minimize(prob, tol=tol))


def _cmd_entropy(args: argparse.Namespace, cfg: dict) -> dict:
    prob = _load_problem(args.problem)
    tol = float(_pick(args, cfg, "tol", 1e-8))
    theta_raw = _pick(args, cfg, "theta", None)
    theta = np.zeros(prob.dim) if theta_raw is None else np.array(_parse_floats(theta_raw))
    p, value = entropy_dual(prob, theta, tol=tol)
    return {"p": [float(v) for v in p], "value": float(value)}


def _cmd_scale(args: argparse.Namespace, cfg: dict) -> dict:
    t = _load_operator(args.operator)
    max_steps = int(_pick(args, cfg, "max_steps", 2000))
    residual_tol = float(_pick(args, cfg, "residual_tol", 1e-8))
    return report_to_dict(cap_via_scaling(t, max_steps=max_steps, residual_tol=residual_tol))


def _cmd_probe(args: argparse.Namespace, cfg: dict) -> dict:
    t = _load_operator(args.operator)
    seed = _pick(args, cfg, "seed", None)
    if seed is None:
        raise ConfigError("probe needs --seed (or a seed entry in the config file)")
    direction_kind = _pick(args, cfg, "direction", "random")
    if direction_kind == "random":
        direction = random_direction(t, rng=int(seed))
    elif direction_kind == "scaling":
        direction = scaling_direction(t)
    else:
        raise ConfigError(f"unknown probe direction {direction_kind!r}")
    scales_raw = _pick(args, cfg, "scales", None)
    scales = None if scales_raw is None else _parse_floats(scales_raw)
    tol = float(_pick(args, cfg, "tol", 1e-10))
    run = run_probe(t, direction, scales=scales, config=CapacityConfig(tol=tol))
    output = _pick(args, cfg, "output", None)
    if output is not None:
        export_csv(run, output)
    return {
        "alpha": None if run.fitted_alpha is None else float(run.fitted_alpha),
        "logC": None if run.fitted_logc is None else float(run.fitted_logc),
        "r2": None if run.r_squared is None else float(run.r_squared),
        "samples": int(run.samples.shape[0]),
        "flags": list(run.flags),
        "output": None if output is None else str(output),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capax",
        description="Capacity of completely positive operators and related solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("cap", help="capacity of an operator")
    p_cap.add_argument("operator", help="operator JSON file")
    p_cap.add_argument("--method", choices=["direct", "psi", "scaling"])
    p_cap.add_argument("--tol", type=float)
    p_cap.add_argument("--seed", type=int)
    p_cap.add_argument(
        "--restarts", type=int, help="unitary-search starts (--method psi, --check-psi)"
    )
    p_cap.add_argument("--check-psi", dest="check_psi", action="store_const", const=True)
    p_cap.add_argument(
        "--check-scaling", dest="check_scaling", action="store_const", const=True
    )

    p_cap0 = sub.add_parser("cap0", help="diagonally restricted capacity")
    p_cap0.add_argument("operator")
    p_cap0.add_argument("--tol", type=float)

    p_coeffs = sub.add_parser("coeffs", help="determinant polynomial coefficients")
    p_coeffs.add_argument("operator")
    p_coeffs.add_argument("--method", choices=["leibniz", "cauchy-binet", "interpolate", "all"])
    p_coeffs.add_argument("--seed", type=int)
    p_coeffs.add_argument("-o", "--output")

    p_psi = sub.add_parser("psi", help="infimum of a weighted exponential sum")
    p_psi.add_argument("problem", help="problem JSON file with keys u and d")
    p_psi.add_argument("--tol", type=float)

    p_entropy = sub.add_parser("entropy", help="maximum entropy with a moment constraint")
    p_entropy.add_argument("problem")
    p_entropy.add_argument("--theta", help="comma separated moment target (default zero)")
    p_entropy.add_argument("--tol", type=float)

    p_scale = sub.add_parser("scale", help="capacity by marginal scaling (square case)")
    p_scale.add_argument("operator")
    p_scale.add_argument("--max-steps", dest="max_steps", type=int)
    p_scale.add_argument("--residual-tol", dest="residual_tol", type=float)

    p_probe = sub.add_parser("probe", help="continuity probe around an operator")
    p_probe.add_argument("operator")
    p_probe.add_argument("--seed", type=int)
    p_probe.add_argument("--direction", choices=["random", "scaling"])
    p_probe.add_argument("--scales", help="comma separated perturbation scales")
    p_probe.add_argument("--tol", type=float)
    p_probe.add_argument("-o", "--output")

    for sp in (p_cap, p_cap0, p_coeffs, p_psi, p_entropy, p_scale, p_probe):
        sp.add_argument("--config", help="JSON file with default option values")

    return parser


_DISPATCH = {
    "cap": _cmd_cap,
    "cap0": _cmd_cap0,
    "coeffs": _cmd_coeffs,
    "psi": _cmd_psi,
    "entropy": _cmd_entropy,
    "scale": _cmd_scale,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _load_config(args.config)
        payload = _DISPATCH[args.command](args, cfg)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except CapaxError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
