"""Command-line front end: parse a config, run the pipeline stages, emit files.

Stages (dependency order): threshold -> contraction -> epsilon -> decay.
Outputs under the chosen directory: certificate.json (stable key order),
threshold_trace.csv, monodromy_scan.npz (the contraction scan record, one
array per field), monodromy_scan.csv (its table, one row per xi), decay.csv
and summary.txt.  Runs are deterministic: identical configs produce
byte-identical certificates.

Exit codes: 0 all requested verdicts pass; 2 config error; 3 model-assumption
violation; 4 certificate failure; 5 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import certify, highfreq, monodromy, perturbation
from .coefficients import ModelSpec, PeriodicCoefficient
from .errors import (
    ConfigError,
    FitError,
    FrameError,
    IntegrationFailureError,
    InvalidCoefficientError,
    KgDecayError,
    ModelAssumptionError,
    NoContractionError,
    ThresholdSearchError,
)
from .propagator import DEFAULT_TOL, TOL_MAX, TOL_MIN

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_CERTIFICATE = 4
EXIT_NUMERICAL = 5

# Package errors -> (exit code, message prefix); every error class is listed.
EXIT_CODES = (
    ((ConfigError, InvalidCoefficientError), EXIT_CONFIG, "config error"),
    ((ModelAssumptionError,), EXIT_MODEL, "model assumption violated"),
    ((ThresholdSearchError, NoContractionError), EXIT_CERTIFICATE, "certificate failure"),
    ((IntegrationFailureError, FrameError, FitError), EXIT_NUMERICAL, "numerical failure"),
)

STAGES = ("threshold", "contraction", "epsilon", "decay")
STAGE_DEPS = {
    "threshold": (),
    "contraction": ("threshold",),
    "epsilon": ("threshold", "contraction"),
    "decay": ("contraction",),
}

DEFAULT_GRIDS = {
    "threshold_xi_points": 128,
    "threshold_t_points": 64,
    "verify_t_points": 64,
    "verify_xi_points": 128,
    "contraction_t_points": 64,
    "contraction_xi_points": 256,
    "decay_periods": 40,
    "decay_xi_low_points": 256,
    "decay_xi_high_points": 64,
}

DEFAULT_TOLERANCES = {
    "propagate_tol": DEFAULT_TOL,
    "contraction_margin": monodromy.DEFAULT_CONTRACTION_MARGIN,
}

# Smallest accepted value of each grid setting (1 unless listed).  The decay
# curve must span at least 10 kT, and k >= 1.
GRID_MIN = {"decay_periods": 10}

# The keys each section reads; any other key is a config error, so a typo
# cannot silently fall back to a default.
MODEL_KEYS = ("T", "b", "m0", "epsilon", "m1")
RUN_KEYS = ("stages", "out")


@dataclass
class RunConfig:
    """Validated run configuration."""

    spec: ModelSpec
    stages: tuple
    grids: dict
    tolerances: dict
    out_dir: Path


def parse_coefficient(text: str, T: float) -> PeriodicCoefficient:
    """Parse 'name key=value ...' into a coefficient of period T.

    Known names: constant, sin_offset, triangle, square, custom_csv.
    custom_csv takes path=<file> and optional order=<0|1>; the CSV period must
    match T.
    """
    parts = text.split()
    if not parts:
        raise ConfigError("empty coefficient declaration")
    name, kvs = parts[0], parts[1:]
    params = {}
    for kv in kvs:
        if "=" not in kv:
            raise ConfigError(f"coefficient parameter {kv!r} is not key=value")
        key, val = kv.split("=", 1)
        params[key] = val
    try:
        if name == "custom_csv":
            path = params.pop("path", None)
            if path is None:
                raise ConfigError("custom_csv requires path=<file>")
            order = int(params.pop("order", 1))
            if params:
                raise ConfigError(f"unknown custom_csv parameters: {sorted(params)}")
            coeff = PeriodicCoefficient.from_csv(path, order=order)
            if abs(coeff.period - T) > 1e-9 * T:
                raise ModelAssumptionError(
                    f"CSV period {coeff.period:g} does not match model T = {T:g}"
                )
            return coeff
        values = {k: float(v) for k, v in params.items()}
        if not all(math.isfinite(v) for v in values.values()):
            raise ConfigError(f"coefficient parameters must be finite: {text!r}")
        return PeriodicCoefficient.from_closed_form(name, T, **values)
    except InvalidCoefficientError as exc:
        raise ConfigError(str(exc)) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read coefficient file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad coefficient declaration {text!r}: {exc}") from exc


def _parse_int(name, text, minimum=None):
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{name} = {text!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} = {value} is below the minimum {minimum}")
    return value


def _check_keys(section, name, known):
    """Reject a key the run would not read (configparser lowercases keys)."""
    unknown = sorted(set(section) - {key.lower() for key in known})
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in [{name}]; known: {', '.join(known)}")


def load_config(path, out_override=None, stage_override=None) -> RunConfig:
    """Read and validate an INI-style run configuration."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "model" not in cp:
        raise ConfigError("config is missing the [model] section")
    model = cp["model"]
    _check_keys(model, "model", MODEL_KEYS)
    try:
        T = float(model.get("T", "1.0"))
        m0 = float(model.get("m0", "0.0"))
        epsilon = float(model.get("epsilon", "0.0"))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in [model]: {exc}") from exc
    for key, value in (("T", T), ("m0", m0), ("epsilon", epsilon), ("m0^2", m0 * m0),
                       ("m0^2 + epsilon", m0 * m0 + epsilon)):
        if not math.isfinite(value):
            raise ConfigError(f"[model] {key} = {value} is not finite")
    if "b" not in model:
        raise ConfigError("[model] must declare the dissipation b")
    b = parse_coefficient(model["b"], T)
    # a declared m1 is parsed even at epsilon = 0, so a malformed one is reported
    m1 = parse_coefficient(model["m1"], T) if "m1" in model else None
    if epsilon > 0.0 and m1 is None:
        raise ConfigError("epsilon > 0 requires an m1 declaration")
    spec = ModelSpec(b, m0, epsilon, m1, T)
    half_beta_T = spec.beta * T / 2.0
    if half_beta_T > highfreq.LOG_FLOAT_MAX:
        raise ConfigError(
            f"[model] beta*T/2 = {half_beta_T:g} overflows exp (above {highfreq.LOG_FLOAT_MAX:g})"
        )

    run_sec = cp["run"] if "run" in cp else {}
    _check_keys(run_sec, "run", RUN_KEYS)
    stages = stage_override or tuple((run_sec.get("stages", "") or " ".join(STAGES)).split())
    for st in stages:
        if st not in STAGES:
            raise ConfigError(f"unknown stage {st!r}; known: {STAGES}")
        for dep in STAGE_DEPS[st]:
            if dep not in stages:
                raise ConfigError(f"stage {st!r} requires stage {dep!r}")
    stages = tuple(st for st in STAGES if st in stages)
    if not stages:
        raise ConfigError("no stages requested")
    if "contraction" in stages and m0 <= 0.0:
        raise ModelAssumptionError("the contraction stage requires m0 > 0")

    grids = dict(DEFAULT_GRIDS)
    if "grids" in cp:
        for key, val in cp["grids"].items():
            if key not in grids:
                raise ConfigError(f"unknown grid override {key!r}")
            grids[key] = _parse_int(f"[grids] {key}", val, GRID_MIN.get(key, 1))
    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in cp:
        for key, val in cp["tolerances"].items():
            if key not in tolerances:
                raise ConfigError(f"unknown tolerance override {key!r}")
            try:
                tolerances[key] = float(val)
            except ValueError:
                raise ConfigError(f"[tolerances] {key} = {val!r} is not a number") from None
    if not TOL_MIN <= tolerances["propagate_tol"] <= TOL_MAX:
        raise ConfigError(f"[tolerances] propagate_tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
    if not 0.0 < tolerances["contraction_margin"] < 1.0:
        raise ConfigError("[tolerances] contraction_margin must lie in (0, 1)")

    out_dir = Path(out_override or run_sec.get("out", "kgdecay_out"))
    return RunConfig(spec=spec, stages=stages, grids=grids, tolerances=tolerances, out_dir=out_dir)


def _flatten(prefix, obj, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, obj))


def write_summary(path, cert: dict) -> None:
    """Human-readable summary; every number is a field of the certificate."""
    lines = ["kgdecay run summary", "=" * 19]
    flat = []
    _flatten("", cert, flat)
    for key, val in flat:
        if isinstance(val, float):
            lines.append(f"{key} = {val!r}")
        else:
            lines.append(f"{key} = {val}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(config: RunConfig) -> int:
    """Execute the requested stages and write all artifacts.

    Package errors propagate; :func:`main` maps them to exit codes.  An output
    directory that cannot be created or written to is a config error.
    """
    out = config.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        return _run_stages(config, out)
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {out}: {exc}") from None


def _run_stages(config: RunConfig, out: Path) -> int:
    """The stages of :func:`run`, each writing its artifacts into ``out``."""
    spec = config.spec
    tol = float(config.tolerances["propagate_tol"])
    margin = float(config.tolerances["contraction_margin"])
    g = config.grids
    perturbed = spec.epsilon > 0.0

    cert_doc = {
        "schema_version": 2,
        "stages": list(config.stages),
        "model": spec.describe(),
        "grids": dict(sorted(g.items())),
        "tolerances": dict(sorted(config.tolerances.items())),
        "unchecked_assumptions": [
            "essential boundedness of b' is assumed, not verified from samples"
        ],
    }
    verdicts = {}
    if "threshold" in config.stages:
        thr = highfreq.find_threshold_N(
            spec,
            xi_points=g["threshold_xi_points"],
            t_points=g["threshold_t_points"],
        )
        highfreq.threshold_trace_to_csv(out / "threshold_trace.csv", thr)
        base = spec.constant_mass_version()
        mx, bnd, ok = highfreq.verify_highfreq_contraction(
            base, thr.N, g["verify_t_points"], g["verify_xi_points"], tol=tol
        )
        doc = {
            "N": thr.N,
            "sup_value": thr.sup_value,
            "target": thr.target,
            "xi_max_checked": thr.xi_max_checked,
            "tail_C_b": thr.tail_C_b,
            "tail_D_b": thr.tail_D_b,
            "tail_xi": thr.tail_xi,
            "tail_covered": thr.tail_xi <= thr.xi_max_checked,
            "accept_margin": thr.accept_margin,
            "accept_margin_sensitivity": thr.accept_margin_sensitivity,
            "reject_margin": thr.reject_margin,
            "reject_margin_sensitivity": thr.reject_margin_sensitivity,
            "margin_resolved": thr.margin_resolved,
            "profile_refine": thr.profile_refine,
            "monodromy_norm_max": mx,
            "monodromy_norm_bound": bnd,
            "verified": ok,
        }
        if perturbed:
            ok_p, mx_p, route = perturbation.verify_perturbed_highfreq(
                spec, thr.N, mx, g["verify_t_points"], g["verify_xi_points"], tol=tol
            )
            doc["monodromy_norm_max_perturbed"] = mx_p
            doc["verified_perturbed"] = ok_p
            doc["perturbed_route"] = route
            ok = ok and ok_p
        cert_doc["threshold"] = doc
        verdicts["threshold"] = certify.VERDICT_PASS if ok else certify.VERDICT_FAIL

    if "contraction" in config.stages:
        base = spec.constant_mass_version()
        t_grid = np.linspace(0.0, spec.T, g["contraction_t_points"])
        xi_grid = np.linspace(0.0, thr.N, g["contraction_xi_points"])
        M = monodromy.monodromy_grid(base, t_grid, xi_grid, tol)
        scan = monodromy.samples_from_grid(t_grid, xi_grid, M)
        np.savez(out / "monodromy_scan.npz", **vars(scan))
        monodromy.scan_to_csv(out / "monodromy_scan.csv", scan)
        rho_max = float(np.max(scan.rho))
        k, c1 = monodromy.contraction_search(M, scan, margin=margin)
        cert = monodromy.ContractionCertificate(thr.N, k, c1, base.beta, base.T)
        # Gelfand: rho(M)^k <= ||M^k|| <= c1, so delta1 <= spectral_rate
        cert_doc["contraction"] = {**cert.as_dict(), "rho_max": rho_max, "spectral_rate": -math.log(rho_max) / spec.T}
        verdicts["contraction"] = certify.VERDICT_PASS
        if perturbed and ("epsilon" in config.stages or "decay" in config.stages):
            # one bound on sup ||M_eps^k|| over this grid serves both later stages
            ok_pc, pert_worst, pert_route = perturbation.verify_perturbed_contraction(
                spec, cert, t_grid, xi_grid, tol
            )

    if "epsilon" in config.stages:
        eb = perturbation.epsilon_bound(cert, spec.m0)
        doc = eb.as_dict()
        ok = eb.audit_pass
        if perturbed:
            doc["model_epsilon"] = spec.epsilon
            doc["model_within_bound"] = spec.epsilon <= eb.epsilon_max
            doc["perturbed_contraction_ok"] = ok_pc
            doc["perturbed_contraction_worst"] = pert_worst
            doc["perturbed_route"] = pert_route
            ok = ok and ok_pc
        cert_doc["epsilon"] = doc
        verdicts["epsilon"] = certify.VERDICT_PASS if ok else certify.VERDICT_FAIL

    if "decay" in config.stages:
        if g["decay_periods"] < 10 * cert.k:
            raise ConfigError(
                f"decay_periods = {g['decay_periods']} is shorter than 10 k = {10 * cert.k} periods"
            )
        cert_eff = perturbation.perturbed_certificate(cert, pert_worst) if perturbed else cert
        report = certify.sup_norm_curve(
            spec,
            cert_eff,
            t_end=g["decay_periods"] * spec.T,
            nxi_low=g["decay_xi_low_points"],
            nxi_high=g["decay_xi_high_points"],
            tol=tol,
        )
        certify.decay_to_csv(out / "decay.csv", report)
        cert_doc["decay"] = {
            **report.summary_dict(),
            "certificate_used": cert_eff.as_dict(),
            "constants": certify.decay_constants(cert_eff, perturbed=perturbed),
        }
        if perturbed:
            cert_doc["decay"]["perturbed_route"] = pert_route
        verdicts["decay"] = report.verdict

    cert_doc["verdicts"] = verdicts
    all_pass = all(v == certify.VERDICT_PASS for v in verdicts.values())
    cert_doc["all_pass"] = all_pass
    (out / "certificate.json").write_text(
        json.dumps(cert_doc, indent=2) + "\n", encoding="utf-8"
    )
    write_summary(out / "summary.txt", cert_doc)
    if not all_pass:
        return EXIT_CERTIFICATE
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kgdecay",
        description="Decay certificates for damped wave models with periodic coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run pipeline stages from a config file")
    p_run.add_argument("--config", required=True, help="path to the INI config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--stage", action="append", default=None, help="stage to run (repeatable; default: config)"
    )

    p_w = sub.add_parser("w", help="evaluate the principal Lambert W function")
    p_w.add_argument("x", type=float)

    args = parser.parse_args(argv)
    if args.command == "w":
        try:
            print(f"{perturbation.lambert_w0(args.x):.12f}")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return EXIT_OK

    stages = tuple(args.stage) if args.stage else None
    try:
        return run(load_config(args.config, out_override=args.out, stage_override=stages))
    except KgDecayError as exc:
        for classes, code, label in EXIT_CODES:
            if isinstance(exc, classes):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
