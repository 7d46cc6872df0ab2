"""kgdecay benchmark: time `kgdecay run` on fixed model configs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...

Run from the repository root.  Each run is a fresh interpreter executing
``kgdecay.cli.main(["run", "--config", ..., "--out", ...])`` with default
workers, in a temporary directory under the repository root that is removed
after the run.  Runs repeat until the next one would end past ``--seconds``
(at least one).  Before each run, one fresh interpreter only imports
``kgdecay.cli``; it and every run's own interpreter give the set-up samples.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` leaves room in
``--seconds`` for one traced run after the untraced ones, and reports the
per-layer metrics and the tracing overhead.  Every run is checked for
correctness (``check_run``, and one ``certificate.json`` across the runs); a
run that fails the check counts as failed.  Standard output holds, per
workload, one JSON line with the per-run result fields and the environment,
then one "workload metric = value unit" line per metric.  The last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))

# Everything, the last run included, must end within this many seconds.
DEADLINE_S = 170.0

ALL_STAGES = ("threshold", "contraction", "epsilon", "decay")
SIN_B = "sin_offset mean=1 amp=0.5"
PERTURBED_MASS = "epsilon = 5e-9\nm1 = sin_offset mean=0 amp=1\n"
DENSE_GRIDS = "[grids]\ncontraction_t_points = 128\ncontraction_xi_points = 1024\n"


def _jitter(seed):
    """Deterministic offset in [-0.5, 0.5) for a seed; exactly 0 for seed 0."""
    return 0.0 if seed == 0 else random.Random(seed).random() - 0.5


def _sin_b(seed):
    # A phase shift of at most 0.01 rad: the same model, sampled elsewhere.
    return SIN_B if seed == 0 else f"{SIN_B} phase={0.02 * _jitter(seed)!r}"


def _square_b(seed):
    # duty within 0.5 +- 0.001 moves the jump point and the mean damping slightly.
    return f"square lo=0.2 hi=1 duty={0.5 + 0.002 * _jitter(seed)!r}"


def config_text(b, stages=ALL_STAGES, mass="", grids=""):
    """INI text of one run."""
    return (
        f"[model]\nT = 1.0\nb = {b}\nm0 = 1.0\n{mass}"
        f"[run]\nstages = {' '.join(stages)}\n{grids}"
    )


# name -> (requested stages, config text for a seed)
WORKLOADS = {
    "sin_default": (ALL_STAGES, lambda seed: config_text(_sin_b(seed))),
    "square_jumps": (ALL_STAGES, lambda seed: config_text(_square_b(seed))),
    "perturbed": (ALL_STAGES, lambda seed: config_text(_sin_b(seed), mass=PERTURBED_MASS)),
    "dense_scan": (
        ALL_STAGES[:2],
        lambda seed: config_text(_sin_b(seed), ALL_STAGES[:2], grids=DENSE_GRIDS),
    ),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def result_fields(cert):
    """Certificate numbers recorded for every run (None where a stage did not run)."""
    thr = cert.get("threshold", {})
    con = cert.get("contraction", {})
    eps = cert.get("epsilon", {})
    dec = cert.get("decay", {})
    fields = {
        "N": thr.get("N"),
        "k": con.get("k"),
        "c1": con.get("c1"),
        "delta1": con.get("delta1"),
        "epsilon_max": eps.get("epsilon_max"),
        "fitted_rate": dec.get("fitted_rate"),
        "certified_rate": dec.get("certified_rate"),
    }
    if dec:
        fields["rate_ratio"] = dec["fitted_rate"] / dec["certified_rate"]
    return fields


def check_run(workload, seed, exit_code, cert, stages):
    """Problems found in one run's outputs; an empty list means the run is correct.

    Every seed: exit code 0 and a Pass verdict for every requested stage.
    Seed 0 also: k exact and the reference numbers within their relative
    tolerances.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if cert is None:
        return ["no certificate.json"]
    problems = [
        f"verdict {st}: {cert.get('verdicts', {}).get(st)}"
        for st in stages
        if cert.get("verdicts", {}).get(st) != "Pass"
    ]
    if seed != 0:
        return problems
    ref = REFERENCE["workloads"][workload]
    got = result_fields(cert)
    if got["k"] != ref["k"]:
        problems.append(f"k = {got['k']}, reference {ref['k']}")
    for key, rtol in REFERENCE["rel_tol"].items():
        if key not in ref:
            continue
        if got[key] is None or abs(got[key] - ref[key]) > rtol * abs(ref[key]):
            problems.append(f"{key} = {got[key]!r}, reference {ref[key]!r} (rel tol {rtol:g})")
    return problems


def _spawn(args, deadline):
    """Run the worker; returns its JSON result, or an error string."""
    cmd = [sys.executable, str(WORKER), args[0], repr(time.monotonic()), *args[1:]]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"worker exit {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1])


def one_run(workload, seed, mode, deadline):
    """Run the workload once in a fresh interpreter and check its outputs."""
    stages, make_config = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix=".bench-run-", dir=ROOT) as tmp:
        config, out = Path(tmp) / "run.ini", Path(tmp) / "out"
        config.write_text(make_config(seed), encoding="utf-8")
        res = _spawn([mode, str(config), str(out)], deadline)
        if isinstance(res, str):
            return {"problems": [res]}
        cert_path = out / "certificate.json"
        raw = cert_path.read_bytes() if cert_path.is_file() else None
    cert = json.loads(raw) if raw is not None else None
    res["problems"] = check_run(workload, seed, res["exit_code"], cert, stages)
    res["cert_sha256"] = hashlib.sha256(raw).hexdigest() if raw is not None else None
    res["result"] = result_fields(cert) if cert is not None else None
    return res


def timing_summary(values):
    """Median, sample count and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{p:g}"] = cuts[round(p * 10) - 1]
            break
    return out


def environment():
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def bench_workload(workload, seed, seconds, trace):
    """All runs of one workload; returns (detail, final result object)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    # A traced run costs about one untraced run; keep room for it in --seconds.
    reserve = 2 if trace else 1
    setup, runs = [], []
    while True:
        # Set-up samples spread over the whole measurement, like the runs.
        res = _spawn(["import"], deadline)
        if isinstance(res, str):
            raise RuntimeError(f"set-up sample failed: {res}")
        setup.append(res["setup_s"])
        runs.append(one_run(workload, seed, "run", deadline))
        elapsed = time.monotonic() - start
        if "run_s" not in runs[-1] or elapsed * (len(runs) + reserve) / len(runs) > seconds:
            break
    timed = [r for r in runs if "run_s" in r]
    if trace:
        runs.append(one_run(workload, seed, "trace", deadline))

    hashes = {r["cert_sha256"] for r in runs if r.get("cert_sha256")}
    if len(hashes) > 1:
        for r in runs:
            r["problems"].append("certificate.json differs between runs")
    failed = sum(1 for r in runs if r["problems"])
    setup += [r["setup_s"] for r in runs if "setup_s" in r]

    if trace:
        traced = runs[-1]
        metrics = dict(traced.get("layers", {}))
        if timed and "run_s" in traced:
            metrics["trace.run_s"] = {"value": traced["run_s"], "unit": "s"}
            metrics["trace.overhead_s"] = {
                "value": traced["run_s"] - statistics.median(r["run_s"] for r in timed),
                "unit": "s",
            }
    else:
        samples = {
            "run_s": [r["run_s"] for r in timed],
            "cpu_s": [r["cpu_s"] for r in timed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
            "setup_s": setup,
        }
        metrics = {
            name: {"value": statistics.median(vals), "unit": END_TO_END_UNITS[name]}
            for name, vals in samples.items()
            if vals
        }
        metrics["pass_frac"] = {
            "value": (len(runs) - failed) / len(runs),
            "unit": END_TO_END_UNITS["pass_frac"],
        }

    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "timings": {
            "setup_s": timing_summary(setup),
            **{k: timing_summary([r[k] for r in timed]) for k in ("run_s", "cpu_s") if timed},
        },
        "missing_bindings": runs[-1].get("missing", []) if trace else [],
        "runs": [
            {k: v for k, v in r.items() if k not in ("layers", "spans", "missing")} for r in runs
        ],
        "elapsed_s": time.monotonic() - start,
    }
    final = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, final


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kgdecay" / "cli.py").is_file():
        print(f"kgdecay sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        detail, final = bench_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(detail))
        for metric, m in final["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        if len(names) == 1:
            combined = final
        else:
            combined["correct"] &= final["correct"]
            combined["attempted"] += final["attempted"]
            combined["failed"] += final["failed"]
            for metric, m in final["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
