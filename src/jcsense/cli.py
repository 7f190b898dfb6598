"""Experiment runner: structured JSON config in, self-describing table out.

Config schema (all sections optional except "experiment"; unknown keys are
rejected at every level; ``KEYS`` gives each key's default and check):

    {
      "experiment": "qfi_curve" | "ramp_curve" | "fidelity_sweep" |
                    "scaling" | "cramer_rao" | "moments_check",
      "physics":  {"Omega": 1.0, "k": 0.005, "xi": 1.3333333333333333,
                   "eta_target": 0.995},
      "numerics": {"n_max": "auto", "rtol": 1e-7, "atol": 5e-10,
                   "seed": 2026, "shots": 10000, "replicas": 500,
                   "scheme": "photon_number"},
      "output":   {"path": "out.csv", "format": "csv", "precision": 12,
                   "dump_outcomes": false}
    }

Omega (the coupling) and k (the ramp rate) are rates in one common unit,
and times are in its inverse.  The ramp depends on k / Omega: scaling both
by one factor divides the t column by it and leaves every other column
unchanged, while a larger Omega at fixed k ramps more adiabatically.
``numerics.n_max`` is the Fock cutoff of the experiments that build a Fock
space (moments_check); fidelity_sweep integrates in the adiabatic frame
and accepts but does not read it.

``resolve_config`` alone decides whether a config can run.  Besides each
key's check it enforces each experiment's run-time preconditions:
cramer_rao needs shots >= 100, replicas >= 2 and eta_target <= 1 - 1e-9;
scaling needs xi = 4/3; ramp_curve and fidelity_sweep need a finite,
positive duration.  So ``validate config [--seed N]`` rejects exactly what
``run config [--seed N] [--out PATH] [--strict]`` rejects.  It reports
kt_end and t_end for the two ramp experiments, and predicts a run's work
in the unit the run reports it: ``estimated_nfev`` for fidelity_sweep
(its header's ``nfev``) and ``replica_draws`` for cramer_rao (the outcome
totals of its sidecar).

Emitted files are self-describing: the header block carries the artifact
version, the basis convention and the full resolved config (``--out`` is
not part of it), so a run can be reproduced from its own output.
Identical config + seed gives byte-identical output on the same platform.

Exit codes: 0 success, 2 config/validation error or an unwritable output
path, 3 numerical failure (truncation and clipped-estimate warnings
escalate to 3 under --strict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__, dynamics, experiments, metrology, ramp
from .fockspace import TruncationWarning


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive(value) -> bool:
    # the upper bound also rejects an integer too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


_POSITIVE = (_positive, "must be a finite, positive number")
_COUNT = (lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")

# every config key once: section -> key -> (default, check, what the check asks)
KEYS = {
    "physics": {
        "Omega": (1.0, *_POSITIVE),
        "k": (0.005, *_POSITIVE),
        "xi": (ramp.DEFAULT_XI, *_POSITIVE),
        "eta_target": (0.995, lambda v: _positive(v) and v < 1.0,
                       "must be in (0, 1): the closed forms diverge at the critical point"),
    },
    "numerics": {
        "n_max": ("auto", lambda v: v == "auto" or (_is_int(v) and v >= 1),
                  "must be 'auto' or an integer >= 1"),
        "rtol": (dynamics.DEFAULT_RTOL, *_POSITIVE),
        "atol": (dynamics.DEFAULT_ATOL, *_POSITIVE),
        "seed": (2026, *_COUNT),
        "shots": (10000, *_COUNT),
        "replicas": (metrology.DEFAULT_REPLICAS, *_COUNT),
        "scheme": ("photon_number", lambda v: v in metrology.SCHEME_KINDS,
                   f"must be one of {metrology.SCHEME_KINDS}"),
    },
    "output": {
        "path": ("", lambda v: isinstance(v, str), "must be a string"),
        "format": ("csv", lambda v: v in ("csv", "json"), "must be 'csv' or 'json'"),
        "precision": (12, lambda v: _is_int(v) and 1 <= v <= 17,
                      "must be an integer in [1, 17]"),
        "dump_outcomes": (False, lambda v: isinstance(v, bool), "must be a boolean"),
    },
}
DEFAULTS = {section: {key: spec[0] for key, spec in keys.items()}
            for section, keys in KEYS.items()}
_RAMP_EXPERIMENTS = ("ramp_curve", "fidelity_sweep")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Malformed or physically invalid experiment configuration."""


def resolve_config(raw: dict) -> dict:
    """Check every key of a raw config, fill in defaults and enforce the
    experiment's run-time preconditions: a config that resolves can run."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key != "experiment" and key not in KEYS:
            raise ConfigError(f"unknown top-level key {key!r}")
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    experiment = raw["experiment"]
    if not (isinstance(experiment, str) and experiment in experiments.RUNNERS):
        raise ConfigError(
            f"unknown experiment {experiment!r}; "
            f"choose from {sorted(experiments.RUNNERS)}"
        )
    resolved = {"experiment": experiment}
    for section, keys in KEYS.items():
        user = raw.get(section, {})
        if not isinstance(user, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for key in user:
            if key not in keys:
                raise ConfigError(f"unknown key {section}.{key}")
        resolved[section] = {**DEFAULTS[section], **user}
        for key, (_, check, demand) in keys.items():
            if not check(resolved[section][key]):
                raise ConfigError(f"{section}.{key} {demand}, got {resolved[section][key]!r}")

    phys, num, out = resolved["physics"], resolved["numerics"], resolved["output"]
    if out["dump_outcomes"] and not out["path"]:
        raise ConfigError("output.dump_outcomes needs an output.path for the sidecar file")
    if experiment == "cramer_rao":
        # three decades of shot counts down to shots // 100, a replica
        # variance, and estimates that clip at ETA_CLIP
        if phys["eta_target"] > metrology.ETA_CLIP:
            raise ConfigError(
                f"cramer_rao needs physics.eta_target <= 1 - 1e-9, where estimates "
                f"clip, got {phys['eta_target']!r}"
            )
        if num["shots"] < 100:
            raise ConfigError(f"cramer_rao needs numerics.shots >= 100, got {num['shots']}")
        if num["replicas"] < 2:
            raise ConfigError(f"cramer_rao needs numerics.replicas >= 2, got {num['replicas']}")
    elif experiment == "scaling" and abs(phys["xi"] - 4.0 / 3.0) > 1e-12:
        # the only check of xi: experiments.scaling fits without one
        raise ConfigError(
            f"scaling needs physics.xi = 4/3, which its exponents assume, got {phys['xi']!r}"
        )
    elif experiment in _RAMP_EXPERIMENTS:
        try:
            duration = experiments._schedule(resolved).duration
        except OverflowError:  # kt_end = w^(1/xi) for a tiny xi
            duration = math.inf
        if not 0.0 < duration < math.inf:
            raise ConfigError(
                f"{experiment} needs a finite, positive duration; physics.k, xi and "
                f"eta_target give t_end = {duration!r}"
            )
    return resolved


def load_config(path: str | Path):
    """The raw JSON value of a config file, not yet resolved."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def render_csv(resolved: dict, columns, rows, extras: dict) -> str:
    precision = resolved["output"]["precision"]
    lines = [
        f"# jcsense {__version__}",
        f"# experiment: {resolved['experiment']}",
        "# basis_order: field-fast",
        f"# config: {json.dumps(resolved, sort_keys=True)}",
    ]
    for key, value in sorted(extras.items()):
        lines.append(f"# {key}: {json.dumps(value, sort_keys=True)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v, precision) for v in row))
    return "\n".join(lines) + "\n"


def render_json(resolved: dict, columns, rows, extras: dict) -> str:
    precision = resolved["output"]["precision"]
    doc = {
        "meta": {
            "artifact": "jcsense",
            "version": __version__,
            "experiment": resolved["experiment"],
            "basis_order": "field-fast",
            "config": resolved,
            **extras,
        },
        "columns": list(columns),
        "rows": [[float(_fmt(v, precision)) for v in row] for row in rows],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def run(resolved: dict, out_path: str | None = None, strict: bool = False) -> int:
    """Execute one experiment; write its table; return a process exit code."""
    runner = experiments.RUNNERS[resolved["experiment"]]
    try:
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error", TruncationWarning)
                warnings.simplefilter("error", metrology.EstimateClippedWarning)
            columns, rows, extras = runner(resolved)
    except ValueError as exc:
        _emit_error(resolved, "config", str(exc))
        return EXIT_CONFIG
    except (TruncationWarning, metrology.EstimateClippedWarning, RuntimeWarning,
            ArithmeticError, RuntimeError) as exc:
        _emit_error(resolved, "numerical", str(exc))
        return EXIT_NUMERICAL

    raw_outcomes = extras.pop("raw_outcomes", None)
    render = render_csv if resolved["output"]["format"] == "csv" else render_json
    text = render(resolved, columns, rows, extras)
    path = out_path or resolved["output"]["path"]
    if path:
        files = {path: (text, f"{len(rows)} rows")}
        if raw_outcomes is not None:
            doc = {"experiment": resolved["experiment"], "seed": resolved["numerics"]["seed"],
                   "outcomes": raw_outcomes}
            files[f"{path}.outcomes.json"] = (json.dumps(doc, sort_keys=True), "outcome totals")
        for target, (content, what) in files.items():
            try:
                Path(target).write_text(content)
            except OSError as exc:
                _emit_error(resolved, "config", f"cannot write {target}: {exc.strerror or exc}")
                return EXIT_CONFIG
            print(f"wrote {what} to {target}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _emit_error(resolved: dict, kind: str, message: str) -> None:
    record = {"error": kind, "experiment": resolved.get("experiment"), "message": message}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _fidelity_sweep_evaluations(resolved: dict) -> float:
    """The fitted generator evaluation count of a fidelity_sweep run, the
    ``nfev`` of its header.

    The Magnus steps of ``dynamics.solve_ivp`` follow the doublets' phase,
    Omega * int (1 - eta^2)^{3/4} dt, which on the xi = 4/3 schedule grows
    like (Omega / k) ln(1 + kt_end); the step count grows like its square
    root.  Counting three evaluations per step evaluated, including the
    steps a chunk throws away, 105 + 152 sqrt((Omega / k) ln(1 + kt_end))
    is within 8% of the measured 2,049, 2,859, 4,128 (default config),
    5,952 and 8,805 at k = Omega/50 to Omega/800, of 2,538, 4,629 and 5,223
    at eta_target 0.9, 0.999 and 0.9999, and of 726, 909 and 1,275 on ramps
    to eta 0.9 at k = 0.1, 0.05 and 0.02.  The cusp-free onset clock
    (tau = 2) takes about 1.42x as many (5,856 at the default rate).
    """
    sched = experiments._schedule(resolved)
    omega = resolved["physics"]["Omega"]
    return 105.0 + 152.0 * math.sqrt(omega / sched.k * math.log1p(sched.kt_end))


def validate(resolved: dict) -> int:
    """Dry-run report: resolved defaults, derived scales, no execution.

    ``kt_end`` and ``t_end`` appear only for the experiments that run the
    ramp, ``n_max`` and ``peak_dimension`` only for moments_check (its
    largest field-only space).  Two experiments also get their work, in the
    unit their own output reports it: fidelity_sweep the ``estimated_nfev``
    of :func:`_fidelity_sweep_evaluations` (its header's ``nfev``), and
    cramer_rao ``replica_draws``, one outcome total per replica at each of
    its three shot counts (the totals of its ``dump_outcomes`` sidecar).
    """
    experiment = resolved["experiment"]
    report = {"experiment": experiment, "resolved_config": resolved}
    if experiment in _RAMP_EXPERIMENTS:
        sched = experiments._schedule(resolved)
        report.update(kt_end=sched.kt_end, t_end=sched.duration)
    if experiment == "fidelity_sweep":
        report["estimated_nfev"] = round(_fidelity_sweep_evaluations(resolved))
    if experiment == "cramer_rao":
        report["replica_draws"] = 3 * resolved["numerics"]["replicas"]
    if experiment == "moments_check":
        n_max = max(experiments._resolve_n_max(resolved, eta) for eta in experiments.MOMENTS_ETAS)
        report.update(n_max=n_max, peak_dimension=n_max + 1)
    print(json.dumps(report, sort_keys=True, indent=1))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcsense",
        description="critical qubit-photon sensor experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="execute an experiment config and emit its table")
    validate_cmd = sub.add_parser(
        "validate", help="check a config and report resolved values without running"
    )
    for cmd in (run_cmd, validate_cmd):
        cmd.add_argument("config", help="path to a JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override numerics.seed")
    run_cmd.add_argument("--strict", action="store_true",
                         help="escalate truncation and clipped-estimate warnings to errors")
    run_cmd.add_argument("--out", default=None, help="override output.path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        numerics = raw.get("numerics", {}) if isinstance(raw, dict) else None
        if args.seed is not None and isinstance(numerics, dict):
            raw["numerics"] = {**numerics, "seed": args.seed}
        resolved = resolve_config(raw)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        return validate(resolved)
    return run(resolved, out_path=args.out, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
