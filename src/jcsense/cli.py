"""Experiment runner: structured JSON config in, self-describing table out.

Config schema (all sections optional except "experiment"; unknown keys are
rejected at every level):

    {
      "experiment": "qfi_curve" | "ramp_curve" | "fidelity_sweep" |
                    "scaling" | "cramer_rao" | "moments_check",
      "physics":  {"Omega": 1.0, "k": 0.005, "xi": 1.3333333333333333,
                   "eta_target": 0.995},
      "numerics": {"n_max": "auto", "rtol": 1e-9, "atol": 1e-11,
                   "seed": 2026, "shots": 10000, "replicas": 500,
                   "scheme": "photon_number"},
      "output":   {"path": "out.csv", "format": "csv", "precision": 12,
                   "dump_outcomes": false}
    }

Internally Omega = 1 sets the units: rates are in units of Omega and times
in 1/Omega.  A different Omega only rescales the time columns.
``numerics.n_max`` is the Fock cutoff of the experiments that build a Fock
space (moments_check); fidelity_sweep integrates in the adiabatic frame
and accepts but does not read it.

Emitted files are self-describing: the header block carries the artifact
version, the basis convention and the full resolved config, so a run can be
reproduced from its own output.  Identical config + seed gives byte-identical
output on the same platform.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure
(truncation warnings escalate to 3 under --strict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__, experiments, metrology
from .fockspace import HilbertSpec, TruncationWarning

DEFAULTS = {
    "physics": {"Omega": 1.0, "k": 0.005, "xi": 4.0 / 3.0, "eta_target": 0.995},
    "numerics": {
        "n_max": "auto",
        "rtol": 1e-9,
        "atol": 1e-11,
        "seed": 2026,
        "shots": 10000,
        "replicas": 500,
        "scheme": "photon_number",
    },
    "output": {"path": "", "format": "csv", "precision": 12, "dump_outcomes": False},
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Malformed or physically invalid experiment configuration."""


def _merge_section(name: str, user: dict) -> dict:
    resolved = dict(DEFAULTS[name])
    for key, value in user.items():
        if key not in resolved:
            raise ConfigError(f"unknown key {name}.{key}")
        resolved[key] = value
    return resolved


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and fill in defaults (strict keys)."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"experiment", "physics", "numerics", "output"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown top-level key {key!r}")
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    experiment = raw["experiment"]
    if experiment not in experiments.RUNNERS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; "
            f"choose from {sorted(experiments.RUNNERS)}"
        )
    resolved = {"experiment": experiment}
    for section in ("physics", "numerics", "output"):
        user = raw.get(section, {})
        if not isinstance(user, dict):
            raise ConfigError(f"section {section!r} must be an object")
        resolved[section] = _merge_section(section, user)
    _validate_physics(resolved["physics"])
    _validate_numerics(resolved["numerics"])
    _validate_output(resolved["output"])
    if experiment == "cramer_rao":
        _validate_cramer_rao(resolved["physics"], resolved["numerics"])
    return resolved


def _validate_physics(phys: dict) -> None:
    for key in ("Omega", "k", "xi", "eta_target"):
        value = phys[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"physics.{key} must be a number, got {value!r}")
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"physics.{key} must be finite and positive, got {value}")
    if phys["eta_target"] >= 1.0:
        raise ConfigError(
            f"physics.eta_target must be < 1 (closed forms diverge at the "
            f"critical point), got {phys['eta_target']}"
        )


def _validate_numerics(num: dict) -> None:
    n_max = num["n_max"]
    if n_max != "auto":
        if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
            raise ConfigError(f"numerics.n_max must be 'auto' or an integer >= 1")
    for key in ("rtol", "atol"):
        value = num[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"numerics.{key} must be a number, got {value!r}")
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"numerics.{key} must be finite and positive, got {value}")
    for key in ("seed", "shots", "replicas"):
        if not isinstance(num[key], int) or isinstance(num[key], bool) or num[key] < 0:
            raise ConfigError(f"numerics.{key} must be a non-negative integer")
    if num["scheme"] not in metrology.SCHEME_KINDS:
        raise ConfigError(
            f"numerics.scheme must be one of {metrology.SCHEME_KINDS}, got {num['scheme']!r}"
        )


def _validate_cramer_rao(phys: dict, num: dict) -> None:
    # run-time preconditions of experiments.cramer_rao (three decades of shot
    # counts down to shots // 100), of the replica variance and of the
    # sampled eta range
    if phys["eta_target"] > metrology.ETA_CLIP:
        raise ConfigError(
            f"cramer_rao needs physics.eta_target <= 1 - 1e-9, where estimates "
            f"clip, got {phys['eta_target']!r}"
        )
    if num["shots"] < 100:
        raise ConfigError(f"cramer_rao needs numerics.shots >= 100, got {num['shots']}")
    if num["replicas"] < 2:
        raise ConfigError(f"cramer_rao needs numerics.replicas >= 2, got {num['replicas']}")


def _validate_output(out: dict) -> None:
    if out["format"] not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {out['format']!r}")
    precision = out["precision"]
    if not isinstance(precision, int) or isinstance(precision, bool) or not 1 <= precision <= 17:
        raise ConfigError("output.precision must be an integer in [1, 17]")
    if not isinstance(out["dump_outcomes"], bool):
        raise ConfigError("output.dump_outcomes must be a boolean")
    if out["dump_outcomes"] and not out["path"]:
        raise ConfigError("output.dump_outcomes needs an output.path for the sidecar file")


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return resolve_config(raw)


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
            columns, rows, extras = runner(resolved)
    except (ConfigError, ValueError) as exc:
        _emit_error(resolved, "config", str(exc))
        return EXIT_CONFIG
    except (TruncationWarning, RuntimeWarning, ArithmeticError, RuntimeError) as exc:
        _emit_error(resolved, "numerical", str(exc))
        return EXIT_NUMERICAL

    raw_outcomes = extras.pop("raw_outcomes", None)
    render = render_csv if resolved["output"]["format"] == "csv" else render_json
    text = render(resolved, columns, rows, extras)
    path = out_path or resolved["output"]["path"]
    if path:
        Path(path).write_text(text)
        print(f"wrote {len(rows)} rows to {path}")
        if raw_outcomes is not None:
            sidecar = f"{path}.outcomes.json"
            Path(sidecar).write_text(
                json.dumps({"experiment": resolved["experiment"],
                            "seed": resolved["numerics"]["seed"],
                            "outcomes": raw_outcomes}, sort_keys=True)
            )
            print(f"wrote raw outcomes to {sidecar}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _emit_error(resolved: dict, kind: str, message: str) -> None:
    record = {"error": kind, "experiment": resolved.get("experiment"), "message": message}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


# measured cost of one cramer_rao experiment and of one draw, in seconds,
# by scheme (see _estimate_runtime)
_CRAMER_RAO_COST = {
    "photon_number": (63e-6, 33e-9),
    "x_squared": (30e-6, 20e-9),
    "p_squared": (30e-6, 20e-9),
}


def _largest_space(resolved: dict) -> HilbertSpec | None:
    """The largest truncated space the experiment builds; None if it builds none.

    moments_check builds field-only spaces at each of its etas; the other
    experiments are closed forms, sample closed-form laws, or integrate
    fidelity_sweep's ramp in the adiabatic frame, which needs no Fock space.
    """
    if resolved["experiment"] == "moments_check":
        n_max = max(experiments._resolve_n_max(resolved, eta) for eta in experiments.MOMENTS_ETAS)
        return HilbertSpec(n_max=n_max, with_qubit=False)
    return None


def _estimate_runtime(resolved: dict) -> float | None:
    """Crude wall-time estimate in seconds (order of magnitude), or None for
    the experiments without a cost model.

    fidelity_sweep: DOP853 in the adiabatic frame takes steps in proportion
    to the phase the doublets wind, Omega * int (1 - eta^2)^{3/4} dt, which
    on the xi = 4/3 schedule grows like (Omega / k) ln(1 + kt_end), plus a
    fixed start-up cost.  Fitted RHS evaluation counts: 2,600 + 24 (Omega / k)
    ln(1 + kt_end), within 10% of the measured 19,757 (default config),
    11,693 (k = Omega/100), 35,477 (k = Omega/400) and 25,517
    (eta_target 0.999), and 30% above the 2,567 of the k = 0.05 ramp to
    eta 0.9; the cusp-free onset clock (tau = 2) takes 10,817, half the
    estimate.  The default config's pass took 0.36 s at perfbench's
    reference core speed (median of 25 passes), 18 us per evaluation with
    the records included.

    cramer_rao: three replica fans of ``shots``, ``shots // 10`` and
    ``shots // 100`` draws, so 3 * replicas experiments and about
    1.11 * replicas * shots draws.  Each experiment costs a fixed amount (its
    spawned seed, generator and estimate) and each draw a per-draw amount,
    both depending on the scheme; ``_CRAMER_RAO_COST`` holds them.  Photon
    counts: ~63 us and ~33 ns, fitted to wall times measured on a 2-vCPU
    2.0 GHz Xeon host when every replica called ``rng.choice``: 0.094 s at
    500 replicas x 100 shots, 0.27-0.28 s at the default 500 x 10,000 and
    0.39 s at 100 x 100,000.  With one cumulative table per fan the same
    host measures 0.053 s, 0.21-0.23 s and 0.42-0.46 s, all within 2x of
    the fit, which is kept.  Quadratures (``rng.normal`` squared): ~30 us
    and ~20 ns.  On the same host, fits over 500 x 100, 500 x 10,000,
    100 x 100,000 and 2,000 x 100 put them at 0.4-0.6x and 0.5-0.65x the
    photon-count costs fitted in the same runs; the default 500 x 10,000
    took 0.13-0.15 s.
    """
    experiment = resolved["experiment"]
    if experiment == "fidelity_sweep":
        sched = experiments._schedule(resolved)
        omega = resolved["physics"]["Omega"]
        return 18e-6 * (2600.0 + 24.0 * omega / sched.k * math.log1p(sched.kt_end))
    if experiment == "cramer_rao":
        num = resolved["numerics"]
        per_experiment, per_draw = _CRAMER_RAO_COST[num["scheme"]]
        return num["replicas"] * (3 * per_experiment + 1.11 * per_draw * num["shots"])
    return None


def validate(resolved: dict) -> int:
    """Dry-run report: resolved defaults, derived scales, no execution.

    ``n_max`` and ``peak_dimension`` appear only for experiments that build
    a truncated space, and ``estimated_runtime_s`` only where a cost model
    exists.
    """
    sched = experiments._schedule(resolved)
    report = {
        "experiment": resolved["experiment"],
        "resolved_config": resolved,
        "kt_end": sched.kt_end,
        "t_end": sched.duration,
    }
    space = _largest_space(resolved)
    if space is not None:
        report["n_max"] = space.n_max
        report["peak_dimension"] = space.dim
    estimate = _estimate_runtime(resolved)
    if estimate is not None:
        report["estimated_runtime_s"] = estimate
    print(json.dumps(report, sort_keys=True, indent=1))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcsense",
        description="critical qubit-photon sensor experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute an experiment config and emit its table"),
        ("validate", "check a config and report resolved values without running"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a JSON experiment config")
        cmd.add_argument("--strict", action="store_true",
                         help="escalate truncation warnings to errors")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override numerics.seed")
        cmd.add_argument("--out", default=None, help="override output.path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = load_config(args.config)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        resolved["numerics"]["seed"] = args.seed
    if args.command == "validate":
        return validate(resolved)
    return run(resolved, out_path=args.out, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
