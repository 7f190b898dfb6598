"""Span tracer that times calls into jcsense from outside the package.

The tracer replaces public names on the jcsense modules with timing
wrappers; the package looks these names up at call time (``ramp.eta_at``
inside the dynamics RHS, ``fockspace.eigenstate`` inside the fidelity
diagnostic, ...), so nested calls are attributed to the right layer without
editing the package.  ``uninstall`` restores every original.

Each wrapped call pushes a frame that collects the time of its children, so
a layer's self time is its calls' duration minus their children.  Calls made
hundreds of thousands of times (the RHS, ``ramp.eta_at``, per-replica
sampling) are aggregated as a count plus a total; the rest are also kept as
individual spans (id, name, start, end, parent) in memory until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LAYERS = ("analytic", "fockspace", "ramp", "dynamics", "metrology", "experiments", "cli")
BENCH_LAYER = "bench"


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, key, original), owner is a module or a dict
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; installed wrappers stay in place."""
        self.spans = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)  # by layer
        self.counters = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self.last_solve_end = 0.0
        self.records_s = 0.0  # evolve time after the integrator returned

    # -- recording ----------------------------------------------------------

    def _push(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0.0, 0.0]  # span id, time in children, time absorbed
        self._stack.append(frame)
        return frame

    def _pop(self, frame, name, layer, t0, t1, keep_span) -> None:
        self._stack.pop()
        duration = t1 - t0
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent[2] += frame[2]
            parent_id = parent[0]
        self.self_s[layer] += duration - frame[1]
        self.calls[name] += 1
        self.total_s[name] += duration - frame[2]
        if keep_span:
            self.spans.append((frame[0], name, t0, t1, parent_id))

    def call(self, name, layer, keep_span, fn, *args, **kwargs):
        frame = self._push()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._pop(frame, name, layer, t0, perf_counter(), keep_span)

    def absorb(self, duration: float) -> None:
        """Book time the benchmark itself spent inside the current span (a
        speed-probe sample) to the benchmark layer; it counts in no span's
        self time or call total."""
        if self._stack:
            self._stack[-1][1] += duration
            self._stack[-1][2] += duration
        self.self_s[BENCH_LAYER] += duration

    def root(self, name: str):
        """Context manager for the benchmark's own root span of one pass."""
        return _Root(self, name)

    # -- installation -------------------------------------------------------

    def wrap(self, module, attr, layer, *, name=None, spans=True, namer=None,
             before=None, after=None):
        """Replace ``module.attr`` with a timing wrapper.

        ``namer(args, kwargs)`` picks the span name per call; ``before`` may
        rewrite the arguments; ``after(args, kwargs, result, t_end)`` records
        counters from the result.
        """
        original = getattr(module, attr)
        base = name or f"{layer}.{attr}"

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            label = namer(args, kwargs) if namer is not None else base
            result = self.call(label, layer, spans, original, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result, perf_counter())
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def wrap_entry(self, table: dict, key: str, layer: str, name: str) -> None:
        original = table[key]

        def wrapper(*args, **kwargs):
            return self.call(name, layer, True, original, *args, **kwargs)

        self._patches.append((table, key, original))
        table[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = self.tracer._push()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._pop(self.frame, self.name, BENCH_LAYER, self.t0, perf_counter(), True)
        return False


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def install(tracer: Tracer, jc) -> None:
    """Wrap the public names of every jcsense layer on ``tracer``.

    ``jc`` is the jcsense package with all its modules imported.
    """
    t = tracer
    analytic, fockspace, ramp = jc.analytic, jc.fockspace, jc.ramp
    dynamics, metrology = jc.dynamics, jc.metrology
    experiments, cli = jc.experiments, jc.cli
    pad = getattr(fockspace, "_CONSTRUCTION_PAD", 0)

    # analytic: closed forms, called per grid point
    t.wrap(analytic, "evaluate", "analytic", spans=False)
    t.wrap(analytic, "qfi_from_state_derivative", "analytic", name="analytic.qfi_fd")

    # fockspace: state construction and operators
    def count_pad(args, kwargs, result, _t_end):
        fd = result.spec.field_dim
        t.counters["fockspace.returned_dim"] += fd
        t.counters["fockspace.padded_dim"] += fd + pad

    t.wrap(fockspace, "squeezed_vacuum", "fockspace", after=count_pad)
    t.wrap(
        fockspace, "eigenstate", "fockspace", after=count_pad,
        namer=lambda a, k: "fockspace.eigenstate_dark"
        if _arg(a, k, 4, "branch") == "dark" else "fockspace.eigenstate_doublet",
    )
    t.wrap(fockspace, "build_hamiltonian", "fockspace", name="fockspace.hamiltonian")
    t.wrap(fockspace, "jc_hamiltonian_parts", "fockspace", name="fockspace.hamiltonian_parts")
    t.wrap(fockspace, "doublet_spectrum", "fockspace")
    for op in ("number_op", "quadrature_x", "quadrature_p"):
        t.wrap(fockspace, op, "fockspace", name="fockspace.operators", spans=False)

    # ramp: one call per RHS evaluation
    t.wrap(ramp, "eta_at", "ramp", spans=False)

    # dynamics: integrator, its RHS, and the per-record diagnostics
    def time_rhs(args, kwargs):
        fun = args[0]

        def rhs(time, y):
            return t.call("dynamics.rhs", "dynamics", False, fun, time, y)

        return (rhs,) + tuple(args[1:]), kwargs

    def count_solve(args, kwargs, sol, t_end):
        t.counters["dynamics.rhs_evals"] += sol.nfev
        t.last_solve_end = t_end

    def records_time(args, kwargs, records, t_end):
        t.records_s += t_end - t.last_solve_end
        t.counters["dynamics.records"] += len(records)

    t.wrap(dynamics, "solve_ivp", "dynamics", name="dynamics.integrate",
           before=time_rhs, after=count_solve)
    t.wrap(dynamics, "evolve", "dynamics", after=records_time)
    t.wrap(dynamics, "fidelity_against_dark", "dynamics", name="dynamics.fidelity")

    # metrology: sampling, estimation, Fisher figures of merit
    def count_shots(args, kwargs, result, _t_end):
        t.counters["metrology.shots_drawn"] += len(result)

    t.wrap(metrology, "sample_outcomes", "metrology", name="metrology.sample",
           spans=False, after=count_shots)
    t.wrap(metrology, "quadrature_distribution", "metrology", spans=False)
    t.wrap(metrology, "estimate_eta", "metrology", name="metrology.estimate", spans=False)
    t.wrap(metrology, "mean_and_variance", "metrology", spans=False)
    t.wrap(metrology, "inverted_variance_numeric", "metrology",
           name="metrology.inverted_variance")
    t.wrap(metrology, "cramer_rao_ratio", "metrology",
           namer=lambda a, k: "metrology.cramer_rao." + _arg(a, k, 1, "scheme").kind)

    # experiments and the CLI
    for key in list(experiments.RUNNERS):
        t.wrap_entry(experiments.RUNNERS, key, "experiments", f"experiments.{key}")
    t.wrap(cli, "resolve_config", "cli", name="cli.resolve")
    t.wrap(cli, "render_csv", "cli", name="cli.render")
