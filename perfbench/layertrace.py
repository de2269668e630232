"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The tracer wraps the public functions of each ``inls_lab`` layer from outside
the package: every module attribute that is one of those functions is
replaced where its callers look it up (``ground_state.helmholtz_solve``,
``evolution.step``, ``functionals.grad_norm_sq`` as seen through ``fn``,
``evolution.solve_banded``, ``scipy.fft.fft`` ...), and the CLI command table
and the experiment registry are wrapped entry by entry.  Each call becomes
one span ``[name, start, end, parent, work]`` kept in memory; ``uninstall``
puts every original back.

``layer_metrics`` turns a list of spans into the per-layer metrics named in
``BENCHMARK.json``.  A span's self time is its duration minus the time of its
direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

# Layer modules of inls_lab whose public functions (their ``__all__``) are
# traced.  ``experiments`` and ``cli`` are traced through their tables.
LAYER_MODULES = (
    "core", "functionals", "ground_state", "evolution", "exact",
    "analysis", "inequalities", "fieldio",
)
# Every module whose namespace may hold an alias of a traced function.
ALIAS_MODULES = LAYER_MODULES + ("experiments", "cli")

# fieldio functions that move one file: (direction, index of the path
# argument whose file size counts as the bytes moved).
FIELDIO_FILES = {
    "write_field": ("write", 0),
    "write_manifest": ("write", 0),
    "trajectory_to_csv": ("write", 1),
    "read_field_values": ("read", 0),
    "trajectory_from_csv": ("read", 0),
}
FIELDIO_GROUPS = {
    "write": ("write_field", "write_manifest", "trajectory_to_csv", "write_snapshots"),
    "read": ("read_field", "read_field_values", "trajectory_from_csv", "attach_snapshots"),
}

# Step spans are keyed by grid; these are the grids the workloads run.
STEP_GRIDS = ("line-16384", "line-4096", "radial-2048")
CLI_COMMANDS = ("ground-state", "evolve", "analyze", "verify", "exact", "reproduce")
EXPERIMENTS = ("s_family_tracking", "pohozaev_gate", "inequalities")

# Counts that must repeat exactly between traced runs of the same code.
EXACT_COUNTS = tuple(f"evolution.step.{g}.calls" for g in STEP_GRIDS) + (
    "ground_state.iterations", "kernel.fft.calls", "kernel.solve_banded.calls",
    "inequalities.trials",
)


def _grid_key(args) -> str:
    grid = args[0].field.grid
    return f"{grid.geometry}-{grid.n}"


def _result_attr(attr):
    return lambda args, result: getattr(result, attr)


def _array_size(args, result):
    return args[0].size


def _file_size(index):
    return lambda args, result: os.path.getsize(args[index])


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._tables: list[tuple] = []

    def wrap(self, func, name, key=None, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name if key is None else f"{name}.{key(args)}", 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _patch_aliases(self, func, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, func))

    def install(self, package) -> None:
        """Wrap every layer function of ``package`` (the imported inls_lab)."""
        import scipy.fft
        import scipy.linalg

        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in ALIAS_MODULES}
        aliases = [package] + list(mods.values())
        for layer in LAYER_MODULES:
            mod = mods[layer]
            for fname in mod.__all__:
                func = getattr(mod, fname)
                if not inspect.isfunction(func) or func.__module__ != mod.__name__:
                    continue
                key = work = None
                if layer == "evolution" and fname == "step":
                    key = _grid_key
                elif layer == "ground_state" and fname == "solve_ground_state":
                    work = _result_attr("iterations")
                elif layer == "inequalities" and fname.startswith("run_"):
                    work = _result_attr("trials")
                elif layer == "fieldio" and fname in FIELDIO_FILES:
                    work = _file_size(FIELDIO_FILES[fname][1])
                self._patch_aliases(func, self.wrap(func, f"{layer}.{fname}", key, work), aliases)
        for fname in ("fft", "ifft"):
            func = getattr(scipy.fft, fname)
            self._patch_aliases(func, self.wrap(func, "kernel.fft", work=_array_size),
                                aliases + [scipy.fft])
        banded = scipy.linalg.solve_banded
        self._patch_aliases(banded, self.wrap(banded, "kernel.solve_banded"), aliases)
        cli, experiments = mods["cli"], mods["experiments"]
        self._tables = [(cli.COMMANDS, dict(cli.COMMANDS)),
                        (experiments.REGISTRY, dict(experiments.REGISTRY))]
        for entry, func in list(cli.COMMANDS.items()):
            cli.COMMANDS[entry] = self.wrap(func, f"cli.{entry}")
        for entry, func in list(experiments.REGISTRY.items()):
            experiments.REGISTRY[entry] = self.wrap(func, f"experiments.{entry}")
        self._patch_aliases(cli.main, self.wrap(cli.main, "cli.main"), [cli])

    def uninstall(self) -> None:
        for table, original in self._tables:
            table.clear()
            table.update(original)
        for owner, attr, func in reversed(self._undo):
            setattr(owner, attr, func)
        self._undo.clear()
        self._tables.clear()

    def dump(self) -> list[list]:
        """Spans as plain lists, times relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[n, s - t0, e - t0, p, w] for n, s, e, p, w in self.spans]


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced operation, as ``{name: (value, unit)}``.

    ``calls`` counts spans, ``self_s`` sums self times, ``ms`` is the mean
    span duration per call.  ``wall_s`` is the traced operation's wall time.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, work in spans:
        if parent >= 0:
            child[parent] += end - start
    in_evolve = [False] * len(spans)   # parents precede their children
    evolve_ffts = 0
    agg: dict[str, list] = {}   # name -> [calls, total_s, self_s, work]
    for i, (name, start, end, parent, work) in enumerate(spans):
        in_evolve[i] = name == "evolution.evolve" or (parent >= 0 and in_evolve[parent])
        evolve_ffts += name == "kernel.fft" and in_evolve[i]
        a = agg.setdefault(name, [0, 0.0, 0.0, 0])
        a[0] += 1
        a[1] += end - start
        a[2] += end - start - child[i]
        a[3] += work

    def group(names):
        rows = [agg[n] for n in names if n in agg]
        return [sum(r[j] for r in rows) for j in range(4)]

    def matching(prefix):
        return [n for n in agg if n.startswith(prefix)]

    out = {}

    def calls_ms_self(metric, names, stats=("calls", "ms", "self_s")):
        calls, total, self_s, _ = group(names)
        values = {"calls": (calls, "count"),
                  "ms": (1e3 * total / calls if calls else 0.0, "ms"),
                  "self_s": (float(self_s), "s")}
        for stat in stats:
            out[f"{metric}.{stat}"] = values[stat]

    for grid in STEP_GRIDS:
        calls_ms_self(f"evolution.step.{grid}", [f"evolution.step.{grid}"], ("calls", "ms"))
    steps = group(matching("evolution.step."))
    out["evolution.step.self_s"] = (float(steps[2]), "s")
    calls_ms_self("evolution.evolve", ["evolution.evolve"], ("self_s",))

    fft = group(["kernel.fft"])
    out["kernel.fft.calls"] = (fft[0], "count")
    # FFTs made inside evolve (steps and their diagnostics) per Strang step
    out["kernel.fft.per_step"] = (evolve_ffts / steps[0] if steps[0] else 0.0, "1/step")
    out["kernel.fft.points"] = (fft[3], "points")
    out["kernel.fft.computed_bytes"] = (16 * fft[3], "B")
    out["kernel.fft.self_s"] = (float(fft[2]), "s")
    calls_ms_self("kernel.solve_banded", ["kernel.solve_banded"], ("calls", "self_s"))

    calls_ms_self("functionals.grad_norm_sq", ["functionals.grad_norm_sq"])
    for fname in ("mass", "potential", "energy", "variance", "lp_norm"):
        calls_ms_self(f"functionals.{fname}", [f"functionals.{fname}"], ("self_s",))

    calls_ms_self("core.helmholtz_solve", ["core.helmholtz_solve"])
    calls_ms_self("core.apply_radial_lap", ["core.apply_radial_lap"])
    calls_ms_self("core.sample_scaled", ["core.sample_scaled"], ("self_s",))

    solves = group(["ground_state.solve_ground_state"])
    out["ground_state.iterations"] = (solves[3], "count")
    out["ground_state.iteration_ms"] = (1e3 * solves[1] / solves[3] if solves[3] else 0.0, "ms")
    calls_ms_self("ground_state.solve_ground_state", ["ground_state.solve_ground_state"],
                  ("calls", "self_s"))

    calls_ms_self("analysis.decompose", ["analysis.decompose"])
    for fname in ("estimate_blowup_time", "rescaled_profile", "sigma_c_window_series",
                  "mass_concentration_series"):
        calls_ms_self(f"analysis.{fname}", [f"analysis.{fname}"], ("self_s",))

    calls_ms_self("inequalities.random_bump_field", ["inequalities.random_bump_field"],
                  ("calls", "self_s"))
    calls_ms_self("inequalities.check", matching("inequalities.check_"), ("self_s",))
    reports = group(matching("inequalities.run_"))
    out["inequalities.trials"] = (reports[3], "count")
    out["inequalities.trial_ms"] = (1e3 * reports[1] / reports[3] if reports[3] else 0.0, "ms")

    calls_ms_self("exact.s_profile", ["exact.s_profile"], ("calls", "self_s"))

    for kind, names in FIELDIO_GROUPS.items():
        files = group([f"fieldio.{n}" for n, (k, _) in FIELDIO_FILES.items() if k == kind])
        out[f"fieldio.{kind}.calls"] = (files[0], "count")
        out[f"fieldio.{kind}.bytes"] = (files[3], "B")
        out[f"fieldio.{kind}.self_s"] = (float(group([f"fieldio.{n}" for n in names])[2]), "s")

    for command in ("main",) + CLI_COMMANDS:
        calls_ms_self(f"cli.{command}", [f"cli.{command}"], ("self_s",))
    for name in EXPERIMENTS:
        calls_ms_self(f"experiments.{name}", [f"experiments.{name}"], ("self_s",))

    layer_self = sum(a[2] for n, a in agg.items() if not n.startswith(("cli.", "experiments.")))
    out["trace.layer_frac"] = (layer_self / wall_s if wall_s > 0 else 0.0, "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out
