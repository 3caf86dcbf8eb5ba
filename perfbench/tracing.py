"""Spans around procgeom's public functions, recorded from the benchmark's side.

:class:`Tracer` wraps every public function of the seven modules and
rebinds each name wherever a procgeom module holds it (``process.minimize``,
``process.psum``, the ``sync`` attributes ``sum_processes`` imports at call
time, and the defining module itself, so calls within a module are caught
too).  Private helpers such as ``_pair_chain`` are not wrapped: their time is
the self time of their public caller.

A span is ``[name, parent, op, start, end, raised]``; spans stay in memory
and are written out when the run ends.  Self time is a span's duration minus
the time its children cover.  Each function's self time is billed to a metric
group (``GROUPS``); a public function outside every group bills the nearest
grouped caller, so the groups' self times add up to the root spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("cli", "pfsa", "sync", "simplex", "process", "streams", "experiment")

GROUPS = {
    "cli.main": "cli.self",
    "pfsa.read_pfsa": "pfsa.read",
    "pfsa.parse_pfsa": "pfsa.read",
    "pfsa.validate": "pfsa.validate",
    "pfsa.require_valid": "pfsa.validate",
    "pfsa.minimal_closed_restriction": "pfsa.clx",
    "pfsa.sink_sccs": "pfsa.clx",
    "pfsa.closed_restrictions": "pfsa.clx",
    "pfsa.canonicalize": "pfsa.canonicalize",
    "pfsa.minimize": "pfsa.minimize",
    "pfsa.stationary_distribution": "pfsa.stationary",
    "pfsa.generate_sequence": "pfsa.sample",
    "pfsa.format_pfsa": "pfsa.format",
    "pfsa.write_pfsa": "pfsa.format",
    "pfsa.belief_update": "pfsa.belief",
    "pfsa.belief_from_string": "pfsa.belief",
    "pfsa.word_probability": "pfsa.belief",
    "pfsa.symbolic_derivative": "pfsa.belief",
    "sync.epsilon_synchronize": "sync.joint_search",
    "sync.joint_epsilon_synchronize": "sync.joint_search",
    "sync.joint_epsilon_synchronize_many": "sync.joint_search",
    "sync.product_machine": "sync.product_machine",
    "simplex.psum": "simplex.psum",
    "simplex.pscale": "simplex.pscale",
    "process.inner_exact": "process.inner_exact",
    "process.angle_mc_estimate": "process.mc",
    "process.inner_mc": "process.mc",
    "process.as_process": "process.as_process",
    "process.angle": "process.angle",
    "process.process_norm": "process.angle",
    "process.inner": "process.angle",
    "process.sum_processes": "process.sum",
    "process.scale_process": "process.scale",
    "process.zero_process": "process.scale",
    "streams.estimate_derivatives": "streams.estimate",
    "streams.table_angle": "streams.table_angle",
    "streams.table_inner": "streams.table_angle",
    "streams.table_norm": "streams.table_angle",
    "streams.stream_angle": "streams.table_angle",
    "streams.stream_inner": "streams.table_angle",
    "experiment.run_noise_experiment": "experiment.run",
}

# Spans whose call count is reported as ``<group>_calls``.
CALLS = {
    "pfsa.minimize": "pfsa.minimize_calls",
    "pfsa.stationary_distribution": "pfsa.stationary_calls",
    "pfsa.belief_update": "pfsa.belief_updates",
    "sync.epsilon_synchronize": "sync.joint_search_calls",
    "sync.joint_epsilon_synchronize": "sync.joint_search_calls",
    "sync.joint_epsilon_synchronize_many": "sync.joint_search_calls",
    "simplex.psum": "simplex.psum_calls",
    "simplex.pscale": "simplex.pscale_calls",
    "process.inner_exact": "process.inner_exact_calls",
}

NAME, PARENT, OP, START, END, RAISED = range(6)


def public_functions(module) -> dict[str, object]:
    """Functions a module defines under a public name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Records spans and per-call facts while installed; restores everything on exit.

    It can be entered and left many times; the wrappers are made once.

    ``hooks`` maps a span name to ``f(tracer, bound_args, result)``, called
    after the span has ended, to add counts to ``tracer.counts`` or keep
    arguments in ``tracer.kept``.
    """

    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.kept: dict[str, list] = {}
        self.op = -1
        self.hooks = hooks or {}
        self._stack: list[int] = []
        self._table: list[tuple[object, str, object, object]] | None = None

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.op, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding of a wrapped function."""
        if self._table is None:
            wrapped = {}
            for layer in LAYERS:
                module = sys.modules[f"procgeom.{layer}"]
                for fname, fn in public_functions(module).items():
                    wrapped[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
            self._table = [
                (module, attr, value, wrapped[id(value)])
                for mname, module in list(sys.modules.items())
                if mname == "procgeom" or mname.startswith("procgeom.")
                for attr, value in list(vars(module).items())
                if inspect.isfunction(value) and id(value) in wrapped
            ]
        return self._table

    def __enter__(self):
        for module, attr, _, wrapper in self._bindings():
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._bindings():
            setattr(module, attr, original)
        return False

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: id, parent, op, name, start and end (ns), raised."""
        base = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns,raised\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[OP]},{s[NAME]},"
                         f"{round((s[START] - base) * 1e9)},{round((s[END] - base) * 1e9)},{int(s[RAISED])}\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals (clipped to it)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append(s[END] - s[START] - covered)
    return out


def span_groups(spans: list[list]) -> list[str]:
    """Metric group billed for each span: its own, else its nearest grouped ancestor's."""
    groups: list[str] = []
    for s in spans:
        own = GROUPS.get(s[NAME])
        if own is None:
            own = groups[s[PARENT]] if s[PARENT] >= 0 else "untraced"
        groups.append(own)
    return groups


def errors_by_layer(spans: list[list]) -> dict[str, int]:
    """Exceptions that leave a layer: raised spans whose caller is another layer or the client."""
    out = {layer: 0 for layer in LAYERS}
    for s in spans:
        if not s[RAISED]:
            continue
        layer = s[NAME].split(".", 1)[0]
        parent = spans[s[PARENT]][NAME].split(".", 1)[0] if s[PARENT] >= 0 else None
        if parent != layer:
            out[layer] += 1
    return out


def inside(spans: list[list], groups: list[str], group: str) -> list[bool]:
    """Whether each span runs inside a span billed to ``group`` (itself included)."""
    flags: list[bool] = []
    for s, g in zip(spans, groups):
        flags.append(g == group or (s[PARENT] >= 0 and flags[s[PARENT]]))
    return flags
