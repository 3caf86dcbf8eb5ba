"""Per-layer metrics of a traced pass: self times, counts, ratios and memory peaks.

Times are self times summed over the traced pass, which replays a fixed
list of ops for a given seed, so counts repeat exactly across commits.  A
module the workload never reaches reports zeros.
"""

from __future__ import annotations

import statistics
import tracemalloc

import numpy as np

from . import tracing
from .inputs import sink_components

MB = 2.0**20

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.errors": "count",
    "pfsa.read_s": "s",
    "pfsa.validate_s": "s",
    "pfsa.clx_s": "s",
    "pfsa.canonicalize_s": "s",
    "pfsa.minimize_s": "s",
    "pfsa.minimize_calls": "count",
    "pfsa.minimize_states_in": "count",
    "pfsa.minimize_ratio": "ratio",
    "pfsa.stationary_s": "s",
    "pfsa.stationary_calls": "count",
    "pfsa.sample_s": "s",
    "pfsa.sample_symbols": "count",
    "pfsa.sample_symbols_per_s": "1/s",
    "pfsa.format_s": "s",
    "pfsa.belief_s": "s",
    "pfsa.belief_updates": "count",
    "pfsa.errors": "count",
    "sync.joint_search_s": "s",
    "sync.joint_search_calls": "count",
    "sync.string_len": "count",
    "sync.depth_searched": "count",
    "sync.useful_ratio": "ratio",
    "sync.product_machine_s": "s",
    "sync.product_states": "count",
    "sync.errors": "count",
    "simplex.psum_s": "s",
    "simplex.psum_calls": "count",
    "simplex.pscale_s": "s",
    "simplex.pscale_calls": "count",
    "simplex.errors": "count",
    "process.inner_exact_s": "s",
    "process.inner_exact_calls": "count",
    "process.pair_states": "count",
    "process.pair_keep_ratio": "ratio",
    "process.pair_matrix_mb": "MB",
    "process.inner_exact_peak_mb": "MB",
    "process.mc_s": "s",
    "process.walk_steps": "count",
    "process.walk_steps_per_s": "1/s",
    "process.mc_peak_mb": "MB",
    "process.mc_cos_se": "ratio",
    "process.mc_cos_abs_err": "ratio",
    "process.as_process_s": "s",
    "process.angle_s": "s",
    "process.sum_s": "s",
    "process.scale_s": "s",
    "process.errors": "count",
    "streams.estimate_s": "s",
    "streams.windows": "count",
    "streams.windows_per_s": "1/s",
    "streams.table_angle_s": "s",
    "streams.angle_abs_err": "rad",
    "streams.errors": "count",
    "experiment.run_s": "s",
    "experiment.errors": "count",
    "trace.ops": "count",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_gap_frac": "ratio",
}


# ---------------------------------------------------------------------------
# hooks: facts taken from arguments and results, after the span has ended

def _minimize(tr, a, result):
    tr.add("pfsa.minimize_states_in", a["g"].n_states)
    tr.add("pfsa.minimize_states_out", result.n_states)


def _generate(tr, a, result):
    tr.add("pfsa.sample_symbols", a["length"])


def _sync_one(tr, a, result):
    tr.add("sync.string_len", len(result.string))
    tr.add("sync.depth_searched", result.depth_searched)


def _sync_joint(tr, a, result):
    rg, _, string = result
    tr.add("sync.string_len", len(string))
    tr.add("sync.depth_searched", rg.depth_searched)


def _sync_many(tr, a, result):
    results, string = result
    tr.add("sync.string_len", len(string))
    tr.add("sync.depth_searched", results[0].depth_searched)


def _product(tr, a, result):
    tr.add("sync.product_states", result.n_states)


def _inner_exact(tr, a, result):
    tr.kept.setdefault("inner_exact", []).append((a["p"], a["q"]))


def _angle_mc(tr, a, result):
    tr.add("process.walk_steps", 3 * a["repeats"] * a["walk_length"])
    tr.kept.setdefault("mc", []).append(dict(a))


def _inner_mc(tr, a, result):
    tr.add("process.walk_steps", a["repeats"] * a["walk_length"])


def _estimate(tr, a, result):
    tr.add("streams.windows", len(a["s"]) - a["depth"])


HOOKS = {
    "pfsa.minimize": _minimize,
    "pfsa.generate_sequence": _generate,
    "sync.epsilon_synchronize": _sync_one,
    "sync.joint_epsilon_synchronize": _sync_joint,
    "sync.joint_epsilon_synchronize_many": _sync_many,
    "sync.product_machine": _product,
    "process.inner_exact": _inner_exact,
    "process.angle_mc_estimate": _angle_mc,
    "process.inner_mc": _inner_mc,
    "streams.estimate_derivatives": _estimate,
}


# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(machine) -> np.ndarray:
    index = {name: i for i, name in enumerate(machine.states)}
    return np.array([[index[machine.next_state(q, a)] for a in machine.alphabet]
                     for q in machine.states])


def pair_keep(p, q) -> int:
    """States in the sink component of the uniformly driven pair chain of two handles."""
    g, h = _delta(p.machine), _delta(q.machine)
    pair = (g[:, None, :] * h.shape[0] + h[None, :, :]).reshape(g.shape[0] * h.shape[0], -1)
    return len(sink_components(pair)[0])


def peak_mb(fn, kwargs: dict) -> float:
    """tracemalloc peak of one untraced call."""
    tracemalloc.start()
    try:
        fn(**kwargs)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def layer_metrics(tracer, process_module, *, import_s: float, untraced_s: float,
                  traced_s: float, n_ops: int, extras: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` value; call after the tracer has been removed."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    groups = tracing.span_groups(spans)
    busy: dict[str, float] = {}
    for group, t in zip(groups, selfs):
        busy[group] = busy.get(group, 0.0) + t
    counts = dict(tracer.counts)
    for s in spans:
        key = tracing.CALLS.get(s[tracing.NAME])
        if key:
            counts[key] = counts.get(key, 0) + 1
    in_sync = tracing.inside(spans, groups, "sync.joint_search")
    sync_updates = sum(1 for s, flag in zip(spans, in_sync)
                       if flag and s[tracing.NAME] == "pfsa.belief_update")

    exact_pairs = tracer.kept.get("inner_exact", [])
    sizes = [p.machine.n_states * q.machine.n_states for p, q in exact_pairs]
    keeps = [pair_keep(p, q) for p, q in exact_pairs]
    exact_peak = mc_peak = 0.0
    if exact_pairs:
        # the costliest call: largest pair chain, then largest sink block to solve
        p, q = exact_pairs[max(range(len(sizes)), key=lambda i: (sizes[i], keeps[i]))]
        exact_peak = peak_mb(process_module.inner_exact, {"p": p, "q": q})
    mc_calls = tracer.kept.get("mc", [])
    if mc_calls:
        widest = max(mc_calls, key=lambda a: max(a["p"].machine.n_states, a["q"].machine.n_states))
        mc_peak = peak_mb(process_module.angle_mc_estimate, widest)

    def s(group):
        return busy.get(group, 0.0)

    def c(key):
        return counts.get(key, 0)

    traced_total = sum(selfs)
    out = {
        "cli.import_s": import_s,
        "cli.self_s": s("cli.self"),
        "pfsa.read_s": s("pfsa.read"),
        "pfsa.validate_s": s("pfsa.validate"),
        "pfsa.clx_s": s("pfsa.clx"),
        "pfsa.canonicalize_s": s("pfsa.canonicalize"),
        "pfsa.minimize_s": s("pfsa.minimize"),
        "pfsa.minimize_calls": c("pfsa.minimize_calls"),
        "pfsa.minimize_states_in": c("pfsa.minimize_states_in"),
        "pfsa.minimize_ratio": _ratio(c("pfsa.minimize_states_out"), c("pfsa.minimize_states_in")),
        "pfsa.stationary_s": s("pfsa.stationary"),
        "pfsa.stationary_calls": c("pfsa.stationary_calls"),
        "pfsa.sample_s": s("pfsa.sample"),
        "pfsa.sample_symbols": c("pfsa.sample_symbols"),
        "pfsa.sample_symbols_per_s": _ratio(c("pfsa.sample_symbols"), s("pfsa.sample")),
        "pfsa.format_s": s("pfsa.format"),
        "pfsa.belief_s": s("pfsa.belief"),
        "pfsa.belief_updates": c("pfsa.belief_updates"),
        "sync.joint_search_s": s("sync.joint_search"),
        "sync.joint_search_calls": c("sync.joint_search_calls"),
        "sync.string_len": c("sync.string_len"),
        "sync.depth_searched": c("sync.depth_searched"),
        "sync.useful_ratio": _ratio(c("sync.string_len"), sync_updates),
        "sync.product_machine_s": s("sync.product_machine"),
        "sync.product_states": c("sync.product_states"),
        "simplex.psum_s": s("simplex.psum"),
        "simplex.psum_calls": c("simplex.psum_calls"),
        "simplex.pscale_s": s("simplex.pscale"),
        "simplex.pscale_calls": c("simplex.pscale_calls"),
        "process.inner_exact_s": s("process.inner_exact"),
        "process.inner_exact_calls": c("process.inner_exact_calls"),
        "process.pair_states": sum(sizes),
        "process.pair_keep_ratio": _ratio(sum(keeps), sum(sizes)),
        "process.pair_matrix_mb": 8 * max(sizes, default=0) ** 2 / MB,
        "process.inner_exact_peak_mb": exact_peak,
        "process.mc_s": s("process.mc"),
        "process.walk_steps": c("process.walk_steps"),
        "process.walk_steps_per_s": _ratio(c("process.walk_steps"), s("process.mc")),
        "process.mc_peak_mb": mc_peak,
        "process.mc_cos_se": _median(extras.get("mc_cos_se")),
        "process.mc_cos_abs_err": _median(extras.get("mc_cos_abs_err")),
        "process.as_process_s": s("process.as_process"),
        "process.angle_s": s("process.angle"),
        "process.sum_s": s("process.sum"),
        "process.scale_s": s("process.scale"),
        "streams.estimate_s": s("streams.estimate"),
        "streams.windows": c("streams.windows"),
        "streams.windows_per_s": _ratio(c("streams.windows"), s("streams.estimate")),
        "streams.table_angle_s": s("streams.table_angle"),
        "streams.angle_abs_err": _median(extras.get("stream_angle_abs_err")),
        "experiment.run_s": s("experiment.run"),
        "trace.ops": n_ops,
        "trace.overhead_frac": _ratio(traced_s, untraced_s) - 1.0,
        "trace.self_sum_gap_frac": _ratio(traced_s - traced_total, traced_s),
    }
    for layer, n in tracing.errors_by_layer(spans).items():
        out[f"{layer}.errors"] = n
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
