"""Command-line front door.

One subcommand per library capability; numeric stdout uses 17 significant
digits; randomized subcommands echo their seed into the output header.
Exit status: 0 on success, 1 on a domain error (one-line diagnostic naming
the error case on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .errors import NotOrthogonal, ProcgeomError
from .experiment import DEFAULT_SCALES, ExperimentConfig, run_noise_experiment
from .pfsa import (
    Pfsa,
    format_pfsa,
    minimal_closed_restriction,
    minimize,
    read_pfsa,
    require_valid,
    stationary_distribution,
    validate,
    word_probability,
)
from .process import (
    DEFAULT_MC_EPS,
    ProcessHandle,
    angle,
    angle_mc_estimate,
    as_process,
    inner_exact,
    inner_mc,
    scale_process,
    sum_processes,
)
from .simplex import geodesic_intersection, geodesic_point, from_log_ratios, make_pvec
from .streams import (
    _compact,
    _split_symbols,
    estimate_derivatives,
    read_stream,
    stream_from_model,
    write_stream,
)
from .sync import epsilon_synchronize


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_valid(path: str) -> Pfsa:
    return require_valid(read_pfsa(path))


def _load_process(path: str) -> ProcessHandle:
    return as_process(read_pfsa(path), label=Path(path).stem)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_validate(args) -> int:
    report = validate(read_pfsa(args.model))
    print(str(report))
    return 0 if report.valid else 1


def _cmd_stationary(args) -> int:
    g = _load_valid(args.model)
    p = stationary_distribution(g)
    print("# states: " + " ".join(g.states))
    print(" ".join(_fmt(x) for x in p))
    return 0


def _cmd_clx(args) -> int:
    _emit(format_pfsa(minimal_closed_restriction(_load_valid(args.model))), args.output)
    return 0


def _cmd_minimize(args) -> int:
    _emit(format_pfsa(minimize(_load_valid(args.model), tol=args.tol)), args.output)
    return 0


def _cmd_generate(args) -> int:
    g = _load_valid(args.model)
    s = stream_from_model(g, args.length, args.seed)
    write_stream(s, args.output)
    print(f"# seed={args.seed} length={args.length} model={args.model} output={args.output}")
    return 0


def _cmd_wordprob(args) -> int:
    g = _load_valid(args.model)
    print(_fmt(word_probability(g, _split_symbols(args.word, g.alphabet))))
    return 0


def _cmd_sync(args) -> int:
    g = _load_valid(args.model)
    res = epsilon_synchronize(g, args.eps, args.max_depth)
    print(f"string: {''.join(res.string) if res.string else '(empty)'}")
    print(f"achieved: {_fmt(res.achieved)}")
    print(f"state: {res.state}")
    print(f"depth_searched: {res.depth_searched}")
    return 0


def _cmd_scale(args) -> int:
    p = _load_process(args.model)
    _emit(format_pfsa(scale_process(args.alpha, p).machine), args.output)
    return 0


def _cmd_sum(args) -> int:
    p = _load_process(args.model_a)
    q = _load_process(args.model_b)
    _emit(format_pfsa(sum_processes(p, q).machine), args.output)
    return 0


_MC_DEFAULTS = {"eps": DEFAULT_MC_EPS, "walk_length": 100_000, "repeats": 20, "seed": 42}
_MC_HEADER = "# seed={seed} eps={eps:g} walk_length={walk_length} repeats={repeats}"


def _mc_options(args) -> dict | None:
    """Monte Carlo options of ``inner`` and ``angle``, unset ones at their
    defaults, or None in exact mode; a ``ValueError`` if exact mode is
    given one, which it would ignore."""
    given = {k: getattr(args, k) for k in _MC_DEFAULTS if getattr(args, k) is not None}
    if args.mode == "mc":
        return {**_MC_DEFAULTS, **given}
    if given:
        raise ValueError("exact mode takes no Monte Carlo options")
    return None


def _cmd_inner(args) -> int:
    mc = _mc_options(args)
    p = _load_process(args.model_a)
    q = _load_process(args.model_b)
    if mc is None:
        print(_fmt(inner_exact(p, q).value))
    else:
        est = inner_mc(p, q, **mc)
        print(_MC_HEADER.format(**mc))
        print(f"{_fmt(est.value)} {_fmt(est.std_error)}")
    return 0


def _cmd_angle(args) -> int:
    mc = _mc_options(args)
    p = _load_process(args.model_a)
    q = _load_process(args.model_b)
    if mc is None:
        print(_fmt(angle(p, q)))
    else:
        est = angle_mc_estimate(p, q, **mc)
        print(_MC_HEADER.format(**mc))
        print(f"{_fmt(est.angle)} cos={_fmt(est.cos)} cos_std_error={_fmt(est.cos_std_error)}")
    return 0


def _parse_pvec_option(text: str):
    return make_pvec([float(t) for t in text.split(",")])


def _cmd_geodesic_chart(args) -> int:
    if not np.isfinite(args.extend):
        raise ValueError(f"--extend must be finite, got {args.extend}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    endpoints = (args.p0, args.p1, args.q0, args.q1)
    if all(e is None for e in endpoints):
        # two orthogonal lines through the uniform center of the 2-simplex
        p0 = from_log_ratios([1.0, 0.6])
        q0 = from_log_ratios([-0.6, 1.0])
        p1 = q1 = make_pvec([1.0, 1.0, 1.0])
    elif any(e is None for e in endpoints):
        raise ValueError("geodesic-chart needs all of --p0 --p1 --q0 --q1, or none")
    else:
        p0, p1, q0, q1 = map(_parse_pvec_option, endpoints)
    dim = p0.shape[0]
    lines = []
    try:
        theta_star, p_star = geodesic_intersection(p0, p1, q0, q1)
        lines.append(
            "# intersection: theta_star=" + _fmt(theta_star)
            + " p_star=" + ",".join(_fmt(x) for x in p_star)
        )
    except NotOrthogonal:
        lines.append("# intersection: curves not orthogonal; skipped")
    lines.append(f"# samples={args.samples} extend={args.extend:g}")
    lines.append("curve,theta," + ",".join(f"x{i + 1}" for i in range(dim)))
    thetas = np.linspace(-args.extend, 1.0 + args.extend, args.samples)
    for name, (a, b) in (("gamma", (p0, p1)), ("eta", (q0, q1))):
        for t in thetas:
            pt = geodesic_point(a, b, float(t), extrapolate=True)
            lines.append(f"{name},{_fmt(float(t))}," + ",".join(_fmt(x) for x in pt))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_estimate(args) -> int:
    alphabet = args.alphabet.split() if args.alphabet else None
    s = read_stream(args.stream, alphabet)
    table = estimate_derivatives(s, args.depth, args.smoothing)
    lines = [f"# depth={args.depth} smoothing={args.smoothing:g} stream={args.stream} length={len(s)}"]
    lines.append("context,count," + ",".join(f"p_{sym}" for sym in table.alphabet))
    joiner = "" if _compact(table.alphabet) else " "
    for i, ctx in enumerate(table.contexts):
        probs = ",".join(_fmt(x) for x in table.probs[i])
        lines.append(f"{joiner.join(ctx)},{int(table.counts[i])},{probs}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_experiment(args) -> int:
    base = _load_valid(args.model)
    config = ExperimentConfig(
        scales=tuple(float(t) for t in args.scales.split(",")),
        stream_length=args.length,
        depth=args.depth,
        smoothing=args.smoothing,
        seed=args.seed,
    )
    report = run_noise_experiment(base, config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "model_angles.csv").write_text(report.model_angles_csv(), encoding="utf-8")
    (outdir / "stream_angles.csv").write_text(report.empirical_angles_csv(), encoding="utf-8")
    (outdir / "stream_stats.csv").write_text(report.stats_csv(), encoding="utf-8")
    (outdir / "summary.txt").write_text(report.summary(), encoding="utf-8")
    sys.stdout.write(report.summary())
    return 0


# ---------------------------------------------------------------------------
# parser

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="procgeom",
        description="Geometry of stationary ergodic finite-valued processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check a model file against all invariants")
    p.add_argument("model")

    p = add("stationary", _cmd_stationary, "stationary state distribution")
    p.add_argument("model")

    p = add("clx", _cmd_clx, "unique minimal closed restriction")
    p.add_argument("model")
    p.add_argument("-o", "--output")

    p = add("minimize", _cmd_minimize, "merge equivalent states")
    p.add_argument("model")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("-o", "--output")

    p = add("generate", _cmd_generate, "sample a symbol stream")
    p.add_argument("model")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("-o", "--output", required=True)

    p = add("wordprob", _cmd_wordprob, "probability of a finite word")
    p.add_argument("model")
    p.add_argument("word")

    p = add("sync", _cmd_sync, "find an epsilon-synchronizing string")
    p.add_argument("model")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-depth", type=int, default=None)

    p = add("scale", _cmd_scale, "scalar product of a process")
    p.add_argument("model")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("-o", "--output")

    p = add("sum", _cmd_sum, "sum of two processes")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("-o", "--output")

    for name, func, help_ in (
        ("inner", _cmd_inner, "inner product of two processes"),
        ("angle", _cmd_angle, "angle between two processes (radians)"),
    ):
        p = add(name, func, help_)
        p.add_argument("model_a")
        p.add_argument("model_b")
        p.add_argument("--mode", choices=("exact", "mc"), default="exact")
        # Monte Carlo options; None marks an option left unset (see _mc_options)
        p.add_argument("--eps", type=float)
        p.add_argument("--walk-length", type=int)
        p.add_argument("--repeats", type=int)
        p.add_argument("--seed", type=int)

    p = add("geodesic-chart", _cmd_geodesic_chart, "sample geodesic curves on the simplex as CSV")
    p.add_argument("--p0", help="comma-separated endpoint (default: built-in orthogonal pair, dim 3)")
    p.add_argument("--p1")
    p.add_argument("--q0")
    p.add_argument("--q1")
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--extend", type=float, default=0.25)
    p.add_argument("-o", "--output")

    p = add("estimate", _cmd_estimate, "estimate context-conditioned next-symbol distributions")
    p.add_argument("stream")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--smoothing", type=float, default=0.5)
    p.add_argument("--alphabet", help="space-separated symbols fixing the canonical order")
    p.add_argument("-o", "--output")

    p = add("experiment", _cmd_experiment, "noise-robustness experiment on a base model")
    p.add_argument("model")
    p.add_argument("--scales", default=",".join(f"{a:g}" for a in DEFAULT_SCALES))
    p.add_argument("--length", type=int, default=1_000_000)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--smoothing", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--outdir", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProcgeomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
