"""The four workloads: input classes, the CLI command of one op, and its output check.

Each op is one ``procgeom`` command run in-process through
``procgeom.cli.main(argv)``.  Each round of ops takes ``weight`` inputs
from every class, so a run covers the classes in fixed proportions
whatever its length; the weights put the median op inside one class.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import oracle
from .inputs import ClassSpec, Input

EXACT_TOL = 1e-12
MC_WALK_LENGTH = 2000
MC_REPEATS = 20
DENSE_COPIES = 5  # pair matrix, its sink block, the stacked system, a temporary, lstsq's copy
EXPERIMENT_SCALES = (1.0, -1.0, 0.1, -0.1, 0.0)  # the CLI defaults
EXPERIMENT_LABELS = ("1G", "-1G", "0.1G", "-0.1G", "0G")

# A mid-size random pair whose exact angle warms up the dense solver in every workload.
WARMUP_PAIR = ClassSpec("warmup", "random_pair", n=36, sink=28)


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


@dataclass
class Output:
    rc: int
    stdout: str
    stderr: str
    wall: float
    files: dict[str, bytes] = field(default_factory=dict)


class References:
    """Reference values, computed once per input."""

    def __init__(self):
        self._cache: dict[tuple[str, str], object] = {}

    def _get(self, kind: str, inp: Input, compute):
        key = (kind, inp.id)
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def cos(self, inp: Input) -> float:
        return self._get("cos", inp, lambda: oracle.exact_cos(*inp.machines))

    def sum_words(self, inp: Input) -> dict:
        return self._get("sum", inp, lambda: oracle.word_probabilities(
            oracle.sum_machine(*inp.machines), 4))

    def family_cos(self, inp: Input) -> list[list[float]]:
        def compute():
            family = [oracle.scaled(inp.machines[0], a) for a in EXPERIMENT_SCALES]
            return [[oracle.exact_cos(a, b) for b in family] for a in family]
        return self._get("family", inp, compute)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"not a number: {text!r}") from None


def _angle_in_range(theta: float) -> None:
    if not math.isfinite(theta) or not 0.0 <= theta <= math.pi:
        raise CheckFailed(f"angle {theta!r} is not a finite value in [0, pi]")


def _cos_matches(theta: float, ref: float, what: str) -> None:
    if math.isnan(ref):
        raise CheckFailed(f"{what}: reference is undefined (zero norm)")
    err = abs(math.cos(theta) - ref)
    if not err <= EXACT_TOL:
        raise CheckFailed(f"{what}: cos differs from the reference by {err:.3e}")


def _stdout_lines(out: Output) -> list[str]:
    lines = out.stdout.split("\n")
    if lines[-1] != "":
        raise CheckFailed("stdout does not end with a newline")
    return lines[:-1]


# ---------------------------------------------------------------------------
# exact_angle

def exact_argv(inp: Input, outdir: Path) -> list[str]:
    return ["angle", *inp.paths]


def exact_check(inp: Input, out: Output, refs: References) -> dict:
    lines = _stdout_lines(out)
    if len(lines) != 1:
        raise CheckFailed(f"expected one stdout line, got {len(lines)}")
    theta = _float(lines[0])
    _angle_in_range(theta)
    _cos_matches(theta, refs.cos(inp), "angle")
    return {}


def angle_dense_bytes(inp: Input) -> int:
    """Dense pair matrices of an exact angle; the largest chain is a norm's, n * n states."""
    pair_states = max(m.n_states for m in inp.machines) ** 2
    return 8 * pair_states**2 * DENSE_COPIES


# ---------------------------------------------------------------------------
# process_sum

def sum_argv(inp: Input, outdir: Path) -> list[str]:
    return ["sum", *inp.paths, "-o", str(outdir / "sum.pfsa")]


def sum_check(inp: Input, out: Output, refs: References) -> dict:
    if out.stdout:
        raise CheckFailed("sum -o wrote to stdout")
    try:
        machine = oracle.parse_machine(out.files["sum.pfsa"].decode())
        words = oracle.word_probabilities(machine, 4)
    except (KeyError, UnicodeDecodeError, ValueError, oracle.NoReference) as exc:
        raise CheckFailed(f"output machine unusable: {exc}") from None
    ref = refs.sum_words(inp)
    err = max(abs(words[w] - ref[w]) for w in ref)
    if not err <= EXACT_TOL:
        raise CheckFailed(f"word probabilities differ from the reference by {err:.3e}")
    return {}


def sum_dense_bytes(inp: Input) -> int:
    # validate() builds the transition matrix and one event matrix per symbol
    m = inp.machines[0].n_states * inp.machines[1].n_states
    return 8 * m * m * 4


# ---------------------------------------------------------------------------
# mc_angle

MC_VALUE = re.compile(r"^(\S+) cos=(\S+) cos_std_error=(\S+)$")


def mc_seed(inp: Input) -> int:
    return int(inp.id.rsplit("-", 1)[1])


def mc_argv(inp: Input, outdir: Path) -> list[str]:
    return ["angle", *inp.paths, "--mode", "mc", "--walk-length", str(MC_WALK_LENGTH),
            "--repeats", str(MC_REPEATS), "--seed", str(mc_seed(inp))]


def mc_check(inp: Input, out: Output, refs: References) -> dict:
    lines = _stdout_lines(out)
    header = f"# seed={mc_seed(inp)} eps=1e-06 walk_length={MC_WALK_LENGTH} repeats={MC_REPEATS}"
    if len(lines) != 2 or lines[0] != header:
        raise CheckFailed(f"unexpected stdout layout: {lines[:1]!r}")
    match = MC_VALUE.match(lines[1])
    if match is None:
        raise CheckFailed(f"unexpected value line {lines[1]!r}")
    theta, cos, se = (_float(x) for x in match.groups())
    _angle_in_range(theta)
    if not math.isfinite(cos) or not math.isfinite(se) or not se > 0.0:
        raise CheckFailed(f"cos {cos!r} or its standard error {se!r} is not finite and positive")
    if abs(theta - math.acos(min(1.0, max(-1.0, cos)))) > EXACT_TOL:
        raise CheckFailed("printed angle is not acos of the printed cos")
    return {"mc_cos_se": se, "mc_cos_abs_err": abs(cos - refs.cos(inp))}


def mc_dense_bytes(inp: Input) -> int:
    # per side: one (k, q, q) event gather for each of 3 pairs x repeats walks
    q = max(m.n_states for m in inp.machines)
    return 2 * 3 * MC_REPEATS * 2 * q * q * 8


# ---------------------------------------------------------------------------
# noise_experiment

EXPERIMENT_FILES = ("model_angles.csv", "stream_angles.csv", "stream_stats.csv", "summary.txt")


EXPERIMENT_LENGTH = 100_000  # per stream; the CLI default of 10^6 allows only 6-9 ops in a run


def experiment_argv(inp: Input, outdir: Path) -> list[str]:
    return ["experiment", inp.paths[0], "--outdir", str(outdir / "experiment"),
            "--length", str(EXPERIMENT_LENGTH)]


def _angle_matrix(text: str) -> list[list[float]]:
    lines = text.split("\n")
    if lines[-1] != "" or not lines[0].startswith("# ") or len(lines) != 3 + len(EXPERIMENT_LABELS):
        raise CheckFailed("angle matrix CSV has the wrong layout")
    if lines[1] != "model," + ",".join(EXPERIMENT_LABELS):
        raise CheckFailed(f"unexpected CSV header {lines[1]!r}")
    rows = []
    for label, line in zip(EXPERIMENT_LABELS, lines[2:-1]):
        cells = line.split(",")
        if cells[0] != label or len(cells) != 1 + len(EXPERIMENT_LABELS):
            raise CheckFailed(f"unexpected CSV row {line!r}")
        rows.append([math.nan if c == "" else _float(c) for c in cells[1:]])
    return rows


def experiment_check(inp: Input, out: Output, refs: References) -> dict:
    try:
        texts = {name: out.files[name].decode() for name in EXPERIMENT_FILES}
    except (KeyError, UnicodeDecodeError) as exc:
        raise CheckFailed(f"missing or unreadable output file: {exc}") from None
    if out.stdout != texts["summary.txt"]:
        raise CheckFailed("stdout differs from summary.txt")
    ref = refs.family_cos(inp)
    zero = [math.isnan(ref[i][i]) for i in range(len(ref))]
    if zero != [label == "0G" for label in EXPERIMENT_LABELS]:
        raise CheckFailed(f"reference zero-norm pattern {zero} is not exactly the 0G model")
    model = _angle_matrix(texts["model_angles.csv"])
    stream = _angle_matrix(texts["stream_angles.csv"])
    errs = []
    for i, row in enumerate(model):
        for j, theta in enumerate(row):
            if zero[i] or zero[j]:
                if not math.isnan(theta):
                    raise CheckFailed(f"model angle ({i}, {j}) should be empty (zero norm)")
                continue
            _angle_in_range(theta)
            _cos_matches(theta, ref[i][j], f"model angle ({i}, {j})")
            emp = stream[i][j]
            _angle_in_range(emp)
            if j >= i:
                errs.append(abs(emp - math.acos(min(1.0, max(-1.0, ref[i][j])))))
    for row in stream:
        for emp in row:
            if not math.isnan(emp):
                _angle_in_range(emp)
    stats = texts["stream_stats.csv"].split("\n")
    if stats[1] != "model,stream,mean,std" or len(stats) != 3 + 2 * len(EXPERIMENT_LABELS):
        raise CheckFailed("stream_stats.csv has the wrong layout")
    for line in stats[2:-1]:
        mean, std = (_float(x) for x in line.split(",")[2:])
        if not (0.0 <= mean <= 1.0 and 0.0 <= std <= 0.5 + EXACT_TOL):
            raise CheckFailed(f"stream statistics out of range: {line!r}")
    return {"stream_angle_abs_err": statistics.median(errs)}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: tuple[ClassSpec, ...]
    trace_rounds: int  # rounds of the op sequence the traced run replays
    argv: Callable[[Input, Path], list[str]]
    outputs: tuple[str, ...]
    check: Callable[[Input, Output, References], dict]
    dense_bytes: Callable[[Input], int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact_angle",
            "exact angle: per-op overhead (parse, normal form, argparse) at n=24 sets the median, "
            "the dense pair-chain build and O(m^3) solve at n=48 the tail; no sampling or walks",
            (
                ClassSpec("r12", "random_pair", 12, 9, 16),
                ClassSpec("r24", "random_pair", 24, 19, 48, weight=4),
                ClassSpec("r36", "random_pair", 36, 28, 16),
                ClassSpec("r48", "random_pair", 48, 38, 32),
            ),
            8, exact_argv, (), exact_check, angle_dense_bytes,
        ),
        Workload(
            "process_sum",
            "process sum: product machine, one psum per pair state, minimize, canonicalize "
            "and format; the only workload reaching psum and product_machine; no dense solve",
            (
                ClassSpec("r8", "random_pair", 8, 6, 24, weight=2),
                ClassSpec("r16", "random_pair", 16, 12, 72, weight=6),
                ClassSpec("r24", "random_pair", 24, 19, 24),
                ClassSpec("r32", "random_pair", 32, 25, 24, weight=2),
            ),
            4, sum_argv, ("sum.pfsa",), sum_check, sum_dense_bytes,
        ),
        Workload(
            "mc_angle",
            "Monte Carlo angle: the belief-walk kernel and three joint sync searches per op "
            "on random pairs; no dense solve of the pair chain and no sampling",
            (
                ClassSpec("r8", "random_pair", 8, 6, 16),
                ClassSpec("r24", "random_pair", 24, 19, 16),
                ClassSpec("r56", "random_pair", 56, 44, 16),
            ),
            8, mc_argv, (), mc_check, mc_dense_bytes,
        ),
        Workload(
            "noise_experiment",
            "the paper's noise experiment (5 scales, two 1e5-symbol streams per model, depth 4): "
            "~90% per-symbol sampling, context estimation, small exact angles; no walks or large solves",
            (
                ClassSpec("g2", "g2", 2, 2, 1),
                ClassSpec("r4", "random_base", 4, 3, 12),
                ClassSpec("r8", "random_base", 8, 6, 12),
            ),
            4, experiment_argv, tuple(f"experiment/{f}" for f in EXPERIMENT_FILES),
            experiment_check, angle_dense_bytes,
        ),
    )
}
