"""Noise-robustness experiment: scaled copies of one base process.

Scaling a process by a small factor drags every emission row toward the
uniform distribution — the streams it emits look like flat white noise by
first-order statistics — yet the angles between the scaled processes are
unchanged wherever both operands keep nonzero norm.  The experiment builds
the scaled family, computes the exact model-level angle matrix, generates
two independent streams per model, and compares against the empirical
stream-level angles, with the angle between a model's own two streams
serving as the "angle from self" diagnostic (ideally zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DepthExceeded, NotErgodic, ZeroNorm
from .pfsa import Pfsa, _sampler
from .process import ProcessHandle, angle, as_process, scale_process
from .simplex import _check_int
from .streams import (
    SymbolStream,
    _check_depth,
    _check_length,
    _check_smoothing,
    estimate_derivatives,
    stream_stats,
    table_angle,
)

DEFAULT_SCALES = (1.0, -1.0, 0.1, -0.1, 0.0)


@dataclass(frozen=True)
class ExperimentConfig:
    scales: tuple[float, ...] = DEFAULT_SCALES
    stream_length: int = 1_000_000
    depth: int = 4
    smoothing: float = 0.5
    seed: int = 42

    def echo(self) -> str:
        scales = ",".join(f"{a:g}" for a in self.scales)
        return (
            f"scales={scales} stream_length={self.stream_length} "
            f"depth={self.depth} smoothing={self.smoothing:g} seed={self.seed}"
        )


@dataclass(frozen=True)
class ExperimentReport:
    """Results of one noise experiment.

    ``model_angles`` holds exact pairwise process angles, NaN where the
    angle is undefined; ``undefined`` maps each such pair ``(i, j)``,
    ``i <= j``, to the reason: "zero norm" when an operand has zero norm,
    or the error that left the pair without a defined exact angle (no
    jointly synchronizing start found within the depth budget, or several
    recurrent classes reachable from it).  ``zero_norm`` flags the models
    whose own norm is zero; ``empirical_angles`` holds stream-level angles
    with the self-angle diagnostics on the diagonal.  Both matrices are
    symmetric.
    """

    config: ExperimentConfig
    labels: tuple[str, ...]
    zero_norm: tuple[bool, ...]
    model_angles: np.ndarray
    empirical_angles: np.ndarray
    stream_means: np.ndarray   # (n_models, 2)
    stream_stds: np.ndarray    # (n_models, 2)
    models: tuple[ProcessHandle, ...] = field(repr=False)
    undefined: dict[tuple[int, int], str] = field(default_factory=dict)

    def _matrix_csv(self, matrix: np.ndarray, what: str) -> str:
        lines = [f"# {what}; angles in radians; {self.config.echo()}"]
        lines.append("model," + ",".join(self.labels))
        for i, lab in enumerate(self.labels):
            cells = ",".join("" if np.isnan(v) else f"{v:.17g}" for v in matrix[i])
            lines.append(f"{lab},{cells}")
        return "\n".join(lines) + "\n"

    def model_angles_csv(self) -> str:
        return self._matrix_csv(self.model_angles, "exact model-level angle matrix")

    def empirical_angles_csv(self) -> str:
        return self._matrix_csv(
            self.empirical_angles,
            "empirical stream-level angle matrix (diagonal: self-angle from two independent streams)",
        )

    def stats_csv(self) -> str:
        lines = [f"# per-stream symbol-index statistics; {self.config.echo()}"]
        lines.append("model,stream,mean,std")
        for i, lab in enumerate(self.labels):
            for s in range(2):
                lines.append(f"{lab},{s},{self.stream_means[i, s]:.17g},{self.stream_stds[i, s]:.17g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        out = [f"noise experiment ({self.config.echo()})", ""]
        out.append(f"{'model':>10} {'mean(s0)':>12} {'std(s0)':>12} {'self-angle':>12} {'zero-norm':>10}")
        for i, lab in enumerate(self.labels):
            self_angle = self.empirical_angles[i, i]
            self_txt = "n/a" if np.isnan(self_angle) else f"{self_angle:.4f}"
            out.append(
                f"{lab:>10} {self.stream_means[i, 0]:>12.6f} {self.stream_stds[i, 0]:>12.6f} "
                f"{self_txt:>12} {str(self.zero_norm[i]):>10}"
            )
        out.append("")
        out.append("pairwise angles (exact | empirical):")
        n = len(self.labels)
        for i in range(n):
            for j in range(i + 1, n):
                ex = self.model_angles[i, j]
                em = self.empirical_angles[i, j]
                ex_txt = f"undefined ({self.undefined[i, j]})" if np.isnan(ex) else f"{ex:.6f}"
                em_txt = "n/a" if np.isnan(em) else f"{em:.6f}"
                out.append(f"  {self.labels[i]} vs {self.labels[j]}: {ex_txt} | {em_txt}")
        return "\n".join(out) + "\n"


def run_noise_experiment(base: Pfsa, config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    """Build the scaled model family, stream from it, and measure angles.

    Streams are sampled one at a time, in the seed order of
    ``SeedSequence(config.seed).spawn(n_models)`` and then two children per
    model; each is reduced to its mean, std and context table before the
    next is sampled, so peak memory holds about two streams of
    ``8 * config.stream_length`` bytes, not all of them.  Each model's
    sampling tables are built once, serve both of its streams, and are
    freed before the next model's are built.

    Raises
    ------
    TypeError
        If ``config.depth`` or ``config.stream_length`` is not an integer
        (``bool`` included); checked before any model is built or sampled.
    ValueError
        If ``config.depth`` or ``config.stream_length`` is negative, the
        depth gives more than :data:`~procgeom.streams.MAX_CONTEXTS`
        contexts over the base's alphabet, or ``config.smoothing`` is not a
        finite positive number; checked before any model is built or
        sampled.
    StreamTooShort
        If ``config.stream_length <= config.depth``, so a stream has no
        window of ``depth + 1`` symbols; checked at the same point.
    """
    _check_depth(config.depth, base.n_symbols)
    _check_smoothing(config.smoothing)
    _check_int(config.stream_length, "stream_length")
    if config.stream_length < 0:
        raise ValueError("stream_length must be >= 0")
    _check_length(config.stream_length, config.depth)
    base_p = as_process(base, label="G")
    models = tuple(scale_process(a, base_p) for a in config.scales)
    labels = tuple(f"{a:g}G" for a in config.scales)
    n = len(models)

    # rebinding ``stream`` frees the one before once the next is sampled;
    # freeing it earlier, by ``del``, made more page faults and slower ops
    seeds = np.random.SeedSequence(config.seed).spawn(n)
    means = np.empty((n, 2))
    stds = np.empty((n, 2))
    tables = []
    for i, m in enumerate(models):
        draw, per_model = _sampler(m.machine), []
        for s, seed in enumerate(seeds[i].spawn(2)):
            stream = SymbolStream(draw(config.stream_length, seed), m.machine.alphabet)
            means[i, s], stds[i, s] = stream_stats(stream)
            per_model.append(estimate_derivatives(stream, config.depth, config.smoothing))
        del draw  # frees this model's sampling tables before the next model's are built
        tables.append(per_model)

    # each model keeps its norm, so each norm and each cross pair is solved
    # once; a diagonal stream cell pairs the model's own two streams
    model_angles = np.full((n, n), np.nan)
    empirical = np.full((n, n), np.nan)
    undefined = {}
    for i in range(n):
        for j in range(i, n):
            try:
                model_angles[i, j] = model_angles[j, i] = angle(models[i], models[j])
            except ZeroNorm:
                undefined[i, j] = "zero norm"
            except (DepthExceeded, NotErgodic) as err:
                undefined[i, j] = f"{type(err).__name__}: {err}"
            try:
                empirical[i, j] = empirical[j, i] = table_angle(tables[i][0], tables[j][i == j])
            except ZeroNorm:
                pass

    return ExperimentReport(
        config=config,
        labels=labels,
        zero_norm=tuple(undefined.get((i, i)) == "zero norm" for i in range(n)),
        model_angles=model_angles,
        empirical_angles=empirical,
        stream_means=means,
        stream_stds=stds,
        models=models,
        undefined=undefined,
    )
