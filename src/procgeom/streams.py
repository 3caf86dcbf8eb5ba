"""Empirical estimation from raw symbol streams.

Streams carry their ordered alphabet so that estimated next-symbol
distributions inherit the canonical coordinate order.  Estimation slides a
window over the stream, counting how often each length-``depth`` context
is followed by each symbol; additive smoothing keeps every estimate
strictly positive, so the simplex algebra applies verbatim.

The stream-level inner product weights all contexts of the chosen depth
uniformly — the data analogue of driving two synchronized machines with
uniformly random symbols — and yields the empirical angle between two
streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, StreamTooShort, ZeroNorm
from .pfsa import Pfsa, generate_sequence
from .simplex import ProbVec, _freeze, log_ratios

STREAM_ZERO_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SymbolStream:
    """A finite symbol sequence over an ordered alphabet.

    ``indices`` is a read-only int64 array of positions into ``alphabet``.
    """

    indices: np.ndarray
    alphabet: tuple[str, ...]

    def __len__(self):
        return int(self.indices.size)

    def symbols(self) -> list[str]:
        return [self.alphabet[i] for i in self.indices]

    @staticmethod
    def from_indices(indices, alphabet) -> "SymbolStream":
        alphabet = tuple(alphabet)
        idx = np.asarray(indices, dtype=np.int64).copy()
        if idx.size and (idx.min() < 0 or idx.max() >= len(alphabet)):
            raise ValueError("stream index out of alphabet range")
        return SymbolStream(indices=_freeze(idx), alphabet=alphabet)

    @staticmethod
    def from_symbols(symbols, alphabet=None) -> "SymbolStream":
        symbols = list(symbols)
        if alphabet is None:
            alphabet = tuple(sorted(set(symbols)))
        alphabet = tuple(alphabet)
        lookup = {s: i for i, s in enumerate(alphabet)}
        try:
            idx = np.array([lookup[s] for s in symbols], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"symbol {exc.args[0]!r} not in alphabet {alphabet}") from None
        return SymbolStream(indices=_freeze(idx), alphabet=alphabet)


def stream_from_model(g: Pfsa, length: int, seed) -> SymbolStream:
    """Sample a stream from a machine, keeping its alphabet attached."""
    return SymbolStream(indices=generate_sequence(g, length, seed), alphabet=g.alphabet)


def stream_stats(s: SymbolStream) -> tuple[float, float]:
    """Mean and (population) standard deviation of the symbol indices."""
    if len(s) == 0:
        raise StreamTooShort("cannot compute stats of an empty stream")
    x = s.indices.astype(np.float64)
    return float(x.mean()), float(x.std())


# ---------------------------------------------------------------------------
# stream files: one line, space separated, or compact for 1-char symbols

def format_stream(s: SymbolStream) -> str:
    names = s.symbols()
    if all(len(n) == 1 for n in s.alphabet):
        return "".join(names) + "\n"
    return " ".join(names) + "\n"


def write_stream(s: SymbolStream, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stream(s))


def read_stream(path, alphabet=None) -> SymbolStream:
    """Read a stream file; infer a sorted alphabet unless one is given."""
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.read().strip("\n")
    if not line:
        raise StreamTooShort(f"stream file {path} is empty")
    if " " in line:
        tokens = line.split()
    else:
        tokens = list(line)
    return SymbolStream.from_symbols(tokens, alphabet)


# ---------------------------------------------------------------------------
# context-conditioned symbolic-derivative estimation

@dataclass(frozen=True)
class DerivativeTable:
    """Estimated next-symbol distributions for every context of one depth.

    ``contexts`` lists all ``|alphabet| ** depth`` contexts in lexicographic
    index order; ``counts[i]`` is how many windows showed context ``i``;
    ``probs[i]`` is its smoothed next-symbol estimate (a valid strictly
    positive probability vector even for unseen contexts).
    """

    alphabet: tuple[str, ...]
    depth: int
    smoothing: float
    contexts: tuple[tuple[str, ...], ...]
    counts: np.ndarray
    probs: np.ndarray

    def _context_index(self, context) -> int:
        context = tuple(context)
        if len(context) != self.depth:
            raise KeyError(f"context length {len(context)} != depth {self.depth}")
        lookup = {s: i for i, s in enumerate(self.alphabet)}
        code = 0
        for sym in context:
            code = code * len(self.alphabet) + lookup[sym]
        return code

    def estimate(self, context) -> ProbVec:
        """Smoothed next-symbol distribution after ``context``."""
        return self.probs[self._context_index(context)]

    def count(self, context) -> int:
        return int(self.counts[self._context_index(context)])


def _check_smoothing(smoothing: float) -> None:
    """Reject a smoothing that is not a finite positive number: NaN or
    infinity would make every estimate NaN, and a stream's angle with
    itself would come out as pi."""
    if not (math.isfinite(smoothing) and smoothing > 0.0):
        raise ValueError(f"smoothing must be finite and > 0, got {smoothing!r}")


def estimate_derivatives(s: SymbolStream, depth: int, smoothing: float = 0.5) -> DerivativeTable:
    """Sliding-window estimates of next-symbol distributions per context.

    For each context ``x`` of length ``depth`` and each symbol ``sigma``,
    the estimate is ``(count(x sigma) + smoothing) / (count(x .) +
    smoothing * |alphabet|)`` over overlapping windows.

    Raises
    ------
    ValueError
        If ``depth`` is negative or ``smoothing`` is not a finite positive
        number.
    StreamTooShort
        If the stream has no window of length ``depth + 1``.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_smoothing(smoothing)
    k = len(s.alphabet)
    n = len(s)
    if n <= depth:
        raise StreamTooShort(f"stream length {n} <= depth {depth}")
    # window codes in base k, first symbol most significant, by Horner's rule
    joint_codes = s.indices[: n - depth].copy()
    for i in range(1, depth + 1):
        joint_codes *= k
        joint_codes += s.indices[i : n - depth + i]
    joint = np.bincount(joint_codes, minlength=k ** (depth + 1)).reshape(k**depth, k)
    counts = joint.sum(axis=1)
    probs = (joint + smoothing) / (counts[:, None] + smoothing * k)
    contexts = tuple(itertools.product(s.alphabet, repeat=depth))
    return DerivativeTable(
        alphabet=s.alphabet,
        depth=depth,
        smoothing=smoothing,
        contexts=contexts,
        counts=_freeze(counts),
        probs=_freeze(probs),
    )


# ---------------------------------------------------------------------------
# stream-level inner product and angle

def table_inner(t1: DerivativeTable, t2: DerivativeTable) -> float:
    """Uniform average over contexts of the log-ratio inner products."""
    if t1.alphabet != t2.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {t1.alphabet} vs {t2.alphabet}")
    if t1.depth != t2.depth:
        raise ValueError(f"depths differ: {t1.depth} vs {t2.depth}")
    return float((log_ratios(t1.probs) * log_ratios(t2.probs)).sum() / t1.probs.shape[0])


def table_norm(t: DerivativeTable) -> float:
    return math.sqrt(max(table_inner(t, t), 0.0))


def table_angle(t1: DerivativeTable, t2: DerivativeTable) -> float:
    n1, n2 = table_norm(t1), table_norm(t2)
    if n1 < STREAM_ZERO_NORM_TOL or n2 < STREAM_ZERO_NORM_TOL:
        raise ZeroNorm("empirical norm below tolerance; angle undefined")
    cos = table_inner(t1, t2) / (n1 * n2)
    return math.acos(min(1.0, max(-1.0, cos)))


def stream_inner(s1: SymbolStream, s2: SymbolStream, depth: int, smoothing: float = 0.5) -> float:
    if s1.alphabet != s2.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {s1.alphabet} vs {s2.alphabet}")
    return table_inner(
        estimate_derivatives(s1, depth, smoothing), estimate_derivatives(s2, depth, smoothing)
    )


def stream_angle(s1: SymbolStream, s2: SymbolStream, depth: int, smoothing: float = 0.5) -> float:
    """Empirical angle between two streams at one context depth.

    Symmetric by construction; identical streams give exactly zero.

    Raises
    ------
    AlphabetMismatch, StreamTooShort, ZeroNorm
    """
    if s1.alphabet != s2.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {s1.alphabet} vs {s2.alphabet}")
    return table_angle(
        estimate_derivatives(s1, depth, smoothing), estimate_derivatives(s2, depth, smoothing)
    )
