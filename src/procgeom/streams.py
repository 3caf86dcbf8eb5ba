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

from .errors import StreamTooShort, UnknownKey, ZeroNorm
from .pfsa import Pfsa, check_same_alphabet, generate_sequence
from .simplex import ProbVec, _check_int, _freeze, log_ratios

STREAM_ZERO_NORM_TOL = 1e-9
_COUNT_SLICE = 1 << 16  # windows per ``bincount`` call, unless the table has more bins
MAX_CONTEXTS = 1 << 20  # largest context table, ``k ** depth`` rows, that estimation builds


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
    """Mean and (population) standard deviation of the symbol indices,
    equal bit for bit to those of the stream's float64 copy
    (``x.mean()`` and ``x.std()``), without making that copy.

    That contract needs the whole stream in memory: the squared deviations
    are summed in numpy's pairwise order over all of it.  The noise
    experiment never holds a stream, so it takes its statistics from the
    symbol counts instead (``_count_stats``): the same mean, and a std that
    may differ in its last bits.
    """
    n = len(s)
    if n == 0:
        raise StreamTooShort("cannot compute stats of an empty stream")
    # no float copy of the stream: the integer sum is exact, and the squared
    # deviations are gathered per symbol and summed in numpy's pairwise
    # order, the same values and order as ``astype(float64).std()``; an
    # index, unlike ``np.take``, does not copy the read-only indices first
    mean = int(np.add.reduce(s.indices)) / n
    sq = (np.arange(len(s.alphabet)) - mean) ** 2
    return mean, math.sqrt(np.add.reduce(sq[s.indices]) / n)


# ---------------------------------------------------------------------------
# stream files: one line, space separated, or compact for 1-char symbols

def _compact(alphabet) -> bool:
    """Whether every symbol is one character, so text can hold one per character."""
    return all(len(a) == 1 for a in alphabet)


def _split_symbols(text: str, alphabet) -> list[str]:
    """The symbols of ``text``: split on whitespace if it has a space or
    ``alphabet`` (None if not given) has a symbol wider than one character,
    as :func:`format_stream` writes it; one symbol per character otherwise."""
    if " " in text or not _compact(alphabet or ()):
        return text.split()
    return list(text)


def format_stream(s: SymbolStream) -> str:
    if _compact(s.alphabet):
        # one UTF-32 code unit per symbol, decoded at once
        text = np.array(s.alphabet, dtype="<U1")[s.indices].tobytes().decode("utf-32-le")
        return text + "\n"
    # a lone symbol ends with a space, so the line reads back as spaced
    # (:func:`_split_symbols`) without the alphabet
    return " ".join(s.symbols()) + (" \n" if len(s) == 1 else "\n")


def write_stream(s: SymbolStream, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stream(s))


def read_stream(path, alphabet=None) -> SymbolStream:
    """Read a stream file; infer a sorted alphabet unless one is given.

    Spaced if the line has a space or a given symbol is wider than one
    character, as :func:`format_stream` writes it; compact otherwise
    (:func:`_split_symbols`).
    """
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.read().strip("\n")
    if not line:
        raise StreamTooShort(f"stream file {path} is empty")
    alphabet = None if alphabet is None else tuple(alphabet)
    return SymbolStream.from_symbols(_split_symbols(line, alphabet), alphabet)


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
    counts: np.ndarray
    probs: np.ndarray

    @property
    def contexts(self) -> tuple[tuple[str, ...], ...]:
        """Every context, in index order, built on each read: the table
        keeps only its arrays, since ``k ** depth`` tuples of symbols take
        eight to ten times the memory of ``counts`` and ``probs`` (13.1
        against 1.57 MB at depth 16 on two symbols)."""
        return tuple(itertools.product(self.alphabet, repeat=self.depth))

    def _context_index(self, context) -> int:
        context = tuple(context)
        if len(context) != self.depth:
            raise UnknownKey(f"context length {len(context)} != depth {self.depth}")
        lookup = {s: i for i, s in enumerate(self.alphabet)}
        code = 0
        for sym in context:
            if sym not in lookup:
                raise UnknownKey(f"context {context!r}: symbol {sym!r} not in alphabet "
                                 f"{' '.join(self.alphabet)}")
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


def _check_depth(depth: int, k: int) -> None:
    """Reject a depth that is not an integer or is negative, or one whose
    ``k ** depth`` contexts exceed ``MAX_CONTEXTS``: its count tables could
    not be allocated."""
    _check_int(depth, "depth")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if k ** depth > MAX_CONTEXTS:
        raise ValueError(f"depth {depth} gives {k}**{depth} contexts, more than {MAX_CONTEXTS}")


def _check_length(n: int, depth: int) -> None:
    """Reject a stream of ``n`` symbols that has no window of ``depth + 1``."""
    if n <= depth:
        raise StreamTooShort(f"stream length {n} <= depth {depth}")


def _estimate_pieces(pieces, alphabet, depth: int, smoothing: float):
    """The derivative table of the stream that ``pieces`` yields in order,
    and the count of each symbol in it, in one pass over the pieces.

    The last ``depth`` symbols of each piece go in front of the next, so a
    window that spans pieces is counted, and the counts are those of the
    joined stream however it is cut.  A symbol is counted as the first of
    its window, or among the ``depth`` symbols left at the end.
    """
    k = len(alphabet)
    # window codes in base k, first symbol most significant, by Horner's
    # rule, in the narrowest unsigned type that holds the largest code; past
    # 32 bits in int64, which ``bincount`` takes without a cast
    bins = k ** (depth + 1)
    codes = np.min_scalar_type(bins - 1)
    codes = codes if codes.itemsize < 8 else np.dtype(np.int64)
    # counted in slices: ``bincount`` casts narrow codes to intp, 8 bytes a
    # window, so a slice of at least as many windows as bins bounds that
    # copy by the table's own size or ``_COUNT_SLICE``, whatever the length
    size = max(_COUNT_SLICE, bins)
    joint = np.zeros(bins, dtype=np.int64)
    tail = np.empty(0, dtype=codes)
    for piece in pieces:
        indices = piece.astype(codes, copy=False)
        if tail.size:
            indices = np.concatenate((tail, indices))
        n = indices.size - depth
        if n > 0:
            window = indices[:n].copy()
            for i in range(1, depth + 1):
                window *= k
                window += indices[i:n + i]
            for start in range(0, n, size):
                joint += np.bincount(window[start:start + size], minlength=bins)
            del window
        # of this piece only its tail is kept while the next is sampled
        tail = indices[max(n, 0):].copy()
        del indices
    symbols = joint.reshape(k, -1).sum(axis=1) + np.bincount(tail, minlength=k)
    joint = joint.reshape(k ** depth, k)
    counts = joint.sum(axis=1)
    probs = (joint + smoothing) / (counts[:, None] + smoothing * k)
    table = DerivativeTable(
        alphabet=alphabet,
        depth=depth,
        smoothing=smoothing,
        counts=_freeze(counts),
        probs=_freeze(probs),
    )
    return table, symbols


def _count_stats(counts: np.ndarray) -> tuple[float, float]:
    """Mean and (population) standard deviation of a stream's symbol
    indices from ``counts[i]``, the number of times index ``i`` occurs.

    The mean is the exact integer sum over the length, so it has the bits
    of :func:`stream_stats`; the variance is one correctly rounded sum of
    ``k`` products, where :func:`stream_stats` sums one square per symbol,
    so the std may differ from it in its last bits.
    """
    n, values = int(counts.sum()), np.arange(counts.size)
    mean = int(values @ counts) / n
    return mean, math.sqrt(math.fsum((counts * (values - mean) ** 2).tolist()) / n)


def estimate_derivatives(s: SymbolStream, depth: int, smoothing: float = 0.5) -> DerivativeTable:
    """Sliding-window estimates of next-symbol distributions per context.

    For each context ``x`` of length ``depth`` and each symbol ``sigma``,
    the estimate is ``(count(x sigma) + smoothing) / (count(x .) +
    smoothing * |alphabet|)`` over overlapping windows.

    Raises
    ------
    TypeError
        If ``depth`` is not an integer (``bool`` included).
    ValueError
        If ``depth`` is negative or gives more than ``MAX_CONTEXTS``
        contexts, or ``smoothing`` is not a finite positive number.
    StreamTooShort
        If the stream has no window of length ``depth + 1``.
    """
    _check_depth(depth, len(s.alphabet))
    _check_smoothing(smoothing)
    _check_length(len(s), depth)
    return _estimate_pieces((s.indices,), s.alphabet, depth, smoothing)[0]


# ---------------------------------------------------------------------------
# stream-level inner product and angle

def _charts(t1: DerivativeTable, t2: DerivativeTable) -> tuple[np.ndarray, np.ndarray]:
    """Both tables' log-ratio charts, once their alphabets and depths are
    checked to agree."""
    check_same_alphabet(t1, t2)
    if t1.depth != t2.depth:
        raise ValueError(f"depths differ: {t1.depth} vs {t2.depth}")
    return log_ratios(t1.probs), log_ratios(t2.probs)


def _chart_inner(lr1: np.ndarray, lr2: np.ndarray) -> float:
    return float((lr1 * lr2).sum() / lr1.shape[0])


def table_inner(t1: DerivativeTable, t2: DerivativeTable) -> float:
    """Uniform average over contexts of the log-ratio inner products:
    ``inner_exact`` of the tables' de Bruijn machines, whose states are the
    ``k ** d`` contexts, with ``delta(x, s) = x[1:] s`` and ``t.probs[x]``
    the row of state ``x``.
    """
    return _chart_inner(*_charts(t1, t2))


def table_norm(t: DerivativeTable) -> float:
    return math.sqrt(table_inner(t, t))


def table_angle(t1: DerivativeTable, t2: DerivativeTable) -> float:
    """Angle between two tables, ``acos`` of the clamped cosine; two
    tables with equal ``probs`` give exactly 0.0, where ``acos`` of their
    rounded cosine may not.

    Each table is charted once, and both norms and the cross inner product
    are taken from the two charts, with the bits of :func:`table_norm` and
    :func:`table_inner`.  Tables over different alphabets or depths raise
    before any norm is taken, whatever their ``probs``.  The exact route
    reads its angle from the cross pair chain instead
    (:func:`procgeom.process.angle`), which stays exact near 0 and
    pi, where this rounded cosine does not.

    Raises
    ------
    AlphabetMismatch, ValueError
        If the tables' alphabets or depths differ.
    ZeroNorm
        If either table's norm is below ``STREAM_ZERO_NORM_TOL``.
    """
    lr1, lr2 = _charts(t1, t2)
    norm_1, norm_2 = math.sqrt(_chart_inner(lr1, lr1)), math.sqrt(_chart_inner(lr2, lr2))
    if norm_1 < STREAM_ZERO_NORM_TOL or norm_2 < STREAM_ZERO_NORM_TOL:
        raise ZeroNorm(f"norm below {STREAM_ZERO_NORM_TOL:g}; angle undefined")
    cos = _chart_inner(lr1, lr2) / (norm_1 * norm_2)
    return 0.0 if np.array_equal(t1.probs, t2.probs) else math.acos(min(1.0, max(-1.0, cos)))


def _stream_tables(s1: SymbolStream, s2: SymbolStream, depth: int, smoothing: float):
    """Both streams' derivative tables, once their alphabets are checked to
    agree, so :class:`AlphabetMismatch` comes before any estimation error."""
    check_same_alphabet(s1, s2)
    return estimate_derivatives(s1, depth, smoothing), estimate_derivatives(s2, depth, smoothing)


def stream_inner(s1: SymbolStream, s2: SymbolStream, depth: int, smoothing: float = 0.5) -> float:
    return table_inner(*_stream_tables(s1, s2, depth, smoothing))


def stream_angle(s1: SymbolStream, s2: SymbolStream, depth: int, smoothing: float = 0.5) -> float:
    """Empirical angle between two streams at one context depth.

    Symmetric by construction; identical streams give exactly zero.

    Raises
    ------
    AlphabetMismatch, StreamTooShort, ZeroNorm
    """
    return table_angle(*_stream_tables(s1, s2, depth, smoothing))
