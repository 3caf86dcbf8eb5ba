"""Vector-space structure and inner product on strictly positive processes.

A process handle wraps a machine in normal form: restricted to its unique
minimal closed restriction, state-minimized, and canonically ordered.
Equality of processes means equality of finite-dimensional distributions
(word probabilities), which is what the helpers here compare.

The algebra mirrors the simplex operations row by row:

* zero process: one state emitting uniformly (flat white noise),
* scalar product: every emission row raised to a power and renormalized,
* sum: pair states moved componentwise, with row-wise simplex sums.

The inner product of two processes is the long-run average of the
log-ratio inner products of their next-symbol distributions along a
shared, uniformly random symbol stream, started after a jointly
synchronizing string.  ``inner_exact`` evaluates that limit in closed form
through the stationary distribution of the uniformly driven pair chain;
``inner_mc`` estimates it by seeded random walks.  When both operands have
a reset word, the state after it is known exactly and stays known, so the
walks follow integer pair states; otherwise they carry the full belief
recursion from an epsilon-synchronized start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MultipleRecurrentClasses, ZeroNorm
from .pfsa import (
    Pfsa,
    _extend_word,
    _reachable,
    _renumber,
    _sink_components,
    _stationary,
    _visit_table,
    belief_from_string,
    canonicalize,
    check_same_alphabet,
    minimal_closed_restriction,
    minimize,
    require_valid,
    stationary_distribution,
    structurally_equal,
)
from .simplex import _check_int, _freeze, log_ratios, pscale, psum
from .sync import _pair_delta, _reset_word, joint_epsilon_synchronize

ZERO_NORM_TOL = 1e-12
DEFAULT_MC_EPS = 1e-6
_WALK_BLOCK_STEPS = 4096  # walk steps whose symbols are drawn at once
_WALK_SUB_STEPS = 256  # pair-state walk steps whose states are filled in at once


@dataclass(frozen=True)
class ProcessHandle:
    """A strictly positive process, stored in normal form with a label.

    The handle is immutable, so it keeps its norm record, the estimate of
    ``inner_exact(p, p)``, once solved, as a machine keeps its stationary
    vector.
    """

    machine: Pfsa
    label: str
    _norm: InnerEstimate | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.machine.alphabet


@dataclass(frozen=True)
class InnerEstimate:
    """Inner-product value with its sampling uncertainty.

    Exact evaluations carry ``std_error`` 0, zero walk counts and
    ``chain``, the pair-chain record the value is reduced from: a tuple
    ``(rho, lg, lh)`` of the stationary vector of the uniformly driven pair
    chain on the sink's own states and, row ``t`` for sink state ``(i, j)``,
    the operands' log-ratio rows ``lg[t] = log_ratios(g)[i]`` and
    ``lh[t] = log_ratios(h)[j]``, all three read-only.  Monte Carlo
    estimates carry ``None``.  ``chain`` is left out of ``repr`` and ``==``.
    """

    value: float
    std_error: float
    mode: str  # "exact" or "monte-carlo"
    walks: int
    walk_length: int
    chain: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class AngleEstimate:
    """Angle with the cosine-level uncertainty of its Monte Carlo inputs."""

    angle: float
    cos: float
    cos_std_error: float
    inner: InnerEstimate
    norm_sq_a: InnerEstimate
    norm_sq_b: InnerEstimate


def as_process(machine: Pfsa, label: str = "process") -> ProcessHandle:
    """Validate a machine and reduce it to process normal form."""
    require_valid(machine)
    return _normal_form(minimal_closed_restriction(machine), label)


def _normal_form(machine: Pfsa, label: str) -> ProcessHandle:
    """Normal form of a validated machine that is one closed, strongly
    connected component (a minimal closed restriction, a scaled normal
    form or a pair sink): minimize and canonicalize, with no sink search."""
    return ProcessHandle(machine=canonicalize(minimize(machine)), label=label)


def zero_process(alphabet) -> ProcessHandle:
    """The additive identity: a single state emitting uniformly."""
    alphabet = tuple(alphabet)
    k = len(alphabet)
    g = Pfsa(alphabet, ["z"], np.zeros((1, k), dtype=np.int64), np.full((1, k), 1.0 / k))
    return as_process(g, label="zero")


def scale_process(alpha: float, p: ProcessHandle) -> ProcessHandle:
    """Scalar product: power every emission row by ``alpha`` and renormalize.

    ``alpha = 0`` collapses to the zero process, ``alpha = -1`` gives the
    additive inverse.

    Raises
    ------
    Overflow
        If a powered entry leaves double precision.
    """
    g = p.machine
    scaled = Pfsa(g.alphabet, g.states, g._delta, pscale(alpha, g._morph))
    return _normal_form(scaled, label=f"{alpha:g}*{p.label}")


def sum_processes(p: ProcessHandle, q: ProcessHandle) -> ProcessHandle:
    """Group sum: pair states with row-wise simplex sums, then normal form.

    The sum tracks both operands along one shared symbol stream, so its
    states are pairs moved componentwise and its rows are the simplex sums
    of the operand rows.  It lives on the closed component of the pair
    structure that :func:`inner_exact` averages over, picked by the rules
    stated there.  Names ``(a,b)``, rows and validation are built for its
    pair states only; a row is the :func:`~procgeom.simplex.psum` of the
    operand rows.  Names that contain a comma can make two pairs print
    alike (``(a,b,c)``); then every pair state is named ``(i,j)`` by the
    operands' state indices instead.

    Raises
    ------
    AlphabetMismatch
    MultipleRecurrentClasses
        A :class:`NotErgodic`: several closed components remain reachable
        from the pinned start.
    DepthExceeded
        If no jointly synchronizing string is found to pin the start.
    """
    g, h = p.machine, q.machine
    block, i, j = _pair_sink(g, h)
    pairs = list(zip(i.tolist(), j.tolist()))
    names = [f"({g.states[a]},{h.states[b]})" for a, b in pairs]
    if len(set(names)) < len(names):
        names = [f"({a},{b})" for a, b in pairs]
    pair = Pfsa(g.alphabet, names, block, psum(g._morph[i], h._morph[j]))
    return _normal_form(require_valid(pair), label=f"({p.label}+{q.label})")


# ---------------------------------------------------------------------------
# finite-dimensional-distribution comparison

def fdd_distance(p: ProcessHandle, q: ProcessHandle, max_len: int = 5) -> float:
    """Largest word-probability gap over all words up to ``max_len``.

    Zero (up to tolerance) certifies process equality at desk scale.
    Words are extended level by level, each prefix once, by the step that
    :func:`~procgeom.pfsa.word_probability` folds over, so each word's
    probability has the same bits as there.

    Raises
    ------
    TypeError
        If ``max_len`` is not an integer (``bool`` included).
    ValueError
        If ``max_len`` is negative.
    """
    _check_int(max_len, "max_len")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    g, h = p.machine, q.machine
    check_same_alphabet(g, h)
    pairs = [((1.0, stationary_distribution(g)), (1.0, stationary_distribution(h)))]
    gaps = []
    for n in range(max_len + 1):
        if n:
            pairs = [(_extend_word(g, *a, j), _extend_word(h, *b, j))
                     for a, b in pairs for j in range(g.n_symbols)]
        gaps.extend(abs(a[0] - b[0]) for a, b in pairs)
    return max(gaps)


# ---------------------------------------------------------------------------
# exact inner product via the uniformly driven pair chain

def _pair_sink(g: Pfsa, h: Pfsa):
    """The closed component the uniformly driven pair walk settles in, by
    the rules of :func:`inner_exact`, as ``(block, i, j)``: its transition
    table, renumbered to a chain of its own, and the operands' state-index
    arrays, state ``t`` of ``block`` being the pair ``(i[t], j[t])``.  This
    is the one place the flat pair index ``i * nh + j`` of the pair table
    is decoded.

    A self pair builds no pair table: its diagonal moves like the machine
    itself, so the machine's own table is the diagonal's, entry for entry,
    and ``i`` and ``j`` are both ``arange(n)``.

    Raises
    ------
    AlphabetMismatch
    MultipleRecurrentClasses
        If several sink components are reachable from the start.
    DepthExceeded
        If the joint synchronization fails.
    """
    check_same_alphabet(g, h)
    if g is h or structurally_equal(g, h):
        return g._delta, np.arange(g.n_states), np.arange(g.n_states)
    delta = _pair_delta(g, h)
    sinks = _sink_components(delta)
    if len(sinks) > 1:
        rg, rh, _ = joint_epsilon_synchronize(g, h, DEFAULT_MC_EPS)
        seen = set(_reachable(delta, g.state_index(rg.state) * h.n_states + h.state_index(rh.state)))
        sinks = [s for s in sinks if not seen.isdisjoint(s)]
        if len(sinks) != 1:
            raise MultipleRecurrentClasses(
                f"{len(sinks)} recurrent classes reachable from the "
                "synchronized start; the walk average is path dependent"
            )
    return (_renumber(delta, sinks[0]), *np.divmod(np.asarray(sinks[0]), h.n_states))


def inner_exact(p: ProcessHandle, q: ProcessHandle) -> InnerEstimate:
    """Closed-form inner product of two processes.

    Averages the pairwise log-ratio inner products of emission rows under
    the stationary distribution of the uniformly driven pair chain — the
    deterministic value of the walk-average definition.

    The component averaged over is picked by the first rule that applies
    (:func:`sum_processes` uses the same rules):

    1. a process paired with itself: the diagonal, with no pair table and
       no component search.  Operands are in normal form, so strongly
       connected, which makes the diagonal closed: the single sink if the
       process synchronizes, where the synchronized walk begins if not;
    2. a single sink component of the pair graph, found by
       :func:`procgeom.pfsa._sink_components` (the routine that also
       serves ``clx``, ``stationary`` and normal forms);
    3. otherwise the one sink reachable from the start a joint
       synchronization run pins (the walk begins there).  The value is
       ambiguous only if several sinks remain reachable from it.

    The closed form evaluates the walk limit under the synchronized-state
    idealization; it is exact whenever some word merges all states (the
    belief then collapses completely and stays collapsed).  Machines that
    only synchronize approximately keep a wandering belief residue, which
    the Monte Carlo route measures and this formula ignores.

    The stationary vector ``rho`` is solved on the chosen component only,
    and the value is ``sum_t rho[t] * (lg[i[t]] . lh[j[t]])`` over its
    pair states ``(i[t], j[t])``, with ``lg`` and ``lh`` the operands'
    log-ratio rows; that record rides on the estimate as ``chain``, and
    nothing the size of the whole pair table is built.  Above
    128 pair states it comes from a certified power iteration in memory
    linear in the component size, so pair chains of tens of thousands of
    states fit; smaller components, and chains mixing too slowly to
    certify, are solved densely (see :func:`procgeom.pfsa._stationary`).
    A handle paired with itself keeps its record, so its norm is solved
    once.

    Raises
    ------
    AlphabetMismatch
    MultipleRecurrentClasses
        A :class:`NotErgodic`: several recurrent classes are reachable from
        the synchronized start, making the walk average path dependent.
    DepthExceeded
        If the disambiguating joint synchronization fails.
    """
    if p is q and p._norm is not None:
        return p._norm
    g, h = p.machine, q.machine
    block, i, j = _pair_sink(g, h)
    rho = _stationary(block, 1.0 / g.n_symbols)
    lg, lh = log_ratios(g._morph)[i], log_ratios(h._morph)[j]
    est = InnerEstimate(value=float(rho @ (lg * lh).sum(axis=1)), std_error=0.0, mode="exact",
                        walks=0, walk_length=0, chain=(_freeze(rho), _freeze(lg), _freeze(lh)))
    if p is q:
        object.__setattr__(p, "_norm", est)
    return est


# ---------------------------------------------------------------------------
# Monte Carlo inner product

def _walk_symbols(seeds, walk_length: int, repeats: int, k: int):
    """Uniform symbols of every walk, in blocks of rows of ``len(seeds) * repeats``.

    Row ``t`` of a block holds step ``t`` of every walk: column
    ``pi * repeats + r`` is walk ``r`` of pair ``pi``, drawn from
    ``seeds[pi].spawn(repeats)[r]``: ``seeds`` is the list of the pairs' own
    spawned sequences, so that a pair reads the same symbols whichever
    pairs share its batch.  Blocks hold ``_WALK_BLOCK_STEPS`` steps (the
    last one the rest), so memory does not grow with ``walk_length``; a
    generator's ``integers(0, k, size=a)`` followed by ``size=b`` returns
    the values of one call with ``size=a + b``, so the symbols do not
    depend on the block size; a block stores them in the smallest type
    that holds ``k - 1``, one byte for ``k <= 256``.  Each generator fills
    one contiguous row of the block's transpose, so a block is a
    transposed view.
    """
    rngs = [np.random.default_rng(walk_seq)
            for pair_seq in seeds for walk_seq in pair_seq.spawn(repeats)]
    dtype = np.min_scalar_type(k - 1)
    for start in range(0, walk_length, _WALK_BLOCK_STEPS):
        walks = np.empty((len(rngs), min(_WALK_BLOCK_STEPS, walk_length - start)), dtype=dtype)
        for row, rng in zip(walks, rngs):
            row[:] = rng.integers(0, k, size=walks.shape[1])
        yield walks.T


def _pair_state_walks(pairs, starts, walk_length: int, repeats: int, seeds) -> np.ndarray:
    """Per-walk means of the log-inner terms for pairs starting at known states.

    ``starts`` holds one ``(g-state, h-state)`` index pair per pair.  A
    point-mass belief stays a point mass under deterministic transitions,
    so each walk is an integer walk of a pair state ``(a, b)`` moved
    componentwise, ``a = delta[a, s]`` and ``b = delta[b, s]``, adding
    ``term[a * n + b] = lg_a . lh_b`` at every step.  ``delta`` stacks the
    tables of the batch's distinct machines (``n`` states in all), so both
    components of every walk move through one table.

    The walk is tabulated like :func:`~procgeom.pfsa.generate_sequence`:
    :func:`~procgeom.pfsa._visit_table` gives, for each start and block of
    ``m`` symbols, the ``m`` states the block visits and the state after
    it.  Python takes one step per block, an add and a gather, to find
    every block's start and its row of the visit table, and one gather of
    those rows then writes every state of every block at once.  This runs
    over sub-blocks of ``_WALK_SUB_STEPS`` steps in buffers allocated once
    per call; the last block of a sub-block runs past its end on padding
    symbols, so the state it ends in is known without a per-step tail.
    Each walk's sum stays a running sum in time order: one
    ``np.add.reduce`` along the steps of a buffer whose first row is the
    sum carried in.

    The tables and states are int32 and the row indices and term indices
    ``a * n + b`` int64, so no value passes its type's range whatever
    ``k * n * n`` is, and ``take`` reads its indices without converting
    them.  A block's code is stored once for each side, so the per-block
    add has operands of one shape.

    Symbols come from :func:`_walk_symbols` as in :func:`_batched_pair_walks`,
    and from the same one-hot start the two kernels agree bit for bit: the
    belief kernel's next-symbol row of a point mass is the state's own row,
    and its renormalization gives exactly 1.0 again.
    """
    n_pairs, walks = len(pairs), len(pairs) * repeats
    k = pairs[0][0].n_symbols
    machines = list({id(g): g for pair in pairs for g in pair}.values())
    offsets = np.cumsum([0] + [g.n_states for g in machines]).tolist()
    first, n = dict(zip(map(id, machines), offsets)), offsets[-1]
    delta = np.concatenate([g._delta + first[id(g)] for g in machines], dtype=np.int32)
    lr = log_ratios(np.concatenate([g._morph for g in machines]))
    term = np.einsum("as,bs->ab", lr, lr).ravel()
    m, visit, after = _visit_table(delta)
    span = k ** m  # codes per start: state q's rows start at q * span
    after = np.multiply(after, span, dtype=np.int64)  # the state after a block, as its row offset
    powers = k ** np.arange(m - 1, -1, -1)  # a block's code, first symbol most significant

    # x[side, walk] is the walk's current g-state (side 0) or h-state (side 1).
    x = np.array([[first[id(pair[side])] + start[side] for pair, start in zip(pairs, starts)
                   for _ in range(repeats)] for side in (0, 1)], dtype=np.int32)
    blocks = _WALK_SUB_STEPS // m + 1  # a sub-block's blocks; the last one runs past its end
    pad = np.zeros((blocks * m, walks), dtype=np.int64)  # a sub-block's symbols, then padding
    by_block = pad.reshape(blocks, m, walks)
    codes = np.empty((blocks, 2, walks), dtype=np.int64)  # a block's code, once for each side
    rows = np.empty((blocks, 2, walks), dtype=np.int64)  # a block's row of ``visit``
    states = np.empty((blocks, 2, walks, m), dtype=np.int32)  # [j, :, :, i]: at step j * m + i
    index = np.empty((blocks, m, walks), dtype=np.int64)  # term index of every step, in time order
    buf = np.zeros((_WALK_SUB_STEPS + 1, walks))  # row 0: the running sums carried in
    row_of, code_of = list(rows), list(codes)  # per-block views, so the block loop slices nothing
    # Indices are in range by construction; mode="clip" lets take write to ``out`` unbuffered.
    for block in _walk_symbols(seeds, walk_length, repeats, k):
        for t0 in range(0, block.shape[0], _WALK_SUB_STEPS):
            steps = min(_WALK_SUB_STEPS, block.shape[0] - t0)
            full = steps // m  # blocks wholly inside the sub-block
            pad[:steps] = block[t0:t0 + steps]
            codes[:full + 1] = np.matmul(powers, by_block[:full + 1])[:, None]
            np.multiply(x, span, out=rows[0])
            rows[0] += codes[0]
            for row, nxt, code in zip(row_of[:full], row_of[1:full + 1], code_of[1:full + 1]):
                after.take(row, out=nxt, mode="clip")
                np.add(nxt, code, out=nxt)
            visit.take(rows[:full + 1], axis=0, out=states[:full + 1], mode="clip")
            x = states[full, :, :, steps % m].copy()
            at = index[:full + 1]  # a * n + b
            np.multiply(states[:full + 1, 0].transpose(0, 2, 1), n, out=at, dtype=np.int64)
            at += states[:full + 1, 1].transpose(0, 2, 1)
            term.take(at.reshape(-1, walks)[:steps], out=buf[1:steps + 1], mode="clip")
            buf[0] = np.add.reduce(buf[:steps + 1], axis=0)
    return (buf[0] / walk_length).reshape(n_pairs, repeats)


def _batched_pair_walks(pairs, starts, walk_length: int, repeats: int, seeds) -> np.ndarray:
    """Per-walk means of the log-inner terms for several (g, h) pairs at once.

    One row per (pair, repeat).  Beliefs, emission rows and transition
    targets are held in arrays shaped ``(2, rows, ...)``: side 0 walks g,
    side 1 walks h, and machines smaller than the largest are padded with
    states that carry no mass.  Transitions are deterministic, so the full
    recursion is a scatter along ``delta``: with the targets of each of the
    ``2 * rows`` rows offset by ``row * qmax``, one ``np.bincount`` moves
    every belief of both sides, and each row is divided by its sum at every
    step, so no belief underflows.  Both sides of a row read the same
    symbol, drawn from that walk's spawned generator by
    :func:`_walk_symbols`, making the result reproducible regardless of
    batching.
    """
    n_pairs = len(pairs)
    rows = n_pairs * repeats
    k = pairs[0][0].n_symbols
    qmax = max(m.n_states for pair in pairs for m in pair)

    dest = np.zeros((2, rows, k, qmax), dtype=np.int64)
    emit = np.zeros((2, rows, k, qmax))
    b = np.zeros((2, rows, qmax))
    for pi_, (pair, start) in enumerate(zip(pairs, starts)):
        block = slice(pi_ * repeats, (pi_ + 1) * repeats)
        for side, m in enumerate(pair):
            nq = m.n_states
            dest[side, block, :, :nq] = m._delta.T
            emit[side, block, :, :nq] = m._morph.T
            b[side, block, :nq] = start[side]
    dest += np.arange(2 * rows).reshape(2, rows, 1, 1) * qmax

    ridx = np.arange(rows)
    acc = np.zeros(rows)
    for block in _walk_symbols(seeds, walk_length, repeats, k):
        for s in block:
            d = log_ratios(np.einsum("xrq,xrsq->xrs", b, emit))
            acc += np.einsum("rs,rs->r", d[0], d[1])
            b = np.bincount(dest[:, ridx, s].ravel(), (b * emit[:, ridx, s]).ravel(),
                            minlength=b.size).reshape(b.shape)
            b /= b.sum(axis=2, keepdims=True)
    return (acc / walk_length).reshape(n_pairs, repeats)


def _mc_estimates(pairs, eps, walk_length, repeats, seed) -> list[InnerEstimate]:
    """Monte Carlo estimates of ``<p, q>`` for each ``(p, q)`` in ``pairs``.

    The kernel is chosen per pair.  A pair with a :func:`reset_word` starts
    at the pair state the word leads to, known exactly, and walks integer
    pair states (:func:`_pair_state_walks`).  Any other pair starts at the
    beliefs after its own jointly epsilon-synchronizing string and walks
    the full belief recursion (:func:`_batched_pair_walks`).  Pair ``i``
    reads the symbols of the ``i``-th sequence spawned from ``seed``, so
    each estimate depends only on its pair and that sequence.
    """
    check_same_alphabet(pairs[0][0].machine, pairs[0][1].machine)
    if walk_length < 1 or repeats < 2:
        raise ValueError("need walk_length >= 1 and repeats >= 2")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    point, belief = [], []
    tables = {}  # one merge table per machine, shared by the pairs
    for i, (p, q) in enumerate(pairs):
        g, h = p.machine, q.machine
        word = _reset_word((g, h), tables)
        if word is not None:
            gi = hj = 0  # any start: the word leads every state to the same pair
            for s in word:
                gi, hj = int(g._delta[gi, s]), int(h._delta[hj, s])
            point.append((i, (gi, hj)))
        else:
            _, _, string = joint_epsilon_synchronize(g, h, eps)
            belief.append((i, (belief_from_string(g, string), belief_from_string(h, string))))
    pair_seqs = np.random.SeedSequence(seed).spawn(len(pairs))
    means = [None] * len(pairs)
    for kernel, batch in ((_pair_state_walks, point), (_batched_pair_walks, belief)):
        if batch:
            index = [i for i, _ in batch]
            out = kernel([(pairs[i][0].machine, pairs[i][1].machine) for i in index],
                         [start for _, start in batch], walk_length, repeats,
                         [pair_seqs[i] for i in index])
            for i, m in zip(index, out):
                means[i] = m
    return [
        InnerEstimate(value=float(m.mean()), std_error=float(m.std(ddof=1) / math.sqrt(repeats)),
                      mode="monte-carlo", walks=repeats, walk_length=walk_length)
        for m in means
    ]


def inner_mc(
    p: ProcessHandle,
    q: ProcessHandle,
    eps: float = DEFAULT_MC_EPS,
    walk_length: int = 10_000,
    repeats: int = 20,
    seed=42,
) -> InnerEstimate:
    """Monte Carlo inner product along uniformly random symbol walks.

    ``repeats`` independent walks of ``walk_length`` uniform symbols
    average the log-ratio inner product of the two next-symbol
    distributions.  When both machines have a reset word (found by
    :func:`~procgeom.sync.reset_word`), the walks start at the pair state
    it leads to and follow integer pair states: the belief after the word
    is a point mass and deterministic transitions keep it one, so this is
    the belief recursion itself, not an approximation.  Otherwise a jointly
    epsilon-synchronizing string (to ``1 - eps``, within 64 times the
    larger state count) pins both beliefs, which then move together along
    ``delta`` and are renormalized at every step, so long walks on sharply
    peaked rows stay finite.  The estimate and its standard error come from
    the per-walk means, reduced in a fixed order.

    Raises
    ------
    DepthExceeded
        Propagated from the synchronization search, which runs only for
        operands without a reset word.
    """
    return _mc_estimates([(p, q)], eps, walk_length, repeats, seed)[0]


# ---------------------------------------------------------------------------
# norms and angles

def process_norm(p: ProcessHandle) -> float:
    """Norm induced by the process inner product: ``sqrt(<p, p>)``, exactly."""
    return math.sqrt(inner_exact(p, p).value)


def angle_mc_estimate(
    p: ProcessHandle,
    q: ProcessHandle,
    eps: float = DEFAULT_MC_EPS,
    walk_length: int = 10_000,
    repeats: int = 20,
    seed=42,
) -> AngleEstimate:
    """Monte Carlo angle with a cosine-level standard error.

    Estimates ``<p,q>``, ``<p,p>`` and ``<q,q>`` as :func:`inner_mc` does,
    each pair with its own kernel and independently spawned sub-seed, forms
    the cosine, and propagates the three standard errors to the cosine,
    where the sampling distribution is regular.  The angle itself is
    ``arccos`` of the clamped cosine.

    Raises
    ------
    DepthExceeded
        Propagated from the synchronization search, which runs only for
        pairs without a reset word.
    """
    ip, n1, n2 = _mc_estimates([(p, q), (p, p), (q, q)], eps, walk_length, repeats, seed)
    if n1.value <= ZERO_NORM_TOL**2 or n2.value <= ZERO_NORM_TOL**2:
        raise ZeroNorm("angle undefined against a zero-norm process")
    denom = math.sqrt(n1.value * n2.value)
    cos = ip.value / denom
    var = (
        (ip.std_error / denom) ** 2
        + (ip.value * n1.std_error / (2.0 * n1.value * denom)) ** 2
        + (ip.value * n2.std_error / (2.0 * n2.value * denom)) ** 2
    )
    clamped = min(1.0, max(-1.0, cos))
    return AngleEstimate(
        angle=math.acos(clamped),
        cos=cos,
        cos_std_error=math.sqrt(var),
        inner=ip,
        norm_sq_a=n1,
        norm_sq_b=n2,
    )


def angle(p: ProcessHandle, q: ProcessHandle) -> float:
    """Angle between two processes, in radians, from closed-form inner
    products (:func:`angle_mc_estimate` is the Monte Carlo route).

    The squared norms come from each operand's own chain, solved once per
    handle and kept on it.  With ``(rho, lg, lh)`` the ``chain`` record of
    ``inner_exact(p, q)``, ``u = lg / |p|`` and ``v = lh / |q|``, the angle is
    ``2 atan2(sqrt(sum_t rho[t] |u[t] - v[t]|^2), sqrt(sum_t rho[t] |u[t] + v[t]|^2))``
    (Kahan, "How futile are mindless assessments of roundoff", 2006).
    Unlike ``acos`` of a rounded cosine it stays exact near 0 and pi: a
    self pair gives ``u == v`` and so exactly 0, and reads its chain from
    the norm record, so no cross pair chain is solved for it.

    Raises
    ------
    ZeroNorm
        If either squared norm is below ``ZERO_NORM_TOL ** 2`` (the zero
        process); checked before the cross pair chain is solved.
    """
    norm_sq_p, norm_sq_q = inner_exact(p, p).value, inner_exact(q, q).value
    if min(norm_sq_p, norm_sq_q) < ZERO_NORM_TOL**2:
        raise ZeroNorm(f"norm below {ZERO_NORM_TOL:g}; angle undefined")
    rho, lg, lh = inner_exact(p, q).chain
    u, v = lg / math.sqrt(norm_sq_p), lh / math.sqrt(norm_sq_q)
    return 2.0 * math.atan2(math.sqrt(rho @ ((u - v) ** 2).sum(axis=1)),
                            math.sqrt(rho @ ((u + v) ** 2).sum(axis=1)))
