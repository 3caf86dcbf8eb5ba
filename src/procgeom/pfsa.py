"""Probabilistic finite-state automata as stationary-process encoders.

A machine is a 4-tuple: an ordered alphabet, a finite state set, a total
deterministic transition map ``delta: Q x Sigma -> Q`` and per-state
emission rows ("morph" rows) giving the next-symbol distribution at each
state.  Strictly positive rows encode strictly positive processes.

The module covers validation, the derived matrices, stationary analysis,
belief recursion over observed symbols, word probabilities, the minimal
closed restriction, state minimization, canonical ordering, sampling, and
the line-oriented ``pfsa v1`` text format.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (
    AlphabetMismatch,
    InvalidPfsa,
    NotErgodic,
    PfsaFormatError,
    UnknownKey,
    ZeroMass,
)
from .simplex import ProbVec, _check_int, _freeze

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-12
_POWER_MIN_STATES = 128  # larger blocks are tried by power iteration first
_POWER_STEP_CAP = 10_000
_POWER_CHECK_STEPS = 250  # steps between projections of the residual to the cap
_POWER_TEST_STEPS = 10  # steps between residual tests; divides _POWER_CHECK_STEPS
_POWER_STEP_WEIGHT = 0.9  # x <- (1 - a) x + a xP; any a < 1 keeps the chain aperiodic
_POWER_RESIDUAL_EPS = 4 * np.finfo(np.float64).eps
_JUMP_TABLE_ENTRIES = 1 << 16  # cap on a block table: the sampler's, and the pair-state walk's visit table
_STITCH_BLOCKS = 32  # blocks per stitched chunk; 8 to 64 were equally fast
_STREAM_CHUNK = 1 << 20  # symbols per sampled piece, rounded down to whole stitched chunks


def _check_names(names, kind: str) -> tuple[str, ...]:
    out = tuple(str(n) for n in names)
    if len(set(out)) != len(out):
        raise InvalidPfsa(f"duplicate {kind} names")
    # one split of the joined names gives them back exactly when none is
    # empty or holds whitespace; the loop only names the first bad one
    if " ".join(out).split() != list(out):
        for n in out:
            if not n or n.split() != [n]:
                raise InvalidPfsa(f"{kind} name {n!r} is empty or contains whitespace")
    return out


class Pfsa:
    """Immutable probabilistic finite-state automaton.

    Parameters
    ----------
    alphabet : sequence of str
        Symbol names; the declared order is canonical and fixes the
        coordinate order of every emission row.
    states : sequence of str
        State names.
    delta : mapping or array
        Either ``{state: {symbol: next_state}}`` or an integer array of
        shape (n_states, n_symbols) holding next-state indices.
    morph : mapping or array
        Either ``{state: row}`` or a float array of shape
        (n_states, n_symbols).  Rows are stored as given; numeric
        invariants (positivity, row sums) are checked by :func:`validate`,
        not here.

    Raises
    ------
    InvalidPfsa
        For any malformed structure: bad names, a wrong or ragged shape,
        unknown states or symbols, or a non-integer transition target.
    """

    __slots__ = ("alphabet", "states", "_delta", "_morph", "_sym_index", "_state_index", "_pi")

    def __init__(self, alphabet, states, delta, morph):
        self.alphabet = _check_names(alphabet, "symbol")
        if len(self.alphabet) < 2:
            raise InvalidPfsa("alphabet needs at least 2 symbols")
        self.states = _check_names(states, "state")
        if not self.states:
            raise InvalidPfsa("need at least one state")
        self._sym_index = {s: i for i, s in enumerate(self.alphabet)}
        self._state_index = {q: i for i, q in enumerate(self.states)}
        n, k = len(self.states), len(self.alphabet)

        # Dict inputs become lists in state and alphabet order, so a short
        # row fails the shape check instead of being broadcast.
        if isinstance(delta, dict):
            if set(delta) != set(self.states):
                raise InvalidPfsa("transition map states differ from the state set")
            for q, row in delta.items():
                if set(row) != set(self.alphabet):
                    raise InvalidPfsa(f"state {q!r}: transition map is not total")
            try:
                delta = [[self._state_index[delta[q][s]] for s in self.alphabet]
                         for q in self.states]
            except (KeyError, TypeError) as err:
                raise InvalidPfsa(f"delta targets an unknown state: {err}") from None
        if isinstance(morph, dict):
            if set(morph) != set(self.states):
                raise InvalidPfsa("morph map states differ from the state set")
            morph = [morph[q] for q in self.states]
        # An integer array is checked as it is; anything else goes through
        # float64, where a non-integer target shows.
        integer = isinstance(delta, np.ndarray) and delta.dtype.kind in "iu"
        try:
            d = delta.astype(np.int64) if integer else np.array(delta, dtype=np.float64)
            m = np.array(morph, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise InvalidPfsa(f"delta or morph is not a numeric table: {err}") from None
        if d.shape != (n, k):
            raise InvalidPfsa(f"delta shape {d.shape} != ({n}, {k})")
        if not integer and not np.all(d == np.floor(d)):
            raise InvalidPfsa("delta holds a non-integer state index")
        if d.min() < 0 or d.max() >= n:
            raise InvalidPfsa("delta targets an unknown state")
        if m.shape != (n, k):
            raise InvalidPfsa(f"morph shape {m.shape} != ({n}, {k})")

        self._delta = _freeze(d.astype(np.int64, copy=False))
        self._morph = _freeze(m)
        self._pi = None  # stationary vector, solved on first use

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    def symbol_index(self, sigma) -> int:
        """Index of a symbol name, or of an index in range; else :class:`UnknownKey`."""
        if isinstance(sigma, (int, np.integer)):
            if not 0 <= int(sigma) < self.n_symbols:
                raise UnknownKey(f"symbol index {sigma} out of range")
            return int(sigma)
        try:
            return self._sym_index[sigma]
        except KeyError:
            raise UnknownKey(f"symbol {sigma!r} not in alphabet {' '.join(self.alphabet)}") from None

    def state_index(self, q) -> int:
        """Index of a state name, or of an index in range; else :class:`UnknownKey`."""
        if isinstance(q, (int, np.integer)):
            if not 0 <= int(q) < self.n_states:
                raise UnknownKey(f"state index {q} out of range")
            return int(q)
        try:
            return self._state_index[q]
        except KeyError:
            raise UnknownKey(f"state {q!r} not in the machine's states") from None

    def next_state(self, q, sigma) -> str:
        """State reached from ``q`` on symbol ``sigma``."""
        return self.states[self._delta[self.state_index(q), self.symbol_index(sigma)]]

    def morph_row(self, q) -> ProbVec:
        """Emission row of state ``q`` (read-only, as stored)."""
        return self._morph[self.state_index(q)]

    def to_indices(self, symbols) -> np.ndarray:
        """Convert a symbol sequence (names or indices) to an index array.

        Raises
        ------
        ValueError
            If a name is not in the alphabet or an index is out of range.
        """
        arr = np.asarray(symbols)
        if arr.dtype.kind in "iu":
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_symbols):
                raise ValueError("symbol index out of range")
            return arr.astype(np.int64)
        try:
            return np.array([self._sym_index[s] for s in symbols], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(
                f"symbol {exc.args[0]!r} not in alphabet {' '.join(self.alphabet)}"
            ) from None

    def __repr__(self):
        return (
            f"Pfsa(|Q|={self.n_states}, alphabet={list(self.alphabet)!r}, "
            f"states={list(self.states)!r})"
        )


def structurally_equal(a: Pfsa, b: Pfsa) -> bool:
    """Exact equality of names, transition structure, and rows."""
    return (
        a.alphabet == b.alphabet
        and a.states == b.states
        and bool(np.array_equal(a._delta, b._delta))
        and bool(np.array_equal(a._morph, b._morph))
    )


def check_same_alphabet(a, *others) -> None:
    """Raise :class:`AlphabetMismatch` unless each of ``others`` (machines,
    tables or streams) has the alphabet of ``a``."""
    for b in others:
        if a.alphabet != b.alphabet:
            raise AlphabetMismatch(f"alphabets differ: {a.alphabet} vs {b.alphabet}")


# ---------------------------------------------------------------------------
# validation and derived matrices

@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.valid:
            return "valid"
        return "invalid:\n" + "\n".join(f"  - {v}" for v in self.violations)


def validate(g: Pfsa) -> ValidationReport:
    """Check the numeric machine invariants; return a report instead of raising.

    Covers finite, strictly positive emission rows summing to one.  The
    structural invariants (a total transition map into the state set) are
    enforced by the :class:`Pfsa` constructor.
    """
    bad: list[str] = []
    m = np.ascontiguousarray(g._morph)  # C order, so rows sum the same way whatever the input layout
    finite = np.isfinite(m).all(axis=1)
    nonpos = m <= 0.0
    sums = m.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    for i in np.flatnonzero(~finite | nonpos.any(axis=1) | off).tolist():
        q = g.states[i]
        if not finite[i]:
            bad.append(f"state {q}: morph row has non-finite entries")
            continue
        for j in np.flatnonzero(nonpos[i]).tolist():
            bad.append(f"state {q}: morph entry for symbol {g.alphabet[j]!r} is {m[i, j]:g} (must be > 0)")
        if off[i]:
            bad.append(f"state {q}: morph row sums to {sums[i]:.17g}, not 1")
    return ValidationReport(tuple(bad))


def require_valid(g: Pfsa) -> Pfsa:
    """Raise :class:`InvalidPfsa` if ``g`` fails :func:`validate`."""
    report = validate(g)
    if not report.valid:
        raise InvalidPfsa(str(report))
    return g


def matrices(g: Pfsa):
    """Morph matrix, transition probability matrix, and per-symbol event matrices.

    Returns
    -------
    (pi_tilde, pi, gamma)
        ``pi_tilde`` is (n_states, n_symbols); ``pi`` is
        (n_states, n_states) with rows summing to one; ``gamma`` maps each
        symbol name to its (n_states, n_states) event matrix.  ``pi``
        adds each row's entries in alphabet order, so the event matrices,
        summed in that order, give ``pi`` exactly.
    """
    gamma = {sym: _freeze(_chain_matrix(g._delta[:, j:j + 1], g._morph[:, j:j + 1]))
             for j, sym in enumerate(g.alphabet)}
    return _freeze(g._morph.copy()), transition_matrix(g), gamma


# ---------------------------------------------------------------------------
# graph structure: sink components, closed restrictions

def _sink_components(delta: np.ndarray) -> list[list[int]]:
    """Sink components of the graph ``v -> delta[v, s]``, sorted.

    ``delta`` becomes successor lists once, and :func:`_predecessors`
    reverses them once; every search below is :func:`_search` over one of
    the two.

    First a certified check: if every state reaches ``x``, the last state a
    breadth-first search from state 0 finds, the sink is unique and is the
    set reachable from ``x``.  Every sink component is closed and holds a
    state that reaches ``x``, so each holds ``x``.  The check is one backward
    search; only a graph that fails it takes the search in Kosaraju's order.

    That search visits the states in reverse :func:`_finish_order`.  The
    states not yet settled form a forward-closed set, so the first of them
    in that order lies in a sink component (Kosaraju's lemma): its forward
    search is that sink, and one backward search from the sink settles every
    state that reaches it.  Each state is settled once, so the search costs
    O(states * symbols).
    """
    succ = delta.tolist()
    preds = _predecessors(succ)
    seen = [False] * len(succ)
    seen[0] = True
    x = _search(succ, [0], seen)[-1]
    settled = [False] * len(succ)
    if _all_reach(preds, x):
        settled[x] = True
        _search(succ, [x], settled)
        return [list(compress(range(len(succ)), settled))]  # sorted, in one linear pass
    sinks = []
    for v in reversed(_finish_order(preds)):
        if not settled[v]:
            settled[v] = True
            sink = _search(succ, [v], settled)
            sinks.append(sorted(sink))
            _search(preds, sink, settled)
    return sorted(sinks)


def sink_sccs(g: Pfsa) -> list[list[int]]:
    """Strongly connected components with no transition leaving them."""
    return _sink_components(g._delta)


def _predecessors(succ: list[list[int]]) -> list[list[int]]:
    """The successor lists ``succ`` reversed: ``preds[q]`` holds one source
    per edge into ``q``, in (source, symbol) order, so a source appears
    once for each symbol that sends it to ``q``."""
    preds = [[] for _ in succ]
    for p, row in enumerate(succ):
        for q in row:
            preds[q].append(p)
    return preds


def _search(adj: list[list[int]], order: list[int], seen: list[bool]) -> list[int]:
    """Breadth-first search along the lists ``adj`` (successors, or
    :func:`_predecessors` to search against the edges) from the states in
    ``order``, which ``seen`` already marks; appends each unseen state it
    reaches, in list order, and returns ``order``."""
    for q in order:  # also visits the states appended while it runs
        for t in adj[q]:
            if not seen[t]:
                seen[t] = True
                order.append(t)
    return order


def _finish_order(preds: list[list[int]]) -> list[int]:
    """States in the order an iterative depth-first search of the reversed
    graph, the lists of :func:`_predecessors`, finishes them."""
    seen = [False] * len(preds)
    finished = []
    for root in range(len(seen)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(preds[root]))]
        while stack:
            v, rest = stack[-1]
            for p in rest:
                if not seen[p]:
                    seen[p] = True
                    stack.append((p, iter(preds[p])))
                    break
            else:
                stack.pop()
                finished.append(v)
    return finished


def _reachable(delta: np.ndarray, start: int) -> list[int]:
    """States reachable from ``start`` along ``delta``, ``start`` first, in
    breadth-first discovery order with symbols explored in alphabet order."""
    seen = [False] * delta.shape[0]
    seen[start] = True
    return _search(delta.tolist(), [start], seen)


def _all_reach(preds: list[list[int]], target: int) -> bool:
    """Whether every state reaches ``target``, given the graph's
    :func:`_predecessors` lists: one breadth-first search backwards from
    ``target``, O(states * symbols) on any graph."""
    seen = [False] * len(preds)
    seen[target] = True
    return len(_search(preds, [target], seen)) == len(preds)


def _renumber(delta: np.ndarray, keep) -> np.ndarray:
    """Rows ``keep`` of ``delta`` with every target renumbered to its
    position in ``keep``; a target outside ``keep`` becomes -1."""
    keep = np.asarray(keep, dtype=np.int64)
    remap = np.full(delta.shape[0], -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    return remap[delta[keep]]


def _restrict(g: Pfsa, keep) -> Pfsa:
    """Restriction to a delta-closed state subset, in the order of ``keep``
    (inherited rows).  A subset that is not closed leaves a -1 in the
    transition table, which the constructor rejects."""
    return Pfsa(g.alphabet, [g.states[i] for i in keep], _renumber(g._delta, keep),
                g._morph[keep, :])


def minimal_closed_restriction(g: Pfsa) -> Pfsa:
    """The unique minimal closed restriction carrying all stationary mass.

    Minimal closed restrictions are exactly the sink strongly connected
    components of the transition graph; a unichain machine has one.

    Raises
    ------
    NotErgodic
        If several sink components exist (stationary mass would split).
    """
    sinks = sink_sccs(g)
    if len(sinks) != 1:
        raise NotErgodic(f"{len(sinks)} minimal closed restrictions; expected exactly one")
    return _restrict(g, sinks[0])


# ---------------------------------------------------------------------------
# stationary analysis and belief recursion

def _chain_matrix(delta: np.ndarray, weights) -> np.ndarray:
    """Dense transition matrix of the chain ``v -> delta[v, s]`` taken with
    probability ``weights[v, s]`` (an array of delta's shape, or a scalar)."""
    n = delta.shape[0]
    out = np.zeros((n, n))
    np.add.at(out, (np.arange(n)[:, None], delta), weights)
    return out


def transition_matrix(g: Pfsa) -> np.ndarray:
    return _freeze(_chain_matrix(g._delta, g._morph))


def _power_iterate(block: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """Certified stationary vector of the chain ``v -> block[v, s]`` taken
    with probability ``w[v, s]``, or None if none is certified within
    ``_POWER_STEP_CAP`` steps.

    Iterates the lazy chain ``x <- (1 - a) x + a xP`` with ``a =
    _POWER_STEP_WEIGHT`` from the uniform vector; any ``a < 1`` makes the
    chain aperiodic, so the iteration converges on any closed component,
    and on the pair chains of the exact angle ``a = 0.9`` takes about half
    the steps of ``a = 1/2``.  ``xP`` is one ``np.bincount`` over the
    transition table, so no m x m matrix exists.  Between tests a step is
    one gather, one product and one ``bincount`` over the edges weighted
    by ``a`` followed by one self loop per state weighted by ``1 - a``:
    ``bincount`` adds in index order, so each entry is its edges' sum plus
    ``(1 - a) x``, bit for bit the sum then the axpy.

    Every ``_POWER_TEST_STEPS`` steps ``x`` is renormalised and tested:
    it is returned once ``|xP - x|_inf <= 4 eps max(x)`` and every entry
    is positive, with ``xP`` taken from the unscaled weights: a step
    residual at rounding level relative to the vector itself.  An
    absolute bound does not serve, because the largest entry sets the
    rounding floor.  A residual of 1e-13 stops early enough to leave
    cosine errors up to 7e-12 on pair chains of about 1,000 states, while
    the relative rule leaves 2e-15; a residual of 1e-16 is never reached
    on the emission-weighted chain of a two-state machine whose
    stationary entries are 0.6 and 0.4.

    Every ``_POWER_CHECK_STEPS`` steps the residual is projected to the
    step cap at the geometric rate of the window just ended, and the
    iteration gives up (returns None) when that projection stays above
    the bound.  It does so only while the residual is more than 1,000
    times the bound: there its fall is the chain's own mixing, not the
    rounding noise a residual near the bound shows.  A chain that mixes
    like ``1/t`` (a long cycle) thus leaves after a few hundred steps
    instead of spending the whole cap before its dense solve.
    """
    m, k = block.shape
    targets = block.ravel()
    w = w.ravel()
    a = _POWER_STEP_WEIGHT
    states = np.arange(m)
    src = np.concatenate([np.repeat(states, k), states])
    dst = np.concatenate([targets, states])
    lazy_w = np.concatenate([a * w, np.full(m, 1.0 - a)])
    x = np.full(m, 1.0 / m)
    last = np.inf
    for step in range(0, _POWER_STEP_CAP, _POWER_TEST_STEPS):
        x /= x.sum()
        xp = np.bincount(targets, np.repeat(x, k) * w, minlength=m)
        residual = np.abs(xp - x).max()
        bound = _POWER_RESIDUAL_EPS * x.max()
        if residual <= bound and x.min() > 0.0:
            return x
        if step % _POWER_CHECK_STEPS == 0:
            windows_left = (_POWER_STEP_CAP - step) / _POWER_CHECK_STEPS
            if step and residual > 1e3 * bound and (
                    residual >= last
                    or windows_left * math.log(residual / last) > math.log(bound / residual)):
                return None
            last = residual
        x = (1.0 - a) * x + a * xp
        for _ in range(_POWER_TEST_STEPS - 1):
            x = np.bincount(dst, x[src] * lazy_w, minlength=m)
    return None


def _stationary(block: np.ndarray, weights) -> np.ndarray:
    """Stationary vector of the chain of :func:`_chain_matrix` on ``block``,
    a closed chain of its own (a sink component renumbered by
    :func:`_renumber`, or a whole machine that is one).

    Blocks of more than ``_POWER_MIN_STATES`` states are solved by the
    certified lazy power iteration of :func:`_power_iterate` (steps
    weighted by ``_POWER_STEP_WEIGHT``, the residual tested every
    ``_POWER_TEST_STEPS`` steps) in O(m k) memory.
    Smaller blocks, and any block the iteration does not certify within
    its step cap (a slowly mixing chain), are solved densely as the
    consistent linear system ``p (P - I) = 0``, ``sum(p) = 1``, whose
    residual must come out below 1e-12 with every entry positive.
    """
    w = np.broadcast_to(weights, block.shape)
    sol = _power_iterate(block, w) if block.shape[0] > _POWER_MIN_STATES else None
    return _dense_stationary(_chain_matrix(block, w)) if sol is None else sol


def _dense_stationary(sub: np.ndarray) -> np.ndarray:
    """Stationary vector of the dense chain matrix ``sub`` by ``lstsq``,
    checked for a residual below 1e-12 and positive entries."""
    m = sub.shape[0]
    a = np.vstack([sub.T - np.eye(m), np.ones((1, m))])
    rhs = np.zeros(m + 1)
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    residual = max(float(np.abs(sol @ sub - sol).max()), abs(float(sol.sum()) - 1.0))
    if residual > STATIONARY_RESIDUAL_TOL or np.any(sol <= 0.0):
        raise InvalidPfsa(f"stationary solve failed (residual {residual:.3e})")
    return sol


def stationary_distribution(g: Pfsa) -> np.ndarray:
    """Unique stationary state distribution (row vector fixed by the chain).

    Solved on the single sink component; transient states get mass zero.
    The machine is immutable, so the read-only vector is solved once and
    kept on it.

    Raises
    ------
    NotErgodic
        If the machine is not unichain.
    """
    if g._pi is None:
        sinks = sink_sccs(g)
        if len(sinks) != 1:
            raise NotErgodic(f"{len(sinks)} sink components; stationary distribution not unique")
        pi = np.zeros(g.n_states)
        pi[sinks[0]] = _stationary(_renumber(g._delta, sinks[0]), g._morph[sinks[0]])
        g._pi = _freeze(pi)
    return g._pi


def belief_update(g: Pfsa, belief: np.ndarray, sigma) -> np.ndarray:
    """Posterior over states after additionally observing ``sigma``.

    Reweights each state's mass by its probability of emitting ``sigma``,
    moves it along the transition map, and normalizes.
    """
    j = g.symbol_index(sigma)
    w = np.zeros(g.n_states)
    np.add.at(w, g._delta[:, j], belief * g._morph[:, j])
    total = w.sum()
    if total <= 0.0:
        raise ZeroMass(f"observation {g.alphabet[j]!r} has zero probability under the belief")
    return _freeze(w / total)


def belief_from_string(g: Pfsa, symbols) -> np.ndarray:
    """Fold :func:`belief_update` over ``symbols``.

    The fold starts at the stationary distribution — the no-initial-state
    convention: any past could have preceded the observation window.
    """
    b = stationary_distribution(g)
    for j in g.to_indices(symbols):
        b = belief_update(g, b, int(j))
    return b


def symbolic_derivative(g: Pfsa, belief: np.ndarray) -> ProbVec:
    """Next-symbol distribution under a state belief: ``belief @ morph``."""
    return _freeze(belief @ g._morph)


def _extend_word(g: Pfsa, p: float, b: np.ndarray | None, j: int):
    """Extend a word's (probability, belief) pair by the symbol of index ``j``.

    The probability is multiplied by the symbol's next-symbol probability
    under the belief, and the belief is conditioned on the symbol.  A
    symbol whose probability under the belief is 0 at working precision
    gives ``(0.0, None)``, and so does every extension of a pair without
    a belief.  A positive probability has a positive posterior mass, since
    both sum the same nonnegative products, so conditioning never raises.
    """
    q = 0.0 if b is None else float(b @ g._morph[:, j])
    return (p * q, belief_update(g, b, j)) if q > 0.0 else (0.0, None)


def word_probability(g: Pfsa, symbols) -> float:
    """Probability that the stationary process emits ``symbols`` as a prefix.

    Folded by :func:`_extend_word` from the stationary belief: each symbol
    contributes its current next-symbol probability, then conditions the
    belief.  The empty word has probability 1; a word that cannot occur,
    0.
    """
    p, b = 1.0, stationary_distribution(g)
    for j in g.to_indices(symbols):
        p, b = _extend_word(g, p, b, int(j))
    return p


# ---------------------------------------------------------------------------
# minimization and canonical form

def minimize(g: Pfsa, tol: float = 1e-9) -> Pfsa:
    """Merge states with matching rows and matching successor structure.

    Partition refinement: initial blocks group states whose emission rows
    agree entrywise within ``tol`` with the block's first member (first
    fit, in state order); blocks are then split by the block signature of
    their successors until stable.  The quotient keeps one state per block,
    ordered by first member and named after its lexicographically smallest
    member, with the row averaged over members (they agree within ``tol``).

    Expects a machine equal to its minimal closed restriction; the quotient
    then emits every word with the same probability as the input.  When
    every state ends in a block of its own, the quotient is the input
    itself (same names, order, targets and rows), and ``g`` is returned.

    Raises
    ------
    ValueError
        If ``tol`` is negative or not finite.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    n, k = g.n_states, g.n_symbols
    block_of = np.empty(n, dtype=np.int64)
    rep_rows = np.empty((n, k))
    n_blocks = 0
    for q, row in enumerate(g._morph):
        hits = np.flatnonzero(np.max(np.abs(rep_rows[:n_blocks] - row), axis=1) <= tol)
        if hits.size:
            block_of[q] = hits[0]
        else:
            rep_rows[n_blocks] = row
            block_of[q] = n_blocks
            n_blocks += 1

    while n_blocks < n:  # a discrete partition is already stable
        signatures = np.column_stack([block_of, block_of[g._delta]])
        _, refined = np.unique(signatures, axis=0, return_inverse=True)
        refined = refined.reshape(n)
        n_refined = int(refined.max()) + 1
        if n_refined == n_blocks:
            break
        block_of, n_blocks = refined, n_refined
    if n_blocks == n:
        return g

    # relabel blocks by first member
    _, first = np.unique(block_of, return_index=True)
    reps = np.sort(first)
    label = np.empty(n_blocks, dtype=np.int64)
    label[block_of[reps]] = np.arange(n_blocks)
    block_of = label[block_of]

    names: list[str | None] = [None] * n_blocks
    for q in sorted(range(n), key=g.states.__getitem__):
        if names[block_of[q]] is None:
            names[block_of[q]] = g.states[q]
    d = block_of[g._delta[reps]]
    m = g._morph[reps].copy()
    sizes = np.bincount(block_of, minlength=n_blocks)
    for b in np.flatnonzero(sizes > 1):
        m[b] = g._morph[block_of == b, :].mean(axis=0)
        m[b] /= m[b].sum()
    return Pfsa(g.alphabet, names, d, m)


def canonicalize(g: Pfsa) -> Pfsa:
    """Reorder states by first reachability from the smallest state name.

    Breadth-first order, exploring symbols in alphabet order; unreachable
    states (possible before restriction) follow in name order.  Gives
    deterministic file round-trips independent of construction history.
    When that order is the machine's own (a normal form, normalized again),
    ``g`` is returned.
    """
    order = _reachable(g._delta, g.state_index(min(g.states)))
    seen = set(order)
    order += [q for q in sorted(range(g.n_states), key=g.states.__getitem__) if q not in seen]
    return g if order == list(range(g.n_states)) else _restrict(g, order)


# ---------------------------------------------------------------------------
# sampling

def _letters(draws: np.ndarray, cuts: np.ndarray, size: int) -> np.ndarray:
    """Letter of each draw, one byte each: the number of ``cuts`` at or
    below it, in an array of ``size`` letters that holds 0 past the draws
    (the padding).

    One vectorised comparison per cut, added up in a byte.  The sampler
    passes at most 255 cuts: a block of two letters fits its tables only if
    ``n * L ** 2 <= 2 ** 16``, so at most 180 cuts on two or more states,
    and a one-state machine passes its own ``k - 1 <= 255`` thresholds,
    whose count is its symbol.
    """
    count = np.zeros(size, dtype=np.uint8)
    above = np.empty(draws.size, dtype=bool)
    for c in cuts.tolist():
        np.greater_equal(draws, c, out=above)
        count[:draws.size] += above.view(np.uint8)
    return count


def _visit_table(step: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Block length ``m``, and the states every ``m``-letter block visits.

    ``step[q, a]`` is the state ``q`` moves to on letter ``a``, for ``n``
    states and ``width`` letters.  Row ``q * width ** m + code`` of
    ``visit`` holds the ``m`` states that the letters of ``code`` (base
    ``width``, first letter most significant) visit from ``q``, ``q``
    first, and the same entry of ``after`` the state after the block.
    ``m`` is the longest block whose ``visit`` has at most
    ``_JUMP_TABLE_ENTRIES`` entries (``n * width ** m * m``), and at least
    1.  Column ``i`` is the state after each ``i``-letter prefix, found by
    ``i`` gathers of ``step`` and repeated for the ``width ** (m - i)``
    codes that share the prefix.
    """
    n, width = step.shape
    m = 1
    while n * width ** (m + 1) * (m + 1) <= _JUMP_TABLE_ENTRIES:
        m += 1
    visit = np.empty((n * width ** m, m), dtype=step.dtype)
    at = np.arange(n, dtype=step.dtype)  # entry q * width ** i + prefix, prefixes in code order
    for i in range(m):
        visit[:, i] = np.repeat(at, width ** (m - i))
        at = np.take(step, at, axis=0).ravel()
    return m, visit, at


def _stitched_starts(offsets: np.ndarray, width: int, codes: np.ndarray, q: int) -> np.ndarray:
    """Start state of every block when the first block starts at ``q`` and
    a block of code ``c`` moves its start ``p`` to ``jump[p, c]``.

    ``offsets`` is ``(jump * width).ravel()`` for a jump table of ``width``
    codes: a successor as its row offset in the flat table, so one gather
    at ``p * width + c`` steps a block.  The caller builds it once per
    table, however many streams it stitches.

    The enumerative data-parallel walk of Mytkowicz, Musuvathi and Schulte
    ("Data-Parallel Finite-State Machines", 2014): ``codes`` holds whole
    chunks of ``_STITCH_BLOCKS`` blocks, and every chunk is walked from
    every state at once, one gather per block over an (n, chunks) array.
    The gathers cost n times the work of a walk from one state, so the
    walk stops early by their "convergence": walks that meet stay together.

    * After blocks 1, 2, 4, ..., 32 the walk tests whether the n walks of
      every chunk end in one state, first on chunk 0 alone, so a machine
      whose walks rarely agree pays about n comparisons per test.  Once
      they agree after block ``j``, one walk per chunk finishes blocks
      ``j + 1`` onwards and writes each block's start over its code.
    * A chunk's head is the end of the chunk before it, all chunks in one
      vectorised shift.  Only the chunks whose walks still differ after the
      last block are linked one by one in Python, in order.
    * A last vectorised pass from the heads writes the starts of blocks
      0..``j`` over their codes, so the result is ``codes`` itself.
    """
    n = offsets.size // width
    by_chunk = codes.reshape(-1, _STITCH_BLOCKS)  # row c: chunk c's codes

    def walk(at, blocks):
        """One walk per chunk through ``blocks``; each code read is
        overwritten by its block's start.  Returns where the walks end."""
        for i in blocks:
            index = at + by_chunk[:, i]
            by_chunk[:, i] = at
            at = offsets[index]
        return at

    ends = np.repeat(np.arange(n) * width, len(by_chunk)).reshape(n, -1)  # [p, c]: chunk c from p
    differ = []
    for j in range(_STITCH_BLOCKS):
        ends += by_chunk[:, j].copy()  # contiguous, so it broadcasts fast over the n walks
        ends = offsets[ends]
        if j & (j + 1) == 0 and (ends[:, :1] == ends[0, :1]).all() and (ends == ends[0]).all():
            break
    else:
        differ = np.flatnonzero((ends != ends[0]).any(axis=0)).tolist()
    # at[c]: chunk c's head, the end of chunk c - 1 whenever that chunk's walks agree
    at = np.concatenate(([q * width], walk(ends[0], range(j + 1, _STITCH_BLOCKS))))
    if differ:  # states, not offsets, so the lists hold Python's cached small ints
        heads = (at // width).tolist()
        for c, row in zip(differ, (ends[:, differ] // width).T.tolist()):
            heads[c + 1] = row[heads[c]]
        at = np.array(heads, dtype=np.int64) * width
    walk(at[:-1], range(j + 1))
    codes //= width
    return codes


def _block_tables(step: np.ndarray, sym: np.ndarray, k: int):
    """Block length ``m``, and the state after, the symbols of and the
    digits of every ``m``-letter block.

    ``step[q, a]`` and ``sym[q, a]`` are the state ``q`` moves to and the
    symbol it emits on letter ``a``, for ``n`` states, ``width`` letters and
    ``k`` symbols.  ``jump[q, code]`` is the state after the ``m`` letters of
    ``code`` (base ``width``, first letter most significant), and
    ``emit[q, code]`` holds the ``m`` symbols emitted on the way, packed in
    base ``k`` in the same order.
    Both grow by the same ``m - 1`` row gathers, one letter put in front
    each time: letter ``a`` moves ``q`` to ``step[q, a]``, where the rest
    of the block goes on, and puts ``sym[q, a]`` in front of its symbols.
    Row ``e`` of ``digits`` holds the ``m`` symbols that ``e`` packs.

    ``m`` is the longest block whose tables each hold at most
    ``_JUMP_TABLE_ENTRIES`` entries: ``n * width ** m`` for ``jump`` and
    ``emit``, ``m * k ** m`` for ``digits``.  The caller makes sure that
    blocks of two fit.
    """
    n, width = step.shape
    m = 2
    while n * width ** (m + 1) <= _JUMP_TABLE_ENTRIES and (m + 1) * k ** (m + 1) <= _JUMP_TABLE_ENTRIES:
        m += 1
    jump, emit = step, sym
    for j in range(1, m):
        emit = np.take(emit, step, axis=0)
        emit += (sym * k ** j)[:, :, None]
        emit = emit.reshape(n, -1)
        jump = np.take(jump, step, axis=0).reshape(n, -1)
    digits = np.ascontiguousarray(np.indices((k,) * m).reshape(m, -1).T)
    return m, jump, emit, digits


def _sampler(g: Pfsa):
    """Build the sampling tables of ``g`` once; returns ``pieces(length,
    seed, out)``, which samples as :func:`generate_sequence` does, writes
    the stream into the int64 array ``out`` in pieces of at most
    ``_STREAM_CHUNK`` symbols, and yields each piece once it is written.

    A piece holds a whole number of stitched chunks (at least one), and the
    state and the generator carry over from one piece to the next;
    ``Generator.random`` in pieces returns the doubles of one call, so the
    pieces joined are the one-call stream.  If ``out`` holds ``length``
    symbols, each piece goes to its place in it; otherwise each goes over
    the one before, from the start of ``out``, which must hold
    ``min(length, _STREAM_CHUNK)`` symbols, so a caller that counts the
    pieces holds one piece at a time.  A zero ``length`` yields one empty
    piece.

    The tables live as long as ``pieces``, so a caller that samples several
    streams of one machine builds them once and frees them with ``pieces``;
    the block walk keeps its jump table only as the flat offsets that
    :func:`_stitched_starts` reads.
    ``length`` is not checked here.
    """
    pi = stationary_distribution(g)
    n, k = g.n_states, g.n_symbols
    cum = np.cumsum(g._morph, axis=1)[:, :-1]
    cuts = np.unique(cum)
    letters = cuts.size + 1
    chunk = 1  # symbols per stitched chunk, or 1 where nothing is stitched
    if n == 1 and k <= 256:
        def fill(q, out, rng):
            # the symbol is the number of the row's thresholds at or below the draw
            out[:] = _letters(rng.random(out.size), cum[0], out.size)
            return q
    elif n > 1 and n * letters ** 2 <= _JUMP_TABLE_ENTRIES and 2 * k ** 2 <= _JUMP_TABLE_ENTRIES:
        # sym[q, a] counts the thresholds of row q at or below cuts[a - 1]
        rank = np.searchsorted(cuts, cum) + 1 + letters * np.arange(n)[:, None]
        sym = np.bincount(rank.ravel(), minlength=n * letters).reshape(n, letters).cumsum(axis=1)
        m, jump, emit, digits = _block_tables(g._delta[np.arange(n)[:, None], sym], sym, k)
        emit, span = emit.ravel(), jump.shape[1]
        offsets = (jump * span).ravel()  # a block's end as its row offset, for the stitched walk
        chunk = _STITCH_BLOCKS * m

        def fill(q, out, rng):
            length = out.size
            size = -(-length // chunk) * chunk
            by_block = _letters(rng.random(length), cuts, size).reshape(-1, m)
            codes = by_block[:, 0].astype(np.int64)  # in base ``letters`` by Horner's rule
            for i in range(1, m):
                codes *= letters
                codes += by_block[:, i]
            del by_block
            # each block's cell of ``emit``, whose offset is where the block ends
            codes += _stitched_starts(offsets, span, codes.copy(), q) * span
            if codes.size:  # the state after the last block, past the padding only in a stream's last piece
                q = int(offsets[codes[-1]]) // span
            codes = emit[codes]  # each block's symbols, packed
            whole, tail = divmod(length, m)
            # every code is in range; "clip" writes straight into ``out``, where
            # "raise" would fill a buffered copy of it first
            np.take(digits, codes[:whole], axis=0, out=out[:length - tail].reshape(whole, m), mode="clip")
            if tail:
                out[length - tail:] = digits[codes[whole], :tail]
            return q
    else:
        cum_rows, delta_rows = cum.tolist(), g._delta.tolist()

        def fill(q, out, rng):
            symbols = []
            for x in memoryview(rng.random(out.size)):
                s = bisect_right(cum_rows[q], x)
                symbols.append(s)
                q = delta_rows[q][s]
            out[:] = symbols
            return q
    piece = max(_STREAM_CHUNK // chunk, 1) * chunk

    def pieces(length, seed, out):
        rng = np.random.default_rng(seed)
        q = int(rng.choice(n, p=pi))
        for start in range(0, max(length, 1), piece):
            begin = start if out.size >= length else 0  # its place, or over the piece before
            at = out[begin:begin + min(piece, length - start)]
            q = fill(q, at, rng)
            yield at

    return pieces


def generate_sequence(g: Pfsa, length: int, seed) -> np.ndarray:
    """Sample ``length`` symbols from the stationary process (index array).

    The initial state is drawn from the stationary distribution, then the
    chain emits from the current row and follows the transition map.
    Deterministic for a fixed seed.

    The draws are one ``rng.choice`` for the start state, then the doubles
    of one ``rng.random(length)``, drawn in pieces of at most
    ``_STREAM_CHUNK`` symbols with the state carried from piece to piece
    (:func:`_sampler`).  From state ``q`` a draw ``u`` emits the symbol
    ``bisect_right(cum[q], u)``, where ``cum[q]`` is the running sum of
    ``q``'s row without its last entry, so a draw above a sum that rounds
    below one still emits the last symbol.  Small machines tabulate that
    loop (the "Four Russians" idea of Arlazarov, Dinic, Kronrod and
    Faradzev, 1970) over blocks of ``m`` symbols; the output equals the
    per-symbol loop element for element:

    * The distinct thresholds ``cuts`` of all rows split [0, 1) into
      ``L = cuts.size + 1`` letters; draw ``u`` is letter ``a``, the
      number of cuts at or below ``u``, counted in a byte by one
      vectorised comparison per cut.  Every ``cum[q, j]`` is a cut, so
      ``cum[q, j] <= u`` exactly when ``cum[q, j] <= cuts[a - 1]``: the
      letter fixes every state's symbol ``sym[q, a]`` by the same float
      comparisons the loop makes, and its successor
      ``step[q, a] = delta[q, sym[q, a]]``.
    * :func:`_block_tables` builds, from ``step`` and ``sym``, the state
      ``jump[q, code]`` after the ``m`` letters of ``code`` and the
      symbols ``emit[q, code]`` emitted on the way, packed in base ``k``.
      ``m`` is the longest block whose tables hold at most
      ``_JUMP_TABLE_ENTRIES`` entries (``n * L ** m``, and ``m * k ** m``
      for the table that unpacks ``emit``), so ``m >= 2`` needs
      ``L <= 256`` and a letter fits a byte.
    * A piece's letters are padded with 0 to whole chunks of
      ``_STITCH_BLOCKS`` blocks (only a stream's last piece needs it), and
      a block's code is its ``m`` letters in base ``L``, folded by Horner's
      rule.  Each block's start state comes from the codes by
      stitching chunks walked from every state at once
      (:func:`_stitched_starts`), so Python takes one step per chunk.  One
      gather of ``emit`` at every block's start and code, and one lookup
      of its digits, then write the symbols of all whole blocks at once,
      and the digits of a last partial block after them.
    * A one-state machine of at most 256 symbols needs no table or walk:
      every symbol is the number of the row's thresholds at or below its
      draw, counted in a byte the same way.

    When no block of two fits the cap (from about 40 states on two
    symbols, or past 181 symbols on several states), and on one state
    past 256 symbols, the loop bisects
    every symbol as written above: the one-step tables hold ``n * L``
    entries with ``L`` up to ``n * (k - 1) + 1``, and a step through them
    costs more than a bisection of the state's own row.

    Raises
    ------
    TypeError
        If ``length`` is not an integer (``bool`` included).
    ValueError
        If ``length`` is negative.
    """
    _check_int(length, "length")
    if length < 0:
        raise ValueError("length must be >= 0")
    out = np.empty(length, dtype=np.int64)
    for _ in _sampler(g)(length, seed, out):
        pass
    return _freeze(out)


# ---------------------------------------------------------------------------
# pfsa v1 text format

def format_pfsa(g: Pfsa) -> str:
    """Render the machine in the ``pfsa v1`` text format (17 digit probs)."""
    lines = ["pfsa v1", "alphabet: " + " ".join(g.alphabet)]
    for i, q in enumerate(g.states):
        lines.append(f"state {q}:")
        for j, sym in enumerate(g.alphabet):
            lines.append(f"  {sym} -> {g.states[g._delta[i, j]]} {g._morph[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def parse_pfsa(text: str) -> Pfsa:
    """Parse the strict ``pfsa v1`` text format.

    Unknown directives, blank interior lines, repeated or incomplete state
    blocks, out-of-order transition lines and unresolvable state references
    are all errors.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "pfsa v1":
        raise PfsaFormatError("first line must be exactly 'pfsa v1'")
    if len(lines) < 2 or not lines[1].startswith("alphabet: "):
        raise PfsaFormatError("second line must be 'alphabet: <symbols>'")
    alphabet = lines[1][len("alphabet: "):].split()
    if len(alphabet) < 2:
        raise PfsaFormatError("alphabet needs at least 2 symbols")
    if len(set(alphabet)) != len(alphabet):
        raise PfsaFormatError("alphabet symbols must be distinct")

    index: dict[str, int] = {}  # state name -> position, in declaration order
    targets: list[str] = []
    probs: list[float] = []
    i = 2
    while i < len(lines):
        line = lines[i]
        if not line.startswith("state ") or not line.endswith(":"):
            raise PfsaFormatError(f"line {i + 1}: expected 'state <name>:', got {line!r}")
        name = line[len("state "):-1]
        if not name or name.split() != [name]:
            raise PfsaFormatError(f"line {i + 1}: bad state name {name!r}")
        if name in index:
            raise PfsaFormatError(f"line {i + 1}: duplicate state {name!r}")
        index[name] = len(index)
        i += 1
        for sym in alphabet:
            if i >= len(lines):
                raise PfsaFormatError(f"state {name!r}: missing transition for {sym!r}")
            row = lines[i]
            if not row[:1].isspace():
                raise PfsaFormatError(f"line {i + 1}: expected indented transition line")
            parts = row.split()
            if len(parts) != 4 or parts[1] != "->":
                raise PfsaFormatError(f"line {i + 1}: expected '<symbol> -> <state> <prob>'")
            if parts[0] != sym:
                raise PfsaFormatError(
                    f"line {i + 1}: expected symbol {sym!r} (alphabet order), got {parts[0]!r}"
                )
            try:
                probs.append(float(parts[3]))
            except ValueError:
                raise PfsaFormatError(f"line {i + 1}: bad probability {parts[3]!r}") from None
            targets.append(parts[2])
            i += 1

    if not index:
        raise PfsaFormatError("no states declared")
    delta = [index.get(t, -1) for t in targets]
    if -1 in delta:
        at = delta.index(-1)
        raise PfsaFormatError(
            f"state {list(index)[at // len(alphabet)]!r}: transition to unknown state {targets[at]!r}"
        )
    shape = (len(index), len(alphabet))
    return Pfsa(alphabet, list(index), np.reshape(delta, shape), np.reshape(probs, shape))


def read_pfsa(path) -> Pfsa:
    """Read and parse a ``pfsa v1`` file.

    Raises
    ------
    PfsaFormatError
        If the file is not UTF-8 text, naming the path, or if
        :func:`parse_pfsa` rejects it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise PfsaFormatError(f"{path}: not UTF-8 text ({err})") from None
    return parse_pfsa(text)


def write_pfsa(g: Pfsa, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pfsa(g))
