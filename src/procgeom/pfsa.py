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

import numpy as np

from .errors import (
    AlphabetMismatch,
    InvalidPfsa,
    NotErgodic,
    PfsaFormatError,
    ZeroMass,
)
from .simplex import ProbVec, _freeze

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-12
_POWER_MIN_STATES = 128  # larger blocks are tried by power iteration first
_POWER_STEP_CAP = 10_000
_POWER_CHECK_STEPS = 250  # steps between projections of the residual to the cap
_POWER_TEST_STEPS = 10  # steps between residual tests; divides _POWER_CHECK_STEPS
_POWER_STEP_WEIGHT = 0.9  # x <- (1 - a) x + a xP; any a < 1 keeps the chain aperiodic
_POWER_RESIDUAL_EPS = 4 * np.finfo(np.float64).eps
_JUMP_TABLE_ENTRIES = 1 << 16  # cap on a block-jump table (sampler and pair-state walks)
_STITCH_BLOCKS = 32  # blocks per stitched chunk; 8 to 64 were equally fast


def _check_names(names, kind: str) -> tuple[str, ...]:
    out = tuple(str(n) for n in names)
    if len(set(out)) != len(out):
        raise InvalidPfsa(f"duplicate {kind} names")
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
        try:
            d = np.array(delta, dtype=np.float64)
            m = np.array(morph, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise InvalidPfsa(f"delta or morph is not a numeric table: {err}") from None
        if d.shape != (n, k):
            raise InvalidPfsa(f"delta shape {d.shape} != ({n}, {k})")
        if not np.all(d == np.floor(d)):
            raise InvalidPfsa("delta holds a non-integer state index")
        if d.min() < 0 or d.max() >= n:
            raise InvalidPfsa("delta targets an unknown state")
        if m.shape != (n, k):
            raise InvalidPfsa(f"morph shape {m.shape} != ({n}, {k})")

        self._delta = _freeze(d.astype(np.int64))
        self._morph = _freeze(m)
        self._pi = None  # stationary vector, solved on first use

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    def symbol_index(self, sigma) -> int:
        if isinstance(sigma, (int, np.integer)):
            if not 0 <= int(sigma) < self.n_symbols:
                raise KeyError(f"symbol index {sigma} out of range")
            return int(sigma)
        return self._sym_index[sigma]

    def state_index(self, q) -> int:
        if isinstance(q, (int, np.integer)):
            if not 0 <= int(q) < self.n_states:
                raise KeyError(f"state index {q} out of range")
            return int(q)
        return self._state_index[q]

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


def check_same_alphabet(a, b) -> None:
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
    x = _reachable(delta, 0)[-1]
    if _all_reach(delta, x):
        return [sorted(_reachable(delta, x))]
    preds, bounds = _predecessors(delta)
    succ = delta.tolist()
    settled = [False] * len(succ)
    sinks = []
    for v in reversed(_finish_order(preds, bounds)):
        if not settled[v]:
            settled[v] = True
            sink = _search_forward(succ, [v], settled)
            sinks.append(sorted(sink))
            _search_backward(preds, bounds, sink, settled)
    return sorted(sinks)


def sink_sccs(g: Pfsa) -> list[list[int]]:
    """Strongly connected components with no transition leaving them."""
    return _sink_components(g._delta)


def _predecessors(delta: np.ndarray) -> tuple[list[int], list[int]]:
    """Predecessor index of the graph ``v -> delta[v, s]``: the predecessors
    of state ``q`` are ``preds[bounds[q]:bounds[q + 1]]``, one run of a
    stable argsort of the targets, one entry per edge."""
    n, k = delta.shape
    flat = delta.ravel()
    by_target = np.argsort(flat, kind="stable")
    return (by_target // k).tolist(), np.searchsorted(flat[by_target], np.arange(n + 1)).tolist()


def _search_forward(succ: list[list[int]], order: list[int], seen: list[bool]) -> list[int]:
    """Breadth-first search along ``succ`` from the states in ``order``,
    which ``seen`` already marks; appends each unseen state it reaches,
    symbols explored in alphabet order, and returns ``order``."""
    for q in order:  # also visits the states appended while it runs
        for t in succ[q]:
            if not seen[t]:
                seen[t] = True
                order.append(t)
    return order


def _search_backward(preds: list[int], bounds: list[int], order: list[int],
                     seen: list[bool]) -> list[int]:
    """:func:`_search_forward` against the edges, over the index of
    :func:`_predecessors`, slicing each visited state's run as it goes."""
    for q in order:  # also visits the states appended while it runs
        for p in preds[bounds[q]:bounds[q + 1]]:
            if not seen[p]:
                seen[p] = True
                order.append(p)
    return order


def _finish_order(preds: list[int], bounds: list[int]) -> list[int]:
    """States in the order an iterative depth-first search of the reversed
    graph finishes them, over the index of :func:`_predecessors`."""
    seen = [False] * (len(bounds) - 1)
    finished = []
    for root in range(len(seen)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(preds[bounds[root]:bounds[root + 1]]))]
        while stack:
            v, rest = stack[-1]
            for p in rest:
                if not seen[p]:
                    seen[p] = True
                    stack.append((p, iter(preds[bounds[p]:bounds[p + 1]])))
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
    return _search_forward(delta.tolist(), [start], seen)


def _all_reach(delta: np.ndarray, target: int) -> bool:
    """Whether every state reaches ``target`` along ``delta``: one
    breadth-first search backwards from ``target``, O(states * symbols) on
    any graph."""
    seen = [False] * delta.shape[0]
    seen[target] = True
    return len(_search_backward(*_predecessors(delta), [target], seen)) == delta.shape[0]


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


def _stationary(delta: np.ndarray, weights, keep) -> np.ndarray:
    """Stationary vector of the chain of :func:`_chain_matrix`, carried by
    the closed component ``keep`` (zero elsewhere).

    Only the ``keep`` block is solved: ``keep`` is closed, so its rows
    renumbered by :func:`_renumber` form a chain of their own, and nothing
    over the other states is allocated.  Blocks of more than
    ``_POWER_MIN_STATES`` states are solved by the certified lazy power
    iteration of :func:`_power_iterate` (steps weighted by
    ``_POWER_STEP_WEIGHT``, the residual tested every
    ``_POWER_TEST_STEPS`` steps) in O(m k) memory.
    Smaller blocks, and any block the iteration does not certify within
    its step cap (a slowly mixing chain), are solved densely as the
    consistent linear system ``p (P - I) = 0``, ``sum(p) = 1``, whose
    residual on the block must come out below 1e-12 with every entry on
    ``keep`` positive.
    """
    block = _renumber(delta, keep)
    w = np.broadcast_to(weights, delta.shape)[keep]
    sol = _power_iterate(block, w) if len(keep) > _POWER_MIN_STATES else None
    if sol is None:
        sol = _dense_stationary(_chain_matrix(block, w))
    out = np.zeros(delta.shape[0])
    out[keep] = sol
    return out


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
        g._pi = _freeze(_stationary(g._delta, g._morph, sinks[0]))
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
    then emits every word with the same probability as the input.

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

    while True:
        signatures = np.column_stack([block_of, block_of[g._delta]])
        _, refined = np.unique(signatures, axis=0, return_inverse=True)
        refined = refined.reshape(n)
        n_refined = int(refined.max()) + 1
        if n_refined == n_blocks:
            break
        block_of, n_blocks = refined, n_refined

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
    """
    order = _reachable(g._delta, g.state_index(min(g.states)))
    seen = set(order)
    order += [q for q in sorted(range(g.n_states), key=g.states.__getitem__) if q not in seen]
    return _restrict(g, order)


# ---------------------------------------------------------------------------
# sampling

def _letters(draws: np.ndarray, cuts: np.ndarray, size: int) -> np.ndarray:
    """Letter of each draw: the number of ``cuts`` at or below it, in an
    array of ``size`` letters that holds 0 past the draws (the padding).

    One vectorised comparison per cut, added up in a byte: the tabulated
    sampler admits at most 255 cuts, since a block of two letters fits its
    table only if ``L <= 256``.  The int64 letters are made here, before
    the caller's temporary draws are freed: of three allocation orders
    tried this one made ``experiment`` ops about 12% faster than the
    others, the difference landing in the later estimation's allocations.
    """
    count = np.zeros(size, dtype=np.uint8)
    above = np.empty(draws.size, dtype=bool)
    for c in cuts.tolist():
        np.greater_equal(draws, c, out=above)
        count[:draws.size] += above.view(np.uint8)
    del above
    return count.astype(np.int64)


def _jump_table(step: np.ndarray) -> tuple[int, np.ndarray]:
    """Block length ``m`` and the ``m``-letter jump table of a one-step table.

    ``step[q, a]`` is the state ``q`` moves to on letter ``a``, for ``n``
    states and ``width`` letters.  ``m`` is the longest block whose table
    has at most ``_JUMP_TABLE_ENTRIES`` entries (``n * width ** m``), and
    at least 1.  ``jump[q, code]`` is the state after the ``m`` letters of
    ``code`` (base ``width``, first letter most significant), built by
    ``m - 1`` gathers of ``step``.
    """
    n, width = step.shape
    m = 1
    while n * width ** (m + 1) <= _JUMP_TABLE_ENTRIES:
        m += 1
    jump = step
    for _ in range(m - 1):
        jump = np.take(step, jump, axis=0).reshape(n, -1)
    return m, jump


def _stitched_starts(jump: np.ndarray, codes: np.ndarray, q: int) -> np.ndarray:
    """Start state of every block when the first block starts at ``q`` and
    a block of code ``c`` moves its start ``p`` to ``jump[p, c]``.

    The enumerative data-parallel walk of Mytkowicz, Musuvathi and Schulte
    ("Data-Parallel Finite-State Machines", 2014): ``codes`` holds whole
    chunks of ``_STITCH_BLOCKS`` blocks, and every chunk is walked from
    every state at once, one gather per block over an (n, chunks) array.
    One Python pass over the chunks links each chunk's start to the end of
    the one before it, and a second vectorised pass writes every block's
    start over its code, so the result is ``codes`` itself.  The gathers
    cost n times the work of a walk from one state.
    """
    n, width = jump.shape
    by_chunk = codes.reshape(-1, _STITCH_BLOCKS)  # row c: chunk c's codes
    offsets = (jump * width).ravel()  # a successor as its row offset in the flat table
    ends = np.repeat(np.arange(n) * width, len(by_chunk)).reshape(n, -1)  # [p, c]: chunk c from p
    for j in range(_STITCH_BLOCKS):
        ends += by_chunk[:, j].copy()  # contiguous, so it broadcasts fast over the n walks
        ends = offsets[ends]
    heads = []
    for row in (ends // width).T.tolist():
        heads.append(q)
        q = row[q]
    at = np.array(heads, dtype=np.int64) * width
    for j in range(_STITCH_BLOCKS):
        index = at + by_chunk[:, j]
        by_chunk[:, j] = at  # each code is overwritten by its block's start once read
        at = offsets[index]
    codes //= width
    return codes


def generate_sequence(g: Pfsa, length: int, seed) -> np.ndarray:
    """Sample ``length`` symbols from the stationary process (index array).

    The initial state is drawn from the stationary distribution, then the
    chain emits from the current row and follows the transition map.
    Deterministic for a fixed seed.

    The draws are one ``rng.choice`` for the start state, then one
    ``rng.random(length)``.  From state ``q`` a draw ``u`` emits the symbol
    ``bisect_right(cum[q], u)``, where ``cum[q]`` is the running sum of
    ``q``'s row without its last entry, so a draw above a sum that rounds
    below one still emits the last symbol.  Small machines tabulate that
    loop (the "Four Russians" idea of Arlazarov, Dinic, Kronrod and
    Faradzev, 1970) over blocks of ``m`` symbols; the output equals the
    per-symbol loop element for element:

    * The distinct thresholds ``cuts`` of all rows split [0, 1) into
      ``L = cuts.size + 1`` letters; draw ``u`` is letter ``a``, the
      number of cuts at or below ``u``, counted by one vectorised
      comparison per cut.  Every ``cum[q, j]`` is a cut, so
      ``cum[q, j] <= u`` exactly when ``cum[q, j] <= cuts[a - 1]``: the
      letter fixes every state's symbol ``sym[q, a]`` by the same float
      comparisons the loop makes, and its successor
      ``step[q, a] = delta[q, sym[q, a]]``.
    * ``jump[q, code]`` is the state after the ``m`` letters of ``code``,
      built from ``step`` by :func:`_jump_table`.  ``m`` is the longest
      block whose table has at most ``_JUMP_TABLE_ENTRIES`` entries
      (``n * L ** m``), so ``m >= 2`` needs ``L <= 256`` and a letter fits
      a byte.
    * The letters are padded with 0 to whole chunks of ``_STITCH_BLOCKS``
      blocks, and a block's code is its ``m`` letters in base ``L``.  Each
      block's start state comes from the codes by stitching chunks walked
      from every state at once (:func:`_stitched_starts`), so Python takes
      one step per chunk.  ``m`` vectorised gathers of ``sym`` and
      ``step`` then fill in the symbols of every block at once, and the
      first ``length`` are returned.
    * A one-state machine needs no table or walk: every symbol is
      ``sym[0, a]`` of its own draw's letter.

    When no block of two letters fits the cap (from about 40 states on
    two symbols), the loop bisects every symbol as written above: the
    one-step tables hold ``n * L`` entries with ``L`` up to
    ``n * (k - 1) + 1``, and a step through them costs more than a
    bisection of the state's own row.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    rng = np.random.default_rng(seed)
    q = int(rng.choice(g.n_states, p=stationary_distribution(g)))
    n = g.n_states
    cum = np.cumsum(g._morph, axis=1)[:, :-1]
    cuts = np.unique(cum)
    letters = cuts.size + 1
    if n * letters ** 2 > _JUMP_TABLE_ENTRIES:
        cum_rows, delta_rows = cum.tolist(), g._delta.tolist()
        out = []
        for x in memoryview(rng.random(length)):
            s = bisect_right(cum_rows[q], x)
            out.append(s)
            q = delta_rows[q][s]
        return _freeze(np.array(out, dtype=np.int64))

    # sym[q, a] counts the thresholds of row q at or below cuts[a - 1]
    rank = np.searchsorted(cuts, cum) + 1 + letters * np.arange(n)[:, None]
    sym = np.bincount(rank.ravel(), minlength=n * letters).reshape(n, letters).cumsum(axis=1)
    if n == 1:
        return _freeze(sym[0][_letters(rng.random(length), cuts, length)])
    step = g._delta[np.arange(n)[:, None], sym]
    m, jump = _jump_table(step)

    chunk = _STITCH_BLOCKS * m  # symbols per stitched chunk
    out = _letters(rng.random(length), cuts, -(-length // chunk) * chunk)
    by_block = out.reshape(-1, m)  # each letter is overwritten by its symbol once read
    starts = _stitched_starts(jump, by_block @ letters ** np.arange(m - 1, -1, -1), q)

    sym_flat, step_flat = sym.ravel(), (step * letters).ravel()
    at = starts * letters  # row offsets into the flat tables
    for i in range(m):
        index = at + by_block[:, i]
        by_block[:, i] = sym_flat[index]
        at = step_flat[index]
    return _freeze(out[:length])


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

    state_names: list[str] = []
    trans: dict[str, list[tuple[str, str, float]]] = {}
    i = 2
    while i < len(lines):
        line = lines[i]
        if not line.startswith("state ") or not line.endswith(":"):
            raise PfsaFormatError(f"line {i + 1}: expected 'state <name>:', got {line!r}")
        name = line[len("state "):-1]
        if not name or name.split() != [name]:
            raise PfsaFormatError(f"line {i + 1}: bad state name {name!r}")
        if name in trans:
            raise PfsaFormatError(f"line {i + 1}: duplicate state {name!r}")
        state_names.append(name)
        trans[name] = []
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
                prob = float(parts[3])
            except ValueError:
                raise PfsaFormatError(f"line {i + 1}: bad probability {parts[3]!r}") from None
            trans[name].append((sym, parts[2], prob))
            i += 1

    if not state_names:
        raise PfsaFormatError("no states declared")
    for name, rows in trans.items():
        for _, target, _ in rows:
            if target not in trans:
                raise PfsaFormatError(f"state {name!r}: transition to unknown state {target!r}")

    delta = {q: {sym: t for sym, t, _ in trans[q]} for q in state_names}
    morph = {q: [p for _, _, p in trans[q]] for q in state_names}
    return Pfsa(alphabet, state_names, delta, morph)


def read_pfsa(path) -> Pfsa:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pfsa(fh.read())


def write_pfsa(g: Pfsa, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pfsa(g))
