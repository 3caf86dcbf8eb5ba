"""Search for epsilon-synchronizing strings.

A string epsilon-synchronizes a machine when, after conditioning the
stationary state belief on it, a single state carries at least ``1 - eps``
of the mass.  Every ergodic machine admits such strings for every positive
epsilon, but no length bound is available, so the search is best-first
with an explicit depth budget and reports :class:`DepthExceeded` (with the
best certificate found) when the budget runs out.

Joint synchronization drives two machines with the same string and ranks
frontier entries by the lower of their belief peaks.

A reset word is the exact case: a word that sends every state of a machine
to one state, so the belief after it is a point mass whatever the start.
:func:`reset_word` finds one for several machines at once, or proves that
none exists, by greedy pairwise merging over each machine's pair graph.
No belief is folded and no depth budget is needed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DepthExceeded
from .pfsa import Pfsa, belief_update, check_same_alphabet, stationary_distribution

FRONTIER_CAP = 10**6
BELIEF_QUANTUM = 1e-12


@dataclass(frozen=True)
class SyncResult:
    """Certificate from a synchronization search.

    ``string`` holds symbol names; ``achieved`` is the peak belief
    component after the string (the search's own belief, equal to
    :func:`~procgeom.pfsa.belief_from_string` of the string); ``state`` is
    the state carrying the peak; ``depth_searched`` is the longest string
    length the search examined.
    """

    string: tuple[str, ...]
    achieved: float
    state: str
    depth_searched: int


def _pair_delta(g: Pfsa, h: Pfsa) -> np.ndarray:
    """Transition table of the pair states: pair (i, j) is row ``i * nh + j``.

    The one builder of a pair table.  It is built symbol-major in one pass,
    from contiguous copies of the operands' transposed tables, so the
    ``(n_g * n_h, k)`` table returned is the transposed view of one
    C-contiguous ``(k, n_g * n_h)`` array: ``_pair_delta(g, h).T[s]`` holds
    every pair's successor on symbol ``s``, as :func:`_merge_table` reads it.
    """
    gT, hT = np.ascontiguousarray(g._delta.T), np.ascontiguousarray(h._delta.T)
    return (gT[:, :, None] * h.n_states + hT[:, None, :]).reshape(g.n_symbols, -1).T


def _merge_table(g: Pfsa):
    """Shortest merging words of every state pair of ``g``, or None.

    Backward breadth-first search from the diagonal of the pair graph:
    pair (i, j) is column ``i * n + j`` of the transposed pair table
    ``pdT = _pair_delta(g, g).T`` (``pdT[s]`` holds every pair's successor
    on symbol ``s``; C-contiguous, so the peak holds one pair table), and
    is ``dist[i, j]`` symbols from the diagonal; the diagonal itself holds
    ``n * n``, more than any pair's distance, so that the closest pair of a
    set of states is the ``argmin`` of a gather of ``dist``.  ``first``
    holds the smallest symbol that starts a shortest merging word of each
    pair (-1 on the diagonal), read off the finished distances: a symbol
    starts one when it leads the pair one step closer to the diagonal.
    None means some pair never merges, so no word merges all states.
    """
    n, pdT = g.n_states, _pair_delta(g, g).T
    dist = np.full(n * n, -1, dtype=np.int64)
    first = np.full(n * n, -1, dtype=np.int64)
    level = np.zeros(n * n, dtype=bool)
    level[:: n + 1] = True
    dist[level] = depth = 0
    while level.any():
        level = level[pdT].any(axis=0) & (dist < 0)
        depth += 1
        dist[level] = depth
    if (dist < 0).any():
        return None
    for s in range(g.n_symbols - 1, -1, -1):  # the smallest symbol is written last
        first[dist.take(pdT[s]) == dist - 1] = s
    dist[:: n + 1] = n * n
    return pdT, dist.reshape(n, n), first


def reset_word(*machines: Pfsa) -> tuple[str, ...] | None:
    """A word sending every state of each machine to a single state, or None.

    After the word each machine's state is known exactly, whatever the
    state before it, so the belief of :func:`~procgeom.pfsa.belief_from_string`
    is a point mass.  None means some machine has a state pair that no
    word merges (it is not synchronizing).

    Eppstein's greedy merging (D. Eppstein, "Reset sequences for monotonic
    automata", SIAM J. Comput. 1990), one machine after another: while the
    image of the machine's states under the word so far has two states,
    append a shortest merging word of its closest pair.  A machine merged
    by an earlier machine's word stays merged, because transitions are
    deterministic, and needs no table of its own.  The word need not be
    the shortest.

    Raises
    ------
    AlphabetMismatch
        If the machines do not share one alphabet.
    """
    if not machines:
        raise ValueError("need at least one machine")
    check_same_alphabet(*machines)
    word = _reset_word(machines, {})
    return None if word is None else tuple(machines[0].alphabet[s] for s in word)


def _greedy_merge(g: Pfsa, image: np.ndarray, table, word: list[int]) -> list[int]:
    """Extend ``word`` by Eppstein's greedy merging until it sends the
    sorted distinct states ``image`` of ``g`` to one state; returns ``word``.

    Each merge reads the distances of every pair of the image with one
    gather of the rows and one of the columns of the table's ``dist``, takes
    the closest pair by ``argmin`` (the first in row order on ties), and
    follows that pair's shortest merging word for its known ``dist``
    symbols, moving the image along.  The image is then sorted and made
    distinct again through a mask of ``g``'s states.
    """
    pdT, dist, first = table
    n = g.n_states
    after = list(g._delta.T)  # after[s][q]: where state q goes on symbol s
    seen = np.zeros(n, dtype=bool)
    while image.size > 1:
        d = dist.take(image, axis=0).take(image, axis=1)
        at = d.argmin().item()
        a, b = divmod(at, image.size)
        pair = image.item(a) * n + image.item(b)
        for _ in range(d.item(at)):
            s = first.item(pair)
            word.append(s)
            image = after[s][image]
            pair = pdT.item(s, pair)
        seen[:] = False
        seen[image] = True
        image = np.flatnonzero(seen)
    return word


def _reset_word(machines, tables: dict) -> tuple[int, ...] | None:
    """:func:`reset_word` of machines sharing one alphabet, as symbol indices.

    ``tables`` maps a machine to its :func:`_merge_table` and holds nothing
    else.  Callers share the dict, so a machine's table is built once; each
    call runs its own greedy merges.  A machine that appears twice in
    ``machines`` is processed once: the word that merges it the first time
    keeps it merged.
    """
    word: list[int] = []
    for g in dict.fromkeys(machines):
        image = np.arange(g.n_states)
        for s in word:
            image = g._delta[image, s]
        image = np.unique(image)
        if image.size == 1:
            continue
        if g not in tables:
            tables[g] = _merge_table(g)
        if tables[g] is None:
            return None
        _greedy_merge(g, image, tables[g], word)
    return tuple(word)


def _belief_key(beliefs) -> bytes:
    return np.round(np.concatenate(beliefs) / BELIEF_QUANTUM).tobytes()


def _certificates(machines, string_idx, beliefs, depth: int):
    """One :class:`SyncResult` per machine, read off the beliefs after
    ``string_idx``, and the string as symbol names."""
    string = tuple(machines[0].alphabet[j] for j in string_idx)
    results = []
    for m, b in zip(machines, beliefs):
        peak = int(np.argmax(b))
        results.append(SyncResult(string, float(b[peak]), m.states[peak], depth))
    return tuple(results), string


def _frontier_search(machines: tuple, eps: float, max_depth: int | None):
    """Best-first search over strings, ranked by the worst belief peak.

    ``machines`` is a nonempty tuple of machines sharing one alphabet;
    ``max_depth`` defaults to 64 times the largest state count.  Beliefs
    quantized to 1e-12 deduplicate revisited frontier entries (the future
    depends on the beliefs alone).  Ties in score break toward the
    lexicographically smallest string in alphabet order.  Certificates are
    read off the beliefs each entry carries, folded by
    :func:`belief_update` from the stationary start.
    """
    check_same_alphabet(*machines)
    if max_depth is None:
        max_depth = 64 * max(m.n_states for m in machines)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    k = machines[0].n_symbols
    start = tuple(stationary_distribution(m) for m in machines)

    def score(beliefs) -> float:
        return min(float(b.max()) for b in beliefs)

    heap = [(-score(start), (), start)]
    visited = {_belief_key(start)}
    best_score = -np.inf
    best_string: tuple[int, ...] = ()
    best_beliefs = start
    depth_seen = 0

    while heap:
        neg, string_idx, beliefs = heapq.heappop(heap)
        current = -neg
        depth_seen = max(depth_seen, len(string_idx))
        if current > best_score:
            best_score = current
            best_string = string_idx
            best_beliefs = beliefs
        if current >= 1.0 - eps:
            return _certificates(machines, string_idx, beliefs, depth_seen)
        if len(string_idx) >= max_depth:
            continue
        for j in range(k):
            nxt = tuple(belief_update(m, b, j) for m, b in zip(machines, beliefs))
            key = _belief_key(nxt)
            if key in visited:
                continue
            visited.add(key)
            heapq.heappush(heap, (-score(nxt), string_idx + (j,), nxt))
        if len(heap) > FRONTIER_CAP:
            heap = heapq.nsmallest(FRONTIER_CAP // 2, heap)

    results, string = _certificates(machines, best_string, best_beliefs, depth_seen)
    raise DepthExceeded(
        f"no string within depth {max_depth} reaches belief {1.0 - eps:.17g} "
        f"(best {best_score:.17g} at {''.join(string)!r})",
        best=results if len(results) > 1 else results[0],
    )


def epsilon_synchronize(g: Pfsa, eps: float, max_depth: int | None = None) -> SyncResult:
    """Find a string concentrating the state belief to at least ``1 - eps``.

    Raises
    ------
    DepthExceeded
        If no such string exists within ``max_depth`` (default
        ``64 * n_states``); the best certificate found rides on the error.
    """
    return _frontier_search((g,), eps, max_depth)[0][0]


def joint_epsilon_synchronize(
    g: Pfsa, h: Pfsa, eps: float, max_depth: int | None = None
) -> tuple[SyncResult, SyncResult, tuple[str, ...]]:
    """One string that epsilon-synchronizes both machines simultaneously.

    Both machines read the same symbols, so the search walks the pair of
    belief recursions directly rather than a product construction.
    """
    (rg, rh), string = _frontier_search((g, h), eps, max_depth)
    return rg, rh, string
