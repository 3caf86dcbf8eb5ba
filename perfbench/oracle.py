"""Independent references for the benchmark's output checks.

The quantities follow procgeom's documented definitions, but every number
is computed here with plain numpy from the generator's arrays:

* the inner product of two processes is the average of the consecutive
  log-ratio inner products of their rows under the stationary distribution
  of the uniformly driven pair chain, restricted to its sink component;
* a process sum is the product machine with rows ``a * b / sum(a * b)``,
  restricted to its sink component;
* a scaled process has rows ``a**alpha / sum(a**alpha)``.

Stationary vectors come from ``numpy.linalg.solve`` with one balance
equation replaced by the normalisation, not from a least-squares solve.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .inputs import Machine, restrict_delta, sink_components

ZERO_NORM_SQ = 1e-24  # procgeom calls a norm below 1e-12 zero


class NoReference(Exception):
    """The reference is not defined for this input (several sink components)."""


def restrict(m: Machine, keep: np.ndarray) -> Machine:
    return Machine(restrict_delta(m.delta, keep), m.morph[keep])


def recurrent_part(m: Machine) -> Machine:
    sinks = sink_components(m.delta)
    if len(sinks) != 1:
        raise NoReference(f"{len(sinks)} sink components")
    return restrict(m, sinks[0])


def chain_stationary(delta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Stationary vector of the chain moving ``q -> delta[q, s]`` with probability ``weights[q, s]``.

    The chain must be irreducible.
    """
    n = delta.shape[0]
    a = np.zeros((n, n))
    np.add.at(a, (delta, np.repeat(np.arange(n)[:, None], delta.shape[1], axis=1)), weights)
    a[np.diag_indices(n)] -= 1.0
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def log_coords(morph: np.ndarray) -> np.ndarray:
    return np.diff(np.log(morph), axis=1)


def pair_inner(g: Machine, h: Machine) -> float:
    """Exact inner product from the uniformly driven pair chain."""
    g, h = recurrent_part(g), recurrent_part(h)
    ng, nh = g.n_states, h.n_states
    pair_delta = (g.delta[:, None, :] * nh + h.delta[None, :, :]).reshape(ng * nh, -1)
    sinks = sink_components(pair_delta)
    if len(sinks) != 1:
        raise NoReference(f"pair chain has {len(sinks)} sink components")
    chain = restrict_delta(pair_delta, sinks[0])
    k = pair_delta.shape[1]
    rho = chain_stationary(chain, np.full(chain.shape, 1.0 / k))
    pairwise = (log_coords(g.morph) @ log_coords(h.morph).T).reshape(-1)
    return float(rho @ pairwise[sinks[0]])


def norm_sq(g: Machine) -> float:
    """``<g, g>``: the diagonal of the pair chain is closed, so the walk stays on it."""
    g = recurrent_part(g)
    k = g.delta.shape[1]
    rho = chain_stationary(g.delta, np.full(g.delta.shape, 1.0 / k))
    return float(rho @ (log_coords(g.morph) ** 2).sum(axis=1))


def exact_cos(g: Machine, h: Machine) -> float:
    """Cosine of the angle; NaN when either operand has zero norm."""
    ng, nh = norm_sq(g), norm_sq(h)
    if ng <= ZERO_NORM_SQ or nh <= ZERO_NORM_SQ:
        return math.nan
    return pair_inner(g, h) / math.sqrt(ng * nh)


def scaled(g: Machine, alpha: float) -> Machine:
    g = recurrent_part(g)
    w = g.morph**alpha
    return Machine(g.delta, w / w.sum(axis=1, keepdims=True))


def sum_machine(g: Machine, h: Machine) -> Machine:
    g, h = recurrent_part(g), recurrent_part(h)
    ng, nh = g.n_states, h.n_states
    delta = (g.delta[:, None, :] * nh + h.delta[None, :, :]).reshape(ng * nh, -1)
    w = (g.morph[:, None, :] * h.morph[None, :, :]).reshape(ng * nh, -1)
    return recurrent_part(Machine(delta, w / w.sum(axis=1, keepdims=True)))


def word_probabilities(m: Machine, max_len: int) -> dict[tuple[int, ...], float]:
    """Stationary probability of every word of length 1..max_len."""
    m = recurrent_part(m)
    n, k = m.morph.shape
    out = {}
    forward = {(): chain_stationary(m.delta, m.morph)}
    for length in range(1, max_len + 1):
        for word in product(range(k), repeat=length):
            mass = np.zeros(n)
            np.add.at(mass, m.delta[:, word[-1]], forward[word[:-1]] * m.morph[:, word[-1]])
            forward[word] = mass
            out[word] = float(mass.sum())
    return out


def parse_machine(text: str) -> Machine:
    """Strict reader for ``pfsa v1`` over the alphabet ``0 1``; raises ValueError."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[:2] != ["pfsa v1", "alphabet: 0 1"]:
        raise ValueError("bad header or missing final newline")
    body = lines[2:-1]
    if len(body) % 3:
        raise ValueError("state blocks are not 3 lines each")
    names = []
    for i in range(0, len(body), 3):
        head = body[i]
        if not (head.startswith("state ") and head.endswith(":")):
            raise ValueError(f"bad state line {head!r}")
        names.append(head[6:-1])
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("duplicate state names")
    delta = np.empty((len(names), 2), dtype=np.int64)
    morph = np.empty((len(names), 2))
    for q in range(len(names)):
        for s in range(2):
            parts = body[3 * q + 1 + s].split()
            if len(parts) != 4 or parts[0] != str(s) or parts[1] != "->" or parts[2] not in index:
                raise ValueError(f"bad transition line {body[3 * q + 1 + s]!r}")
            delta[q, s] = index[parts[2]]
            morph[q, s] = float(parts[3])
    if not np.all(np.isfinite(morph)) or np.any(morph <= 0.0):
        raise ValueError("rows must be finite and strictly positive")
    if np.any(np.abs(morph.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("rows must sum to 1 within 1e-12")
    return Machine(delta, morph)
