"""Hilbert-space laws of the exact inner product on random synchronizing machines.

Each triple (p, q, r) draws three machines of 5-8 states on k symbols from
one seeded generator: transitions uniform, rows dirichlet(2) floored at
1e-3 and renormalized.  A triple is kept only if every machine is unichain
and the three share a reset word, so every pair chain has one sink and the
closed form is the walk average itself.  The sum enters through
``sum_processes`` and the scalar product through ``scale_process``.

Tolerances are relative to the Cauchy-Schwarz scale of each side, the
product of the operands' norms, so an inner product near zero is not
held to a relative error of its own size.  Angles are held to ``REL_TOL``
in radians: the paper's orthogonal complement by Gram-Schmidt, and the
scale law that scaling by a positive factor leaves an angle alone and a
negative one reflects it to ``pi`` minus it.
"""

import functools
import math

import numpy as np
import pytest

from procgeom import (
    NotErgodic,
    Pfsa,
    angle,
    as_process,
    inner_exact,
    process_norm,
    reset_word,
    scale_process,
    sum_processes,
    zero_process,
)

TRIPLES = 20
REL_TOL = 1e-12
SCALES = (0.37, -1.0, -2.5)
SCALE_PAIRS = ((0.37, 2.0), (-1.0, -2.5), (0.37, -1.0), (-2.5, 2.0), (2.0, 2.0))


def random_machine(rng, k):
    n = int(rng.integers(5, 9))
    delta = rng.integers(0, n, (n, k))
    rows = np.maximum(rng.dirichlet([2.0] * k, n), 1e-3)
    return Pfsa([str(s) for s in range(k)], [f"s{i}" for i in range(n)], delta,
                rows / rows.sum(axis=1, keepdims=True))


@functools.lru_cache(maxsize=None)
def triples(k):
    """The first ``TRIPLES`` kept triples on ``k`` symbols, by seed."""
    kept = []
    for seed in range(10 * TRIPLES):
        rng = np.random.default_rng([k, seed])
        try:
            triple = tuple(as_process(random_machine(rng, k), f"{name}{seed}") for name in "pqr")
        except NotErgodic:
            continue
        if reset_word(*(x.machine for x in triple)) is not None:
            kept.append(triple)
            if len(kept) == TRIPLES:
                return kept
    raise AssertionError(f"only {len(kept)} kept triples on {k} symbols")


def inner(a, b):
    return inner_exact(a, b).value


def assert_close(lhs, rhs, scale):
    assert abs(lhs - rhs) <= REL_TOL * scale, (lhs, rhs, scale)


@pytest.mark.parametrize("k", [2, 3])
class TestInnerProductLaws:
    def test_symmetry(self, k):
        for p, q, _ in triples(k):
            assert_close(inner(p, q), inner(q, p), process_norm(p) * process_norm(q))

    def test_additivity(self, k):
        # <p + q, r> = <p, r> + <q, r>
        for p, q, r in triples(k):
            scale = (process_norm(p) + process_norm(q)) * process_norm(r)
            assert_close(inner(sum_processes(p, q), r), inner(p, r) + inner(q, r), scale)

    @pytest.mark.parametrize("alpha", SCALES)
    def test_homogeneity(self, k, alpha):
        # <alpha p, r> = alpha <p, r>
        for p, _, r in triples(k):
            scale = abs(alpha) * process_norm(p) * process_norm(r)
            assert_close(inner(scale_process(alpha, p), r), alpha * inner(p, r), scale)

    def test_zero_annihilates(self, k):
        for p, _, _ in triples(k):
            zero = zero_process(p.alphabet)
            assert_close(inner(zero, p), 0.0, process_norm(p))

    def test_positive_definite(self, k):
        # <x, x> > 0 for every kept operand and its scaled copies, and
        # <zero, zero> = 0: the uniform rows' log-ratios are exactly 0
        for triple in triples(k):
            for p in triple:
                for x in (p, *(scale_process(alpha, p) for alpha in SCALES)):
                    assert inner(x, x) > 0.0, x.label
        zero = zero_process(triples(k)[0][0].alphabet)
        assert inner(zero, zero) == 0.0

    def test_gram_schmidt_gives_an_orthogonal_process(self, k):
        # r = p + (-c) q with c = <p, q> / <q, q> is orthogonal to q
        for p, q, _ in triples(k):
            r = sum_processes(p, scale_process(-inner(p, q) / inner(q, q), q))
            assert abs(inner(r, q)) <= REL_TOL, (p.label, q.label)
            assert abs(angle(r, q) - math.pi / 2) <= REL_TOL, (p.label, q.label)

    @pytest.mark.parametrize("a, b", SCALE_PAIRS)
    def test_scaling_keeps_or_reflects_the_angle(self, k, a, b):
        # angle(a p, b q) is angle(p, q) for a b > 0 and pi minus it for
        # a b < 0, with q = p among the cases: 0 stays 0 and becomes pi
        for p, q, _ in triples(k):
            for x, y in ((p, q), (p, p)):
                base = angle(x, y)
                expected = base if a * b > 0 else math.pi - base
                scaled = angle(scale_process(a, x), scale_process(b, y))
                assert abs(scaled - expected) <= REL_TOL, (x.label, y.label, scaled, expected)
