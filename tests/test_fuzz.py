"""Seeded fuzz of the process operations: every failure is typed, no NaN.

Random machines of 1-6 states on 2-3 symbols, every third one with
Dirichlet(0.05) rows floored at 1e-300, go through normal form,
sampling, scaling and the exact angle; consecutive two-symbol normal
forms go through the sum, the exact inner product and angle, and, when
the pair has a reset word, the Monte Carlo angle.  The counts of typed
failures are not pinned: a better stationary solve changes them.
"""

import math

import numpy as np
import pytest

from procgeom import (
    Pfsa,
    ProcgeomError,
    angle,
    angle_mc_estimate,
    as_process,
    generate_sequence,
    inner_exact,
    reset_word,
    scale_process,
    sum_processes,
    validate,
)


def random_machine(rng, i):
    n, k = int(rng.integers(1, 7)), int(rng.integers(2, 4))
    if i % 3 == 0:
        rows = np.maximum(rng.dirichlet(np.full(k, 0.05), size=n), 1e-300)
    else:
        rows = rng.dirichlet(np.ones(k), size=n)
    return Pfsa([str(j) for j in range(k)], [f"s{q}" for q in range(n)],
                rng.integers(0, n, size=(n, k)), rows)


def typed(fn, *args):
    """``fn(*args)``, or None if it raised a typed failure; any other
    exception propagates and fails the test."""
    try:
        return fn(*args)
    except ProcgeomError:
        return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_random_machines_fail_only_with_typed_errors():
    rng = np.random.default_rng(0)
    binary = []
    for i in range(300):
        g = random_machine(rng, i)
        p = typed(as_process, g)
        typed(generate_sequence, g, 200, i)
        if p is None:
            continue
        for alpha in (-0.5, 2.0):
            s = typed(scale_process, alpha, p)
            assert s is None or validate(s.machine).valid, (i, alpha)
        if s is not None:  # the 2x copy
            a = typed(angle, p, s)
            assert a is None or not math.isnan(a), i
        if p.machine.n_symbols == 2:
            binary.append(p)

    for p, q in zip(binary, binary[1:]):
        s = typed(sum_processes, p, q)
        assert s is None or validate(s.machine).valid
        ip = typed(inner_exact, p, q)
        assert ip is None or not math.isnan(ip.value)
        a = typed(angle, p, q)
        assert a is None or not math.isnan(a)
        if reset_word(p.machine, q.machine) is not None:
            est = typed(angle_mc_estimate, p, q, 1e-6, 200, 3, 0)
            assert est is None or not np.isnan([est.angle, est.cos, est.cos_std_error]).any()
    assert len(binary) > 50
