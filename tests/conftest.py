import numpy as np
import pytest

from procgeom import Pfsa, as_process
from procgeom.pfsa import _tarjan_sccs


def make_g2() -> Pfsa:
    """Binary 2-state fixture: symbol 0 funnels to A, symbol 1 to B."""
    return Pfsa(
        ["0", "1"],
        ["A", "B"],
        {"A": {"0": "A", "1": "B"}, "B": {"0": "A", "1": "B"}},
        {"A": [0.8, 0.2], "B": [0.3, 0.7]},
    )


def make_m2() -> Pfsa:
    """Second binary 2-state machine with different rows."""
    return Pfsa(
        ["0", "1"],
        ["a", "b"],
        {"a": {"0": "a", "1": "b"}, "b": {"0": "a", "1": "b"}},
        {"a": [0.9, 0.1], "b": [0.2, 0.8]},
    )


def make_t3() -> Pfsa:
    """Binary 3-state machine whose transitions are per-symbol rotations."""
    return Pfsa(
        ["0", "1"],
        ["x", "y", "z"],
        {"x": {"0": "y", "1": "z"}, "y": {"0": "z", "1": "x"}, "z": {"0": "x", "1": "y"}},
        {"x": [0.6, 0.4], "y": [0.25, 0.75], "z": [0.7, 0.3]},
    )


def make_u3() -> Pfsa:
    """Ternary 3-state machine; symbol 'a' resets every state to x."""
    return Pfsa(
        ["a", "b", "c"],
        ["x", "y", "z"],
        {
            "x": {"a": "x", "b": "y", "c": "z"},
            "y": {"a": "x", "b": "z", "c": "x"},
            "z": {"a": "x", "b": "x", "c": "y"},
        },
        {"x": [0.5, 0.3, 0.2], "y": [0.2, 0.5, 0.3], "z": [0.3, 0.2, 0.5]},
    )


def make_perm2() -> Pfsa:
    """Uniform rows with permutation transitions: the belief never moves."""
    return Pfsa(
        ["0", "1"],
        ["p", "q"],
        {"p": {"0": "q", "1": "p"}, "q": {"0": "p", "1": "q"}},
        {"p": [0.5, 0.5], "q": [0.5, 0.5]},
    )


def make_single(alphabet=("0", "1"), row=None) -> Pfsa:
    k = len(alphabet)
    row = [1.0 / k] * k if row is None else row
    return Pfsa(alphabet, ["s"], np.zeros((1, k), dtype=np.int64), [row])


def make_feed3() -> Pfsa:
    """State c only feeds the closed pair {a, b}."""
    return Pfsa(
        ["0", "1"],
        ["a", "b", "c"],
        {"a": {"0": "b", "1": "a"}, "b": {"0": "a", "1": "b"}, "c": {"0": "a", "1": "b"}},
        {"a": [0.4, 0.6], "b": [0.55, 0.45], "c": [0.5, 0.5]},
    )


def make_two_sinks() -> Pfsa:
    """Two absorbing states: two closed components, no unique restriction."""
    return Pfsa(
        ["0", "1"],
        ["u", "v"],
        {"u": {"0": "u", "1": "u"}, "v": {"0": "v", "1": "v"}},
        {"u": [0.6, 0.4], "v": [0.3, 0.7]},
    )


def make_redundant_g2() -> Pfsa:
    """G2 with state B split into two interchangeable copies."""
    return Pfsa(
        ["0", "1"],
        ["A", "B", "C"],
        {"A": {"0": "A", "1": "B"}, "B": {"0": "A", "1": "C"}, "C": {"0": "A", "1": "B"}},
        {"A": [0.8, 0.2], "B": [0.3, 0.7], "C": [0.3, 0.7]},
    )


def sink_components_loop(delta):
    """Per-edge reference: a component is a sink if every edge stays in it.

    Tarjan only, with no reachability shortcut, so tests of the certified
    check in ``_sink_components`` compare against an independent answer.
    """
    succ = [sorted(set(row)) for row in delta.tolist()]
    sccs = _tarjan_sccs(succ)
    comp_of = np.empty(len(succ), dtype=np.int64)
    for ci, comp in enumerate(sccs):
        comp_of[comp] = ci
    sinks = [comp for ci, comp in enumerate(sccs)
             if all(comp_of[w] == ci for v in comp for w in succ[v])]
    sinks.sort()
    return sinks


@pytest.fixture
def count_tarjan(monkeypatch):
    """The sizes of the graphs the Tarjan search runs on, in call order."""
    import procgeom.pfsa as pfsa

    calls = []
    tarjan = pfsa._tarjan_sccs

    def counted(succ):
        calls.append(len(succ))
        return tarjan(succ)

    monkeypatch.setattr(pfsa, "_tarjan_sccs", counted)
    return calls


@pytest.fixture
def g2():
    return make_g2()


@pytest.fixture
def m2():
    return make_m2()


@pytest.fixture
def t3():
    return make_t3()


@pytest.fixture
def u3():
    return make_u3()


@pytest.fixture
def g2_process(g2):
    return as_process(g2, "G")


@pytest.fixture
def m2_process(m2):
    return as_process(m2, "M")


def random_pvec(rng, dim, spread=1.0):
    from procgeom import make_pvec

    return make_pvec(np.exp(rng.normal(0.0, spread, size=dim)))
