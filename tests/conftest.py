import numpy as np
import pytest

from procgeom import Pfsa, as_process


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


def make_vanishing2() -> Pfsa:
    """Valid machine on which the word ``0`` has probability 0 at working
    precision: its emission entry 5e-324 times the stationary 0.5 rounds
    to 0."""
    return Pfsa(
        ["0", "1"],
        ["a", "b"],
        {"a": {"0": "a", "1": "b"}, "b": {"0": "b", "1": "a"}},
        {"a": [5e-324, 1.0], "b": [5e-324, 1.0]},
    )


def make_vanishing3() -> Pfsa:
    """Ternary 3-state machine, a normal form, whose symbol 0 has emission
    entry 5e-324 in every state: the word ``0`` has probability 5e-324,
    and ``1 0`` probability 0 at working precision."""
    return Pfsa(
        ["0", "1", "2"],
        ["x", "y", "z"],
        {"x": {"0": "y", "1": "z", "2": "x"}, "y": {"0": "z", "1": "x", "2": "y"},
         "z": {"0": "x", "1": "y", "2": "z"}},
        {"x": [5e-324, 0.6, 0.4], "y": [5e-324, 0.25, 0.75], "z": [5e-324, 0.7, 0.3]},
    )


def make_redundant_g2() -> Pfsa:
    """G2 with state B split into two interchangeable copies."""
    return Pfsa(
        ["0", "1"],
        ["A", "B", "C"],
        {"A": {"0": "A", "1": "B"}, "B": {"0": "A", "1": "C"}, "C": {"0": "A", "1": "B"}},
        {"A": [0.8, 0.2], "B": [0.3, 0.7], "C": [0.3, 0.7]},
    )


def _tarjan_sccs(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components, iteratively (no recursion limit)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def sink_components_loop(delta):
    """Per-edge reference: a component is a sink if every edge stays in it.

    Tarjan only, with no reachability shortcut and none of the search in
    Kosaraju's order, so tests of ``_sink_components`` compare against an
    independent answer.
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
    """The sizes of the graphs the fallback of ``_sink_components`` runs its
    depth-first pass on, in call order."""
    import procgeom.pfsa as pfsa

    calls = []
    finish_order = pfsa._finish_order

    def counted(preds, bounds):
        calls.append(len(bounds) - 1)
        return finish_order(preds, bounds)

    monkeypatch.setattr(pfsa, "_finish_order", counted)
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
