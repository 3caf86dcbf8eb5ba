"""Seeded input generator: binary machines written as ``pfsa v1`` files.

Everything here is independent of procgeom, so the program under test only
ever sees the files.  Three kinds of machine are made:

* random machines, by the ROADMAP recipe: ``delta = rng.integers(0, n, (n, 2))``
  and rows ``dirichlet([2, 2])`` floored at 1e-3 and renormalised.  A draw is
  kept only when it has exactly one sink component (otherwise ``as_process``
  rightly raises ``NotErgodic``), that component has the class's target
  size (so a seed varies structure and rows but not the normal-form size,
  which keeps the per-op cost from varying with the seed beyond the
  benchmark's bounds), and the machine is synchronizing (so every pair has
  a single-sink pair chain and an exact angle).  Rejected draws are counted
  per reason;
* Černý machines: symbol 0 rotates the states in a cycle, symbol 1 merges
  state 0 into state 1; the shortest reset word has length (n - 1)^2;
* ``g2``, the two-state fixture of the test suite.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHABET = ("0", "1")
ROW_FLOOR = 1e-3


@dataclass(frozen=True)
class Machine:
    """A deterministic binary machine: ``delta[q, s]`` and ``morph[q, s]``."""

    delta: np.ndarray
    morph: np.ndarray

    @property
    def n_states(self) -> int:
        return self.delta.shape[0]


@dataclass(frozen=True)
class ClassSpec:
    """One input class of a workload: ``count`` inputs of one kind and size.

    ``weight`` is how many of the class's inputs each round of ops uses.
    """

    label: str
    kind: str  # "random_pair", "cerny_pair", "g2" or "random_base"
    n: int = 0
    sink: int = 0  # target sink-component size for random machines
    count: int = 1
    weight: int = 1


@dataclass
class Input:
    """One op's input: one or two machines, with the files they are written to."""

    id: str
    label: str
    machines: tuple[Machine, ...]
    paths: tuple[str, ...] = ()
    skipped: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graph structure (the benchmark's own, used by the generator and the oracle)

def scc_ids(succ: list[list[int]]) -> list[int]:
    """Strongly connected component id of every node (iterative Tarjan)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = n_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
    return comp


def restrict_delta(delta: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Transition table of the closed state subset ``keep``, renumbered."""
    remap = np.full(delta.shape[0], -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    return remap[delta[keep]]


def sink_components(delta: np.ndarray) -> list[np.ndarray]:
    """Closed strongly connected components of a transition table, sorted."""
    succ = [sorted(set(row)) for row in delta.tolist()]
    comp = np.asarray(scc_ids(succ))
    leaves = (comp[delta] != comp[:, None]).any(axis=1)
    open_comps = set(comp[leaves].tolist())
    sinks = [np.nonzero(comp == c)[0] for c in sorted(set(comp.tolist()) - open_comps)]
    return sorted(sinks, key=lambda s: int(s[0]))


# ---------------------------------------------------------------------------
# machines

def floored_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    rows = rng.dirichlet([2.0, 2.0], size=n)
    rows = np.maximum(rows, ROW_FLOOR)
    return rows / rows.sum(axis=1, keepdims=True)


def is_synchronizing(delta: np.ndarray) -> bool:
    """Whether some word sends every state to one state: every pair reaches the diagonal."""
    n = delta.shape[0]
    merges = np.eye(n, dtype=bool)
    while True:
        grown = merges | merges[delta[:, None, :], delta[None, :, :]].any(axis=2)
        if grown.all() or (grown == merges).all():
            return bool(grown.all())
        merges = grown


def random_machine(seed: int, tag: tuple[int, ...], n: int, sink: int, skips: dict) -> Machine:
    """First draw of the recipe, over attempts 0, 1, ..., that is usable as an exact operand.

    Kept: exactly one sink component, of size ``sink``, and synchronizing, so that
    any pair of kept machines has a single-sink pair chain and an exact angle.
    """
    attempt = 0
    while True:
        rng = np.random.default_rng(np.random.SeedSequence([seed, *tag, attempt]))
        delta = rng.integers(0, n, (n, 2))
        morph = floored_rows(rng, n)
        sinks = sink_components(delta)
        if len(sinks) != 1:
            reason = "not_unichain"
        elif len(sinks[0]) != sink:
            reason = "sink_size_off_target"
        elif not is_synchronizing(restrict_delta(delta, sinks[0])):
            reason = "not_synchronizing"
        else:
            return Machine(delta, morph)
        skips[reason] = skips.get(reason, 0) + 1
        attempt += 1


def cerny_machine(seed: int, tag: tuple[int, ...], n: int) -> Machine:
    delta = np.empty((n, 2), dtype=np.int64)
    delta[:, 0] = (np.arange(n) + 1) % n
    delta[:, 1] = np.arange(n)
    delta[0, 1] = 1
    rng = np.random.default_rng(np.random.SeedSequence([seed, *tag]))
    return Machine(delta, floored_rows(rng, n))


def g2_machine() -> Machine:
    """The two-state fixture: symbol 0 leads to state 0, symbol 1 to state 1."""
    return Machine(np.array([[0, 1], [0, 1]]), np.array([[0.8, 0.2], [0.3, 0.7]]))


def format_machine(m: Machine) -> str:
    """``pfsa v1`` text; 17 significant digits round-trip every float64."""
    lines = ["pfsa v1", "alphabet: " + " ".join(ALPHABET)]
    for q in range(m.n_states):
        lines.append(f"state s{q}:")
        for s, sym in enumerate(ALPHABET):
            lines.append(f"  {sym} -> s{m.delta[q, s]} {m.morph[q, s]:.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pools

def build_pool(classes: tuple[ClassSpec, ...], seed: int) -> list[list[Input]]:
    """Inputs of every class; class ``c`` input ``i`` depends only on (seed, c, i)."""
    pool = []
    for c, spec in enumerate(classes):
        inputs = []
        for i in range(spec.count):
            skips: dict = {}
            if spec.kind == "random_pair":
                ms = tuple(random_machine(seed, (c, i, side), spec.n, spec.sink, skips)
                           for side in range(2))
            elif spec.kind == "cerny_pair":
                ms = tuple(cerny_machine(seed, (c, i, side), spec.n) for side in range(2))
            elif spec.kind == "g2":
                ms = (g2_machine(),)
            elif spec.kind == "random_base":
                ms = (random_machine(seed, (c, i, 0), spec.n, spec.sink, skips),)
            else:
                raise ValueError(f"unknown input kind {spec.kind!r}")
            inputs.append(Input(f"{spec.label}-{i}", spec.label, ms, skipped=skips))
        pool.append(inputs)
    return pool


def write_pool(pool: list[list[Input]], directory: Path) -> str:
    """Write every machine file; return the sha256 over all file contents."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for inputs in pool:
        for inp in inputs:
            paths = []
            for side, m in zip("ab", inp.machines):
                path = directory / f"{inp.id}_{side}.pfsa"
                text = format_machine(m).encode()
                path.write_bytes(text)
                digest.update(path.name.encode() + b"\0" + text)
                paths.append(str(path))
            inp.paths = tuple(paths)
    return digest.hexdigest()


def manifest(pool: list[list[Input]], classes: tuple[ClassSpec, ...]) -> dict:
    """Per-class sizes and the draws the generator skipped, with the reason."""
    out = {}
    for spec, inputs in zip(classes, pool):
        skipped: dict = {}
        for inp in inputs:
            for reason, count in inp.skipped.items():
                skipped[reason] = skipped.get(reason, 0) + count
        out[spec.label] = {
            "kind": spec.kind,
            "n": spec.n,
            "sink": spec.sink,
            "inputs": len(inputs),
            "skipped_draws": skipped,
        }
    return out
