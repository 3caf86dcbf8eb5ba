"""Each input check outside ``process`` raises its own exception type with
its own message, for the inputs it exists to reject."""

import numpy as np
import pytest

from procgeom import (
    DimensionTooSmall,
    ExperimentConfig,
    InvalidPfsa,
    PfsaFormatError,
    Pfsa,
    ProcgeomError,
    SymbolStream,
    UnknownKey,
    belief_update,
    epsilon_synchronize,
    estimate_derivatives,
    generate_sequence,
    make_pvec,
    parse_pfsa,
    run_noise_experiment,
    smooth,
    stationary_distribution,
    table_inner,
    uniform_pvec,
)
from conftest import make_g2

HEADER = "pfsa v1\nalphabet: 0 1\n"


def table(depth):
    return estimate_derivatives(SymbolStream.from_indices([0, 1, 1, 0, 1, 0, 0, 1], ("0", "1")), depth)


CHECKS = [
    pytest.param(lambda: Pfsa(["0", "1"], [], np.zeros((0, 2), dtype=int), np.zeros((0, 2))),
                 InvalidPfsa, "need at least one state", id="pfsa-no-states"),
    pytest.param(lambda: Pfsa(["0", "1"], ["A"], [[0, 0, 0]], [[0.5, 0.5]]),
                 InvalidPfsa, "delta shape (1, 3) != (1, 2)", id="pfsa-delta-shape"),
    pytest.param(lambda: Pfsa(["0", "1"], ["A"], [[0, 0]], [[0.5, 0.3, 0.2]]),
                 InvalidPfsa, "morph shape (1, 3) != (1, 2)", id="pfsa-morph-shape"),
    pytest.param(lambda: make_g2().symbol_index(2),
                 UnknownKey, "symbol index 2 out of range", id="symbol-index-range"),
    pytest.param(lambda: make_g2().state_index(-1),
                 UnknownKey, "state index -1 out of range", id="state-index-range"),
    pytest.param(lambda: make_g2().symbol_index("x"),
                 UnknownKey, "symbol 'x' not in alphabet 0 1", id="symbol-name"),
    pytest.param(lambda: make_g2().state_index("nope"),
                 UnknownKey, "state 'nope' not in the machine's states", id="state-name"),
    pytest.param(lambda: make_g2().next_state("nope", "0"),
                 UnknownKey, "state 'nope' not in the machine's states", id="next-state-name"),
    pytest.param(lambda: belief_update(make_g2(), stationary_distribution(make_g2()), "x"),
                 UnknownKey, "symbol 'x' not in alphabet 0 1", id="belief-update-symbol"),
    pytest.param(lambda: parse_pfsa("pfsa v1\nsymbols: 0 1\n"),
                 PfsaFormatError, "second line must be 'alphabet: <symbols>'", id="parse-second-line"),
    pytest.param(lambda: parse_pfsa("pfsa v1\nalphabet: 0\n"),
                 PfsaFormatError, "alphabet needs at least 2 symbols", id="parse-one-symbol"),
    pytest.param(lambda: parse_pfsa("pfsa v1\nalphabet: 0 1 0\n"),
                 PfsaFormatError, "alphabet symbols must be distinct", id="parse-repeated-symbol"),
    pytest.param(lambda: parse_pfsa(HEADER + "state A:\n0 -> A 0.5\n  1 -> A 0.5\n"),
                 PfsaFormatError, "line 4: expected indented transition line", id="parse-unindented"),
    pytest.param(lambda: parse_pfsa(HEADER + "state A:\n  0 -> A\n  1 -> A 0.5\n"),
                 PfsaFormatError, "line 4: expected '<symbol> -> <state> <prob>'",
                 id="parse-malformed-transition"),
    pytest.param(lambda: parse_pfsa(HEADER),
                 PfsaFormatError, "no states declared", id="parse-no-states"),
    pytest.param(lambda: make_pvec([[0.5, 0.5]]),
                 ValueError, "probability vector must be one-dimensional", id="pvec-2d"),
    pytest.param(lambda: uniform_pvec(1),
                 DimensionTooSmall, "need dim >= 2, got 1", id="uniform-dim-1"),
    pytest.param(lambda: smooth([1.0, 0.0], 0.0),
                 ValueError, "smoothing must be > 0", id="smooth-zero"),
    pytest.param(lambda: SymbolStream.from_indices([0, 2], ("0", "1")),
                 ValueError, "stream index out of alphabet range", id="stream-index-range"),
    pytest.param(lambda: SymbolStream.from_indices([0, 1.5, 1], ("0", "1")),
                 ValueError, "stream holds a non-integer index", id="stream-index-fraction"),
    pytest.param(lambda: SymbolStream.from_indices([True, False], ("0", "1")),
                 ValueError, "stream holds a non-integer index", id="stream-index-bool"),
    pytest.param(lambda: SymbolStream.from_indices(np.array([0.0, np.nan]), ("0", "1")),
                 ValueError, "stream holds a non-integer index", id="stream-index-nan"),
    pytest.param(lambda: SymbolStream.from_indices([0, True], ("0", "1")),
                 ValueError, "stream holds a non-integer index", id="stream-index-bool-among-ints"),
    pytest.param(lambda: SymbolStream.from_indices([1, np.True_], ("0", "1")),
                 ValueError, "stream holds a non-integer index", id="stream-index-numpy-bool-among-ints"),
    pytest.param(lambda: SymbolStream.from_indices(["0", "1"], ("0", "1")),
                 ValueError, "stream holds a non-integer index", id="stream-index-string"),
    pytest.param(lambda: SymbolStream.from_indices([0, 1 + 0j], ("0", "1")),
                 ValueError, "stream holds a non-integer index", id="stream-index-complex"),
    pytest.param(lambda: SymbolStream.from_indices(np.array([0, 1], dtype=object), ("0", "1")),
                 ValueError, "stream holds a non-integer index", id="stream-index-object"),
    pytest.param(lambda: SymbolStream.from_indices([[0, 1], [1, 0]], ("0", "1")),
                 ValueError, "stream must be one-dimensional, got 2 dimensions", id="stream-2d"),
    pytest.param(lambda: SymbolStream.from_indices(1, ("0", "1")),
                 ValueError, "stream must be one-dimensional, got 0 dimensions", id="stream-0d"),
    pytest.param(lambda: table(2).estimate(("0",)),
                 UnknownKey, "context length 1 != depth 2", id="context-length"),
    pytest.param(lambda: table(2).estimate(("0", "x")),
                 UnknownKey, "context ('0', 'x'): symbol 'x' not in alphabet 0 1", id="context-symbol"),
    pytest.param(lambda: table(40),
                 ValueError, "depth 40 gives 2**40 contexts, more than 1048576", id="depth-contexts"),
    pytest.param(lambda: table_inner(table(1), table(2)),
                 ValueError, "depths differ: 1 vs 2", id="table-depths"),
    pytest.param(lambda: epsilon_synchronize(make_g2(), 0.1, max_depth=0),
                 ValueError, "max_depth must be >= 1", id="sync-max-depth"),
    pytest.param(lambda: generate_sequence(make_g2(), 10.0, 0),
                 TypeError, "length must be an int, got 10.0", id="generate-float-length"),
    pytest.param(lambda: generate_sequence(make_g2(), True, 0),
                 TypeError, "length must be an int, got True", id="generate-bool-length"),
    pytest.param(lambda: run_noise_experiment(make_g2(), ExperimentConfig(stream_length=2000.0)),
                 TypeError, "stream_length must be an int, got 2000.0", id="experiment-float-length"),
    pytest.param(lambda: run_noise_experiment(make_g2(), ExperimentConfig(stream_length=2000, depth=2.0)),
                 TypeError, "depth must be an int, got 2.0", id="experiment-float-depth"),
    pytest.param(lambda: table(2.0),
                 TypeError, "depth must be an int, got 2.0", id="estimate-float-depth"),
    pytest.param(lambda: table(True),
                 TypeError, "depth must be an int, got True", id="estimate-bool-depth"),
]


@pytest.mark.parametrize("call, error, message", CHECKS)
def test_input_check_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert caught.value.args[0].startswith(message)
    assert str(caught.value) == caught.value.args[0]  # no quotes added, as KeyError's str() would


def test_unknown_key_is_a_key_error_and_a_procgeom_error():
    for base in (KeyError, ProcgeomError):
        with pytest.raises(base):
            make_g2().symbol_index("x")
