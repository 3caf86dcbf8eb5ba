import itertools
import math
import re
from bisect import bisect_right

import numpy as np
import pytest

from procgeom import (
    InvalidPfsa,
    NotErgodic,
    Pfsa,
    PfsaFormatError,
    ZeroMass,
    as_process,
    belief_from_string,
    belief_update,
    canonicalize,
    format_pfsa,
    generate_sequence,
    matrices,
    minimal_closed_restriction,
    minimize,
    parse_pfsa,
    read_pfsa,
    scale_process,
    sink_sccs,
    stationary_distribution,
    structurally_equal,
    symbolic_derivative,
    transition_matrix,
    validate,
    word_probability,
    write_pfsa,
)
from procgeom.pfsa import (
    _JUMP_TABLE_ENTRIES,
    _STITCH_BLOCKS,
    ROW_SUM_TOL,
    _all_reach,
    _predecessors,
    _reachable,
    _sampler,
    _sink_components,
    _stitched_starts,
)
from procgeom.sync import _pair_delta
from conftest import (
    make_feed3,
    make_g2,
    make_m2,
    make_redundant_g2,
    make_single,
    make_t3,
    make_two_sinks,
    make_u3,
    make_vanishing2,
    make_vanishing3,
    sink_components_loop,
)


def all_words(n_symbols, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(n_symbols), repeat=length)


def power_iteration_stationary(g, iters=10_000, tol=1e-14):
    """Independent oracle for the stationary distribution."""
    pi = matrices(g)[1]
    b = np.full(g.n_states, 1.0 / g.n_states)
    for _ in range(iters):
        nxt = b @ pi
        if np.abs(nxt - b).max() < tol:
            return nxt
        b = nxt
    return b


class TestConstruction:
    def test_repr_names_size_alphabet_and_states(self, g2):
        assert repr(g2) == "Pfsa(|Q|=2, alphabet=['0', '1'], states=['A', 'B'])"

    def test_duplicate_state_names_rejected(self):
        with pytest.raises(InvalidPfsa):
            Pfsa(["0", "1"], ["A", "A"], np.zeros((2, 2), dtype=int), np.full((2, 2), 0.5))

    def test_alphabet_too_small(self):
        with pytest.raises(InvalidPfsa):
            Pfsa(["0"], ["A"], np.zeros((1, 1), dtype=int), [[1.0]])

    def test_delta_out_of_range(self):
        with pytest.raises(InvalidPfsa):
            Pfsa(["0", "1"], ["A"], [[0, 5]], [[0.5, 0.5]])

    def test_partial_delta_rejected(self):
        with pytest.raises(InvalidPfsa):
            Pfsa(["0", "1"], ["A"], {"A": {"0": "A"}}, {"A": [0.5, 0.5]})

    @pytest.mark.parametrize("name", ["", "a b", "a\t", " x"])
    def test_empty_or_whitespace_names_rejected(self, name):
        with pytest.raises(InvalidPfsa):
            Pfsa(["0", "1"], [name], [[0, 0]], [[0.5, 0.5]])
        with pytest.raises(InvalidPfsa):
            Pfsa([name, "1"], ["A"], [[0, 0]], [[0.5, 0.5]])

    @pytest.mark.parametrize("names, first", [(["A", "a b", ""], "'a b'"), (["", "A", " x"], "''"),
                                              (["A", "B\tC", "D E"], "'B\\tC'")])
    def test_the_first_of_several_bad_names_is_reported(self, names, first):
        with pytest.raises(InvalidPfsa, match=f"^state name {re.escape(first)} is empty or contains"):
            Pfsa(["0", "1"], names, [[0, 0]] * 3, [[0.5, 0.5]] * 3)

    GOOD_DELTA = {"A": {"a": "A", "b": "B", "c": "A"}, "B": {"a": "B", "b": "A", "c": "B"}}
    GOOD_MORPH = {"A": [0.5, 0.3, 0.2], "B": [0.2, 0.3, 0.5]}

    @pytest.mark.parametrize("delta, morph", [
        pytest.param({**GOOD_DELTA, "A": {"a": "A", "b": "B", "d": "A"}}, GOOD_MORPH,
                     id="unknown-symbol-in-delta"),
        pytest.param({**GOOD_DELTA, "A": {"a": "A", "b": "Z", "c": "A"}}, GOOD_MORPH,
                     id="unknown-target-state"),
        pytest.param({**GOOD_DELTA, "Z": GOOD_DELTA["A"]}, GOOD_MORPH, id="unknown-delta-state"),
        pytest.param(GOOD_DELTA, {**GOOD_MORPH, "Z": [0.2, 0.3, 0.5]}, id="unknown-morph-state"),
        pytest.param(GOOD_DELTA, {**GOOD_MORPH, "B": [1 / 3]}, id="one-entry-morph-row"),
        pytest.param([[0, 1.7, 0], [1, 0, 1]], GOOD_MORPH, id="float-delta"),
        pytest.param([[0, 1, 0], [1, 0]], GOOD_MORPH, id="ragged-delta"),
        pytest.param(GOOD_DELTA, [[0.5, 0.3, 0.2], [0.5, 0.5]], id="ragged-morph"),
    ])
    def test_malformed_input_raises_invalid_pfsa(self, delta, morph):
        assert Pfsa(["a", "b", "c"], ["A", "B"], self.GOOD_DELTA, self.GOOD_MORPH)
        with pytest.raises(InvalidPfsa):
            Pfsa(["a", "b", "c"], ["A", "B"], delta, morph)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint64])
    def test_integer_array_delta_is_checked_as_integers(self, dtype):
        # the same machine and messages as the list path; the caller's array
        # is copied, not frozen or shared
        rows = [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]
        delta = np.array([[0, 1, 0], [1, 0, 1]], dtype=dtype)
        g = Pfsa(["a", "b", "c"], ["A", "B"], delta, rows)
        assert structurally_equal(g, Pfsa(["a", "b", "c"], ["A", "B"], delta.tolist(), rows))
        assert g._delta.dtype == np.int64 and delta.flags.writeable
        delta[0, 0] = 1
        assert g._delta[0, 0] == 0
        for bad, message in [(delta[:, :2], "delta shape (2, 2) != (2, 3)"),
                             (delta + 1, "delta targets an unknown state"),
                             (np.full((2, 3), np.iinfo(dtype).max, dtype=dtype),
                              "delta targets an unknown state")]:
            with pytest.raises(InvalidPfsa, match=re.escape(message)):
                Pfsa(["a", "b", "c"], ["A", "B"], bad, rows)
        if np.iinfo(dtype).min < 0:
            with pytest.raises(InvalidPfsa, match="delta targets an unknown state"):
                Pfsa(["a", "b", "c"], ["A", "B"], delta - 2, rows)


class TestValidate:
    def test_g2_valid(self, g2):
        assert validate(g2).valid

    def test_row_sum_violation(self):
        g = Pfsa(["0", "1"], ["A"], [[0, 0]], [[0.5, 0.6]])
        report = validate(g)
        assert not report.valid
        assert any("sums to" in v for v in report.violations)

    def test_positivity_violation(self):
        g = Pfsa(["0", "1"], ["A"], [[0, 0]], [[1.0, 0.0]])
        report = validate(g)
        assert not report.valid
        assert any("must be > 0" in v for v in report.violations)

    def test_non_finite_flagged(self):
        g = Pfsa(["0", "1"], ["A"], [[0, 0]], [[np.nan, 1.0]])
        assert not validate(g).valid

    @staticmethod
    def validate_by_rows(g):
        """Reference: the per-row loop, one state at a time."""
        bad = []
        for i, q in enumerate(g.states):
            row = g._morph[i]
            if not np.all(np.isfinite(row)):
                bad.append(f"state {q}: morph row has non-finite entries")
                continue
            for j in np.nonzero(row <= 0.0)[0]:
                bad.append(f"state {q}: morph entry for symbol {g.alphabet[j]!r} is {row[j]:g} (must be > 0)")
            s = row.sum()
            if abs(s - 1.0) > ROW_SUM_TOL:
                bad.append(f"state {q}: morph row sums to {s:.17g}, not 1")
        return tuple(bad)

    @pytest.mark.parametrize("rows", [
        [[0.5, 0.5], [np.nan, 1.0], [0.2, 0.8]],
        [[np.inf, 0.0], [0.25, 0.75]],
        [[0.0, 1.0], [-0.5, 1.5], [0.4, 0.5]],
        [[-0.1, 0.0], [1.0, 1.0], [0.3, 0.7]],
        [[0.0, -1e-300], [np.nan, np.inf], [0.1, 0.9 + 1e-9]],
        [[0.1] * 10, [0.2] * 10, [0.05] * 9 + [-0.3]],
    ], ids=["nan-row", "inf", "zero-negative", "several-in-one-row", "mixed", "ten-symbols"])
    def test_report_matches_per_row_loop(self, rows):
        k = len(rows[0])
        g = Pfsa([str(j) for j in range(k)], [f"s{i}" for i in range(len(rows))],
                 np.zeros((len(rows), k), dtype=np.int64), rows)
        report = validate(g)
        assert report.violations == self.validate_by_rows(g)
        assert report.valid == (not report.violations)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_report_matches_per_row_loop_on_random_rows(self, order):
        # rows of 12 entries summing well away from one: their printed sums
        # depend on the order of the additions, so any change of order shows;
        # a Fortran-ordered morph matrix keeps its layout in the constructor
        rng = np.random.default_rng(5)
        m = rng.dirichlet([1.0] * 12, 40) * rng.uniform(0.5, 3.0, (40, 1))
        m[rng.random(m.shape) < 0.05] *= -1.0
        m[3, 4], m[17, 0], m[29, 11] = np.nan, np.inf, 0.0
        m[5] /= m[5].sum()
        g = Pfsa([f"a{j}" for j in range(12)], [f"s{i}" for i in range(40)],
                 np.zeros((40, 12), dtype=np.int64), np.asarray(m, order=order))
        assert g._morph.flags.f_contiguous == (order == "F")
        assert validate(g).violations == self.validate_by_rows(g)


class TestMatrices:
    def test_g2_transition_matrix(self, g2):
        _, pi, _ = matrices(g2)
        np.testing.assert_array_equal(pi, [[0.8, 0.2], [0.3, 0.7]])

    def test_g2_event_matrix(self, g2):
        _, _, gamma = matrices(g2)
        np.testing.assert_array_equal(gamma["0"], [[0.8, 0.0], [0.3, 0.0]])
        np.testing.assert_array_equal(gamma["1"], [[0.0, 0.2], [0.0, 0.7]])

    def test_single_state(self):
        _, pi, _ = matrices(make_single())
        np.testing.assert_array_equal(pi, [[1.0]])

    def test_event_matrices_sum_to_transition_matrix(self, t3, u3):
        for g in (t3, u3):
            _, pi, gamma = matrices(g)
            np.testing.assert_array_equal(sum(gamma.values()), pi)
            np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("maker", [make_g2, make_m2, make_t3, make_u3, make_single, make_feed3,
                                       make_redundant_g2, make_two_sinks])
    def test_event_matrices_are_the_per_symbol_assignment(self, maker):
        # each event matrix holds the symbol's emission entry at (state,
        # successor) and zeros elsewhere, to the bit
        g = maker()
        _, _, gamma = matrices(g)
        rows = np.arange(g.n_states)
        for j, sym in enumerate(g.alphabet):
            expected = np.zeros((g.n_states, g.n_states))
            expected[rows, g._delta[:, j]] = g._morph[:, j]
            assert gamma[sym].tobytes() == expected.tobytes()


class TestStationary:
    def test_g2_hand_value(self, g2):
        np.testing.assert_allclose(stationary_distribution(g2), [0.6, 0.4], atol=1e-13)

    def test_single_state(self):
        np.testing.assert_array_equal(stationary_distribution(make_single()), [1.0])

    def test_two_sinks_not_ergodic(self):
        with pytest.raises(NotErgodic):
            stationary_distribution(make_two_sinks())

    def test_power_iteration_cross_check(self, g2, t3, u3):
        for g in (g2, t3, u3, make_feed3()):
            np.testing.assert_allclose(
                stationary_distribution(g), power_iteration_stationary(g), atol=1e-10
            )

    def test_residual(self, g2, t3, u3):
        for g in (g2, t3, u3):
            p = stationary_distribution(g)
            pi = matrices(g)[1]
            assert np.abs(p @ pi - p).max() < 1e-12
            assert abs(p.sum() - 1.0) < 1e-12


class TestBelief:
    def test_g2_collapse_on_zero(self, g2):
        b = belief_update(g2, np.array([0.6, 0.4]), "0")
        np.testing.assert_allclose(b, [1.0, 0.0], atol=1e-15)

    def test_one_hot_follows_delta(self, t3):
        for qi, q in enumerate(t3.states):
            for sym in t3.alphabet:
                b = np.zeros(3)
                b[qi] = 1.0
                out = belief_update(t3, b, sym)
                expected = np.zeros(3)
                expected[t3.state_index(t3.next_state(q, sym))] = 1.0
                np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_g2_one_hot_on_one(self, g2):
        np.testing.assert_allclose(
            belief_update(g2, np.array([1.0, 0.0]), "1"), [0.0, 1.0], atol=1e-15
        )

    def test_belief_sums_to_one(self, t3):
        rng = np.random.default_rng(0)
        b = stationary_distribution(t3)
        for _ in range(200):
            b = belief_update(t3, b, int(rng.integers(0, 2)))
            assert abs(b.sum() - 1.0) < 1e-12

    def test_belief_from_string_folds(self, g2):
        np.testing.assert_allclose(belief_from_string(g2, ["0", "1"]), [0.0, 1.0], atol=1e-15)


class TestSymbolicDerivative:
    def test_one_hot_returns_row(self, g2):
        np.testing.assert_array_equal(
            symbolic_derivative(g2, np.array([1.0, 0.0])), [0.8, 0.2]
        )

    def test_mixture_oracle(self, g2):
        np.testing.assert_allclose(
            symbolic_derivative(g2, np.array([0.6, 0.4])), [0.6, 0.4], atol=1e-15
        )

    def test_uniform_rows_give_uniform(self):
        g = make_single()
        np.testing.assert_allclose(symbolic_derivative(g, np.array([1.0])), [0.5, 0.5])


class TestWordProbability:
    def test_empty_word(self, g2):
        assert word_probability(g2, []) == 1.0

    def test_single_symbol(self, g2):
        assert math.isclose(word_probability(g2, ["0"]), 0.6, abs_tol=1e-13)

    def test_two_symbols(self, g2):
        assert math.isclose(word_probability(g2, ["0", "1"]), 0.12, abs_tol=1e-13)

    @pytest.mark.parametrize("fold", [word_probability, belief_from_string])
    def test_symbol_outside_alphabet_is_a_value_error(self, g2, fold):
        with pytest.raises(ValueError, match=r"^symbol 'x' not in alphabet 0 1$"):
            fold(g2, ["0", "x"])
        with pytest.raises(ValueError, match="symbol index out of range"):
            fold(g2, [0, 2])

    @pytest.mark.parametrize("word", [["0"], ["1", "0"], ["0", "1"], ["1", "0", "1"]])
    def test_word_that_cannot_occur_has_probability_zero(self, word):
        # 0.5 * 5e-324 rounds to 0, so the symbol 0 has no mass under any
        # belief the machine reaches; validate accepts the machine
        g = make_vanishing2()
        assert validate(g).valid
        assert word_probability(g, word) == 0.0
        assert word_probability(g, ["1"]) == 1.0

    def test_word_that_cannot_occur_after_a_possible_prefix(self):
        g = make_vanishing3()
        assert word_probability(g, ["0"]) == 5e-324
        assert word_probability(g, ["1", "0"]) == 0.0
        assert word_probability(g, ["1", "0", "2"]) == 0.0

    def test_conditioning_on_a_word_that_cannot_occur_raises_zero_mass(self):
        with pytest.raises(ZeroMass, match=r"^observation '0' has zero probability under the belief$"):
            belief_from_string(make_vanishing2(), ["1", "0"])

    @pytest.mark.parametrize("maker", [make_g2, make_t3, make_u3])
    def test_kolmogorov_consistency(self, maker):
        g = maker()
        k = g.n_symbols
        for w in all_words(k, 6):
            w = list(w)
            total = sum(word_probability(g, w + [s]) for s in range(k))
            assert abs(total - word_probability(g, w)) < 1e-12

    @pytest.mark.parametrize("maker", [make_g2, make_t3, make_u3])
    def test_shift_stationarity(self, maker):
        g = maker()
        k = g.n_symbols
        for w in all_words(k, 5):
            w = list(w)
            total = sum(word_probability(g, [s] + w) for s in range(k))
            assert abs(total - word_probability(g, w)) < 1e-10


class TestSinkComponents:
    def test_matches_per_edge_loop_on_random_graphs(self, count_tarjan):
        rng = np.random.default_rng(11)

        def block_graph(n, k, blocks):
            # closed blocks, each mapping into itself, plus states mapping anywhere
            block = rng.integers(0, blocks, n)
            transient = rng.random(n) < 0.3
            delta = rng.integers(0, n, (n, k))
            for v in np.flatnonzero(~transient):
                members = np.flatnonzero((block == block[v]) & ~transient)
                delta[v] = rng.choice(members, k)
            return delta

        counts = []
        for _ in range(200):
            n, k = int(rng.integers(1, 60)), int(rng.integers(1, 4))
            delta = block_graph(n, k, int(rng.integers(1, 6)))
            expected = sink_components_loop(delta)
            assert _sink_components(delta) == expected
            counts.append(len(expected))
        assert max(counts) >= 4 and counts.count(1) < len(counts) // 2

        # many sinks at scale: the fallback runs its depth-first pass once
        big = []
        for _ in range(20):
            n = int(rng.integers(300, 3001))
            delta = block_graph(n, int(rng.integers(2, 4)), int(rng.integers(10, 41)))
            before = len(count_tarjan)
            expected = sink_components_loop(delta)
            assert _sink_components(delta) == expected
            assert count_tarjan[before:] == [n]
            big.append(len(expected))
        assert min(big) >= 10

        # pair graphs of non-synchronizing operands
        for g, h, sinks in [(make_t3(), make_t3(), 3), (make_t3(), make_feed3(), 1),
                            (make_feed3(), make_feed3(), 2)]:
            delta = _pair_delta(g, h)
            expected = sink_components_loop(delta)
            assert _sink_components(delta) == expected
            assert len(expected) == sinks

    def test_predecessor_lists_built_once_per_search(self, monkeypatch, count_tarjan):
        # sinks {2}, {4} and {5}: the certified check fails and the search
        # in Kosaraju's order walks the same lists the check walked
        import procgeom.pfsa as pfsa

        calls = []
        predecessors = pfsa._predecessors

        def counted(succ):
            calls.append(len(succ))
            return predecessors(succ)

        monkeypatch.setattr(pfsa, "_predecessors", counted)
        delta = np.array([[3, 1, 3], [4, 0, 2], [2, 2, 2], [5, 1, 0],
                          [4, 4, 4], [5, 5, 5], [0, 0, 0]])
        assert _sink_components(delta) == sink_components_loop(delta) == [[2], [4], [5]]
        assert count_tarjan == [7]
        assert calls == [7]
        # a single sink that holds the candidate 2 passes the check on one build
        delta[4] = delta[5] = 2
        assert _sink_components(delta) == sink_components_loop(delta) == [[2]]
        assert count_tarjan == [7]
        assert calls == [7, 7]

    def test_transient_candidate_takes_the_tarjan_search(self, count_tarjan):
        # breadth-first order from 0 is 0 3 1 5 4 2, and the last state, 2,
        # only feeds the absorbing state 5; state 6 has no predecessor
        delta = np.array([[3, 1, 3], [4, 0, 2], [5, 5, 5], [5, 1, 0],
                          [5, 5, 5], [5, 5, 5], [0, 0, 0]])
        assert _reachable(delta, 0)[-1] == 2
        assert _sink_components(delta) == sink_components_loop(delta) == [[5]]
        assert count_tarjan == [7]

    def test_machine_with_a_transient_candidate(self, count_tarjan):
        # breadth-first order from s0 is s0 s3 s5 s1 s4 s2; the sink is
        # {s1, s3, s4}, and s2 and s5 only feed it
        delta = np.array([[3, 5], [3, 4], [1, 5], [1, 4], [3, 3], [3, 2]])
        rows = [[0.5, 0.5], [0.3, 0.7], [0.6, 0.4], [0.8, 0.2], [0.45, 0.55], [0.1, 0.9]]
        g = Pfsa(["0", "1"], [f"s{i}" for i in range(6)], delta, rows)
        assert _reachable(delta, 0)[-1] == 2
        assert sink_sccs(g) == sink_components_loop(delta) == [[1, 3, 4]]
        assert minimal_closed_restriction(g).states == ("s1", "s3", "s4")
        pi = stationary_distribution(g)
        assert count_tarjan == [6, 6, 6]
        assert np.all(pi[[0, 2, 5]] == 0.0)
        P = transition_matrix(g)[np.ix_([1, 3, 4], [1, 3, 4])]
        w, v = np.linalg.eig(P.T)
        ref = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        np.testing.assert_allclose(pi[[1, 3, 4]], ref / ref.sum(), rtol=0, atol=1e-12)

    def test_normal_forms_need_no_tarjan_search(self, monkeypatch):
        # feed3's transient c, and the 4 transient states of a raw random
        # machine (n = 12, seed 1, the benchmark recipe), all pass the
        # certified check
        import procgeom.pfsa as pfsa

        rng = np.random.default_rng(1)
        delta = rng.integers(0, 12, (12, 2))
        rows = np.maximum(rng.dirichlet([2.0, 2.0], 12), 1e-3)
        raw = Pfsa(["0", "1"], [f"s{i}" for i in range(12)], delta,
                   rows / rows.sum(axis=1, keepdims=True))
        machines = [make_feed3(), raw]
        assert [minimal_closed_restriction(g).n_states for g in machines] == [2, 8]
        with monkeypatch.context() as m:
            m.setattr(pfsa, "_all_reach", lambda delta, target: False)
            expected = [format_pfsa(as_process(g).machine) for g in machines]

        def no_search(preds):
            raise AssertionError("component search ran")

        monkeypatch.setattr(pfsa, "_finish_order", no_search)
        assert [format_pfsa(as_process(g).machine) for g in machines] == expected


class TestMinimalClosedRestriction:
    def test_g2_already_minimal(self, g2):
        assert structurally_equal(minimal_closed_restriction(g2), g2)

    def test_transient_state_dropped(self):
        g = make_feed3()
        h = minimal_closed_restriction(g)
        assert h.states == ("a", "b")

    def test_two_absorbing_states_not_ergodic(self):
        with pytest.raises(NotErgodic):
            minimal_closed_restriction(make_two_sinks())

    def test_restriction_to_open_subset_rejected(self):
        # feed3's state c moves to a and b, so {c} is not closed
        from procgeom.pfsa import _restrict

        with pytest.raises(InvalidPfsa):
            _restrict(make_feed3(), [2])

    def test_restriction_has_full_mass(self):
        g = make_feed3()
        mass = stationary_distribution(g)[[0, 1]].sum()
        assert abs(mass - 1.0) < 1e-12


def normal_forms():
    """Normal forms of the fixtures and of random recipe machines (delta
    uniform, rows dirichlet([2] * k) floored at 1e-3), 1 to 60 states."""
    forms = [as_process(make()).machine
             for make in (make_g2, make_m2, make_t3, make_u3, make_single, make_vanishing3)]
    rng = np.random.default_rng(24)
    for n in (1, 2, 5, 12, 24, 60):
        for k in (2, 3):
            rows = np.maximum(rng.dirichlet([2.0] * k, n), 1e-3)
            g = Pfsa([str(s) for s in range(k)], [f"s{i}" for i in range(n)],
                     rng.integers(0, n, (n, k)), rows / rows.sum(axis=1, keepdims=True))
            forms.append(as_process(g).machine)
    return forms


class TestMinimize:
    def test_duplicate_states_merged(self):
        g = make_redundant_g2()
        h = minimize(g)
        assert h.n_states == 2

    def test_a_machine_with_nothing_to_merge_is_returned_as_is(self):
        # a discrete partition is stable, and its quotient is the machine itself
        for g in normal_forms():
            assert minimize(g) is g
        assert minimize(make_redundant_g2()).n_states == 2

    def test_g2_unchanged(self, g2):
        assert structurally_equal(minimize(g2), g2)

    def test_flat_rows_collapse_to_one_state(self, g2):
        flat = Pfsa(g2.alphabet, g2.states, g2._delta.copy(), np.full((2, 2), 0.5))
        assert minimize(flat).n_states == 1

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_a_negative_or_non_finite_tolerance(self, g2, tol):
        # a negative or NaN tol matches no row, not even a row with itself
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            minimize(g2, tol=tol)

    def test_idempotent(self, t3):
        for g in (make_redundant_g2(), t3):
            once = minimize(g)
            twice = minimize(once)
            assert structurally_equal(once, twice)

    def test_word_probabilities_preserved(self):
        g = make_redundant_g2()
        h = minimize(minimal_closed_restriction(g))
        for w in all_words(2, 6):
            assert abs(word_probability(g, list(w)) - word_probability(h, list(w))) < 1e-10

    def test_feed3_pipeline_preserves_words(self):
        g = make_feed3()
        h = minimize(minimal_closed_restriction(g))
        for w in all_words(2, 6):
            assert abs(word_probability(g, list(w)) - word_probability(h, list(w))) < 1e-10

    def test_first_fit_at_the_tolerance_boundary(self):
        # Every state moves to s3 on "0" and to s4 on "1", so rows alone decide.
        # s1 is within tol of s3 and s4 of s1, but s4 is not within tol of s3:
        # s4 opens a block.  s0 is within tol of both s3 and s4 and joins the
        # first block; s2 joins s4's.
        tol = 0.01
        offsets = {"s3": 0.0, "s1": 0.6, "s4": 1.2, "s0": 0.3, "s2": 2.0}
        rows = np.array([[0.5 + x * tol, 0.5 - x * tol] for x in offsets.values()])
        g = Pfsa(["0", "1"], list(offsets), [[0, 2]] * 5, rows)
        h = minimize(g, tol=tol)
        assert h.states == ("s0", "s2")
        np.testing.assert_array_equal(h._delta, [[0, 1], [0, 1]])
        for b, members in enumerate(([0, 1, 3], [2, 4])):
            mean = rows[members].mean(axis=0)
            np.testing.assert_array_equal(h._morph[b], mean / mean.sum())

    def test_matches_loop_reference_on_random_machines(self):
        def reference(g, tol):
            block_of, reps = [], []
            for q in range(g.n_states):
                for bi, rep in enumerate(reps):
                    if np.max(np.abs(g._morph[q] - g._morph[rep])) <= tol:
                        block_of.append(bi)
                        break
                else:
                    block_of.append(len(reps))
                    reps.append(q)
            while True:
                sigs = {}
                new = [sigs.setdefault((block_of[q], *(block_of[t] for t in g._delta[q])), len(sigs))
                       for q in range(g.n_states)]
                done = len(sigs) == len(set(block_of))
                block_of = new
                if done:
                    break
            members = {}
            for q, b in enumerate(block_of):
                members.setdefault(b, []).append(q)
            blocks = sorted(members.values())
            rename = {block_of[ms[0]]: i for i, ms in enumerate(blocks)}
            names = [min(g.states[q] for q in ms) for ms in blocks]
            d = [[rename[block_of[t]] for t in g._delta[ms[0]]] for ms in blocks]
            m = []
            for ms in blocks:
                row = g._morph[ms, :].mean(axis=0)
                m.append(row / row.sum() if len(ms) > 1 else g._morph[ms[0]])
            return Pfsa(g.alphabet, names, d, m)

        # Blow up a random m-state machine: state q copies state f[q], with row
        # jitter of 0, 0.6 or 1.2 tol, so merges are common and tol chains occur.
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 12, 30):
            for _ in range(4):
                m = max(1, n // 4)
                f = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
                d = [[rng.choice(np.flatnonzero(f == t)) for t in row]
                     for row in rng.integers(0, m, (m, 2))[f]]
                p = rng.integers(1, 6, m)[f] / 6.0 + rng.choice([0.0, 6e-10, 1.2e-9], n)
                names = [f"q{i}" for i in rng.permutation(n)]
                g = Pfsa(["0", "1"], names, d, np.column_stack([p, 1 - p]))
                assert structurally_equal(minimize(g), reference(g, 1e-9))


class TestCanonicalize:
    def test_reorders_by_reachability(self):
        g = Pfsa(
            ["0", "1"],
            ["B", "A"],
            {"B": {"0": "A", "1": "B"}, "A": {"0": "A", "1": "B"}},
            {"B": [0.3, 0.7], "A": [0.8, 0.2]},
        )
        h = canonicalize(g)
        assert h.states == ("A", "B")
        np.testing.assert_array_equal(h.morph_row("A"), [0.8, 0.2])

    def test_idempotent(self, u3):
        once = canonicalize(u3)
        assert structurally_equal(once, canonicalize(once))

    def test_a_machine_in_canonical_order_is_returned_as_is(self, u3):
        for g in normal_forms():
            assert canonicalize(g) is g
        shuffled = Pfsa(u3.alphabet, ["z", "y", "x"], u3._delta, u3._morph)
        once = canonicalize(shuffled)
        assert once is not shuffled and canonicalize(once) is once

    def test_unreachable_states_follow_in_name_order(self):
        g = Pfsa(
            ["0", "1"],
            ["n", "m", "z", "a"],
            {"n": {"0": "a", "1": "z"}, "m": {"0": "z", "1": "a"},
             "z": {"0": "a", "1": "z"}, "a": {"0": "z", "1": "a"}},
            {"n": [0.5, 0.5], "m": [0.5, 0.5], "z": [0.55, 0.45], "a": [0.4, 0.6]},
        )
        assert canonicalize(g).states == ("a", "z", "m", "n")

    def test_reachable_in_breadth_first_order(self):
        # depth-first order would be 0 3 5 1 4 2, index order 0 1 2 3 4 5
        delta = np.array([[3, 1, 3], [4, 0, 2], [2, 2, 2], [5, 1, 0],
                          [4, 4, 4], [5, 5, 5], [0, 0, 0]])
        assert _reachable(delta, 0) == [0, 3, 1, 5, 4, 2]
        assert _reachable(delta, 6) == [6, 0, 3, 1, 5, 4, 2]
        assert _reachable(delta, 2) == [2]

    def test_all_reach_searches_backwards_from_the_target(self):
        # state 6 has no predecessor; 2, 4 and 5 are absorbing
        delta = np.array([[3, 1, 3], [4, 0, 2], [2, 2, 2], [5, 1, 0],
                          [4, 4, 4], [5, 5, 5], [0, 0, 0]])
        assert not any(_all_reach(_predecessors(delta.tolist()), t) for t in range(7))
        # send 2 and 4 on to 5: every state, 6 included, now reaches 5 and only 5
        delta[2] = delta[4] = 5
        assert [t for t in range(7) if _all_reach(_predecessors(delta.tolist()), t)] == [5]
        assert _all_reach(_predecessors(np.zeros((1, 2), dtype=np.int64).tolist()), 0)

    def test_predecessors_list_one_source_per_edge(self):
        # state 1 sends both symbols to 0, and state 2 sends one to 0:
        # 1 appears twice in 0's list, in (source, symbol) order
        assert _predecessors([[1, 2], [0, 0], [2, 0]]) == [[1, 1, 2], [0], [0, 2]]
        assert _predecessors([[0]]) == [[0]]
        # the runs of a stable argsort of the targets, on any graph
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, k = int(rng.integers(1, 30)), int(rng.integers(1, 4))
            flat = rng.integers(0, n, n * k)
            by_target = np.argsort(flat, kind="stable")
            expected = [(by_target[flat[by_target] == q] // k).tolist() for q in range(n)]
            assert _predecessors(flat.reshape(n, k).tolist()) == expected

    def test_all_reach_matches_forward_search_on_random_graphs(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(200):
            n, k = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            delta = rng.integers(0, n, (n, k))
            t = int(rng.integers(0, n))
            expected = all(t in _reachable(delta, v) for v in range(n))
            assert _all_reach(_predecessors(delta.tolist()), t) == expected
            hits += expected
        assert 0 < hits < 200


class TestGenerate:
    def test_zero_length(self, g2):
        assert generate_sequence(g2, 0, 1).size == 0

    def test_deterministic_for_seed(self, g2):
        a = generate_sequence(g2, 1000, 42)
        b = generate_sequence(g2, 1000, 42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, generate_sequence(g2, 1000, 43))

    def test_single_state_uniform_frequencies(self):
        n = 200_000
        seq = generate_sequence(make_single(), n, 7)
        freq = np.bincount(seq, minlength=2) / n
        sigma = math.sqrt(0.25 / n)
        assert abs(freq[0] - 0.5) < 3 * sigma

    def test_g2_symbol_rate_matches_word_probability(self, g2):
        # oracle: stationary emission rate = probability of the length-1 word
        n = 200_000
        seq = generate_sequence(g2, n, 11)
        rate = float((seq == 0).mean())
        expected = word_probability(g2, ["0"])
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) < 3 * sigma

    def test_not_ergodic(self):
        with pytest.raises(NotErgodic):
            generate_sequence(make_two_sinks(), 10, 0)

    @staticmethod
    def sample_by_index(g, length, seed):
        """Reference: the indexed loop with a clip to the last symbol."""
        rng = np.random.default_rng(seed)
        pi0 = stationary_distribution(g)
        out = np.empty(length, dtype=np.int64)
        if length == 0:
            return out
        q = int(rng.choice(g.n_states, p=pi0))
        u = rng.random(length)
        cum_rows = [row.tolist() for row in np.cumsum(g._morph, axis=1)]
        delta_rows = [row.tolist() for row in g._delta]
        last = g.n_symbols - 1
        for t in range(length):
            s = bisect_right(cum_rows[q], float(u[t]))
            if s > last:
                s = last
            out[t] = s
            q = delta_rows[q][s]
        return out

    @staticmethod
    def random_machine(n, k, seed):
        # symbol 0 walks a cycle through every state, so the machine is ergodic
        rng = np.random.default_rng(seed)
        delta = rng.integers(0, n, (n, k))
        delta[:, 0] = np.roll(np.arange(n), -1)
        rows = np.maximum(rng.dirichlet([2.0] * k, n), 1e-3)
        return Pfsa([str(j) for j in range(k)], [f"s{i}" for i in range(n)],
                    delta, rows / rows.sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("make", [make_g2, make_m2, make_t3, make_u3, make_single],
                             ids=["g2", "m2", "t3", "u3", "single"])
    @pytest.mark.parametrize("length", [0, 1, 10_000])
    def test_fixtures_match_reference_loop(self, make, length):
        g = make()
        for seed in (0, 1, 42):
            out = generate_sequence(g, length, seed)
            assert out.dtype == np.int64 and not out.flags.writeable
            assert np.array_equal(out, self.sample_by_index(g, length, seed))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_machines_match_reference_loop(self, k):
        for seed in (1, 2, 3):
            g = self.random_machine(7, k, seed)
            for length in (0, 1, 10_000):
                assert np.array_equal(generate_sequence(g, length, seed),
                                      self.sample_by_index(g, length, seed))

    @staticmethod
    def block_length(g):
        """Symbols per table step: the longest block whose jump table fits the cap."""
        letters = np.unique(np.cumsum(g._morph, axis=1)[:, :-1]).size + 1
        m = 1
        while g.n_states * letters ** (m + 1) <= _JUMP_TABLE_ENTRIES:
            m += 1
        return m

    @classmethod
    def block_cases(cls):
        tied = Pfsa(["0", "1"], ["a", "b", "c"], [[1, 2], [2, 0], [0, 1]],
                    [[0.3, 0.7], [0.3, 0.7], [0.6, 0.4]])
        uniform = Pfsa(["a", "b", "c"], ["x", "y", "z"], make_u3()._delta, np.full((3, 3), 1.0 / 3))
        return {
            "g2": make_g2(),
            "tied": tied,
            "uniform": uniform,
            "zero": make_single(),
            "k4": cls.random_machine(5, 4, 4),
            "n200": cls.random_machine(200, 2, 5),
        }

    @pytest.mark.parametrize("name", ["g2", "tied", "uniform", "zero", "k4", "n200"])
    def test_every_length_around_the_block_matches_reference_loop(self, name):
        # identical rows and uniform rows give thresholds tied across states;
        # the one-state zero model would take the longest block but skips
        # the table, 200 states take blocks of one symbol
        g = self.block_cases()[name]
        m = self.block_length(g)
        assert m == {"zero": 16, "n200": 1}.get(name, m) and (m > 1) == (name != "n200")
        for seed in (0, 5):
            for length in [*range(2 * m + 2), 10_000]:
                assert np.array_equal(generate_sequence(g, length, seed),
                                      self.sample_by_index(g, length, seed)), length

    @pytest.mark.parametrize("row", [[0.5, 0.5], [0.3, 0.7], [0.2, 0.3, 0.5],
                                     [0.5, 1e-20, 0.5 - 1e-20], [0.5, 0.5 - 1e-20, 1e-20]],
                             ids=["2-uniform", "2", "3", "3-tied", "3-cut-at-one"])
    def test_one_state_machines_match_reference_loop(self, row, monkeypatch):
        # a one-state machine emits sym[0, letter] per draw, with no jump
        # table or stitched walk; a tiny middle entry leaves two running
        # sums tied, a tiny last one puts a threshold at 1.0
        import procgeom.pfsa as pfsa

        def no_walk(*args):
            raise AssertionError("a one-state machine stitched a walk")

        monkeypatch.setattr(pfsa, "_stitched_starts", no_walk)
        g = make_single(tuple("abc"[:len(row)]), row)
        for seed in (0, 5):
            for length in (0, 1, 15, 16, 17, 10_000):
                out = generate_sequence(g, length, seed)
                assert out.dtype == np.int64 and not out.flags.writeable
                assert np.array_equal(out, self.sample_by_index(g, length, seed)), length

    @pytest.mark.parametrize("n", [39, 40])
    def test_both_sides_of_the_block_table_cap_match_reference_loop(self, n, monkeypatch):
        # on two symbols, 39 states is the largest machine whose blocks of
        # two fit the table and so stitch; 40 states walk symbol by symbol
        import procgeom.pfsa as pfsa

        stitched = []
        stitch = pfsa._stitched_starts

        def counted(*args):
            stitched.append(1)
            return stitch(*args)

        monkeypatch.setattr(pfsa, "_stitched_starts", counted)
        for seed in (1, 2):
            g = self.random_machine(n, 2, seed)
            assert self.block_length(g) == (2 if n == 39 else 1)
            for length in (0, 1, 2, 3, 10_001):
                assert np.array_equal(generate_sequence(g, length, seed),
                                      self.sample_by_index(g, length, seed)), (seed, length)
        assert len(stitched) == (10 if n == 39 else 0)

    @pytest.mark.parametrize("n, k", [(1, 256), (2, 91)])
    def test_most_letters_a_block_table_admits_match_reference_loop(self, n, k):
        # L = 256 letters on one state and 181 on two, the largest counts
        # whose two-letter tables fit the cap: a draw's letter, the count of
        # cuts at or below it, reaches 255 and 180, past a signed byte
        g = self.random_machine(n, k, 3)
        letters = np.unique(np.cumsum(g._morph, axis=1)[:, :-1]).size + 1
        assert letters == n * (k - 1) + 1 and n * letters ** 2 <= _JUMP_TABLE_ENTRIES
        assert self.block_length(g) == 2
        for seed in (0, 1):
            out = generate_sequence(g, 50_001, seed)
            assert np.array_equal(out, self.sample_by_index(g, 50_001, seed))

    @pytest.mark.parametrize("name", ["g2", "tied", "k4", "t3"])
    def test_lengths_around_chunk_boundaries_match_reference_loop(self, name):
        # block counts one below, at and one above a whole number of chunks,
        # each with no tail and with a tail one symbol short of a block;
        # t3's rotations never merge two states
        g = make_t3() if name == "t3" else self.block_cases()[name]
        m = self.block_length(g)
        for chunks in (1, 3):
            for blocks in (chunks * _STITCH_BLOCKS - 1, chunks * _STITCH_BLOCKS,
                           chunks * _STITCH_BLOCKS + 1):
                for tail in (0, m - 1):
                    length = blocks * m + tail
                    assert np.array_equal(generate_sequence(g, length, 4),
                                          self.sample_by_index(g, length, 4)), length

    @staticmethod
    def stitch_case(name, chunks):
        """A hand-built 5-state jump table and codes whose walks from every
        state first agree where ``name`` says: code 0 rotates the states,
        code 1 resets them all to state 3, code 2 merges state 0 into 1."""
        rotate = [1, 2, 3, 4, 0]
        jump = np.array([rotate, [3] * 5, [1, 1, 2, 3, 4]]).T
        rng = np.random.default_rng(chunks)
        codes = rng.integers(0, 3, (chunks, _STITCH_BLOCKS))
        if name == "never":  # a permutation table: no two walks ever meet
            jump = np.array([rotate, [1, 0, 2, 3, 4], [0, 1, 2, 3, 4]]).T
        else:
            reset = {"block-1": 0, "middle": 11, "block-32": _STITCH_BLOCKS - 1, "mixed": 0}[name]
            codes[:, :reset] = 0
            codes[:, reset] = 1
            if name == "mixed":  # odd chunks only rotate, so their walks never meet
                codes[1::2] = 0
        return jump, codes.ravel()

    @pytest.mark.parametrize("chunks", [0, 1, 3])
    @pytest.mark.parametrize("name", ["block-1", "middle", "block-32", "never", "mixed"])
    def test_stitched_starts_match_per_block_loop(self, name, chunks):
        jump, codes = self.stitch_case(name, chunks)
        for q in range(jump.shape[0]):
            expected, p = [], q
            for c in codes.tolist():
                expected.append(p)
                p = int(jump[p, c])
            got = codes.copy()
            assert _stitched_starts((jump * jump.shape[1]).ravel(), jump.shape[1], got, q) is got
            assert got.tolist() == expected, q

    @pytest.mark.parametrize("n, seed", [(4, 2), (4, 4), (8, 4), (8, 6)])
    def test_scaled_recipe_models_match_reference_loop(self, n, seed):
        # the noise experiment's nonzero scales of recipe bases: at (4, 2)
        # no chunk's walks ever agree, at (4, 4) they all agree after blocks
        # 1 to 16, and at 8 states some models end with a few chunks whose
        # walks still differ
        rng = np.random.default_rng(seed)
        rows = np.maximum(rng.dirichlet([2.0, 2.0], n), 1e-3)
        base = as_process(Pfsa(["0", "1"], [f"s{i}" for i in range(n)], rng.integers(0, n, (n, 2)),
                               rows / rows.sum(axis=1, keepdims=True)))
        for alpha in (1.0, -1.0, 0.1, -0.1):
            g = scale_process(alpha, base).machine
            assert np.array_equal(generate_sequence(g, 100_000, 7),
                                  self.sample_by_index(g, 100_000, 7)), alpha

    @staticmethod
    def recipe_machines(n, count=3):
        """The benchmark's recipe on two symbols, kept when one sink holds
        all ``n`` states."""
        rng = np.random.default_rng(n)
        found = []
        while len(found) < count:
            delta = rng.integers(0, n, (n, 2))
            rows = np.maximum(rng.dirichlet([2.0, 2.0], n), 1e-3)
            g = Pfsa(["0", "1"], [f"s{i}" for i in range(n)], delta, rows / rows.sum(axis=1, keepdims=True))
            sinks = sink_sccs(g)
            if len(sinks) == 1 and len(sinks[0]) == n:
                found.append(g)
        return found

    @classmethod
    def digit_cases(cls):
        # two states with identical rows have L = k letters, so the digit
        # table's m * k ** m entries bound the block: m = 12 on two symbols
        # (the jump table alone would admit 15), 8 on three, 6 on four
        cases = {}
        for k, row in ((2, [0.3, 0.7]), (3, [0.2, 0.3, 0.5]), (4, [0.1, 0.2, 0.3, 0.4])):
            cases[f"k{k}"] = (Pfsa([str(j) for j in range(k)], ["a", "b"],
                                   [[1] + [0] * (k - 1), [0] + [1] * (k - 1)], [row, row]),
                              {2: 12, 3: 8, 4: 6}[k])
        for n in (24, 32, 39):  # the largest machines that still tabulate blocks of two
            for i, g in enumerate(cls.recipe_machines(n)):
                cases[f"r{n}-{i}"] = (g, 2)
        return cases

    @pytest.mark.parametrize("name", ["k2", "k3", "k4", "r24-0", "r24-1", "r24-2", "r32-0", "r32-1",
                                      "r32-2", "r39-0", "r39-1", "r39-2"])
    def test_block_tables_at_their_caps_match_reference_loop(self, name, monkeypatch):
        import procgeom.pfsa as pfsa

        g, m = self.digit_cases()[name]
        built = []
        tables = pfsa._block_tables

        def kept(*args):
            built.append(tables(*args))
            return built[-1]

        monkeypatch.setattr(pfsa, "_block_tables", kept)
        for length in (0, 1, 7, 100_003):
            assert np.array_equal(generate_sequence(g, length, 9),
                                  self.sample_by_index(g, length, 9)), length
        assert len(built) == 4 and built[0][0] == m
        # no table the sampler builds holds more than the cap
        assert all(t.size <= _JUMP_TABLE_ENTRIES for t in built[0][1:])

    @pytest.mark.parametrize("n, k, tabled", [(1, 256, 0), (1, 257, 0), (2, 181, 1), (2, 182, 0)])
    def test_wide_alphabets_with_tied_thresholds_match_reference_loop(self, n, k, tabled, monkeypatch):
        # tiny middle entries tie every running sum at the first entry, so L
        # stays small while k grows: one state counts its k - 1 thresholds in
        # a byte up to 256 symbols, and on two states the digit table's
        # 2 * k ** 2 entries fit the cap up to 181 symbols; past either the
        # loop bisects
        import procgeom.pfsa as pfsa

        built = []
        tables = pfsa._block_tables
        monkeypatch.setattr(pfsa, "_block_tables", lambda *args: built.append(1) or tables(*args))
        rows = np.full((n, k), 1e-20)
        rows[:, 0] = [0.5, 0.3][:n]
        rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
        delta = np.ones((n, k), dtype=np.int64) * np.arange(n)[:, None]
        delta[:, 0] = np.arange(n)[::-1]
        g = Pfsa([f"x{j}" for j in range(k)], [f"s{i}" for i in range(n)], delta, rows)
        assert validate(g).valid
        for seed in (0, 1):
            out = generate_sequence(g, 20_001, seed)
            assert np.array_equal(out, self.sample_by_index(g, 20_001, seed))
            assert out.max() == k - 1
        assert len(built) == 2 * tabled

    def test_streams_of_one_table_build_equal_separate_calls(self):
        # one state, stitched blocks, and the per-symbol loop of 200 states
        for g in (make_single(), make_g2(), self.random_machine(7, 3, 1), self.random_machine(200, 2, 5)):
            pieces = _sampler(g)
            for seed in (3, 4):
                assert np.array_equal(np.concatenate(list(pieces(10_001, seed, np.empty(10_001, np.int64)))),
                                      generate_sequence(g, 10_001, seed))

    @pytest.mark.parametrize("name", ["zero", "g2", "k4", "n200"])
    def test_streams_in_several_pieces_equal_the_one_piece_stream(self, name, monkeypatch):
        # one state, stitched blocks, and the per-symbol loop, with pieces
        # of a few stitched chunks: lengths one below, at and one above one,
        # two and three pieces, against the one-piece stream of the default
        import procgeom.pfsa as pfsa

        g = self.block_cases()[name]
        chunk = _STITCH_BLOCKS * self.block_length(g) if name in ("g2", "k4") else 1
        piece = 3 * chunk if chunk > 1 else 1000
        lengths = [0, 1, *(j * piece + d for j in (1, 2, 3) for d in (-1, 0, 1))]
        whole = {length: generate_sequence(g, length, 6) for length in lengths}
        # a constant between whole stitched chunks rounds down to them
        monkeypatch.setattr(pfsa, "_STREAM_CHUNK", piece + chunk // 2)
        for length in lengths:
            out = generate_sequence(g, length, 6)
            assert np.array_equal(out, whole[length]), length
            sizes = [p.size for p in _sampler(g)(length, 6, np.empty(length, dtype=np.int64))]
            assert sizes == [piece] * (length // piece) + [length % piece] * (length % piece > 0 or not length)
        assert np.array_equal(whole[lengths[-1]], self.sample_by_index(g, lengths[-1], 6))

    def test_draw_above_a_sum_rounding_below_one_emits_last_symbol(self):
        # ten rows of 0.1 add up to 1 - 2**-53; a draw in [that sum, 1) lies
        # past every threshold and must still emit the last symbol
        g = make_single(tuple("abcdefghij"), [0.1] * 10)
        top = float(np.cumsum(g._morph[0])[-1])
        assert top < 1.0
        draws = np.array([0.0, 0.05, top, 0.95, np.nextafter(1.0, 0.0), 0.5])

        class Stub(np.random.Generator):
            def choice(self, a, p=None):
                return 0

            def random(self, size=None):
                return draws[:size].copy()

        out = generate_sequence(g, draws.size, Stub(np.random.PCG64(0)))
        assert out.tolist() == [0, 0, 9, 9, 9, 5]
        assert np.array_equal(out, self.sample_by_index(g, draws.size, Stub(np.random.PCG64(0))))


class TestTextFormat:
    def test_round_trip_is_bit_identical(self, g2, u3, tmp_path):
        for g in (g2, u3):
            path = tmp_path / "model.pfsa"
            write_pfsa(g, path)
            again = read_pfsa(path)
            assert structurally_equal(g, again)
            write_pfsa(again, tmp_path / "model2.pfsa")
            assert (tmp_path / "model.pfsa").read_bytes() == (tmp_path / "model2.pfsa").read_bytes()

    def test_round_trip_of_random_machines_is_bit_identical(self):
        rng = np.random.default_rng(24)
        for n in (1, 2, 7, 40, 200):
            for k in (2, 3, 4):
                rows = rng.dirichlet([0.5] * k, n)
                g = Pfsa([f"x{j}" for j in range(k)], [f"q{i}" for i in rng.permutation(n)],
                         rng.integers(0, n, (n, k)), rows)
                again = parse_pfsa(format_pfsa(g))
                assert structurally_equal(g, again)
                assert again._delta.dtype == np.int64 and again._morph.dtype == np.float64

    def test_seventeen_digit_probabilities(self, g2):
        text = format_pfsa(g2)
        assert "0.80000000000000004" in text

    def test_bad_header(self):
        with pytest.raises(PfsaFormatError, match=r"^first line must be exactly 'pfsa v1'$"):
            parse_pfsa("pfsa v2\nalphabet: 0 1\n")

    def test_unknown_directive(self, g2):
        text = format_pfsa(g2) + "footer: x\n"
        with pytest.raises(PfsaFormatError):
            parse_pfsa(text)

    def test_missing_transition(self):
        text = "pfsa v1\nalphabet: 0 1\nstate A:\n  0 -> A 0.5\n"
        with pytest.raises(PfsaFormatError, match=r"^state 'A': missing transition for '1'$"):
            parse_pfsa(text)

    def test_out_of_order_transitions(self):
        text = "pfsa v1\nalphabet: 0 1\nstate A:\n  1 -> A 0.5\n  0 -> A 0.5\n"
        with pytest.raises(PfsaFormatError,
                           match=r"^line 4: expected symbol '0' \(alphabet order\), got '1'$"):
            parse_pfsa(text)

    def test_unknown_target_state(self):
        text = "pfsa v1\nalphabet: 0 1\nstate A:\n  0 -> A 0.5\n  1 -> Z 0.5\n"
        with pytest.raises(PfsaFormatError, match=r"^state 'A': transition to unknown state 'Z'$"):
            parse_pfsa(text)
        # the message names the state whose line holds the unknown target
        text = ("pfsa v1\nalphabet: 0 1\nstate A:\n  0 -> B 0.5\n  1 -> A 0.5\n"
                "state B:\n  0 -> A 0.5\n  1 -> Y 0.5\n")
        with pytest.raises(PfsaFormatError, match=r"^state 'B': transition to unknown state 'Y'$"):
            parse_pfsa(text)

    def test_state_name_with_whitespace(self):
        text = "pfsa v1\nalphabet: 0 1\nstate a b:\n  0 -> a 0.5\n  1 -> a 0.5\n"
        with pytest.raises(PfsaFormatError, match=r"^line 3: bad state name 'a b'$"):
            parse_pfsa(text)

    def test_duplicate_state(self):
        text = (
            "pfsa v1\nalphabet: 0 1\n"
            "state A:\n  0 -> A 0.5\n  1 -> A 0.5\n"
            "state A:\n  0 -> A 0.5\n  1 -> A 0.5\n"
        )
        with pytest.raises(PfsaFormatError, match=r"^line 6: duplicate state 'A'$"):
            parse_pfsa(text)

    def test_bad_probability_token(self):
        text = "pfsa v1\nalphabet: 0 1\nstate A:\n  0 -> A half\n  1 -> A 0.5\n"
        with pytest.raises(PfsaFormatError, match=r"^line 4: bad probability 'half'$"):
            parse_pfsa(text)

    def test_a_file_that_is_not_utf8_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "bin.pfsa"
        path.write_bytes(b"\xff\xfe\x00pfsa v1\n")
        with pytest.raises(PfsaFormatError, match=r"bin\.pfsa: not UTF-8 text"):
            read_pfsa(path)

    def test_interior_blank_line_rejected(self, g2):
        lines = format_pfsa(g2).split("\n")
        lines.insert(2, "")
        with pytest.raises(PfsaFormatError):
            parse_pfsa("\n".join(lines))
