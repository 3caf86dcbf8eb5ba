import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from procgeom import (
    AlphabetMismatch,
    InvalidPfsa,
    NotErgodic,
    Overflow,
    Pfsa,
    ZeroNorm,
    angle,
    angle_mc_estimate,
    as_process,
    belief_update,
    fdd_distance,
    format_pfsa,
    inner_exact,
    inner_mc,
    minimal_closed_restriction,
    process_norm,
    pscale,
    psum,
    reset_word,
    scale_process,
    structurally_equal,
    sum_processes,
    validate,
    word_probability,
    zero_process,
)
from procgeom.process import _batched_pair_walks, _pair_state_walks, _walk_symbols
from procgeom.simplex import log_ratios
from conftest import (
    make_feed3, make_g2, make_m2, make_single, make_t3, make_u3, make_vanishing3,
    sink_components_loop,
)


@pytest.fixture
def G(g2):
    return as_process(g2, "G")


@pytest.fixture
def M(m2):
    return as_process(m2, "M")


def exact_g2_self_inner():
    # direct arithmetic: uniform drive makes the pair chain spend half its
    # time in each diagonal state of the two-state fixture
    return 0.5 * math.log(0.8 / 0.2) ** 2 + 0.5 * math.log(0.3 / 0.7) ** 2


class TestNormalForm:
    def test_handle_machine_is_minimal_closed(self, G):
        assert structurally_equal(minimal_closed_restriction(G.machine), G.machine)

    def test_rows_strictly_positive(self, G, M):
        for p in (G, M):
            assert validate(p.machine).valid
            assert np.all(p.machine._morph > 0)


class TestZeroProcess:
    def test_single_uniform_state(self):
        z = zero_process(["0", "1"])
        assert z.machine.n_states == 1
        np.testing.assert_allclose(z.machine.morph_row("z"), [0.5, 0.5], atol=1e-15)

    def test_zero_norm(self):
        assert process_norm(zero_process(["0", "1"])) == 0.0

    def test_additive_identity(self, G):
        z = zero_process(G.alphabet)
        assert fdd_distance(sum_processes(G, z), G, 6) < 1e-10


class TestScale:
    def test_identity_scaling(self, G):
        s = scale_process(1.0, G)
        assert s.machine.n_states == G.machine.n_states
        assert fdd_distance(s, G, 6) < 1e-12

    def test_zero_scaling_gives_flat_noise(self, G):
        s = scale_process(0.0, G)
        assert s.machine.n_states == 1
        np.testing.assert_allclose(s.machine.morph_row(0), [0.5, 0.5], atol=1e-12)

    def test_tenth_scaling_rows(self, G, g2):
        s = scale_process(0.1, G)
        for q in g2.states:
            np.testing.assert_allclose(
                s.machine.morph_row(q), pscale(0.1, g2.morph_row(q)), atol=1e-15
            )

    def test_composition(self, G):
        assert fdd_distance(scale_process(-0.3, G), scale_process(-1.0, scale_process(0.3, G)), 5) < 1e-9

    @pytest.mark.parametrize("make", [make_g2, make_m2, make_t3, make_u3])
    @pytest.mark.parametrize("alpha", [-1e3, -2.5, -1e-3, 1e-3, 0.37, 2.0, 1e3])
    def test_result_is_valid_or_overflow(self, make, alpha):
        # the scaled rows are pscale's, taken without a validation pass of
        # their own: finite, positive and normalized, or Overflow is raised
        try:
            s = scale_process(alpha, as_process(make()))
        except Overflow:
            return
        assert validate(s.machine).valid


@pytest.mark.parametrize("p, q, pinned", [
    (make_g2, lambda: scale_process(0.3, as_process(make_g2())), "0.1939495437308664"),
    (make_m2, lambda: as_process(make_g2()), "0.19164000000000037"),
    (make_t3, lambda: scale_process(2.0, as_process(make_t3())), "0.0872529888697319"),
], ids=["g2-0.3g2", "m2-g2", "t3-2t3"])
def test_fdd_distance_is_pinned(p, q, pinned):
    # word probabilities are folded symbol by symbol from the stationary
    # belief, multiplied in word order; the value is pinned to the bit
    assert repr(fdd_distance(as_process(p()), q(), 5)) == pinned


def largest_word_gaps(p, q, max_len):
    """Largest ``word_probability`` gap over all words up to each length."""
    g, h = p.machine, q.machine
    gaps, best = [], 0.0
    for n in range(max_len + 1):
        for w in itertools.product(range(g.n_symbols), repeat=n):
            best = max(best, abs(word_probability(g, w) - word_probability(h, w)))
        gaps.append(best)
    return gaps


@pytest.mark.parametrize("k", [2, 3])
def test_fdd_distance_is_the_largest_word_probability_gap(k):
    # prefixes are extended once, level by level, with word_probability's
    # multiplications in its order, so the maximum is equal to the bit
    checked = 0
    for n in range(1, 7):
        try:
            p = random_process(n, 2100 + n, k)
        except NotErgodic:
            continue
        for alpha in (0.3, -2.0):
            q = scale_process(alpha, p)
            for max_len, gap in enumerate(largest_word_gaps(p, q, 5)):
                assert fdd_distance(p, q, max_len) == gap
                checked += 1
    assert checked >= 48


def test_fdd_distance_counts_a_word_that_cannot_occur_as_zero():
    # "1 0" has probability 0 on the machine: each belief entry times
    # 5e-324 rounds to 0
    p = as_process(make_vanishing3())
    assert p.machine.n_states == 3
    q = scale_process(0.5, p)
    assert fdd_distance(p, q, 3) == largest_word_gaps(p, q, 3)[-1]


@pytest.mark.parametrize("max_len", [-1, -5])
def test_fdd_distance_rejects_a_negative_max_len(g2_process, max_len):
    with pytest.raises(ValueError, match=f"^max_len must be >= 0, got {max_len}$"):
        fdd_distance(g2_process, g2_process, max_len)


@pytest.mark.parametrize("max_len", [2.5, "3", True, np.bool_(False), None])
def test_fdd_distance_rejects_a_max_len_that_is_not_an_int(g2_process, max_len):
    # unchecked, True ran as max_len 1, and 2.5 and "3" failed inside range and <
    half = scale_process(0.5, g2_process)
    with pytest.raises(TypeError, match=re.escape(f"max_len must be an int, got {max_len!r}")):
        fdd_distance(g2_process, half, max_len)


def test_fdd_distance_takes_a_numpy_integer_max_len(g2_process):
    half = scale_process(0.5, g2_process)
    assert fdd_distance(g2_process, half, np.int64(3)) == fdd_distance(g2_process, half, 3)


class TestSum:
    def test_commutative_up_to_fdd(self, G, M):
        assert fdd_distance(sum_processes(G, M), sum_processes(M, G), 5) < 1e-12

    def test_inverse_collapses_to_zero(self, G):
        s = sum_processes(G, scale_process(-1.0, G))
        assert s.machine.n_states == 1
        np.testing.assert_allclose(s.machine.morph_row(0), [0.5, 0.5], atol=1e-9)

    def test_self_sum_equals_double_scaling(self, G, g2):
        s = sum_processes(G, G)
        d = scale_process(2.0, G)
        assert fdd_distance(s, d, 6) < 1e-12
        for q_s, q_d in zip(s.machine.states, d.machine.states):
            np.testing.assert_allclose(
                s.machine.morph_row(q_s), d.machine.morph_row(q_d), atol=1e-14
            )

    def test_alphabet_mismatch(self, G, u3):
        with pytest.raises(AlphabetMismatch):
            sum_processes(G, as_process(u3, "U"))

    def test_split_pair_structure_resolved_by_synchronization(self, t3):
        # rotation machines share their transition map, so the pair
        # structure splits into offset classes; the jointly synchronized
        # start pins the aligned one, and summing a process with a renamed
        # copy of itself lands exactly on the doubled process
        from procgeom import Pfsa

        T = as_process(t3, "T")
        renamed = Pfsa(t3.alphabet, ["u", "v", "w"], t3._delta.copy(), t3._morph.copy())
        S = as_process(renamed, "S")
        total = sum_processes(T, S)
        assert total.machine.n_states == 3
        assert fdd_distance(total, scale_process(2.0, T), 5) < 1e-12
        assert fdd_distance(total, sum_processes(S, T), 5) < 1e-12

    def test_self_sum_on_split_pair_structure_needs_no_sync(self, t3, monkeypatch):
        # a process summed with itself lives on the diagonal of its split
        # pair structure, the same rule inner_exact uses, so no search runs
        import procgeom.process as process

        def no_search(*args, **kwargs):
            raise AssertionError("joint synchronization ran")

        monkeypatch.setattr(process, "joint_epsilon_synchronize", no_search)
        T = as_process(t3, "T")
        assert fdd_distance(sum_processes(T, T), scale_process(2.0, T), 5) < 1e-12

    def test_split_pair_inverse_tracks_offset_class(self, t3):
        # with no merging word, a machine and its inverse synchronize onto
        # different states, so the tracked sum follows an offset class and
        # is a valid process, not the zero process: the exact inverse law
        # belongs to machines whose belief collapses completely
        T = as_process(t3, "T")
        inv = sum_processes(T, scale_process(-1.0, T))
        assert validate(inv.machine).valid
        assert inv.machine.n_states == 3

    def test_underflowing_pair_row_raises_invalid_pfsa(self):
        # 1e-200 squared underflows to 0 in the pair state (a,a): the sum
        # built on the pair sink still validates its rows
        u = as_process(Pfsa(["0", "1"], ["a", "b"], [[0, 1], [0, 1]],
                            [[1e-200, 1.0 - 1e-200], [0.5, 0.5]]), "U")
        with pytest.raises(InvalidPfsa, match=r"state \(a,a\): morph entry for symbol '0' is 0"):
            sum_processes(u, u)


def sink_keep(g, h):
    """The pair sink's flat pair-table indices ``i * nh + j``, rebuilt from
    the operands' state-index arrays ``_pair_sink`` returns."""
    import procgeom.process as process

    _, i, j = process._pair_sink(g, h)
    return (i * h.n_states + j).tolist()


def reference_sum(p, q):
    """The sum as built over every pair state: all ng * nh names, one
    ``psum`` row per pair, restricted to the pair sink, then normal form."""
    from procgeom.pfsa import _restrict
    from procgeom.sync import _pair_delta

    g, h = p.machine, q.machine
    names = [f"({a},{b})" for a in g.states for b in h.states]
    rows = [psum(rg, rh) for rg in g._morph for rh in h._morph]
    full = Pfsa(g.alphabet, names, _pair_delta(g, h), rows)
    return as_process(_restrict(full, sink_keep(g, h)), "reference")


def reference_sum_pairs(request):
    """Fixture pairs of all three ``_pair_sink`` rules, then seeded random pairs."""
    fixture = {name: as_process(request.getfixturevalue(name), name)
               for name in ("g2", "m2", "t3", "u3")}
    t3 = request.getfixturevalue("t3")
    renamed = as_process(Pfsa(t3.alphabet, ["u", "v", "w"], t3._delta, t3._morph), "S")
    named = [(fixture["g2"], fixture["g2"]),  # rule 1: the diagonal
             (fixture["u3"], fixture["u3"]),
             (fixture["g2"], fixture["m2"]),  # rule 2: the single sink
             (fixture["t3"], fixture["g2"]),
             (fixture["t3"], renamed),  # rule 3: the sink the synchronized start reaches
             (renamed, fixture["t3"])]
    randoms = [(random_process(n, seed), random_process(n, seed + 1))
               for n, seed in ((8, 1), (12, 4), (16, 5), (24, 7), (32, 9))]
    randoms += [(random_process(n, seed, k), random_process(n, seed + 1, k))
                for n, k, seed in ((8, 3, 11), (10, 9, 11))]
    return named + randoms


class TestSumOnThePairSink:
    def test_equals_the_sum_over_every_pair_state_byte_for_byte(self, request):
        for p, q in reference_sum_pairs(request):
            assert format_pfsa(sum_processes(p, q).machine) == format_pfsa(reference_sum(p, q).machine)

    def test_kept_pair_states_follow_both_machines(self, request, monkeypatch):
        # the machine entering normal form: one named state per kept pair,
        # moved componentwise, with the psum of the operand rows
        import procgeom.process as process

        built = []
        normal_form = process._normal_form

        def kept(machine, label):
            built.append(machine)
            return normal_form(machine, label)

        monkeypatch.setattr(process, "_normal_form", kept)
        one_state = (as_process(request.getfixturevalue("g2"), "G"), as_process(make_single(), "Z"))
        for p, q in reference_sum_pairs(request) + [one_state]:
            g, h = p.machine, q.machine
            built.clear()
            sum_processes(p, q)
            (pair,) = built
            keep = sink_keep(g, h)
            assert pair.states == tuple(f"({g.states[i // h.n_states]},{h.states[i % h.n_states]})"
                                        for i in keep)
            for name in pair.states:
                a, b = name[1:-1].split(",")
                assert pair.morph_row(name).tolist() == psum(g.morph_row(a), h.morph_row(b)).tolist()
                for sym in g.alphabet:
                    assert pair.next_state(name, sym) == f"({g.next_state(a, sym)},{h.next_state(b, sym)})"

    def test_state_names_holding_a_comma_still_give_distinct_pair_names(self):
        # pairs (a, b,c) and (a,b, c) would both print as (a,b,c)
        ga = Pfsa(["0", "1"], ["a,b", "a"], [[1, 0], [0, 1]], [[0.3, 0.7], [0.6, 0.4]])
        hb = Pfsa(["0", "1"], ["c", "b,c"], [[1, 1], [0, 0]], [[0.2, 0.8], [0.55, 0.45]])
        plain = [Pfsa(g.alphabet, [q.replace(",", "") for q in g.states], g._delta, g._morph)
                 for g in (ga, hb)]
        total = sum_processes(as_process(ga), as_process(hb))
        assert total.machine.states == ("(0,0)", "(1,1)", "(0,1)", "(1,0)")
        reference = sum_processes(*(as_process(g) for g in plain))
        assert np.array_equal(total.machine._delta, reference.machine._delta)
        assert np.array_equal(total.machine._morph, reference.machine._morph)


class TestVectorSpaceLaws:
    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.1, 0.5, 2.0])
    def test_distributivity(self, G, M, alpha):
        lhs = scale_process(alpha, sum_processes(G, M))
        rhs = sum_processes(scale_process(alpha, G), scale_process(alpha, M))
        assert fdd_distance(lhs, rhs, 5) < 1e-9

    @pytest.mark.parametrize("alpha,beta", [(-2.0, 0.5), (0.1, 2.0), (0.5, 0.5)])
    def test_scaling_composes(self, G, alpha, beta):
        lhs = scale_process(alpha * beta, G)
        rhs = scale_process(alpha, scale_process(beta, G))
        assert fdd_distance(lhs, rhs, 5) < 1e-9


class TestInnerExact:
    def test_g2_self_inner_frozen(self, G):
        est = inner_exact(G, G)
        assert est.mode == "exact" and est.std_error == 0.0
        assert est.value == pytest.approx(exact_g2_self_inner(), abs=1e-12)
        assert est.value == pytest.approx(1.3198628599447695, abs=1e-12)

    def test_zero_process_annihilates(self, G, M):
        z = zero_process(G.alphabet)
        for p in (G, M):
            assert inner_exact(p, z).value == 0.0

    @pytest.mark.parametrize("alpha", [-1.0, 0.1, 2.0])
    def test_scaling_pulls_out(self, G, M, alpha):
        base = inner_exact(G, M).value
        scaled = inner_exact(scale_process(alpha, G), M).value
        assert abs(scaled - alpha * base) < 1e-9

    def test_bilinear_in_both_slots(self, G, M):
        base = inner_exact(G, M).value
        for a, b in [(0.1, 2.0), (-1.0, 0.5), (2.0, 2.0)]:
            v = inner_exact(scale_process(a, G), scale_process(b, M)).value
            assert abs(v - a * b * base) < 1e-9

    def test_additivity(self, G, M):
        w = scale_process(0.5, G)
        lhs = inner_exact(sum_processes(G, M), w).value
        rhs = inner_exact(G, w).value + inner_exact(M, w).value
        assert abs(lhs - rhs) < 1e-8

    def test_self_inner_restricts_to_reachable_classes(self, t3):
        # the full pair chain of the rotation machine with itself splits into
        # three classes (the state offset never changes), but a self walk
        # starts synchronized on the diagonal; there the chain is doubly
        # stochastic, so the oracle is the plain average of the row norms
        T = as_process(t3, "T")
        expected = (
            math.log(0.6 / 0.4) ** 2 + math.log(0.25 / 0.75) ** 2 + math.log(0.7 / 0.3) ** 2
        ) / 3.0
        assert inner_exact(T, T).value == pytest.approx(expected, abs=1e-12)

    def test_collapsing_ternary_self_inner_agrees_with_mc(self, u3):
        # U3 has a merging symbol, so the synchronized-state idealization
        # behind the closed form matches the sampled walks
        U = as_process(u3, "U")
        est = inner_mc(U, U, walk_length=4000, repeats=8, seed=21)
        assert abs(est.value - inner_exact(U, U).value) <= 4.0 * est.std_error

    def test_unsyncable_cross_pair_raises_depth_exceeded(self):
        from procgeom import DepthExceeded, Pfsa, ProcessHandle

        def perm(names):
            a, b = names
            return Pfsa(
                ["0", "1"],
                names,
                {a: {"0": b, "1": a}, b: {"0": a, "1": b}},
                {a: [0.5, 0.5], b: [0.5, 0.5]},
            )

        # bypass normal form: uniform rows freeze the beliefs, the split
        # pair chain needs a synchronized start, and none can be found
        bad1 = ProcessHandle(machine=perm(["p", "q"]), label="perm1")
        bad2 = ProcessHandle(machine=perm(["r", "s"]), label="perm2")
        with pytest.raises(DepthExceeded):
            inner_exact(bad1, bad2)

    def test_self_norm_solves_only_the_diagonal_block(self):
        # random machine (n = 50, seed 1, floored dirichlet rows): 41 states after normal form
        rng = np.random.default_rng(1)
        delta = rng.integers(0, 50, (50, 2))
        rows = np.maximum(rng.dirichlet([2.0, 2.0], 50), 1e-3)
        p = as_process(Pfsa(["0", "1"], [f"s{i}" for i in range(50)], delta,
                            rows / rows.sum(axis=1, keepdims=True)), "p")
        g = p.machine
        assert g.n_states == 41
        tracemalloc.start()
        try:
            value = inner_exact(p, p).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense matrix over all 41**2 pair states alone takes 22.6 MB
        assert peak < 1e6
        # <g, g> = sum_i pi_u(i) |lg_i|^2, pi_u stationary under uniform driving
        chain = np.zeros((g.n_states, g.n_states))
        np.add.at(chain, (np.arange(g.n_states)[:, None], g._delta), 0.5)
        w, v = np.linalg.eig(chain.T)
        pi_u = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        pi_u /= pi_u.sum()
        lg = np.diff(np.log(g._morph), axis=1)
        assert value == pytest.approx(float(pi_u @ (lg * lg).sum(axis=1)), rel=1e-12)

    def test_symmetry(self, G, M):
        assert inner_exact(G, M).value == pytest.approx(inner_exact(M, G).value, abs=1e-12)

    @pytest.mark.parametrize("fixture", ["g2", "t3"])
    def test_self_pair_needs_no_component_search(self, request, monkeypatch, fixture):
        # a process paired with itself settles on the diagonal, which the
        # component search also finds: the single sink of g2, and one of
        # the three offset classes of t3, the one the self walk starts on
        import procgeom.process as process
        from procgeom.pfsa import _sink_components
        from procgeom.sync import _pair_delta

        P = as_process(request.getfixturevalue(fixture), "P")
        g = P.machine
        n = g.n_states
        sinks = _sink_components(_pair_delta(g, g))
        assert [i * n + i for i in range(n)] in sinks
        assert len(sinks) == (1 if fixture == "g2" else 3)
        value = inner_exact(P, P).value
        total = format_pfsa(sum_processes(P, P).machine)

        def no_search(delta):
            raise AssertionError("component search ran")

        monkeypatch.setattr(process, "_sink_components", no_search)
        assert inner_exact(P, P).value == value
        assert format_pfsa(sum_processes(P, P).machine) == total
        if fixture == "g2":
            assert value == pytest.approx(exact_g2_self_inner(), abs=1e-12)


class TestInnerMc:
    def test_matches_exact_within_four_std_errors(self, G, M):
        pairs = [(G, G), (G, scale_process(-1.0, G)), (G, M)]
        for p, q in pairs:
            est = inner_mc(p, q, walk_length=4000, repeats=8, seed=5)
            exact = inner_exact(p, q).value
            assert abs(est.value - exact) <= 4.0 * est.std_error

    def test_zero_process_gives_exact_zero(self, G):
        est = inner_mc(G, zero_process(G.alphabet), walk_length=500, repeats=4, seed=0)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_negation_flips_sign(self, G):
        a = inner_mc(G, G, walk_length=4000, repeats=8, seed=3)
        b = inner_mc(G, scale_process(-1.0, G), walk_length=4000, repeats=8, seed=9)
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.value + b.value) <= 3.0 * combined

    def test_bit_reproducible(self, G, M):
        a = inner_mc(G, M, walk_length=1000, repeats=4, seed=123)
        b = inner_mc(G, M, walk_length=1000, repeats=4, seed=123)
        assert a.value == b.value and a.std_error == b.std_error
        c = inner_mc(G, M, walk_length=1000, repeats=4, seed=124)
        assert c.value != a.value

    def test_estimate_metadata(self, G):
        est = inner_mc(G, G, walk_length=800, repeats=5, seed=1)
        assert est.mode == "monte-carlo"
        assert est.walks == 5 and est.walk_length == 800
        assert est.std_error > 0.0

    @pytest.mark.parametrize("fixture", ["g2", "t3"])
    def test_sharply_peaked_rows_stay_finite(self, request, fixture):
        # at alpha = 60 the rows are nearly deterministic, so a belief left
        # unnormalized for a few steps underflows to zero
        p = scale_process(60.0, as_process(request.getfixturevalue(fixture)))
        est = inner_mc(p, p)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        if fixture == "g2":
            assert abs(est.value - inner_exact(p, p).value) <= 4.0 * est.std_error

    @pytest.mark.parametrize("eps", [math.nan, 0.0, 1.0, -1.0, math.inf])
    def test_invalid_eps_rejected_before_any_work(self, G, monkeypatch, eps):
        # g2 has a reset word, so no epsilon search reads eps on this pair
        import procgeom.process as process

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the eps check")

        monkeypatch.setattr(process, "_reset_word", no_work)
        for call in (inner_mc, angle_mc_estimate):
            with pytest.raises(ValueError, match=r"eps must be in \(0, 1\)"):
                call(G, G, eps=eps, walk_length=10, repeats=2)

    @pytest.mark.parametrize("name, value", [("walk_length", 300.0), ("walk_length", True),
                                             ("repeats", 2.0), ("repeats", True)])
    def test_counts_that_are_not_ints_rejected_by_name_before_any_work(self, G, monkeypatch, name, value):
        import procgeom.process as process

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the count checks")

        monkeypatch.setattr(process, "_reset_word", no_work)
        monkeypatch.setattr(process, "joint_epsilon_synchronize", no_work)
        counts = {"walk_length": 10, "repeats": 2, name: value}
        for call in (inner_mc, angle_mc_estimate):
            with pytest.raises(TypeError, match=re.escape(f"{name} must be an int, got {value!r}")):
                call(G, G, **counts)

    def test_batched_kernel_matches_per_walk_loop(self, g2, t3):
        # g2 is padded to the 3 states of t3; both pairs share one batch
        pairs = [(g2, t3), (t3, t3)]
        starts = [
            (np.array([0.3, 0.7]), np.array([0.5, 0.3, 0.2])),
            (np.array([0.1, 0.6, 0.3]), np.array([0.2, 0.2, 0.6])),
        ]
        walk_length, repeats = 200, 3
        means = _batched_pair_walks(pairs, starts, walk_length, repeats,
                                     np.random.SeedSequence(7).spawn(len(pairs)))
        assert means.shape == (2, repeats)
        pair_seqs = np.random.SeedSequence(7).spawn(len(pairs))
        for pi, ((g, h), (bg, bh)) in enumerate(zip(pairs, starts)):
            draws = np.random.default_rng(pair_seqs[pi]).integers(0, 2, size=(walk_length, repeats))
            for r, symbols in enumerate(draws.T):
                b_g, b_h, total = bg, bh, 0.0
                for s in symbols:
                    total += float(np.diff(np.log(b_g @ g._morph)) @ np.diff(np.log(b_h @ h._morph)))
                    b_g = belief_update(g, b_g, int(s))
                    b_h = belief_update(h, b_h, int(s))
                assert means[pi, r] == pytest.approx(total / walk_length, rel=1e-12)


    def test_pair_state_kernel_matches_belief_kernel_from_point_masses(self, g2, m2, u3):
        # the integer walk over pair states is the belief recursion of a
        # point mass, bit for bit
        p, q = random_process(50, 1).machine, random_process(50, 2).machine
        assert (p.n_states, q.n_states) == (41, 40)
        for pairs, starts in (([(g2, m2), (p, q), (q, g2)], [(1, 0), (17, 39), (5, 1)]),
                              ([(u3, u3)], [(2, 1)])):
            walk_length, repeats = 300, 3
            beliefs = [(np.eye(g.n_states)[i], np.eye(h.n_states)[j])
                       for (g, h), (i, j) in zip(pairs, starts)]
            walks = _pair_state_walks(pairs, starts, walk_length, repeats,
                                      np.random.SeedSequence(7).spawn(len(pairs)))
            means = _batched_pair_walks(pairs, beliefs, walk_length, repeats,
                                        np.random.SeedSequence(7).spawn(len(pairs)))
            assert walks.shape == (len(pairs), repeats)
            assert walks.tobytes() == means.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_pair_state_kernel_matches_scalar_walks(self, k):
        # p sits in two pairs and the zero process is one operand; lengths
        # around one block of m steps, a sub-block of 256 and a symbol block
        # of 4096
        p, q = random_process(9, 1, k).machine, random_process(10, 2, k).machine
        z = zero_process([str(s) for s in range(k)]).machine
        pairs, starts = [(p, q), (p, z), (q, q)], [(3, 1), (0, 0), (2, 5)]
        m = block_length(p.n_states + q.n_states + 1, k)
        assert m > 2
        for walk_length in (1, m - 1, m, m + 1, 255, 256, 257, 4095, 4096, 4097):
            walks = _pair_state_walks(pairs, starts, walk_length, 2,
                                      np.random.SeedSequence(walk_length).spawn(len(pairs)))
            expected = scalar_pair_walks(pairs, starts, walk_length, 2, walk_length)
            assert walks.tobytes() == expected.tobytes(), walk_length

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_visit_table_matches_a_per_letter_loop(self, monkeypatch, k):
        # row q * k**m + code: the m states the block of code's letters (first
        # letter most significant) visits from q, q first, and the state after
        # it; at the cap, and at a cap of one entry, which leaves blocks of one
        import procgeom.pfsa as pfsa

        p, q = random_process(9, 1, k).machine, random_process(10, 2, k).machine
        delta = np.concatenate([p._delta, q._delta + p.n_states]).astype(np.int32)
        n = delta.shape[0]
        for entries in (pfsa._JUMP_TABLE_ENTRIES, 1):
            monkeypatch.setattr(pfsa, "_JUMP_TABLE_ENTRIES", entries)
            m, visit, after = pfsa._visit_table(delta)
            assert m == block_length(n, k) and (m > 1) == (entries > 1)
            assert visit.shape == (n * k ** m, m) and after.shape == (n * k ** m,)
            assert visit.dtype == after.dtype == np.int32
            assert m == 1 or visit.size <= entries
            for row in range(n * k ** m):
                state, code = divmod(row, k ** m)
                for i in range(m):
                    assert visit[row, i] == state
                    state = delta[state, code // k ** (m - 1 - i) % k]
                assert after[row] == state

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_outer_term_table_equals_the_row_pair_table(self, k):
        # the kernel's n x n table of lg_a . lh_b as one "as,bs->ab" einsum
        # holds the bits of the per-row-pair dot products over repeated and
        # tiled rows, which the scalar reference walks read
        machines = [random_process(n, seed, k).machine for n, seed in ((60, 1), (50, 2), (9, 3))]
        lr = log_ratios(np.concatenate([g._morph for g in machines]))
        n = lr.shape[0]
        assert lr.shape[1] == k - 1 and n > 40
        rows = np.einsum("rs,rs->r", np.repeat(lr, n, axis=0), np.tile(lr, (n, 1)))
        assert np.einsum("as,bs->ab", lr, lr).ravel().tobytes() == rows.tobytes()

    @pytest.mark.parametrize("k, itemsize", [(2, 1), (300, 2)])
    def test_walk_symbols_are_stored_in_the_narrowest_type(self, k, itemsize):
        # one byte a symbol on two symbols; 300 symbols need two bytes, and
        # either way a C-contiguous block holds the int64 draws of each
        # pair's generator in that pair's columns
        seeds = np.random.SeedSequence(9).spawn(2)
        blocks = list(_walk_symbols(seeds, 5000, 3, k))
        assert [b.shape for b in blocks] == [(4096, 6), (904, 6)]
        assert all(b.itemsize == itemsize and b.flags.c_contiguous for b in blocks)
        symbols = np.concatenate(blocks)
        draws = [np.random.default_rng(pair_seq).integers(0, k, size=(5000, 3))
                 for pair_seq in np.random.SeedSequence(9).spawn(2)]
        assert np.array_equal(symbols, np.concatenate(draws, axis=1))
        assert symbols.max() == k - 1

    def test_a_pair_reads_the_same_walks_alone_and_in_a_batch(self, g2, m2, t3):
        p, q = random_process(9, 1).machine, random_process(10, 2).machine
        z = zero_process(["0", "1"]).machine

        def seeds():
            return np.random.SeedSequence(6).spawn(3)

        pairs, starts = [(p, q), (q, q), (p, z)], [(3, 1), (2, 5), (0, 0)]
        batch = _pair_state_walks(pairs, starts, 300, 4, seeds())
        for i in range(3):
            assert _pair_state_walks([pairs[i]], [starts[i]], 300, 4, [seeds()[i]]).tobytes() == batch[i].tobytes()
        pairs = [(t3, t3), (g2, m2), (m2, t3)]
        starts = [(np.array([0.1, 0.6, 0.3]), np.array([0.2, 0.2, 0.6])),
                  (np.array([0.3, 0.7]), np.array([0.5, 0.5])),
                  (np.array([0.9, 0.1]), np.array([0.5, 0.3, 0.2]))]
        batch = _batched_pair_walks(pairs, starts, 300, 4, seeds())
        for i in range(3):
            assert _batched_pair_walks([pairs[i]], [starts[i]], 300, 4, [seeds()[i]]).tobytes() == batch[i].tobytes()

    @pytest.mark.parametrize("block_steps", [7, 4096])
    def test_walks_do_not_depend_on_the_symbol_block_size(self, monkeypatch, g2, t3, block_steps):
        # 4,100 steps: 586 blocks of 7, or one of 4,096 and one of 4
        import procgeom.process as process

        monkeypatch.setattr(process, "_WALK_BLOCK_STEPS", block_steps)
        p, q = random_process(9, 1).machine, random_process(10, 2).machine
        pairs, starts = [(p, q), (q, q)], [(3, 1), (2, 5)]
        seeds = np.random.SeedSequence(8).spawn(2)
        symbols = np.concatenate(list(_walk_symbols(seeds, 4100, 2, 2)))
        draws = [np.random.default_rng(pair_seq).integers(0, 2, size=(4100, 2)) for pair_seq in seeds]
        assert np.array_equal(symbols, np.concatenate(draws, axis=1))
        walks = _pair_state_walks(pairs, starts, 4100, 2, seeds)
        assert walks.tobytes() == scalar_pair_walks(pairs, starts, 4100, 2, 8).tobytes()
        beliefs = [(np.array([0.3, 0.7]), np.array([0.5, 0.3, 0.2]))]
        monkeypatch.setattr(process, "_WALK_BLOCK_STEPS", 4096)
        whole = _batched_pair_walks([(g2, t3)], beliefs, 4100, 2, seeds[:1])
        monkeypatch.setattr(process, "_WALK_BLOCK_STEPS", block_steps)
        assert _batched_pair_walks([(g2, t3)], beliefs, 4100, 2, seeds[:1]).tobytes() == whole.tobytes()

    def test_an_angle_builds_one_generator_per_pair(self, G, monkeypatch):
        # <G, T> and <T, T> walk beliefs, <G, G> pair states; two blocks of symbols
        built = []
        make = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        est = angle_mc_estimate(G, as_process(make_t3(), "T"), walk_length=5000, repeats=20, seed=1)
        assert len(built) == 3 and math.isfinite(est.cos)

    def test_estimates_cover_the_exact_values(self):
        # 24 angles at 2,000 x 20 give 72 inner products.  The operands are,
        # per size, the first 16 machines of one sink and more than one
        # state that have a reset word, paired in order: the walks of a pair
        # without one start from beliefs and carry a start bias that the
        # exact value does not (ROADMAP item 4).  For unbiased estimates
        # over 20 walks |t_19| > 3 has probability 0.0074, so 0.53 of 72 are
        # expected beyond 3 standard errors; 4 or more has probability 0.002.
        z = []
        for n in (8, 24, 56):
            machines = []
            for s in itertools.count(1):
                try:
                    p = random_process(n, s)
                except NotErgodic:
                    continue
                if p.machine.n_states > 1 and reset_word(p.machine) is not None:
                    machines.append(p)
                if len(machines) == 16:
                    break
            for i, (p, q) in enumerate(zip(machines[::2], machines[1::2])):
                est = angle_mc_estimate(p, q, walk_length=2000, repeats=20, seed=i + 1)
                for e, (a, b) in zip((est.inner, est.norm_sq_a, est.norm_sq_b), ((p, q), (p, p), (q, q))):
                    z.append(abs(e.value - inner_exact(a, b).value) / e.std_error)
        assert len(z) == 72
        assert sum(x > 3.0 for x in z) <= 3 and max(z) <= 5.0

    @pytest.mark.parametrize("entries, m", [(1, 1), (200, 2), (2000, 4)])
    def test_pair_state_kernel_matches_scalar_walks_at_short_blocks(self, monkeypatch, entries, m):
        # a smaller cap on the visit table gives shorter blocks
        import procgeom.pfsa as pfsa

        monkeypatch.setattr(pfsa, "_JUMP_TABLE_ENTRIES", entries)
        p, q = random_process(9, 1).machine, random_process(10, 2).machine
        assert block_length(p.n_states + q.n_states, 2) == m
        pairs, starts = [(p, q), (q, q)], [(3, 1), (2, 5)]
        for walk_length in (1, 3, 257, 600):
            walks = _pair_state_walks(pairs, starts, walk_length, 3,
                                      np.random.SeedSequence(5).spawn(len(pairs)))
            assert walks.tobytes() == scalar_pair_walks(pairs, starts, walk_length, 3, 5).tobytes()

    def test_pair_state_kernel_matches_scalar_walks_when_k_n_n_passes_2_31(self):
        # 2 + 2,900 stacked states on 256 symbols: a row offset a * k times n
        # passes 2**31 once the first component is one of the big machine's
        # last states, as at the start of the second pair
        k = 256
        rng = np.random.default_rng(11)

        def machine(n):
            rows = np.maximum(rng.dirichlet([2.0] * k, n), 1e-3)
            return Pfsa([str(s) for s in range(k)], [f"s{i}" for i in range(n)],
                        rng.integers(0, n, (n, k)), rows / rows.sum(axis=1, keepdims=True))

        small, big = machine(2), machine(2900)
        n = small.n_states + big.n_states
        pairs, starts = [(small, big), (big, small)], [(1, 2899), (2899, 0)]
        assert k * n * n >= 2**31 and (2 + 2899) * k * n >= 2**31
        walks = _pair_state_walks(pairs, starts, 600, 2, np.random.SeedSequence(4).spawn(2))
        assert walks.tobytes() == scalar_pair_walks(pairs, starts, 600, 2, 4).tobytes()

    def test_pair_state_walks_take_bounded_memory_at_44_states(self):
        # a benchmark-sized pair (44 and 43 states): the visit table of its
        # 87 stacked states (at most 2**16 entries), the sub-block buffers and
        # one block of symbols
        p, q = random_process(56, 5), random_process(56, 6)
        assert (p.machine.n_states, q.machine.n_states) == (44, 43)
        tracemalloc.start()
        try:
            est = angle_mc_estimate(p, q, walk_length=100_000, repeats=20, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert repr(est.cos) == "0.05761303951526455"

    def test_synchronizing_operands_need_no_epsilon_search(self, G, M, u3, monkeypatch):
        import procgeom.process as process
        import procgeom.sync as sync

        def no_search(*args, **kwargs):
            raise AssertionError("epsilon search ran")

        monkeypatch.setattr(sync, "_frontier_search", no_search)
        monkeypatch.setattr(sync, "joint_epsilon_synchronize", no_search)
        monkeypatch.setattr(process, "joint_epsilon_synchronize", no_search)
        U = as_process(u3, "U")
        for p, q in ((G, M), (G, G), (U, U), (U, scale_process(-0.5, U))):
            est = inner_mc(p, q, walk_length=2000, repeats=8, seed=4)
            assert abs(est.value - inner_exact(p, q).value) <= 4.0 * est.std_error
        for p, q in ((G, M), (U, scale_process(2.0, U))):
            est = angle_mc_estimate(p, q, walk_length=2000, repeats=8, seed=6)
            assert math.isfinite(est.cos) and est.cos_std_error > 0.0

    def test_reset_pairs_start_at_the_point_mass_after_the_word(self):
        from procgeom import belief_from_string, reset_word

        p, q = random_process(50, 1), random_process(50, 2)
        g, h = p.machine, q.machine
        word = reset_word(g, h)
        start = (int(np.argmax(belief_from_string(g, word))),
                 int(np.argmax(belief_from_string(h, word))))
        assert start != (0, 0)
        means = _pair_state_walks([(g, h)], [start], 500, 4, np.random.SeedSequence(3).spawn(1))
        est = inner_mc(p, q, walk_length=500, repeats=4, seed=3)
        assert est.value == float(means[0].mean())

    def test_pairs_without_a_reset_word_keep_the_belief_route(self, G):
        # t3 has no reset word, so these walk the belief recursion from the
        # epsilon-synchronized start; the values are those of the belief-only
        # implementation.  In the angle, <G, G> walks integer pair states from
        # state A, where the epsilon search's string "0" also left a point mass.
        T = as_process(make_t3(), "T")
        assert repr(inner_mc(T, T, walk_length=3000, repeats=6, seed=11)) == (
            "InnerEstimate(value=0.662296709422509, std_error=0.010594852662196477, "
            "mode='monte-carlo', walks=6, walk_length=3000)")
        assert repr(angle_mc_estimate(G, T, walk_length=3000, repeats=6, seed=13)) == (
            "AngleEstimate(angle=1.582538112500611, cos=-0.011741515901825064, "
            "cos_std_error=0.005112048936284434, inner=InnerEstimate(value=-0.01088347666658279, "
            "std_error=0.004738004875364233, mode='monte-carlo', walks=6, walk_length=3000), "
            "norm_sq_a=InnerEstimate(value=1.3228057226794427, std_error=0.004825244807504645, "
            "mode='monte-carlo', walks=6, walk_length=3000), "
            "norm_sq_b=InnerEstimate(value=0.6495175566791074, std_error=0.007595555687729501, "
            "mode='monte-carlo', walks=6, walk_length=3000))")

    def test_angle_builds_one_merge_table_per_operand(self, G, M, monkeypatch):
        import procgeom.sync as sync

        calls = []
        build = sync._merge_table

        def counting(g):
            calls.append(g)
            return build(g)

        monkeypatch.setattr(sync, "_merge_table", counting)
        angle_mc_estimate(G, M, walk_length=200, repeats=4, seed=1)
        assert calls == [G.machine, M.machine]

    def test_angle_runs_four_greedy_merges(self, monkeypatch):
        # the three calls share merge tables only: (p, q) runs p's greedy
        # word and continues it for q, and (p, p) and (q, q) each run one
        # merge, since a machine repeated within a call is processed once
        import procgeom.sync as sync

        p, q = random_process(24, 1), random_process(24, 2)
        merged = []
        greedy = sync._greedy_merge

        def counting(g, *args):
            merged.append(g)
            return greedy(g, *args)

        monkeypatch.setattr(sync, "_greedy_merge", counting)
        est = angle_mc_estimate(p, q, walk_length=200, repeats=4, seed=1)
        assert merged == [p.machine, q.machine, p.machine, q.machine]
        # the continuation is needed: p's own word leaves q in several states
        image = np.arange(q.machine.n_states)
        for s in q.machine.to_indices(sync.reset_word(p.machine)):
            image = q.machine._delta[image, s]
        assert np.unique(image).size > 1
        assert math.isfinite(est.cos)

    def test_walk_symbols_take_memory_independent_of_walk_length(self, G):
        # the (walk_length, 3 * repeats) symbol table alone would be 48 MB here
        neg = scale_process(-1.0, G)
        tracemalloc.start()
        try:
            est = angle_mc_estimate(G, neg, walk_length=100_000, repeats=20, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert repr(est.cos) == "-0.9999278461882957"

    def test_cerny_self_angle_at_cli_defaults(self):
        # Cerny machine, n = 8: symbol 0 rotates, symbol 1 merges state 0
        # into state 1; its shortest reset word has (n - 1)**2 = 49 symbols,
        # and with these rows a joint epsilon search to 1 - 1e-6 over its
        # beliefs runs for more than 10 s
        n = 8
        delta = [[(i + 1) % n, i] for i in range(n)]
        delta[0][1] = 1
        rng = np.random.default_rng(np.random.SeedSequence([1, 4, 0, 1]))
        rows = np.maximum(rng.dirichlet([2.0, 2.0], n), 1e-3)
        P = as_process(Pfsa(["0", "1"], [f"s{i}" for i in range(n)], delta,
                            rows / rows.sum(axis=1, keepdims=True)), "cerny")
        assert P.machine.n_states == n
        start = time.perf_counter()
        est = angle_mc_estimate(P, P, walk_length=100_000, repeats=20, seed=42)
        assert time.perf_counter() - start < 1.0
        assert abs(est.cos - 1.0) <= 3.0 * est.cos_std_error


class TestNormAndAngle:
    def test_norm_scales_linearly(self, G):
        base = process_norm(G)
        for alpha in (2.0, 4.0, 8.0):
            assert process_norm(scale_process(alpha, G)) == pytest.approx(alpha * base, rel=1e-12)

    def test_norm_growth_is_monotone(self, G):
        norms = [process_norm(scale_process(a, G)) for a in (1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_opposite_processes_at_pi(self, G):
        assert angle(G, scale_process(-1.0, G)) == pytest.approx(math.pi, abs=1e-9)

    def test_scaled_copy_at_zero(self, G):
        assert angle(G, scale_process(0.1, G)) == pytest.approx(0.0, abs=1e-9)

    def test_zero_norm_rejected(self, G):
        with pytest.raises(ZeroNorm):
            angle(G, zero_process(G.alphabet))

    def test_self_angle_is_exactly_zero(self, G, M):
        # acos of the rounded cosine x / (sqrt(x) * sqrt(x)) was 1.5e-8 on M,
        # 2.1e-8 on 0.5 G, and nonzero on 58 of these 200 random normal
        # forms; the atan2 form of the pair record gives u == v, so 0
        processes = [G, M, scale_process(0.5, G)]
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            # symbol 0 cycles through every state, so each machine is ergodic
            delta = np.column_stack([(np.arange(n) + 1) % n, rng.integers(0, n, n)])
            rows = np.maximum(rng.dirichlet([2.0, 2.0], n), 1e-3)
            processes.append(as_process(Pfsa(["0", "1"], [f"s{i}" for i in range(n)], delta,
                                             rows / rows.sum(axis=1, keepdims=True))))
        assert [angle(p, p) for p in processes] == [0.0] * len(processes)

    def test_positive_multiple_at_angle_zero(self):
        # acos of the rounded cosine gave 2.1e-8 for 0.5 g2 and 1.5e-8 for
        # every multiple of m2
        angles = [angle(p, scale_process(a, p))
                  for p in (as_process(make()) for make in (make_g2, make_m2, make_u3))
                  for a in (0.1, 0.5, 2.0)]
        assert max(map(abs, angles)) <= 1e-12

    @pytest.mark.parametrize("alpha,beta", [(0.1, 0.5), (2.0, 0.1), (0.5, 2.0)])
    def test_positive_scaling_leaves_angle_invariant(self, G, M, alpha, beta):
        base = angle(G, M)
        scaled = angle(scale_process(alpha, G), scale_process(beta, M))
        assert abs(scaled - base) < 1e-9

    def test_mc_angle_consistent_with_exact(self, G, M):
        est = angle_mc_estimate(G, M, walk_length=4000, repeats=8, seed=17)
        exact_cos = inner_exact(G, M).value / (process_norm(G) * process_norm(M))
        assert abs(est.cos - exact_cos) <= 4.0 * est.cos_std_error
        assert est.angle == pytest.approx(math.acos(max(-1.0, min(1.0, est.cos))), abs=1e-15)

    def test_mc_angle_zero_norm_rejected(self, G):
        with pytest.raises(ZeroNorm):
            angle_mc_estimate(G, zero_process(G.alphabet), walk_length=200, repeats=3, seed=0)


class TestOneEntryPerRoute:
    def test_exact_angle_and_norm_take_no_monte_carlo_options(self, G, M):
        with pytest.raises(TypeError):
            angle(G, M, walk_length=10)
        with pytest.raises(TypeError):
            process_norm(G, mode="mc")

    def test_angle_makes_three_exact_inner_products(self, G, M, monkeypatch):
        # two norms and one cross pair: the call pattern the benchmark's
        # tracer counts
        import procgeom.process as process

        calls = []
        original = process.inner_exact

        def counted(p, q):
            calls.append((p.label, q.label))
            return original(p, q)

        monkeypatch.setattr(process, "inner_exact", counted)
        angle(G, M)
        assert sorted(calls) == [("G", "G"), ("G", "M"), ("M", "M")]

    def test_a_handle_keeps_its_norm_record(self, G, M, monkeypatch):
        # a second angle on the same handles solves the cross chain only
        import procgeom.process as process

        first = angle(G, M)
        solved = []
        solve = process._stationary

        def counted(block, weights):
            solved.append(block.shape[0])
            return solve(block, weights)

        monkeypatch.setattr(process, "_stationary", counted)
        assert angle(G, M) == first
        assert len(solved) == 1
        assert inner_exact(G, G) is inner_exact(G, G)
        assert angle(G, G) == 0.0 and len(solved) == 1
        for part in inner_exact(G, G).chain + inner_exact(G, M).chain:
            assert not part.flags.writeable


@pytest.mark.parametrize("make, exact", [(make_t3, 0.3442503578052124),
                                         (make_feed3, 0.08136496522970169)], ids=["t3", "feed3"])
def test_non_synchronizing_exact_values_match_their_belief_walks(make, exact):
    # no word merges the states of t3 or feed3, so the pair graph of -p and
    # p has several sinks and the joint synchronization's start picks one.
    # Putting every pair of equal delta on the diagonal would give -|p|^2
    # instead (-0.696 and -0.102), and starting at the two stationary argmax
    # states picks a different sink for t3; the belief walks pin the value.
    p = as_process(make(), "p")
    neg = scale_process(-1.0, p)
    assert inner_exact(neg, p).value == pytest.approx(exact, abs=1e-12)
    walked = inner_mc(neg, p, walk_length=20_000, repeats=8, seed=3)
    assert abs(walked.value - exact) < 0.01


@pytest.mark.parametrize("pair", [("t3", "g2"), ("g2", "t3"), ("feed3", "g2")])
def test_one_sink_of_non_synchronizing_operands_needs_no_joint_search(request, monkeypatch, pair):
    # t3 and feed3 permute their closed states, so no word synchronizes
    # them, yet paired with g2 the whole pair chain is one sink component:
    # the single-sink rule picks it and no joint search runs
    import procgeom.process as process
    from procgeom.sync import _pair_delta

    def machine(name):
        return make_feed3() if name == "feed3" else request.getfixturevalue(name)

    p, q = (as_process(machine(name), name) for name in pair)

    def no_search(*args, **kwargs):
        raise AssertionError("joint search ran")

    monkeypatch.setattr(process, "joint_epsilon_synchronize", no_search)
    value = inner_exact(p, q).value
    total = sum_processes(p, q)
    assert validate(total.machine).valid

    g, h = p.machine, q.machine
    delta = _pair_delta(g, h)
    m = delta.shape[0]
    chain = np.zeros((m, m))
    np.add.at(chain, (np.arange(m)[:, None], delta), 1.0 / g.n_symbols)
    w, v = np.linalg.eig(chain.T)
    rho = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    rho /= rho.sum()
    assert rho.min() > 0.0  # the whole pair chain is the sink
    pairwise = np.diff(np.log(g._morph), axis=1) @ np.diff(np.log(h._morph), axis=1).T
    assert abs(value - float(rho @ pairwise.ravel())) <= 1e-12


def test_start_reaching_two_pair_sinks_is_not_ergodic(monkeypatch):
    # the pair structure of this shared transition map has two sink
    # components, and a start pinned at (s0, s1) reaches both of them
    import procgeom.process as process
    from procgeom import MultipleRecurrentClasses, NotErgodic, Pfsa, SyncResult

    delta = [[1, 2], [3, 1], [0, 2], [2, 1]]
    states = ["s0", "s1", "s2", "s3"]
    g = as_process(Pfsa(["0", "1"], states, delta,
                        [[0.6, 0.4], [0.3, 0.7], [0.55, 0.45], [0.8, 0.2]]), "g")
    h = as_process(Pfsa(["0", "1"], states, delta,
                        [[0.35, 0.65], [0.7, 0.3], [0.2, 0.8], [0.45, 0.55]]), "h")
    assert g.machine.states == h.machine.states == tuple(states)

    def pinned(a, b, eps, max_depth=None):
        return SyncResult((), 1.0, "s0", 0), SyncResult((), 1.0, "s1", 0), ()

    monkeypatch.setattr(process, "joint_epsilon_synchronize", pinned)
    for op in (inner_exact, sum_processes):
        with pytest.raises(NotErgodic) as err:
            op(g, h)
        assert isinstance(err.value, MultipleRecurrentClasses)


# (n, seed): a random pair of the random-machine recipe, operands at seed and seed + 1
RANDOM_PAIRS = [(n, seed) for n in (12, 24, 36, 48) for seed in (4, 6, 8, 10)]


def sink_rule_pairs(request):
    named = [(request.getfixturevalue("g2"), request.getfixturevalue("m2")),
             (request.getfixturevalue("t3"), request.getfixturevalue("g2")),
             (make_feed3(), request.getfixturevalue("g2"))]
    named = [(as_process(a, "a").machine, as_process(b, "b").machine) for a, b in named]
    # scaled copies share one merging transition map, as the noise
    # experiment's off-diagonal pairs do: pair state 0 lies on the diagonal,
    # which is the sink
    scaled = [tuple(scale_process(a, p).machine for a in (1.0, -0.1))
              for p in (as_process(request.getfixturevalue("g2"), "g"), random_process(24, 6))]
    randoms = [(random_process(n, seed).machine, random_process(n, seed + 1).machine)
               for n, seed in RANDOM_PAIRS]
    return named + scaled + randoms


def forbid_component_search(monkeypatch):
    import procgeom.pfsa as pfsa
    import procgeom.process as process

    def no_search(*args, **kwargs):
        raise AssertionError("component search ran")

    monkeypatch.setattr(pfsa, "_finish_order", no_search)
    monkeypatch.setattr(process, "joint_epsilon_synchronize", no_search)


class TestCertifiedSinkRule:
    def test_keep_is_the_single_sink_component(self, request, monkeypatch):
        from procgeom.sync import _pair_delta

        pairs = sink_rule_pairs(request)
        expected = []
        for g, h in pairs:
            sinks = sink_components_loop(_pair_delta(g, h))
            assert len(sinks) == 1
            expected.append(sinks[0])
        forbid_component_search(monkeypatch)
        assert [sink_keep(g, h) for g, h in pairs] == expected

    def test_failed_check_falls_back_to_the_same_keep(self, request, monkeypatch):
        import procgeom.pfsa as pfsa

        pairs = sink_rule_pairs(request)
        certified = [sink_keep(g, h) for g, h in pairs]
        monkeypatch.setattr(pfsa, "_all_reach", lambda delta, target: False)
        assert [sink_keep(g, h) for g, h in pairs] == certified

    @pytest.mark.parametrize("pair", [("g2", "m2"), (12, 4), (24, 6), (36, 8)])
    def test_synchronizing_pairs_need_no_component_search(self, request, monkeypatch, pair):
        import procgeom.pfsa as pfsa
        from procgeom.sync import reset_word

        if pair[0] == "g2":
            p, q = (as_process(request.getfixturevalue(name), name) for name in pair)
        else:
            n, seed = pair
            p, q = random_process(n, seed), random_process(n, seed + 1)
        assert reset_word(p.machine, q.machine) is not None

        def results():
            return inner_exact(p, q).value, angle(p, q), format_pfsa(sum_processes(p, q).machine)

        with monkeypatch.context() as m:
            m.setattr(pfsa, "_all_reach", lambda delta, target: False)
            fallback = results()
        forbid_component_search(monkeypatch)
        assert results() == fallback

    def test_synchronizing_pair_with_a_transient_candidate(self, count_tarjan):
        # breadth-first order from pair state 0 is 0 3 5 1 4 2, so the
        # candidate is 2, but the only sink is {1, 3, 4}: the check fails on
        # a synchronizing pair, and the fallback search finds the sink
        from procgeom.pfsa import _reachable
        from procgeom.sync import _pair_delta, reset_word

        p = as_process(Pfsa(["0", "1"], ["a", "b", "c"], [[1, 2], [0, 2], [1, 1]],
                            [[0.3, 0.7], [0.6, 0.4], [0.8, 0.2]]), "p")
        q = as_process(Pfsa(["0", "1"], ["a", "b"], [[1, 1], [1, 0]],
                            [[0.45, 0.55], [0.25, 0.75]]), "q")
        g, h = p.machine, q.machine
        assert (g.n_states, h.n_states) == (3, 2)
        delta = _pair_delta(g, h)
        assert _reachable(delta, 0) == [0, 3, 5, 1, 4, 2]
        assert reset_word(g, h) is not None
        ends = np.arange(6)
        for s in (1, 0, 1):
            ends = delta[ends, s]
        assert set(ends.tolist()) == {4}
        expected = sink_components_loop(delta)
        assert expected == [[1, 3, 4]]

        assert sink_keep(g, h) == expected[0]
        assert count_tarjan == [6]

        value = inner_exact(p, q).value
        chain = np.zeros((6, 6))
        np.add.at(chain, (np.arange(6)[:, None], delta), 0.5)
        w, v = np.linalg.eig(chain.T)
        rho = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        rho /= rho.sum()
        pairwise = np.diff(np.log(g._morph), axis=1) @ np.diff(np.log(h._morph), axis=1).T
        assert abs(value - float(rho @ pairwise.ravel())) <= 1e-12


def block_length(n, k):
    # steps per block of the pair-state walk over n stacked states: the
    # longest block whose visit table, n * k**m rows of m states, fits the
    # cap, and at least one
    import procgeom.pfsa as pfsa

    m = 1
    while n * k ** (m + 1) * (m + 1) <= pfsa._JUMP_TABLE_ENTRIES:
        m += 1
    return m


def scalar_pair_walks(pairs, starts, walk_length, repeats, seed):
    # one walk at a time in Python ints and floats: the two states move
    # componentwise and each step's term joins a running sum in time order;
    # each pair draws a (walk_length, repeats) table from one generator,
    # and walk r reads its column r
    pair_seqs = np.random.SeedSequence(seed).spawn(len(pairs))
    out = np.empty((len(pairs), repeats))
    for pi, ((g, h), (i0, j0)) in enumerate(zip(pairs, starts)):
        lg, lh = log_ratios(g._morph), log_ratios(h._morph)
        term = np.einsum("rs,rs->r", np.repeat(lg, h.n_states, axis=0),
                         np.tile(lh, (g.n_states, 1))).tolist()
        dg, dh = g._delta.tolist(), h._delta.tolist()
        draws = np.random.default_rng(pair_seqs[pi]).integers(0, g.n_symbols, size=(walk_length, repeats))
        for r, symbols in enumerate(draws.T.tolist()):
            i, j, acc = i0, j0, 0.0
            for s in symbols:
                acc += term[i * h.n_states + j]
                i, j = dg[i][s], dh[j][s]
            out[pi, r] = acc / walk_length
    return out


def random_process(n, seed, k=2):
    # the random test machines: delta uniform, rows dirichlet([2] * k) floored at 1e-3
    rng = np.random.default_rng(seed)
    delta = rng.integers(0, n, (n, k))
    rows = np.maximum(rng.dirichlet([2.0] * k, n), 1e-3)
    return as_process(Pfsa([str(s) for s in range(k)], [f"s{i}" for i in range(n)], delta,
                           rows / rows.sum(axis=1, keepdims=True)), f"r{n}-{seed}")


def slow_cycle_process(n=200):
    # symbol 0 steps round a cycle, symbol 1 steps back and stops at 0, so
    # the uniformly driven diagonal chain mixes in about n**2 steps
    delta = [[(i + 1) % n, max(i - 1, 0)] for i in range(n)]
    r = np.linspace(0.2, 0.8, n)
    return as_process(Pfsa(["0", "1"], [f"s{i:03d}" for i in range(n)], delta,
                           np.column_stack([r, 1.0 - r])), "slow")


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLargePairChains:
    @pytest.fixture
    def count_dense(self, monkeypatch):
        import procgeom.pfsa as pfsa

        calls = []
        dense = pfsa._dense_stationary

        def counted(sub):
            calls.append(sub.shape[0])
            return dense(sub)

        monkeypatch.setattr(pfsa, "_dense_stationary", counted)
        return calls

    def test_cross_pair_matches_a_dense_solve_of_its_sink(self, count_dense):
        import procgeom.process as process

        p, q = random_process(50, 1), random_process(50, 2)
        g, h = p.machine, q.machine
        assert (g.n_states, h.n_states) == (41, 40)
        value, peak = traced_peak(inner_exact, p, q)
        assert count_dense == []
        # one dense 1,256-state block alone takes 12.6 MB
        assert peak < 3e6

        block, i, j = process._pair_sink(g, h)
        keep = i * h.n_states + j
        m = len(keep)
        assert m == 1256
        chain = np.zeros((m, m))
        np.add.at(chain, (np.arange(m)[:, None], block), 0.5)
        a = chain.T - np.eye(m)
        a[-1] = 1.0
        rhs = np.zeros(m)
        rhs[-1] = 1.0
        rho = np.linalg.solve(a, rhs)
        pairwise = np.diff(np.log(g._morph), axis=1) @ np.diff(np.log(h._morph), axis=1).T
        assert value.value == pytest.approx(float(rho @ pairwise.ravel()[keep]), rel=1e-12)

    def test_cross_pair_of_4563_sink_states_stays_small(self, count_dense):
        p, q = random_process(100, 1), random_process(100, 2)
        assert (p.machine.n_states, q.machine.n_states) == (83, 76)
        _, peak = traced_peak(inner_exact, p, q)
        assert count_dense == []
        # one dense 4,563-state block alone takes 166 MB
        assert peak < 10e6

    def test_certifying_after_a_checkpoint_keeps_the_iterate(self, count_dense):
        # this 265-state sink certified at step 283 under the step
        # x <- (x + xP) / 2, after the residual's first projection to the
        # step cap at step 250; it now certifies before step 250 (the next
        # test keeps a sink that certifies after it)
        import procgeom.process as process

        p, q = random_process(24, 1), random_process(24, 2)
        assert len(process._pair_sink(p.machine, q.machine)[1]) == 265
        inner_exact(p, q)
        assert count_dense == []

    def test_certifying_after_the_first_projection_keeps_the_iterate(self, monkeypatch, count_dense):
        import procgeom.pfsa as pfsa
        import procgeom.process as process

        p, q = random_process(24, 6), random_process(24, 11)
        block, i, j = process._pair_sink(p.machine, q.machine)
        keep = i * q.machine.n_states + j
        assert len(keep) == 266
        value = inner_exact(p, q).value
        assert count_dense == []
        steps = []
        bincount = np.bincount

        def counted(*args, **kwargs):
            steps.append(1)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        assert pfsa._power_iterate(block, np.full(block.shape, 0.5)) is not None
        # the residual was projected at step 250 and the iteration went on
        assert len(steps) > 251
        monkeypatch.undo()
        rho = pfsa._dense_stationary(pfsa._chain_matrix(block, np.full(block.shape, 0.5)))
        pairwise = np.diff(np.log(p.machine._morph), axis=1) @ np.diff(np.log(q.machine._morph), axis=1).T
        assert value == pytest.approx(float(rho @ pairwise.ravel()[keep]), rel=1e-12)

    @pytest.mark.parametrize("k, n", [(2, 16), (2, 24), (3, 12), (3, 14)])
    def test_iterate_meets_its_stopping_rule_and_a_dense_solve(self, k, n):
        import procgeom.pfsa as pfsa
        from procgeom.process import _sink_components
        from procgeom.sync import _pair_delta

        def machine(seed):
            # raw random machines; a pair graph may have several sinks
            rng = np.random.default_rng(seed)
            delta = rng.integers(0, n, (n, k))
            rows = np.maximum(rng.dirichlet([2.0] * k, n), 1e-3)
            return Pfsa([str(s) for s in range(k)], [f"s{i}" for i in range(n)], delta,
                        rows / rows.sum(axis=1, keepdims=True))

        blocks = 0
        for seed in range(1, 9):
            g, h = machine(seed), machine(seed + 100)
            delta = _pair_delta(g, h)
            for keep in _sink_components(delta):
                m = len(keep)
                if m <= 128:
                    continue
                block = pfsa._renumber(delta, keep)
                # uniform drive, and the pair chain driven by g's emissions
                for w in (np.full(block.shape, 1.0 / k), g._morph[np.asarray(keep) // n]):
                    x = pfsa._power_iterate(block, w)
                    xp = np.bincount(block.ravel(), (x[:, None] * w).ravel(), minlength=m)
                    assert np.abs(xp - x).max() <= 4 * np.finfo(float).eps * x.max()
                    assert x.min() > 0.0 and x.sum() == pytest.approx(1.0, abs=1e-15)
                    a = pfsa._chain_matrix(block, w).T - np.eye(m)
                    a[-1] = 1.0
                    ref = np.linalg.solve(a, np.eye(m)[-1])
                    assert np.abs(x - ref).max() <= 1e-12 * ref.max()
                    blocks += 1
        assert blocks >= 4

    def test_periodic_block_is_certified(self):
        # every step crosses between the even and the odd states, so xP alone
        # would oscillate; the lazy step damps that period
        import procgeom.pfsa as pfsa

        rng = np.random.default_rng(5)
        m = 200
        block = (np.arange(m)[:, None] + 1 + 2 * rng.integers(0, m // 2, (m, 2))) % m
        w = rng.dirichlet([2.0, 2.0], m)
        x = pfsa._power_iterate(block, w)
        a = pfsa._chain_matrix(block, w).T - np.eye(m)
        a[-1] = 1.0
        ref = np.linalg.solve(a, np.eye(m)[-1])
        assert np.abs(x - ref).max() <= 1e-12 * ref.max()

    def test_uncertified_iteration_falls_back_to_the_dense_solve(self, count_dense):
        p = slow_cycle_process()
        assert p.machine.n_states == 200
        # the dense solve's value, bit for bit
        assert repr(inner_exact(p, p).value) == "0.5737703913841145"
        assert count_dense == [200]

    def test_iteration_at_its_step_cap_falls_back_to_the_dense_solve(self, monkeypatch, count_dense):
        # 20 steps certify no recipe sink of 266 states, and no projection
        # runs before step 250, so the loop ends and the iteration gives up
        import procgeom.pfsa as pfsa
        import procgeom.process as process

        monkeypatch.setattr(pfsa, "_POWER_STEP_CAP", 20)
        p, q = random_process(24, 6), random_process(24, 11)
        block, _, _ = process._pair_sink(p.machine, q.machine)
        w = np.full(block.shape, 0.5)
        assert block.shape[0] == 266 > pfsa._POWER_MIN_STATES
        assert pfsa._power_iterate(block, w) is None
        dense = pfsa._dense_stationary(pfsa._chain_matrix(block, w))
        assert pfsa._stationary(block, 0.5).tobytes() == dense.tobytes()
        assert count_dense == [266, 266]

    @staticmethod
    def power_iterate_by_axpy(block, w):
        """Reference: the lazy step as a scatter of the edges weighted by a,
        then an axpy adding (1 - a) x, with the same tests and exits."""
        import procgeom.pfsa as pfsa

        m, k = block.shape
        targets, w = block.ravel(), w.ravel()
        a = pfsa._POWER_STEP_WEIGHT
        aw = a * w
        x = np.full(m, 1.0 / m)
        last = np.inf
        for step in range(0, pfsa._POWER_STEP_CAP, pfsa._POWER_TEST_STEPS):
            x /= x.sum()
            xp = np.bincount(targets, np.repeat(x, k) * w, minlength=m)
            residual = np.abs(xp - x).max()
            bound = pfsa._POWER_RESIDUAL_EPS * x.max()
            if residual <= bound and x.min() > 0.0:
                return x
            if step % pfsa._POWER_CHECK_STEPS == 0:
                windows_left = (pfsa._POWER_STEP_CAP - step) / pfsa._POWER_CHECK_STEPS
                if step and residual > 1e3 * bound and (
                        residual >= last
                        or windows_left * math.log(residual / last) > math.log(bound / residual)):
                    return None
                last = residual
            x = (1.0 - a) * x + a * xp
            for _ in range(pfsa._POWER_TEST_STEPS - 1):
                xp = np.bincount(targets, np.repeat(x, k) * aw, minlength=m)
                xp += (1.0 - a) * x
                x = xp
        return None

    def test_self_loop_scatter_equals_the_axpy_step_bit_for_bit(self):
        import procgeom.pfsa as pfsa
        import procgeom.process as process
        from procgeom.sync import _pair_delta

        cases = []
        for seeds in ((1, 2), (6, 11), (3, 4)):
            p, q = random_process(24, seeds[0]), random_process(24, seeds[1])
            block, i, j = process._pair_sink(p.machine, q.machine)
            keep = i * q.machine.n_states + j
            assert len(keep) > pfsa._POWER_MIN_STATES
            cases.append((block, np.full((len(keep), 2), 0.5)))
        cases.append((p.machine._delta, p.machine._morph))  # a machine's chain, weighted by its rows
        slow = slow_cycle_process().machine
        diagonal = [i * slow.n_states + i for i in range(slow.n_states)]
        cases.append((pfsa._renumber(_pair_delta(slow, slow), diagonal), np.full((200, 2), 0.5)))
        results = []
        for block, w in cases:
            x, ref = pfsa._power_iterate(block, w), self.power_iterate_by_axpy(block, w)
            assert (x is None) == (ref is None)
            assert x is None or np.array_equal(x, ref)
            results.append(x is not None)
        assert results == [True, True, True, True, False]  # the slow cycle gives up in both

    def test_slow_iteration_leaves_early(self, monkeypatch):
        # the slow cycle's residual falls like 1/t, so at the rate of its
        # last window it cannot reach the bound within the step cap
        import procgeom.pfsa as pfsa
        from procgeom.sync import _pair_delta

        g = slow_cycle_process().machine
        delta = _pair_delta(g, g)
        keep = [i * g.n_states + i for i in range(g.n_states)]
        block = pfsa._renumber(delta, keep)
        steps = []
        bincount = np.bincount

        def counted(*args, **kwargs):
            steps.append(1)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        assert pfsa._power_iterate(block, np.full(block.shape, 0.5)) is None
        assert 0 < len(steps) <= 2000


def reference_stationary(delta, weights, keep):
    """The stationary vector as solved over a whole transition table: the
    sink ``keep`` renumbered, its block solved by the certified power
    iteration above 128 states or densely, and scattered to full length."""
    import procgeom.pfsa as pfsa

    block = pfsa._renumber(delta, keep)
    w = np.broadcast_to(weights, delta.shape)[keep]
    sol = pfsa._power_iterate(block, w) if len(keep) > pfsa._POWER_MIN_STATES else None
    if sol is None:
        sol = pfsa._dense_stationary(pfsa._chain_matrix(block, w))
    out = np.zeros(delta.shape[0])
    out[keep] = sol
    return out


def reference_inner(p, q):
    """``<p, q>`` from the whole pair table, its sink renumbered and solved,
    then reduced over the sink's own pair states ``(i, j)`` as
    ``rho . (lg[i] . lh[j])``, the reduction ``inner_exact`` makes."""
    import procgeom.process as process
    from procgeom.sync import _pair_delta

    g, h = p.machine, q.machine
    _, i, j = process._pair_sink(g, h)
    keep = i * h.n_states + j
    rho = reference_stationary(_pair_delta(g, h), 1.0 / g.n_symbols, keep)[keep]
    return float(rho @ (log_ratios(g._morph)[i] * log_ratios(h._morph)[j]).sum(axis=1))


class TestSolvedOnTheSinkOwnTable:
    @pytest.fixture
    def processes(self):
        return [as_process(make(), make.__name__[5:])
                for make in (make_g2, make_m2, make_t3, make_u3)] + [random_process(12, 2)]

    def test_self_pairs_build_no_pair_table(self, processes, monkeypatch):
        import procgeom.process as process
        import procgeom.sync as sync

        def no_table(g, h):
            raise AssertionError("a pair table was built")

        monkeypatch.setattr(process, "_pair_delta", no_table)
        monkeypatch.setattr(sync, "_pair_delta", no_table)
        for p in processes:
            assert inner_exact(p, p).value > 0.0
            assert process_norm(p) > 0.0
            assert validate(sum_processes(p, p).machine).valid

    def test_self_pair_table_is_the_machines_own(self, processes):
        import procgeom.pfsa as pfsa
        import procgeom.process as process
        from procgeom.sync import _pair_delta

        for p in processes + [random_process(200, 1)]:
            g = p.machine
            block, i, j = process._pair_sink(g, g)
            keep = i * g.n_states + j
            assert block is g._delta
            assert np.array_equal(pfsa._renumber(_pair_delta(g, g), keep), block)

    def test_stationary_vectors_equal_the_whole_table_solve_bit_for_bit(self, processes):
        from procgeom import stationary_distribution
        from procgeom.pfsa import sink_sccs

        raw = [make() for make in (make_g2, make_m2, make_t3, make_u3, make_feed3)]
        assert stationary_distribution(raw[-1])[2] == 0.0  # feed3's transient state c
        for g in raw + [p.machine for p in processes] + [random_process(200, 1).machine]:
            (sink,) = sink_sccs(g)
            ref = reference_stationary(g._delta, g._morph, sink)
            assert stationary_distribution(g).tobytes() == ref.tobytes()

    def test_inner_products_equal_the_whole_table_solve_bit_for_bit(self, processes):
        import procgeom.process as process

        t3 = processes[2]
        renamed = as_process(Pfsa(t3.alphabet, ["u", "v", "w"], t3.machine._delta,
                                  t3.machine._morph), "S")
        binary = [p for p in processes if p.machine.n_symbols == 2]
        pairs = [(p, q) for p in binary for q in binary]
        pairs += [(processes[3], processes[3]), (t3, renamed), (renamed, t3)]
        large = [(random_process(24, a), random_process(24, b)) for a, b in ((1, 2), (6, 11), (3, 4))]
        assert all(len(process._pair_sink(p.machine, q.machine)[1]) > 128 for p, q in large)
        big = random_process(200, 1)
        for p, q in pairs + large + [(big, big)]:
            assert repr(inner_exact(p, q).value) == repr(reference_inner(p, q))

    def test_record_reproduces_the_value(self, processes):
        # the exact estimate carries (rho, lg, lh) over the sink's own pair
        # states, and reducing it gives the value bit for bit; the record
        # is left out of repr and ==, and Monte Carlo estimates carry none
        import procgeom.process as process

        binary = [p for p in processes if p.machine.n_symbols == 2]
        pairs = [(p, q) for p in binary for q in binary] + [(processes[3], processes[3])]
        pairs += [(random_process(24, 1), random_process(24, 2))]
        for p, q in pairs:
            g, h = p.machine, q.machine
            est = inner_exact(p, q)
            rho, lg, lh = est.chain
            block, i, j = process._pair_sink(g, h)
            assert rho.shape == (block.shape[0],) and rho.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.array_equal(lg, log_ratios(g._morph)[i])
            assert np.array_equal(lh, log_ratios(h._morph)[j])
            assert float(rho @ (lg * lh).sum(axis=1)) == est.value
            bare = process.InnerEstimate(est.value, 0.0, "exact", 0, 0)
            assert est == bare and repr(est) == repr(bare)
        assert inner_mc(processes[0], processes[1], walk_length=50, repeats=2, seed=3).chain is None

    def test_self_pair_record_is_the_diagonal(self, processes, monkeypatch):
        # a self pair's record is the machine's own chain: both rows of
        # sink state t are the machine's row t, and rho is the stationary
        # vector of its own uniformly driven table; no pair table is built
        import procgeom.pfsa as pfsa
        import procgeom.process as process
        import procgeom.sync as sync

        def no_table(g, h):
            raise AssertionError("a pair table was built")

        monkeypatch.setattr(process, "_pair_delta", no_table)
        monkeypatch.setattr(sync, "_pair_delta", no_table)
        for p in processes + [random_process(200, 1)]:
            g = p.machine
            block, i, j = process._pair_sink(g, g)
            assert np.array_equal(i, np.arange(g.n_states)) and np.array_equal(j, i)
            rho, lg, lh = inner_exact(p, p).chain
            assert np.array_equal(lg, log_ratios(g._morph)) and np.array_equal(lh, lg)
            assert np.array_equal(rho, pfsa._stationary(g._delta, 1.0 / g.n_symbols))
