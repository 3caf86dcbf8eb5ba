import itertools
import math
import tracemalloc

import numpy as np
import pytest

from procgeom import (
    AlphabetMismatch,
    Pfsa,
    StreamTooShort,
    SymbolStream,
    ZeroNorm,
    as_process,
    belief_from_string,
    estimate_derivatives,
    format_stream,
    inner_exact,
    pdist,
    read_stream,
    scale_process,
    stream_angle,
    stream_from_model,
    stream_inner,
    stationary_distribution,
    stream_stats,
    symbolic_derivative,
    table_angle,
    table_inner,
    table_norm,
    write_stream,
)
from procgeom.pfsa import _sampler
from procgeom.streams import _count_stats, _estimate_pieces
from conftest import make_g2, make_single, make_t3


class TestSymbolStream:
    def test_from_symbols_infers_sorted_alphabet(self):
        s = SymbolStream.from_symbols(["b", "a", "b"])
        assert s.alphabet == ("a", "b")
        np.testing.assert_array_equal(s.indices, [1, 0, 1])

    def test_explicit_alphabet_order_wins(self):
        s = SymbolStream.from_symbols(["b", "a"], alphabet=["b", "a"])
        np.testing.assert_array_equal(s.indices, [0, 1])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            SymbolStream.from_symbols(["a", "x"], alphabet=["a", "b"])

    def test_round_trip_compact(self, tmp_path, g2):
        s = stream_from_model(g2, 500, 3)
        path = tmp_path / "s.txt"
        write_stream(s, path)
        assert " " not in path.read_text().strip()
        again = read_stream(path, alphabet=g2.alphabet)
        np.testing.assert_array_equal(s.indices, again.indices)

    def test_round_trip_spaced(self, tmp_path, u3):
        wide = SymbolStream.from_indices([0, 1, 2, 0], alphabet=["lo", "mid", "hi"])
        path = tmp_path / "s.txt"
        write_stream(wide, path)
        again = read_stream(path, alphabet=wide.alphabet)
        np.testing.assert_array_equal(wide.indices, again.indices)

    def test_integer_indices_keep_their_values(self):
        # integer arrays and lists, integral floats and the empty list
        for indices in (np.array([0, 1, 1], dtype=np.uint8), [0, 1, 1], np.array([0.0, 1.0, 1.0]), [0, 1.0, 1]):
            s = SymbolStream.from_indices(indices, ("0", "1"))
            assert s.indices.dtype == np.int64 and s.indices.tolist() == [0, 1, 1]
        assert SymbolStream.from_indices([], ("0", "1")).indices.dtype == np.int64

    def test_round_trip_compact_non_ascii(self, tmp_path):
        # one-character symbols outside ASCII, one of them outside the BMP
        alphabet = ("α", "β", "😀")
        rng = np.random.default_rng(8)
        s = SymbolStream.from_indices(rng.integers(0, 3, 1_001), alphabet)
        assert format_stream(s) == "".join(s.symbols()) + "\n"
        path = tmp_path / "s.txt"
        write_stream(s, path)
        again = read_stream(path, alphabet=alphabet)
        np.testing.assert_array_equal(s.indices, again.indices)
        assert format_stream(SymbolStream.from_indices([], alphabet)) == "\n"

    @pytest.mark.parametrize("alphabet", [("ab", "cd"), ("0", "1")])
    @pytest.mark.parametrize("length", [1, 2, 10])
    def test_round_trip_at_every_length(self, tmp_path, alphabet, length):
        # with the alphabet given, its widest symbol decides the split
        s = SymbolStream.from_indices(np.arange(length) % 2, alphabet)
        path = tmp_path / "s.txt"
        write_stream(s, path)
        again = read_stream(path, alphabet=list(alphabet))
        assert again.alphabet == alphabet
        np.testing.assert_array_equal(s.indices, again.indices)

    @pytest.mark.parametrize("alphabet", [("ab", "cd"), ("a", "bc")])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_spaced_streams_read_back_without_the_alphabet(self, tmp_path, alphabet, length):
        # every stream of one to three symbols; a lone symbol ends with a
        # space, so "ab" or "bc" is not read as two one-character symbols,
        # and longer streams keep their bytes
        path = tmp_path / "s.txt"
        for indices in itertools.product(range(2), repeat=length):
            s = SymbolStream.from_indices(indices, alphabet)
            text = " ".join(s.symbols()) + ("\n" if length > 1 else " \n")
            assert format_stream(s) == text
            write_stream(s, path)
            assert path.read_bytes() == text.encode("utf-8")
            again = read_stream(path)
            assert again.symbols() == s.symbols()
            assert again.alphabet == tuple(sorted(set(s.symbols())))
            np.testing.assert_array_equal(read_stream(path, alphabet).indices, s.indices)

    def test_stats_map_symbols_to_indices(self):
        s = SymbolStream.from_symbols(list("0011"), alphabet=["0", "1"])
        mean, std = stream_stats(s)
        assert mean == pytest.approx(0.5)
        assert std == pytest.approx(0.5)

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 127, 128, 129, 1_000, 8_191, 8_192,
                                        8_193, 65_537, 100_000, 1_000_003])
    def test_stats_equal_the_float_copy_bit_for_bit(self, length):
        # the formula the stats replace, which converts the stream to floats
        rng = np.random.default_rng(length)
        for k in range(1, 8):
            s = SymbolStream.from_indices(rng.integers(0, k, length), [str(j) for j in range(k)])
            x = s.indices.astype(np.float64)
            assert stream_stats(s) == (float(x.mean()), float(x.std())), k

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 127, 128, 129, 1_000, 8_191, 8_192,
                                        8_193, 65_537, 100_000, 1_000_003])
    def test_stats_from_the_counted_symbols_keep_the_mean_bits(self, length):
        # the experiment's statistics: the symbols counted as the first of
        # each depth-2 window plus the last two, the mean bit for bit and
        # the std within 4 ulp of the float copy's
        rng = np.random.default_rng(length)
        for k in range(1, 8):
            s = SymbolStream.from_indices(rng.integers(0, k, length), [str(j) for j in range(k)])
            _, counts = _estimate_pieces((s.indices,), s.alphabet, 2, 0.5)
            assert np.array_equal(counts, np.bincount(s.indices, minlength=k)), k
            mean, std = _count_stats(counts)
            ref_mean, ref_std = stream_stats(s)
            assert mean == ref_mean, k
            assert abs(std - ref_std) <= 4 * np.spacing(ref_std), (k, (std - ref_std) / np.spacing(ref_std))

    def test_stats_of_empty_stream_rejected(self):
        with pytest.raises(StreamTooShort):
            stream_stats(SymbolStream.from_indices([], ["0", "1"]))


class TestEstimateDerivatives:
    def test_alternating_stream_oracle(self):
        # oracle: direct window counting on "0101...": every 0 is followed
        # by 1, every 1 by 0
        n = 1000
        s = SymbolStream.from_symbols(list("01" * (n // 2)))
        table = estimate_derivatives(s, depth=1, smoothing=0.5)
        n0 = 500  # windows with context "0": positions 0, 2, ..., 998
        np.testing.assert_allclose(
            table.estimate("0"), [0.5 / (n0 + 1.0), (n0 + 0.5) / (n0 + 1.0)], atol=1e-15
        )
        assert table.count("0") == n0
        assert table.count("1") == 499

    def test_iid_uniform_close_to_half(self):
        n = 200_000
        s = stream_from_model(make_single(), n, 5)
        table = estimate_derivatives(s, depth=1, smoothing=0.5)
        sigma = math.sqrt(0.25 / (n / 2))
        for ctx in table.contexts:
            np.testing.assert_allclose(table.estimate(ctx), [0.5, 0.5], atol=3 * sigma)

    def test_table_holds_its_arrays_not_its_contexts(self):
        # at depth 16 the 2**16 context tuples took 13.1 MB beside 1.57 MB
        # of counts and probs; they are built on each read of ``contexts``
        import itertools

        s = SymbolStream.from_indices(np.random.default_rng(3).integers(0, 2, 100_000), ("0", "1"))
        tracemalloc.start()
        try:
            table = estimate_derivatives(s, depth=16)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table.probs.nbytes + table.counts.nbytes == 1_572_864
        assert held < 2e6
        assert table.contexts == tuple(itertools.product(("0", "1"), repeat=16))

    def test_stream_too_short(self):
        s = SymbolStream.from_symbols(list("0101"), alphabet=["0", "1"])
        with pytest.raises(StreamTooShort):
            estimate_derivatives(s, depth=4, smoothing=0.5)

    def test_depth_beyond_the_context_limit_is_rejected_before_any_table(self, monkeypatch):
        # at depth 40 the table used to be allocated: 2**41 int64 counts, 16 TiB
        import procgeom.streams as streams

        s = SymbolStream.from_indices(np.random.default_rng(7).integers(0, 2, 100), ("0", "1"))
        with pytest.raises(ValueError, match=r"^depth 40 gives 2\*\*40 contexts, more than 1048576$"):
            estimate_derivatives(s, 40)
        monkeypatch.setattr(streams, "MAX_CONTEXTS", 8)
        assert len(estimate_derivatives(s, 3).contexts) == 8
        with pytest.raises(ValueError, match=r"^depth 4 gives 2\*\*4 contexts, more than 8$"):
            estimate_derivatives(s, 4)
        with pytest.raises(ValueError, match=r"^depth 4 gives 2\*\*4 contexts"):
            stream_angle(s, s, 4)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_smoothing_must_be_finite_and_positive(self, g2, smoothing):
        # a NaN smoothing used to give a table of NaN, and the angle of a
        # stream with itself came out as pi
        s = stream_from_model(g2, 200, 1)
        with pytest.raises(ValueError, match="smoothing must be finite and > 0"):
            estimate_derivatives(s, 2, smoothing)
        with pytest.raises(ValueError, match="smoothing must be finite and > 0"):
            stream_angle(s, s, 2, smoothing)

    def test_unseen_context_gets_uniform(self):
        s = SymbolStream.from_symbols(list("0000"), alphabet=["0", "1"])
        table = estimate_derivatives(s, depth=1, smoothing=0.5)
        np.testing.assert_allclose(table.estimate("1"), [0.5, 0.5], atol=1e-15)
        assert table.count("1") == 0

    @pytest.mark.parametrize("k, depth", [(2, 7), (2, 8), (4, 7), (3, 10)])
    def test_narrow_window_codes_count_like_int64(self, k, depth):
        # the largest window code k ** (depth + 1) - 1 at the uint8 limit,
        # one past it, at the uint16 limit, and in uint32
        s = SymbolStream.from_indices(np.random.default_rng(k * depth).integers(0, k, 20_000),
                                      [str(j) for j in range(k)])
        codes = s.indices[: len(s) - depth].copy()
        for i in range(1, depth + 1):
            codes = codes * k + s.indices[i : len(s) - depth + i]
        joint = np.bincount(codes, minlength=k ** (depth + 1)).reshape(k**depth, k)
        table = estimate_derivatives(s, depth, 0.5)
        np.testing.assert_array_equal(table.counts, joint.sum(axis=1))
        np.testing.assert_array_equal(table.probs, (joint + 0.5) / (joint.sum(axis=1)[:, None] + 0.5 * k))

    @pytest.mark.parametrize("k, depth", [(2, 4), (3, 10)])
    def test_counts_in_slices_equal_one_count(self, k, depth):
        # slices of 2**16 windows at (2, 4), of 3**11 (the bin count) at
        # (3, 10); the last slice is shorter
        s = SymbolStream.from_indices(np.random.default_rng(k + depth).integers(0, k, 400_003),
                                      [str(j) for j in range(k)])
        codes = s.indices[: len(s) - depth].copy()
        for i in range(1, depth + 1):
            codes = codes * k + s.indices[i : len(s) - depth + i]
        joint = np.bincount(codes, minlength=k ** (depth + 1)).reshape(k**depth, k)
        table = estimate_derivatives(s, depth, 0.5)
        np.testing.assert_array_equal(table.counts, joint.sum(axis=1))
        np.testing.assert_array_equal(table.probs, (joint + 0.5) / (joint.sum(axis=1)[:, None] + 0.5 * k))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_counts_over_pieces_equal_the_joined_stream(self, k, monkeypatch):
        # the sampler's pieces of a few stitched chunks, each written over
        # the one before in one buffer, and hand cuts that leave empty
        # pieces and pieces shorter than the depth
        import procgeom.pfsa as pfsa

        rng = np.random.default_rng(k)
        rows = np.maximum(rng.dirichlet([2.0] * k, 4), 1e-3)
        delta = rng.integers(0, 4, (4, k))
        delta[:, 0] = [1, 2, 3, 0]
        g = Pfsa([str(j) for j in range(k)], list("abcd"), delta, rows / rows.sum(axis=1, keepdims=True))
        monkeypatch.setattr(pfsa, "_STREAM_CHUNK", 1000)
        pieces = _sampler(g)
        joined = np.concatenate(list(pieces(4_321, k, np.empty(4_321, dtype=np.int64))))
        buffer = np.empty(1000, dtype=np.int64)  # room for one piece
        assert sum(1 for _ in pieces(4_321, k, buffer)) == 5
        cut = np.split(joined, [0, 1, 2, 2, 4, 7, 8, 8, 9, 600, 601, 603, 4_320])
        for depth in range(5):
            whole = estimate_derivatives(SymbolStream.from_indices(joined, g.alphabet), depth, 0.5)
            for stream in (pieces(4_321, k, buffer), iter(cut)):
                table, counts = _estimate_pieces(stream, g.alphabet, depth, 0.5)
                assert np.array_equal(table.counts, whole.counts), depth
                assert np.array_equal(table.probs, whole.probs), depth
                assert np.array_equal(counts, np.bincount(joined, minlength=k)), depth

    def test_estimation_takes_no_cast_per_window(self):
        # the byte-wide window codes and their byte-wide source take 2 bytes
        # a window; counting all codes at once cast them to 8 more
        s = SymbolStream.from_indices(np.random.default_rng(4).integers(0, 2, 10**6), ["0", "1"])
        tracemalloc.start()
        try:
            estimate_derivatives(s, 4, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(s)

    def test_counts_cover_all_windows(self, g2):
        s = stream_from_model(g2, 5000, 9)
        table = estimate_derivatives(s, depth=3, smoothing=0.5)
        assert int(table.counts.sum()) == len(s) - 3

    def test_smoothing_vanishes_with_data(self, g2):
        s = stream_from_model(g2, 10_000, 13)
        t_half = estimate_derivatives(s, depth=2, smoothing=0.5)
        t_one = estimate_derivatives(s, depth=2, smoothing=1.0)
        min_count = int(t_half.counts.min())
        gap = np.abs(t_half.probs - t_one.probs).max()
        assert gap < 4.0 / max(min_count, 1)

    def test_estimates_converge_to_model(self, g2):
        # median over seeds of the worst per-context distance to the true
        # next-symbol distribution must shrink as the stream grows
        depth = 3

        def worst_gap(n, seed):
            s = stream_from_model(g2, n, seed)
            table = estimate_derivatives(s, depth, 0.5)
            worst = 0.0
            for ctx in table.contexts:
                truth = symbolic_derivative(g2, belief_from_string(g2, ctx))
                worst = max(worst, pdist(table.estimate(ctx), truth))
            return worst

        medians = []
        for n in (10_000, 100_000, 1_000_000):
            gaps = sorted(worst_gap(n, seed) for seed in range(5))
            medians.append(gaps[2])
        assert medians[0] > medians[1] > medians[2]


class TestStreamAngles:
    def test_self_angle_exactly_zero(self, g2):
        s = stream_from_model(g2, 3000, 21)
        assert stream_angle(s, s, depth=2) == 0.0
        # acos of the rounded cosine x / (sqrt(x) * sqrt(x)) alone gives
        # about 1.5e-8 on 46 of these 200, seed 22 at depths 1 to 4 among them
        for seed in range(20, 60):
            s = stream_from_model(g2, 3000, seed)
            assert [stream_angle(s, s, depth=d) for d in range(5)] == [0.0] * 5

    def test_symmetry_exact(self, g2):
        a = stream_from_model(g2, 3000, 22)
        b = stream_from_model(g2, 3000, 23)
        assert stream_angle(a, b, depth=2) == stream_angle(b, a, depth=2)
        assert stream_inner(a, b, depth=2) == stream_inner(b, a, depth=2)

    def test_alphabet_mismatch(self, g2):
        a = stream_from_model(g2, 100, 1)
        b = SymbolStream.from_indices([0, 1, 2], alphabet=["a", "b", "c"])
        with pytest.raises(AlphabetMismatch):
            stream_angle(a, b, depth=1)

    def test_alphabet_mismatch_comes_before_length_and_norm_errors(self):
        # one symbol is too short for depth 2, and a balanced depth-0 table
        # has zero norm; the alphabets are checked first
        a = SymbolStream.from_indices([0], alphabet=["0", "1"])
        b = SymbolStream.from_indices([0, 1], alphabet=["a", "b"])
        for call in (stream_angle, stream_inner):
            with pytest.raises(AlphabetMismatch, match="alphabets differ"):
                call(a, b, depth=2)
        flat = SymbolStream.from_symbols(list("01" * 4), alphabet=["0", "1"])
        other = SymbolStream.from_symbols(list("ab" * 4), alphabet=["a", "b"])
        with pytest.raises(AlphabetMismatch, match="alphabets differ"):
            stream_angle(flat, other, depth=0)
        with pytest.raises(AlphabetMismatch, match="alphabets differ"):
            table_inner(estimate_derivatives(flat, 0), estimate_derivatives(other, 0))

    def test_equal_tables_over_different_alphabets_have_no_angle(self):
        # the same indices give the same probs; the equal-probs 0.0 comes
        # after the cross inner product, which checks the alphabets
        a = SymbolStream.from_symbols(list("0010111"), alphabet=["0", "1"])
        b = SymbolStream.from_symbols(list("aabab" + "bb"), alphabet=["a", "b"])
        ta, tb = estimate_derivatives(a, 1), estimate_derivatives(b, 1)
        assert np.array_equal(ta.probs, tb.probs)
        assert table_angle(ta, ta) == 0.0
        with pytest.raises(AlphabetMismatch, match="alphabets differ"):
            table_angle(ta, tb)

    def test_exactly_balanced_stream_has_zero_norm(self):
        # the depth-0 table of a perfectly balanced stream is exactly
        # uniform, so its empirical norm vanishes and no angle exists
        s = SymbolStream.from_symbols(list("01" * 25), alphabet=["0", "1"])
        with pytest.raises(ZeroNorm):
            stream_angle(s, s, depth=0)

    def test_opposite_weak_models_near_pi(self, g2):
        G = as_process(g2, "G")
        plus = scale_process(0.1, G)
        minus = scale_process(-0.1, G)
        a = stream_from_model(plus.machine, 200_000, 31)
        b = stream_from_model(minus.machine, 200_000, 32)
        assert abs(stream_angle(a, b, depth=4) - math.pi) < 0.5

    def test_empirical_angles_converge_to_exact(self, g2):
        # million-symbol streams from the scaled family reproduce the exact
        # model angles to within 0.3 rad at depth 4
        from procgeom import angle

        G = as_process(g2, "G")
        family = [G, scale_process(-1.0, G), scale_process(0.1, G)]
        streams = [stream_from_model(m.machine, 1_000_000, 40 + i) for i, m in enumerate(family)]
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                exact = angle(family[i], family[j])
                empirical = stream_angle(streams[i], streams[j], depth=4)
                assert abs(empirical - exact) <= 0.3


def de_bruijn(t):
    # the order-d machine of a depth-d table: state x is the context, it
    # emits t.probs[x] and moves to x[1:]s on symbol s
    k = len(t.alphabet)
    n = k ** t.depth
    delta = (np.arange(n)[:, None] * k + np.arange(k)) % n
    return Pfsa(t.alphabet, [f"c{i}" for i in range(n)], delta, t.probs)


def test_table_inner_is_the_exact_inner_product_of_de_bruijn_machines():
    rng = np.random.default_rng(12)
    delta = rng.integers(0, 12, (12, 2))
    delta[:, 0] = np.roll(np.arange(12), -1)
    rows = np.maximum(rng.dirichlet([2.0, 2.0], 12), 1e-3)
    bases = [make_g2(), Pfsa(["0", "1"], [f"s{i}" for i in range(12)], delta,
                             rows / rows.sum(axis=1, keepdims=True)), make_t3()]
    worst = 0.0
    for b, base in enumerate(bases):
        P = as_process(base, "P")
        assert P.machine.n_states == (12 if b == 1 else base.n_states)
        other = stream_from_model(P.machine, 20_000, 100 + b)
        for a in (1.0, 0.1, -1.0):
            s = stream_from_model(scale_process(a, P).machine, 20_000, 200 + b)
            for depth in range(5):
                t1, t2 = estimate_derivatives(s, depth), estimate_derivatives(other, depth)
                exact = inner_exact(as_process(de_bruijn(t1)), as_process(de_bruijn(t2))).value
                gap = abs(table_inner(t1, t2) - exact) / (table_norm(t1) * table_norm(t2))
                worst = max(worst, gap)
    assert worst <= 1e-12


def test_two_streams_from_one_model_solve_it_once(monkeypatch):
    import procgeom.pfsa as pfsa

    solved = []
    solve = pfsa._stationary

    def counted(*args):
        solved.append(1)
        return solve(*args)

    monkeypatch.setattr(pfsa, "_stationary", counted)
    g = make_g2()
    first, second = stream_from_model(g, 1_000, 1), stream_from_model(g, 1_000, 2)
    assert len(solved) == 1
    assert not np.array_equal(first.indices, second.indices)
    pi = stationary_distribution(g)
    assert len(solved) == 1 and not pi.flags.writeable
    assert np.array_equal(pi, stationary_distribution(make_g2())) and len(solved) == 2
