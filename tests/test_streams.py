import math

import numpy as np
import pytest

from procgeom import (
    AlphabetMismatch,
    StreamTooShort,
    SymbolStream,
    ZeroNorm,
    as_process,
    belief_from_string,
    estimate_derivatives,
    pdist,
    read_stream,
    scale_process,
    stream_angle,
    stream_from_model,
    stream_inner,
    stream_stats,
    symbolic_derivative,
    write_stream,
)
from conftest import make_single


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

    def test_stats_map_symbols_to_indices(self):
        s = SymbolStream.from_symbols(list("0011"), alphabet=["0", "1"])
        mean, std = stream_stats(s)
        assert mean == pytest.approx(0.5)
        assert std == pytest.approx(0.5)


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

    def test_stream_too_short(self):
        s = SymbolStream.from_symbols(list("0101"), alphabet=["0", "1"])
        with pytest.raises(StreamTooShort):
            estimate_derivatives(s, depth=4, smoothing=0.5)

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
