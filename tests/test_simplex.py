import math

import numpy as np
import pytest

from procgeom import (
    DegenerateGeodesic,
    DimensionMismatch,
    DimensionTooSmall,
    NonPositiveEntry,
    NotOrthogonal,
    Overflow,
    from_log_ratios,
    geodesic_intersection,
    geodesic_point,
    log_inner,
    log_ratios,
    make_pvec,
    pdist,
    pnorm,
    pscale,
    psum,
    smooth,
    uniform_pvec,
)
from conftest import random_pvec

ATOL = 1e-9


class TestMakePvec:
    def test_already_normalized(self):
        np.testing.assert_allclose(make_pvec([0.2, 0.8]), [0.2, 0.8], atol=1e-15)

    def test_normalizes_to_uniform(self):
        np.testing.assert_allclose(make_pvec([2, 2, 2]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_zero_entry_rejected(self):
        with pytest.raises(NonPositiveEntry):
            make_pvec([0.0, 1.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(NonPositiveEntry):
            make_pvec([-0.1, 1.1])

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            make_pvec([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_pvec([np.inf, 1.0])

    def test_result_is_read_only(self):
        v = make_pvec([0.5, 0.5])
        with pytest.raises(ValueError):
            v[0] = 0.3

    def test_sum_within_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = random_pvec(rng, int(rng.integers(2, 8)), spread=2.0)
            assert abs(v.sum() - 1.0) < 1e-12


class TestPsum:
    def test_uniform_is_identity(self):
        a = make_pvec([0.2, 0.8])
        np.testing.assert_allclose(psum(a, uniform_pvec(2)), a, atol=1e-15)

    def test_inverse_pair_gives_uniform(self):
        np.testing.assert_allclose(
            psum(make_pvec([0.2, 0.8]), make_pvec([0.8, 0.2])), [0.5, 0.5], atol=1e-15
        )

    def test_elementwise_product_oracle(self):
        # oracle: (0.5*0.2, 0.5*0.8) / 0.5 = (0.2, 0.8)
        np.testing.assert_allclose(
            psum(make_pvec([0.5, 0.5]), make_pvec([0.2, 0.8])), [0.2, 0.8], atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psum(make_pvec([0.5, 0.5]), make_pvec([0.2, 0.3, 0.5]))

    @pytest.mark.parametrize("m, k", [(1, 2), (2, 2), (5, 3), (9, 7)])
    def test_stacks_are_summed_row_by_row(self, m, k):
        rng = np.random.default_rng(m * 10 + k)
        a = np.stack([random_pvec(rng, k, spread=2.0) for _ in range(m)])
        b = np.stack([random_pvec(rng, k, spread=2.0) for _ in range(m)])
        rows = np.stack([psum(x, y) for x, y in zip(a, b)])
        assert psum(a, b).tobytes() == rows.tobytes()


class TestPscale:
    def test_zero_gives_uniform(self):
        np.testing.assert_allclose(pscale(0.0, make_pvec([0.2, 0.8])), [0.5, 0.5], atol=1e-15)

    def test_minus_one_oracle(self):
        # oracle: (1/0.2, 1/0.8) / 6.25 = (0.8, 0.2)
        np.testing.assert_allclose(pscale(-1.0, make_pvec([0.2, 0.8])), [0.8, 0.2], atol=1e-15)

    def test_square_oracle(self):
        # oracle: (0.04, 0.64) / 0.68
        np.testing.assert_allclose(
            pscale(2.0, make_pvec([0.2, 0.8])), [0.04 / 0.68, 0.64 / 0.68], atol=1e-15
        )

    def test_overflow_signalled(self):
        with pytest.raises(Overflow):
            pscale(-1e4, make_pvec([0.99, 0.01]))

    def test_underflow_signalled(self):
        with pytest.raises(Overflow):
            pscale(1e4, make_pvec([0.99, 0.01]))

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(ValueError):
            pscale(np.nan, make_pvec([0.5, 0.5]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_scale_bit_for_bit_as_alone(self, order):
        # k >= 8 rows sum pairwise; a column-by-column sum of an F-ordered
        # stack would differ in the last bits
        rng = np.random.default_rng(3)
        for k in (2, 3, 8, 13, 69):
            rows = np.asarray(rng.dirichlet([1.0] * k, 30), order=order)
            for alpha in (-3.7, -1.0, 0.1, 2.5):
                alone = np.vstack([pscale(alpha, np.array(row)) for row in rows])
                assert np.array_equal(pscale(alpha, rows), alone)

    @pytest.mark.parametrize("alpha, message", [(-1e4, "overflowed"), (1e4, "underflowed")])
    def test_one_bad_row_fails_the_stack(self, alpha, message):
        rows = np.array([[0.5, 0.5], [0.99, 0.01], [0.5, 0.5]])
        with pytest.raises(Overflow, match=f"entry\\*\\*{alpha} {message}"):
            pscale(alpha, rows)


class TestLogInner:
    def test_uniform_annihilates(self):
        rng = np.random.default_rng(1)
        b = random_pvec(rng, 3)
        assert log_inner(uniform_pvec(3), b) == 0.0

    def test_self_inner_dim2(self):
        # oracle: (ln 0.25)^2
        a = make_pvec([0.2, 0.8])
        assert math.isclose(log_inner(a, a), math.log(0.25) ** 2, rel_tol=0, abs_tol=1e-12)

    def test_self_inner_dim3(self):
        # oracle: (ln(2/3))^2 + (ln(3/5))^2
        a = make_pvec([0.2, 0.3, 0.5])
        expected = math.log(2 / 3) ** 2 + math.log(3 / 5) ** 2
        assert math.isclose(log_inner(a, a), expected, rel_tol=0, abs_tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            log_inner(make_pvec([0.5, 0.5]), make_pvec([0.2, 0.3, 0.5]))


class TestNormAndDistance:
    def test_uniform_has_zero_norm(self):
        for n in (2, 3, 5):
            assert pnorm(uniform_pvec(n)) == 0.0

    def test_norm_oracle(self):
        assert math.isclose(pnorm(make_pvec([0.2, 0.8])), abs(math.log(0.25)), abs_tol=1e-12)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(2)
        a = random_pvec(rng, 4)
        assert pdist(a, a) < 1e-15


class TestAlgebraicProperties:
    """Randomized group / vector-space / inner-product axioms."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_group_axioms(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(200):
            a, b, c = (random_pvec(rng, dim) for _ in range(3))
            np.testing.assert_allclose(psum(a, b), psum(b, a), atol=ATOL)
            np.testing.assert_allclose(psum(psum(a, b), c), psum(a, psum(b, c)), atol=ATOL)
            np.testing.assert_allclose(psum(a, uniform_pvec(dim)), a, atol=ATOL)
            np.testing.assert_allclose(psum(a, pscale(-1.0, a)), uniform_pvec(dim), atol=ATOL)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_vector_space_axioms(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(200):
            a, b = (random_pvec(rng, dim) for _ in range(2))
            alpha, beta = rng.normal(0, 2, size=2)
            np.testing.assert_allclose(
                pscale(alpha, psum(a, b)), psum(pscale(alpha, a), pscale(alpha, b)), atol=ATOL
            )
            np.testing.assert_allclose(
                pscale(alpha * beta, a), pscale(alpha, pscale(beta, a)), atol=ATOL
            )

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_inner_product_axioms(self, dim):
        rng = np.random.default_rng(300 + dim)
        for _ in range(200):
            a, b, c = (random_pvec(rng, dim) for _ in range(3))
            alpha = float(rng.normal(0, 2))
            assert log_inner(a, b) == log_inner(b, a)
            lhs = log_inner(a, pscale(alpha, psum(b, c)))
            rhs = alpha * (log_inner(a, b) + log_inner(a, c))
            assert abs(lhs - rhs) < ATOL
            assert log_inner(a, a) >= 0.0

    def test_positive_definite_null_vector(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5):
            for _ in range(50):
                a = random_pvec(rng, dim)
                if log_inner(a, a) < 1e-18:
                    np.testing.assert_allclose(a, uniform_pvec(dim), atol=1e-12)
            u = uniform_pvec(dim)
            assert log_inner(u, u) == 0.0


class TestChart:
    def test_log_ratio_round_trip(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 5):
            a = random_pvec(rng, dim)
            np.testing.assert_allclose(from_log_ratios(log_ratios(a)), a, atol=1e-14)

    def test_chart_linearizes_the_algebra(self):
        rng = np.random.default_rng(4)
        a, b = random_pvec(rng, 4), random_pvec(rng, 4)
        np.testing.assert_allclose(
            log_ratios(psum(a, b)), log_ratios(a) + log_ratios(b), atol=1e-12
        )
        np.testing.assert_allclose(log_ratios(pscale(2.5, a)), 2.5 * log_ratios(a), atol=1e-12)


class TestSmooth:
    def test_accepts_zero_counts(self):
        np.testing.assert_allclose(smooth([0, 3], 0.5), [0.5 / 4, 3.5 / 4], atol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(NonPositiveEntry):
            smooth([-1, 2], 0.5)


class TestGeodesics:
    def test_endpoints(self):
        rng = np.random.default_rng(5)
        p0, p1 = random_pvec(rng, 3), random_pvec(rng, 3)
        np.testing.assert_allclose(geodesic_point(p0, p1, 1.0), p0, atol=1e-12)
        np.testing.assert_allclose(geodesic_point(p0, p1, 0.0), p1, atol=1e-12)

    def test_midpoint_of_inverse_pair(self):
        mid = geodesic_point(make_pvec([0.2, 0.8]), make_pvec([0.8, 0.2]), 0.5)
        np.testing.assert_allclose(mid, [0.5, 0.5], atol=1e-15)

    def test_constant_speed(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            p0, p1 = random_pvec(rng, dim), random_pvec(rng, dim)
            speed = pdist(p0, p1)
            for theta in np.linspace(0.05, 0.85, 10):
                dtheta = 0.1
                step = pdist(
                    geodesic_point(p0, p1, theta + dtheta), geodesic_point(p0, p1, theta)
                )
                assert abs(step - dtheta * speed) < ATOL

    def test_extrapolation_needs_flag(self):
        rng = np.random.default_rng(8)
        p0, p1 = random_pvec(rng, 3), random_pvec(rng, 3)
        with pytest.raises(ValueError):
            geodesic_point(p0, p1, 1.5)
        out = geodesic_point(p0, p1, 1.5, extrapolate=True)
        assert np.all(out > 0) and abs(out.sum() - 1.0) < 1e-12


def _orthogonal_curves(rng, dim):
    """Two geodesics with exactly orthogonal chart directions."""
    v = rng.normal(size=dim - 1)
    w = rng.normal(size=dim - 1)
    w -= (w @ v) / (v @ v) * v
    base_p = rng.normal(size=dim - 1)
    base_q = base_p + 0.3 * v / np.linalg.norm(v)  # far point projecting onto the p-curve
    p1 = from_log_ratios(base_p)
    p0 = from_log_ratios(base_p + v)
    q1 = from_log_ratios(base_q)
    q0 = from_log_ratios(base_q + w)
    return p0, p1, q0, q1


class TestGeodesicIntersection:
    def test_theta_star_zero_at_origin(self):
        rng = np.random.default_rng(9)
        for dim in (3, 4):
            v = rng.normal(size=dim - 1)
            w = rng.normal(size=dim - 1)
            w -= (w @ v) / (v @ v) * v
            p0, q0 = from_log_ratios(v), from_log_ratios(w)
            u = uniform_pvec(dim)
            theta_star, p_star = geodesic_intersection(p0, u, q0, u)
            assert abs(theta_star) <= 1e-12
            np.testing.assert_allclose(p_star, u, atol=1e-12)

    def test_degenerate_geodesic(self):
        rng = np.random.default_rng(10)
        p = random_pvec(rng, 3)
        q0, q1 = random_pvec(rng, 3), random_pvec(rng, 3)
        with pytest.raises(DegenerateGeodesic):
            geodesic_intersection(p, p, q0, q1)

    def test_not_orthogonal_rejected(self):
        p0 = from_log_ratios([1.0, 0.0])
        p1 = uniform_pvec(3)
        q0 = from_log_ratios([1.0, 0.2])
        with pytest.raises(NotOrthogonal):
            geodesic_intersection(p0, p1, q0, p1)

    def test_intersection_lies_on_both_curves(self):
        # oracle: nested golden-section scan of the cross-curve distance,
        # independent of the closed-form intersection.
        def min_dist_to_curve(point, a, b, lo=-5.0, hi=6.0):
            for _ in range(200):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                d1 = pdist(geodesic_point(a, b, m1, extrapolate=True), point)
                d2 = pdist(geodesic_point(a, b, m2, extrapolate=True), point)
                if d1 < d2:
                    hi = m2
                else:
                    lo = m1
            return pdist(geodesic_point(a, b, 0.5 * (lo + hi), extrapolate=True), point)

        rng = np.random.default_rng(11)
        for _ in range(5):
            p0, p1, q0, q1 = _orthogonal_curves(rng, 3)
            theta_star, p_star = geodesic_intersection(p0, p1, q0, q1)
            np.testing.assert_allclose(
                p_star, geodesic_point(p0, p1, theta_star, extrapolate=True), atol=1e-12
            )
            assert min_dist_to_curve(p_star, q0, q1) < 1e-9
            assert min_dist_to_curve(p_star, p0, p1) < 1e-9


class TestTangentRank:
    def test_gram_rank_is_dim_minus_one(self):
        rng = np.random.default_rng(12)
        for dim in (3, 4, 6):
            p = random_pvec(rng, dim)
            directions = []
            for i in range(dim):
                bumped = np.array(p)
                bumped[i] *= math.e**0.5
                directions.append(psum(make_pvec(bumped), pscale(-1.0, p)))
            gram = np.array([[log_inner(a, b) for b in directions] for a in directions])
            sv = np.linalg.svd(gram, compute_uv=False)
            rank = int(np.sum(sv > 1e-9 * sv[0]))
            assert rank == dim - 1
