"""Hilbert-space algebra on strictly positive probability vectors.

A probability vector here is a 1-D float64 array with strictly positive
entries summing to one.  The set of such vectors of a fixed length carries
a real vector-space structure:

* vector sum: normalized elementwise product (:func:`psum`),
* scalar product: elementwise powering then normalization (:func:`pscale`),
* the zero vector: the uniform distribution (:func:`uniform_pvec`).

The log-ratio inner product (:func:`log_inner`) makes this space a Hilbert
space; it induces the norm, distance, geodesics and angles used throughout
the package.  Coordinate order matters for the inner product, so every
vector inherits the declared alphabet order of its model and that order is
never permuted.

All constructors return read-only arrays and all operations are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateGeodesic,
    DimensionMismatch,
    DimensionTooSmall,
    NonPositiveEntry,
    NotOrthogonal,
    Overflow,
)

#: A probability vector: read-only 1-D float64 ndarray, strictly positive,
#: summing to 1.  Functions below document it as ``ProbVec``.
ProbVec = np.ndarray

#: Largest direction cosine :func:`geodesic_intersection` accepts as orthogonal.
ORTHO_TOL = 1e-9


def _freeze(values: np.ndarray) -> ProbVec:
    values.flags.writeable = False
    return values


def _check_int(value, name: str) -> None:
    """Reject a count that is not an integer (``bool`` included) by name,
    before a float or a flag reaches numpy or ``range``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")


def make_pvec(values) -> ProbVec:
    """Validate and normalize ``values`` into a probability vector.

    Parameters
    ----------
    values : array_like
        Nonempty sequence of finite, strictly positive reals.  They are
        divided by their sum, so any positive ray maps to the simplex.

    Returns
    -------
    ProbVec

    Raises
    ------
    NonPositiveEntry
        If any entry is zero or negative.
    DimensionTooSmall
        If fewer than two entries are given.
    ValueError
        If any entry is not finite.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    if v.size < 2:
        raise DimensionTooSmall(f"need at least 2 entries, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    if np.any(v <= 0.0):
        raise NonPositiveEntry("entries must be strictly positive")
    return _freeze(v / v.sum())


def uniform_pvec(dim: int) -> ProbVec:
    """The uniform vector of length ``dim`` — the zero element of the space."""
    if dim < 2:
        raise DimensionTooSmall(f"need dim >= 2, got {dim}")
    return _freeze(np.full(dim, 1.0 / dim))


def smooth(values, s: float) -> ProbVec:
    """Additive smoothing: add ``s`` to every entry, then normalize.

    Estimation-side escape hatch for raw counts with zeros.  The algebraic
    operations themselves never clamp; feed them strictly positive data.
    """
    if s <= 0.0:
        raise ValueError("smoothing must be > 0")
    v = np.asarray(values, dtype=np.float64)
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise NonPositiveEntry("smoothing expects finite non-negative input")
    return make_pvec(v + s)


def _check_same_dim(a: ProbVec, b: ProbVec) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimensions differ: {a.shape[0]} vs {b.shape[0]}")


def psum(a: ProbVec, b: ProbVec) -> ProbVec:
    """Group sum of probability vectors: normalized elementwise product.

    Commutative and associative; the uniform vector is the identity and
    ``pscale(-1, a)`` is the inverse of ``a``.  2-D ``a`` and ``b`` of one
    shape are stacks of probability vectors, one per row, each row summed
    with its partner as it would be alone.
    """
    _check_same_dim(a, b)
    w = a * b
    return _freeze(w / w.sum(axis=-1, keepdims=True))


def pscale(alpha: float, a: ProbVec) -> ProbVec:
    """Scalar product: elementwise powering by ``alpha``, then normalization.

    ``pscale(0, a)`` is the uniform vector; ``pscale(-1, a)`` the group
    inverse of ``a``.  A 2-D ``a`` is a stack of probability vectors, one
    per row, each scaled as it would be alone.

    Raises
    ------
    Overflow
        If ``a_i ** alpha`` leaves double precision (overflows to inf, or
        underflows so far that the normalized result would contain zeros).
        No silent clamping.
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    with np.errstate(over="ignore"):
        # C order, so every row sums the same way whatever the input layout
        w = np.power(np.ascontiguousarray(a), alpha)
    if not np.all(np.isfinite(w)):
        raise Overflow(f"entry**{alpha} overflowed double precision")
    total = w.sum(axis=-1, keepdims=True)
    result = w / np.where(total == 0.0, 1.0, total)
    if np.any(result == 0.0):
        raise Overflow(f"entry**{alpha} underflowed to zero at working precision")
    return _freeze(result)


def log_ratios(a: ProbVec) -> np.ndarray:
    """Consecutive log-ratio coordinates ``ln(a_i / a_{i+1})`` (length n-1).

    This is the linear chart in which :func:`psum` is vector addition,
    :func:`pscale` is scalar multiplication and :func:`log_inner` is the
    ordinary dot product.  A 2-D or higher array is charted row by row
    (along its last axis).
    """
    return -np.diff(np.log(a))


def from_log_ratios(t) -> ProbVec:
    """Inverse of :func:`log_ratios`: rebuild the probability vector.

    Raises
    ------
    ValueError
        If a coordinate is not finite.
    Overflow
        If the vector has a zero or non-finite entry at working precision
        (the running sum of the ratios overflows, or an entry underflows).
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("log ratios must be finite")
    # entry i is exp(sum of ratios from i to the end), up to normalization;
    # shift by the max exponent for stability.
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.concatenate([np.cumsum(t[::-1])[::-1], [0.0]])
        e -= e.max()
        w = np.exp(e)
        result = w / w.sum()
    if not np.all(result > 0.0):  # false for a zero entry and for NaN
        raise Overflow("log ratios overflowed, or an entry underflowed to zero at working precision")
    return _freeze(result)


def log_inner(a: ProbVec, b: ProbVec) -> float:
    """Log-ratio inner product of two probability vectors.

    Sum over consecutive coordinates of ``ln(a_i/a_{i+1}) * ln(b_i/b_{i+1})``.
    Symmetric, bilinear with respect to :func:`psum`/:func:`pscale`, and
    positive definite with the uniform vector as the unique null vector.
    """
    _check_same_dim(a, b)
    return float(np.dot(log_ratios(a), log_ratios(b)))


def pnorm(a: ProbVec) -> float:
    """Norm induced by :func:`log_inner`; zero exactly for the uniform vector."""
    return float(np.sqrt(log_inner(a, a)))


def pdist(a: ProbVec, b: ProbVec) -> float:
    """Distance induced by the norm: ``pnorm(a ⊖ b)``."""
    return pnorm(psum(a, pscale(-1.0, b)))


def geodesic_point(p0: ProbVec, p1: ProbVec, theta: float, *, extrapolate: bool = False) -> ProbVec:
    """Point at parameter ``theta`` on the constant-speed geodesic from
    ``p1`` (theta=0) to ``p0`` (theta=1).

    The curve is ``theta ⊙ p0 ⊕ (1-theta) ⊙ p1``; its speed is
    ``pdist(p0, p1)`` everywhere.  ``theta`` outside [0, 1] stays on the
    same line and inside the simplex but must be requested explicitly with
    ``extrapolate=True``.
    """
    _check_same_dim(p0, p1)
    if not 0.0 <= theta <= 1.0 and not extrapolate:
        raise ValueError(f"theta={theta} outside [0, 1]; pass extrapolate=True to allow")
    return psum(pscale(theta, p0), pscale(1.0 - theta, p1))


def geodesic_intersection(
    p0: ProbVec,
    p1: ProbVec,
    q0: ProbVec,
    q1: ProbVec,
) -> tuple[float, ProbVec]:
    """Intersection of two orthogonal geodesics.

    The curves are ``gamma(t) = t⊙p0 ⊕ (1-t)⊙p1`` and
    ``eta(t) = t⊙q0 ⊕ (1-t)⊙q1``; their direction vectors ``p0 ⊖ p1`` and
    ``q0 ⊖ q1`` must be orthogonal under :func:`log_inner`.

    Returns
    -------
    (theta_star, p_star)
        Parameter on the first curve and the intersection point
        ``theta_star ⊙ p0 ⊕ (1-theta_star) ⊙ p1``.

    Raises
    ------
    DegenerateGeodesic
        If ``p0`` and ``p1`` coincide (zero-length first curve).
    NotOrthogonal
        If the normalized inner product of the two directions exceeds
        ``ORTHO_TOL``.
    """
    for v in (p1, q0, q1):
        _check_same_dim(p0, v)
    d_p = psum(p0, pscale(-1.0, p1))
    d_q = psum(q0, pscale(-1.0, q1))
    np_p = pnorm(d_p)
    if np_p < 1e-12:
        raise DegenerateGeodesic("first geodesic has coinciding endpoints")
    np_q = pnorm(d_q)
    if np_q > 1e-12:
        cos = log_inner(d_p, d_q) / (np_p * np_q)
        if abs(cos) > ORTHO_TOL:
            raise NotOrthogonal(f"direction cosine {cos:.3e} exceeds tolerance {ORTHO_TOL:.1e}")
    theta_star = log_inner(psum(p1, pscale(-1.0, q1)), psum(p1, pscale(-1.0, p0))) / (np_p * np_p)
    p_star = geodesic_point(p0, p1, theta_star, extrapolate=True)
    return theta_star, p_star
