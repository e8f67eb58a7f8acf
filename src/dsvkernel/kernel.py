"""Closed-form Gaussian kernel with a squeeze-tunable width, plus Gram matrices.

The squared overlap of two displaced squeezed vacua with displacements
xp, xq and squeezing (r, theta) is exp(-c (xq - xp)^2) with

    c(r, theta) = cosh(2r) + cos(2 theta) sinh(2r),

which reduces to e^{2r} at theta=0 (narrowing), e^{-2r} at theta=pi/2
(widening), and to 1 for r=0 (the coherent-state case).  Products over
coordinates give the multivariate
Gaussian kernel exp(-gamma ||xp - xq||^2) with gamma = c(r, theta).  The
truncated-basis simulator in :mod:`dsvkernel.fock` computes the same number
as a detection probability and serves as the independent reference.

All functions here are pure.  Squared distances are summed coordinate by
coordinate in a fixed order, so results are deterministic, and a Gram matrix
is exactly symmetric because (a - b)^2 and (b - a)^2 are the same float.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, InvalidInputError
from .fock import SqueezeParams


def gamma_from_squeeze(eta: SqueezeParams) -> float:
    """Kernel width gamma such that the squared single-mode overlap equals
    exp(-gamma (xq - xp)^2).

    gamma = cosh 2r + cos 2theta sinh 2r = e^2r cos^2 theta + e^-2r sin^2 theta;
    equals 1 exactly when r = 0.  Where cos 2theta < 0 (widening) the two
    terms of the first form cancel, so it is summed as e^-2r + 2 cos^2 theta
    sinh 2r, whose terms are both >= 0.  An r at which either form overflows
    raises :class:`InvalidInputError`.
    """
    r, theta = eta.r, eta.theta
    cos_2theta = math.cos(2.0 * theta)
    try:
        if cos_2theta < 0.0:
            gamma = math.exp(-2.0 * r) + 2.0 * math.cos(theta) ** 2 * math.sinh(2.0 * r)
        else:
            gamma = math.cosh(2.0 * r) + cos_2theta * math.sinh(2.0 * r)
    except OverflowError:
        gamma = math.inf
    if gamma == math.inf:
        raise InvalidInputError(f"squeezing r = {r} overflows the kernel width formula")
    return gamma


def check_gamma(gamma: float) -> float:
    """``gamma`` as a float; rejects zero, negative and non-finite widths."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise InvalidInputError(f"gamma must be positive and finite, got {gamma}")
    return float(gamma)


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel hyperparameter, either set directly or derived from
    squeezing parameters (kept for provenance)."""

    gamma: float
    squeeze: SqueezeParams | None = None

    def __post_init__(self):
        check_gamma(self.gamma)
        if self.squeeze is not None and self.gamma != gamma_from_squeeze(self.squeeze):
            raise InvalidInputError(
                "gamma does not match its squeeze parameters; "
                "use KernelConfig.from_squeeze"
            )

    @classmethod
    def direct(cls, gamma: float) -> "KernelConfig":
        return cls(gamma=float(gamma))

    @classmethod
    def from_squeeze(cls, eta: SqueezeParams) -> "KernelConfig":
        return cls(gamma=gamma_from_squeeze(eta), squeeze=eta)

    def to_dict(self) -> dict:
        d = {"gamma": self.gamma}
        if self.squeeze is not None:
            d["squeeze"] = {"r": self.squeeze.r, "theta": self.squeeze.theta}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "KernelConfig":
        if d.get("squeeze") is not None:
            return cls.from_squeeze(SqueezeParams(d["squeeze"]["r"], d["squeeze"]["theta"]))
        return cls.direct(d["gamma"])


def kernel_scalar(xp: float, xq: float, gamma: float) -> float:
    """exp(-gamma (xq - xp)^2) for scalar inputs: :func:`kernel_vec` on
    1-vectors, so the square is the x * x of every Gram."""
    return kernel_vec([xp], [xq], gamma)


def kernel_vec(xp: np.ndarray, xq: np.ndarray, gamma: float) -> float:
    """exp(-gamma ||xp - xq||^2); the product over coordinates of squared
    single-mode overlaps.

    Computed as :func:`gram` computes an entry (:func:`sq_distances`, then
    :func:`gaussian`), so it equals the (p, q) entry of the Gram of rows
    xp and xq bit for bit."""
    xp = np.asarray(xp, dtype=float)
    xq = np.asarray(xq, dtype=float)
    if xp.ndim != 1 or xq.ndim != 1 or xp.shape != xq.shape or len(xp) < 1:
        raise InvalidDimensionError(
            f"inputs must be equal-length 1-d vectors, got {xp.shape} and {xq.shape}"
        )
    if not (np.isfinite(xp).all() and np.isfinite(xq).all()):
        raise InvalidInputError("kernel inputs must be finite")
    return gaussian(sq_distances(xp[None, :], xq[None, :]), check_gamma(gamma)).item()


def data_fingerprint(data: np.ndarray) -> str:
    """sha256 over shape and row-major float64 bytes of a matrix."""
    data = np.ascontiguousarray(data, dtype=float)
    h = hashlib.sha256()
    h.update(f"{data.shape[0]}x{data.shape[1]}:".encode())
    h.update(data.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel values over one dataset, as :func:`gram` builds them;
    a plain record that checks nothing itself."""

    values: np.ndarray
    gamma: float

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _validate_matrix(data: np.ndarray, name: str) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise InvalidDimensionError(f"{name} must be a 2-d matrix with rows, got {data.shape}")
    if not np.isfinite(data).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return data


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` (m x d) and ``b``
    (n x d) as an m x n array.

    ``(a[:, k] - b[:, k])^2`` is added over k in order, as scipy's
    ``sqeuclidean`` distance does, with at most one m x n temporary.  A
    distance that overflows is +inf, without a warning, so :func:`gaussian`
    gives exactly 0 for it.
    """
    if a.shape[1] == 0:
        return np.zeros((len(a), len(b)))
    with np.errstate(over="ignore"):
        out = np.subtract.outer(a[:, 0], b[:, 0])
        out *= out
        diff = np.empty_like(out)
        for k in range(1, a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=diff)
            diff *= diff
            out += diff
    return out


def gaussian(sq: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * sq), computed in the buffer of ``sq``; a product that
    overflows to -inf gives exactly 0, without a warning."""
    with np.errstate(over="ignore"):
        sq *= -gamma
    return np.exp(sq, out=sq)


#: Most rows of an m x m array (:func:`gram_distances`): 800 MB at 10,000, where a 10-gamma
#: moons ``sweep`` takes 11 s and 1.7 GB peak RSS (2-vCPU Xeon), ``kernel gram`` 110 s, 1.6 GB.
MAX_GRAM_ROWS = 10_000


def gram_distances(rows: np.ndarray) -> np.ndarray:
    """``sq_distances(rows, rows)``, refused above ``MAX_GRAM_ROWS`` rows before it is made."""
    if len(rows) > MAX_GRAM_ROWS:
        raise InvalidInputError(f"a Gram takes at most {MAX_GRAM_ROWS} rows, got {len(rows)}")
    return sq_distances(rows, rows)


def check_distances(sq: np.ndarray | None, n: int) -> None:
    """Reject squared distances ``sq`` (None: none given) that are not n x n."""
    if sq is not None and sq.shape != (n, n):
        raise InvalidDimensionError(f"squared distances {sq.shape} do not fit {n} rows")


def gram(data: np.ndarray, gamma: float, sq: np.ndarray | None = None) -> GramMatrix:
    """Gram matrix of kernel_vec over all row pairs of an M x N matrix.

    ``sq``, when given, holds the rows' squared distances as
    :func:`gram_distances` returns them; it is read, not changed, so one array
    can serve every gamma of a sweep.

    The values are read-only, exactly symmetric (so are the distances) and
    have a unit diagonal, since exp(-gamma * 0) = 1; every entry lies in
    [0, 1], since it is exp of a number that is not positive, and is 0 only
    where exp underflows for a very distant pair.
    """
    data = _validate_matrix(data, "data")
    gamma = check_gamma(gamma)
    check_distances(sq, len(data))
    sq = gram_distances(data) if sq is None else sq.copy()
    values = gaussian(sq, gamma)
    values.setflags(write=False)
    return GramMatrix(values=values, gamma=gamma)


def gram_cross(train: np.ndarray, test: np.ndarray, gamma: float) -> np.ndarray:
    """Rectangular kernel matrix; rows are test points, columns train points."""
    train = _validate_matrix(train, "train")
    test = _validate_matrix(test, "test")
    if train.shape[1] != test.shape[1]:
        raise InvalidDimensionError(
            f"feature dimensions differ: train {train.shape[1]}, test {test.shape[1]}"
        )
    return gaussian(sq_distances(test, train), check_gamma(gamma))
