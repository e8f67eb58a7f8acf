"""Single-mode bosonic operators in a truncated photon-number basis.

The basis is |0>, ..., |N-1> for a cutoff N.  Displacement and squeezing are
built by exponentiating truncated generators, which keeps them exactly
unitary as N x N matrices; accuracy relative to the untruncated operators is
controlled by rejecting parameters whose states would carry significant
amplitude past the cutoff.  The zero-photon detection probability of

    S'(eta) D'(xp) D(xq) S(eta) |0>        (' = conjugate transpose)

computed here is the brute-force reference against which the closed-form
Gaussian kernel in :mod:`dsvkernel.kernel` is validated.  It is read as one
amplitude of state vectors, not from operator products: S|0> comes from the
even-parity block of the squeeze generator, and both displacements from one
eigendecomposition of i (a' - a), which are the same truncated operators
:func:`squeeze` and :func:`displacement` return.

Operator conventions
--------------------
* annihilation  a|n> = sqrt(n)|n-1>;  creation a' is its conjugate
  transpose; the truncated commutator [a, a'] equals I except the last
  diagonal entry, which is -(N-1).
* displacement  D(x) = exp(x a' - x* a).
* squeezing     S(r, theta) = exp( r (e^{-2i theta} a^2 - e^{2i theta} a'^2) / 2 ).

The doubled phase in S makes the conjugation rule

    S'(r, theta) D(x) S(r, theta) = D(x cosh r + x* e^{2i theta} sinh r)

hold exactly, which is the identity the Gaussian-kernel construction rests
on.  It also gives S a period of pi in theta and makes a negative squeezing
magnitude equivalent to theta -> theta + pi/2, matching the normalization
performed by :class:`SqueezeParams`.

Operators and states are plain complex numpy arrays.  Every function is
pure and each call returns a fresh array, so results are safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffExceededError, InvalidDimensionError, InvalidInputError

#: Default basis size; displaced squeezed states with r <= 0.8 and |x| <= 1
#: carry < 1e-12 of their mass above |63>, and 64x64 exponentials are cheap.
DEFAULT_CUTOFF = 64

#: Squeezing is rejected when the squeezed vacuum would lose more than this
#: much probability mass to truncation.
TAIL_MASS_LIMIT = 1e-9


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing magnitude ``r`` and phase ``theta`` (radians).

    Normalized at construction: a negative ``r`` is folded into the phase via
    theta -> theta + pi/2, and theta is reduced modulo pi.  Both maps leave
    the squeezing operator unchanged.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        r = float(self.r)
        theta = float(self.theta)
        if not (math.isfinite(r) and math.isfinite(theta)):
            raise InvalidInputError("squeeze parameters must be finite")
        if r < 0.0:
            r = -r
            theta += math.pi / 2.0
        theta = theta % math.pi
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)


def ladder_ops(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators (a, a_dagger) at the given cutoff."""
    if cutoff < 2:
        raise InvalidDimensionError(f"cutoff must be >= 2, got {cutoff}")
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        a[n - 1, n] = math.sqrt(n)
    return a, a.conj().T


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``lam`` and eigenvectors ``v`` of the Hermitian ``i m`` for
    an anti-Hermitian ``m``, so that exp(x m) = V diag(e^{-i x lam}) V' for
    every real x; validated as :func:`matrix_exp` documents."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"matrix_exp needs a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix_exp input contains non-finite entries")
    if not np.array_equal(m.conj().T, -m):
        raise InvalidInputError("matrix_exp needs an anti-Hermitian matrix")
    return np.linalg.eigh(1j * m)


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """exp(m) of an anti-Hermitian ``m`` (m' = -m), as V diag(e^{-i lam}) V'
    from the eigendecomposition i m = V diag(lam) V' of the Hermitian i m.

    Every generator the simulator exponentiates is anti-Hermitian, so the
    result is unitary to rounding.  A non-square ``m`` raises
    InvalidDimensionError; NaN or inf entries and any ``m`` that is not
    exactly anti-Hermitian raise InvalidInputError.
    """
    lam, v = _spectrum(m)
    return (v * np.exp(-1j * lam)) @ v.conj().T


def _check_displacement(x: complex, cutoff: int) -> None:
    """The amplitude check of :func:`displacement`."""
    if abs(x) ** 2 > cutoff / 4.0:
        needed = math.ceil(4.0 * abs(x) ** 2)
        raise CutoffExceededError(
            f"|x|^2 = {abs(x) ** 2:.4g} exceeds cutoff/4 = {cutoff / 4:.4g}; "
            f"use a cutoff of at least {needed}"
        )


def displacement(x: complex, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Displacement operator D(x) = exp(x a_dagger - x* a).

    Rejects |x|^2 > cutoff/4: the displaced vacuum would have non-negligible
    photon-number support near the basis edge and the truncated matrix would
    silently stop approximating the true operator.
    """
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise InvalidInputError("displacement amplitude must be finite")
    _check_displacement(x, cutoff)
    a, adag = ladder_ops(cutoff)
    return matrix_exp(x * adag - x.conjugate() * a)


def squeezed_vacuum_tail_mass(r: float, cutoff: int) -> float:
    """Probability mass of the squeezed vacuum at photon numbers >= cutoff.

    The exact number distribution is p_{2n} = (2n)!/(4^n n!^2) tanh(r)^{2n}
    / cosh(r) on even states and zero on odd ones; the partial sum is
    accumulated with the stable ratio recurrence.
    """
    if r == 0.0:
        return 0.0
    t2 = math.tanh(r) ** 2
    p = 1.0 / math.cosh(r)
    total = 0.0
    n = 0
    while 2 * n < cutoff:
        total += p
        p *= t2 * (2 * n + 1) / (2 * n + 2)
        n += 1
    return max(0.0, 1.0 - total)


def _min_squeeze_cutoff(r: float) -> int:
    n = DEFAULT_CUTOFF
    while squeezed_vacuum_tail_mass(r, n) > TAIL_MASS_LIMIT and n < 1 << 16:
        n *= 2
    return n


def _check_tail_mass(eta: SqueezeParams, cutoff: int) -> None:
    """The tail-mass check of :func:`squeeze`."""
    tail = squeezed_vacuum_tail_mass(eta.r, cutoff)
    if tail > TAIL_MASS_LIMIT:
        raise CutoffExceededError(
            f"squeezing r = {eta.r:.4g} leaves {tail:.3g} probability mass above the "
            f"cutoff {cutoff}; use a cutoff of at least {_min_squeeze_cutoff(eta.r)}"
        )


def _squeeze_generator(eta: SqueezeParams, a: np.ndarray, adag: np.ndarray) -> np.ndarray:
    """r (e^{-2i theta} a^2 - e^{2i theta} a_dagger^2) / 2."""
    phase = complex(math.cos(2.0 * eta.theta), math.sin(2.0 * eta.theta))
    return 0.5 * eta.r * (phase.conjugate() * (a @ a) - phase * (adag @ adag))


def squeeze(eta: SqueezeParams, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Squeezing operator S(r, theta) = exp(r (e^{-2i theta} a^2 - e^{2i theta} a_dagger^2) / 2).

    Rejects magnitudes whose squeezed vacuum would lose more than
    TAIL_MASS_LIMIT of its mass to truncation at this cutoff.
    """
    _check_tail_mass(eta, cutoff)
    gen = _squeeze_generator(eta, *ladder_ops(cutoff))
    # a^2 and a'^2 change the photon number by two, so even and odd states
    # never mix; exponentiating each parity block keeps that coupling exactly 0
    s = np.zeros_like(gen)
    for p in (0, 1):
        s[p::2, p::2] = matrix_exp(gen[p::2, p::2])
    return s


def circuit_kernel(
    xp: float, xq: float, eta: SqueezeParams, cutoff: int = DEFAULT_CUTOFF
) -> float:
    """Zero-photon detection probability of S^dag D^dag(xp) D(xq) S |0>.

    Equals |<xp;eta|xq;eta>|^2, the squared overlap of the two displaced
    squeezed vacua, and lies in [0, 1]; it is the brute-force reference for
    the closed form.  The amplitude is read as <S0|psi> with S0 = S|0>, the
    even-parity block of the squeeze generator exponentiated on |0>, and
    psi = D^dag(xp) D(xq) S0: D(xq), then D^dag(xp), applied to the state as
    V diag(e^{-i xq lam}) V' and V diag(e^{+i xp lam}) V' from the one
    eigendecomposition i (a_dagger - a) = V diag(lam) V'.  These are the
    truncated operators :func:`squeeze` and :func:`displacement` build,
    rejected by the same checks in the same order: finite inputs, tail mass,
    xp, then xq.  Nothing is kept between calls.
    """
    xp = float(xp)
    xq = float(xq)
    if not (math.isfinite(xp) and math.isfinite(xq)):
        raise InvalidInputError("kernel inputs must be finite")
    _check_tail_mass(eta, cutoff)
    a, adag = ladder_ops(cutoff)
    _check_displacement(xp, cutoff)
    _check_displacement(xq, cutoff)
    # only the even block reaches |0>, and only column 0 of its exponential
    mu, w = _spectrum(_squeeze_generator(eta, a, adag)[::2, ::2])
    s0 = np.zeros(cutoff, dtype=complex)
    s0[::2] = w @ (np.exp(-1j * mu) * w[0].conj())
    lam, v = _spectrum(adag - a)
    vh = v.conj().T
    psi = v @ (np.exp(-1j * xq * lam) * (vh @ s0))
    psi = v @ (np.exp(1j * xp * lam) * (vh @ psi))
    prob = float(abs(np.vdot(s0, psi)) ** 2)
    return min(1.0, max(0.0, prob))
