"""Single-mode bosonic operators in a truncated photon-number basis.

The basis is |0>, ..., |N-1> for a cutoff N.  Displacement and squeezing are
built by exponentiating truncated generators, which keeps them exactly
unitary as N x N matrices; accuracy relative to the untruncated operators is
controlled by rejecting parameters whose states would carry significant
amplitude past the cutoff.  The zero-photon detection probability of

    S'(eta) D'(xp) D(xq) S(eta) |0>        (' = conjugate transpose)

computed here is the brute-force reference against which the closed-form
Gaussian kernel in :mod:`dsvkernel.kernel` is validated.  It is read as one
amplitude of the truncated operators :func:`squeeze` and :func:`displacement`
return, from the real tridiagonal spectra their generators turn into under
exact diagonal phases (see :func:`circuit_kernel`).

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

Against the closed form, at each width of the default sweep grid (r =
|ln gamma| / 2, theta = 0 for gamma >= 1 and pi/2 below) at the cutoff
``_min_squeeze_cutoff(r)``, the worst |circuit_kernel - kernel_scalar| over
the 16 pairs with xp, xq in {-3, -1.7, 0.4, 3} is:

    gamma   cutoff  worst error
    0.06    256     8.9e-10
    0.1     128     2.9e-7
    0.25     64     6.1e-8
    others  64/128  <= 6.1e-14

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

#: Largest cutoff any function here accepts.  On one core with one BLAS
#: thread a :func:`circuit_kernel` call costs about 0.31 s and a 76 MB peak
#: RSS at cutoff 1,024 (2.2 s and 234 MB at 2,048); :func:`squeeze` and
#: :func:`displacement`, which build full N x N operators, take about 0.65 and
#: 0.78 s at 1,024.  It holds the squeezed vacuum up to r of about 2.35.
MAX_CUTOFF = 1024

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


def _ladder_entries(cutoff: int) -> np.ndarray:
    """sqrt(1), ..., sqrt(cutoff - 1): the entries of a|n> = sqrt(n)|n-1>."""
    if not 2 <= cutoff <= MAX_CUTOFF:
        raise InvalidDimensionError(f"cutoff must be in [2, {MAX_CUTOFF}], got {cutoff}")
    return np.sqrt(np.arange(1.0, cutoff))


def ladder_ops(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators (a, a_dagger) at the given cutoff."""
    a = np.diag(_ladder_entries(cutoff), 1).astype(complex)
    return a, a.conj().T


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """exp(m) of an anti-Hermitian ``m`` (m' = -m), as V diag(e^{-i lam}) V'
    from the eigendecomposition i m = V diag(lam) V' of the Hermitian i m.

    Every generator the simulator exponentiates is anti-Hermitian, so the
    result is unitary to rounding.  A non-square ``m`` raises
    InvalidDimensionError; NaN or inf entries and any ``m`` that is not
    exactly anti-Hermitian raise InvalidInputError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"matrix_exp needs a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix_exp input contains non-finite entries")
    if not np.array_equal(m.conj().T, -m):
        raise InvalidInputError("matrix_exp needs an anti-Hermitian matrix")
    lam, v = np.linalg.eigh(1j * m)
    return (v * np.exp(-1j * lam)) @ v.conj().T


def _check_displacement(x: complex, cutoff: int) -> None:
    """The amplitude check of :func:`displacement`."""
    size = math.hypot(x.real, x.imag)
    size2 = size * size  # inf past |x| of about 1.3e154, where size ** 2 raises
    if size2 > cutoff / 4.0:
        needed = 4.0 * size2
        hint = (f"use a cutoff of at least {math.ceil(needed)}"
                if needed <= MAX_CUTOFF else "no cutoff holds it")
        raise CutoffExceededError(
            f"|x|^2 = {size2:.4g} exceeds cutoff/4 = {cutoff / 4:.4g}; {hint}"
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
    accumulated with the stable ratio recurrence.  Where cosh(r) overflows
    (|r| above about 710.5) p_0 is 0 to double precision, so the mass is 1.
    """
    if r == 0.0:
        return 0.0
    try:
        p = 1.0 / math.cosh(r)
    except OverflowError:
        return 1.0
    t2 = math.tanh(r) ** 2
    total = 0.0
    n = 0
    while 2 * n < cutoff:
        total += p
        p *= t2 * (2 * n + 1) / (2 * n + 2)
        n += 1
    return max(0.0, 1.0 - total)


def _min_squeeze_cutoff(r: float) -> int | None:
    """The first of DEFAULT_CUTOFF, twice that, ..., MAX_CUTOFF that holds the
    squeezed vacuum of ``r``; None if none does."""
    n = DEFAULT_CUTOFF
    while squeezed_vacuum_tail_mass(r, n) > TAIL_MASS_LIMIT:
        if n >= MAX_CUTOFF:
            return None
        n *= 2
    return n


def _check_tail_mass(eta: SqueezeParams, cutoff: int) -> None:
    """The tail-mass check of :func:`squeeze`."""
    tail = squeezed_vacuum_tail_mass(eta.r, cutoff)
    if tail > TAIL_MASS_LIMIT:
        needed = _min_squeeze_cutoff(eta.r)
        hint = f"use a cutoff of at least {needed}" if needed else "no cutoff holds it"
        raise CutoffExceededError(
            f"squeezing r = {eta.r:.4g} leaves {tail:.3g} probability mass above the "
            f"cutoff {cutoff}; {hint}"
        )


def squeeze(eta: SqueezeParams, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Squeezing operator S(r, theta) = exp(r (e^{-2i theta} a^2 - e^{2i theta} a_dagger^2) / 2).

    Rejects magnitudes whose squeezed vacuum would lose more than
    TAIL_MASS_LIMIT of its mass to truncation at this cutoff.  The cutoff is
    checked first, so the tail-mass sum never runs past MAX_CUTOFF terms.
    """
    a, adag = ladder_ops(cutoff)
    _check_tail_mass(eta, cutoff)
    phase = complex(math.cos(2.0 * eta.theta), math.sin(2.0 * eta.theta))
    gen = 0.5 * eta.r * (phase.conjugate() * (a @ a) - phase * (adag @ adag))
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
    the closed form.  The amplitude <S0| D^dag(xp) D(xq) |S0> of the
    truncated operators :func:`squeeze` and :func:`displacement` build is
    read from two real symmetric eigendecompositions.  The squeeze
    generator's even block (the only one reaching |0>) is P (i T) P^-1 with
    P = diag((i e^{2i theta})^k) and T tridiagonal with entries
    (r/2) sqrt(2k (2k-1)), so S0 = S|0> = P W diag(e^{i mu}) W' |0> for
    T = W diag(mu) W'.  a_dagger - a = U (i X) U^-1 with U = diag((-i)^n) and
    X = a + a_dagger = V diag(lam) V', and D^dag(xp) D(xq) is exactly
    exp((xq - xp)(a_dagger - a)), so the amplitude is
    sum_k |c_k|^2 e^{i (xq - xp) lam_k} with c = V' U^-1 S0.  Rejected by the
    checks of those operators in the same order: finite inputs, cutoff, tail
    mass, xp, then xq.  Nothing is kept between calls.
    """
    xp = float(xp)
    xq = float(xq)
    if not (math.isfinite(xp) and math.isfinite(xq)):
        raise InvalidInputError("kernel inputs must be finite")
    root = _ladder_entries(cutoff)
    _check_tail_mass(eta, cutoff)
    _check_displacement(xp, cutoff)
    _check_displacement(xq, cutoff)
    # eigh reads only the lower triangle, so one diagonal stands for T and X
    n = np.arange(2.0, cutoff, 2.0)
    mu, w = np.linalg.eigh(np.diag(0.5 * eta.r * np.sqrt(n * (n - 1.0)), -1))
    lam, v = np.linalg.eigh(np.diag(root, -1))
    # U^-1 S0 on the even states |2k>, where U^-1 P = diag((-i e^{2i theta})^k)
    k = np.arange(w.shape[0])
    phi = np.exp(1j * (2.0 * eta.theta - 0.5 * math.pi) * k) * (w @ (np.exp(1j * mu) * w[0]))
    amp = np.abs(v[::2].T @ phi) ** 2 @ np.exp(1j * (xq - xp) * lam)
    prob = float(abs(amp) ** 2)
    return min(1.0, max(0.0, prob))
