"""Reference paths for the truncated-basis simulator.

``circuit_kernel`` reads one amplitude from state vectors; these helpers
build the full operators instead (``circuit_kernel_reference``) and the
displaced squeezed vacua as amplitude arrays, so the tests can check it
against an operator product and an explicit squared overlap.
"""

from __future__ import annotations

import math

import numpy as np

from dsvkernel.errors import CutoffExceededError, InvalidDimensionError, InvalidInputError
from dsvkernel.fock import DEFAULT_CUTOFF, SqueezeParams, displacement, squeeze

#: Single tolerance used wherever a state norm is asserted.
EPS_NORM = 1e-9


def vacuum(cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Amplitudes of |0> over |0> ... |cutoff-1>."""
    psi = np.zeros(cutoff, dtype=complex)
    psi[0] = 1.0
    return psi


def norm(state: np.ndarray) -> float:
    return float(np.linalg.norm(state))


def dsv_state(x: complex, eta: SqueezeParams, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Displaced squeezed vacuum D(x) S(eta) |0>, normalized within EPS_NORM."""
    state = displacement(x, cutoff) @ (squeeze(eta, cutoff) @ vacuum(cutoff))
    if abs(norm(state) - 1.0) > EPS_NORM:
        raise CutoffExceededError(
            f"state norm {norm(state)} deviates from 1 beyond {EPS_NORM}; "
            "increase the cutoff"
        )
    return state


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if a.shape != b.shape:
        raise InvalidDimensionError(f"cutoff mismatch: {len(a)} != {len(b)}")
    return complex(np.vdot(a, b))


def circuit_kernel_reference(
    xp: float, xq: float, eta: SqueezeParams, cutoff: int = DEFAULT_CUTOFF
) -> float:
    """|<0| S' D'(xp) D(xq) S |0>|^2 from the four full operators, multiplied
    onto the vacuum in turn; each operator checks its own parameters."""
    xp = float(xp)
    xq = float(xq)
    if not (math.isfinite(xp) and math.isfinite(xq)):
        raise InvalidInputError("kernel inputs must be finite")
    s = squeeze(eta, cutoff)
    dp = displacement(xp, cutoff)
    dq = displacement(xq, cutoff)
    psi = s @ vacuum(cutoff)
    psi = dq @ psi
    psi = dp.conj().T @ psi
    psi = s.conj().T @ psi
    prob = float(abs(psi[0]) ** 2)
    return min(1.0, max(0.0, prob))
