"""State-vector reference paths for the truncated-basis simulator.

``circuit_kernel`` multiplies matrices onto the vacuum amplitudes directly;
these helpers build the displaced squeezed vacua as amplitude arrays so the
tests can check it against an explicit squared overlap.
"""

from __future__ import annotations

import numpy as np

from dsvkernel.errors import CutoffExceededError, InvalidDimensionError
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
