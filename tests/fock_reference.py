"""State-vector reference paths for the truncated-basis simulator.

``circuit_kernel`` multiplies matrices onto the vacuum amplitudes directly;
these helpers build the displaced squeezed vacua as states so the tests can
check it against an explicit squared overlap.
"""

from __future__ import annotations

import numpy as np

from dsvkernel.errors import CutoffExceededError, InvalidDimensionError
from dsvkernel.fock import (
    DEFAULT_CUTOFF,
    EPS_NORM,
    BosonicOperator,
    SqueezeParams,
    TruncatedState,
    displacement,
    squeeze,
    vacuum,
)


def norm(state: TruncatedState) -> float:
    return float(np.linalg.norm(state.amplitudes))


def dagger(op: BosonicOperator) -> BosonicOperator:
    return BosonicOperator(op.matrix.conj().T, op.cutoff, op.label + "_dagger")


def apply(op: BosonicOperator, state: TruncatedState) -> TruncatedState:
    if state.cutoff != op.cutoff:
        raise InvalidDimensionError(
            f"operator cutoff {op.cutoff} != state cutoff {state.cutoff}"
        )
    return TruncatedState(op.matrix @ state.amplitudes, op.cutoff)


def dsv_state(
    x: complex, eta: SqueezeParams, cutoff: int = DEFAULT_CUTOFF
) -> TruncatedState:
    """Displaced squeezed vacuum D(x) S(eta) |0>, normalized within EPS_NORM."""
    state = apply(displacement(x, cutoff), apply(squeeze(eta, cutoff), vacuum(cutoff)))
    if abs(norm(state) - 1.0) > EPS_NORM:
        raise CutoffExceededError(
            f"state norm {norm(state)} deviates from 1 beyond {EPS_NORM}; "
            "increase the cutoff"
        )
    return state


def overlap(a: TruncatedState, b: TruncatedState) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if a.cutoff != b.cutoff:
        raise InvalidDimensionError(f"cutoff mismatch: {a.cutoff} != {b.cutoff}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
