import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm as scipy_expm

from dsvkernel.errors import (
    CutoffExceededError,
    InvalidDimensionError,
    InvalidInputError,
)
from dsvkernel.fock import (
    MAX_CUTOFF,
    SqueezeParams,
    circuit_kernel,
    displacement,
    ladder_ops,
    matrix_exp,
    squeeze,
    squeezed_vacuum_tail_mass,
)

from fock_reference import (
    EPS_NORM,
    circuit_kernel_reference,
    dsv_state,
    norm,
    overlap,
    vacuum,
)


class TestSqueezeParams:
    def test_plain_values_kept(self):
        eta = SqueezeParams(0.4, 0.3)
        assert eta.r == 0.4 and eta.theta == 0.3

    def test_negative_r_folds_into_phase(self):
        eta = SqueezeParams(-0.4, 0.0)
        assert eta.r == 0.4
        assert_allclose(eta.theta, math.pi / 2)

    def test_theta_reduced_modulo_pi(self):
        eta = SqueezeParams(0.2, math.pi + 0.25)
        assert_allclose(eta.theta, 0.25)
        assert 0.0 <= SqueezeParams(0.2, -0.1).theta < math.pi

    def test_normalization_preserves_operator(self):
        # -r and theta+pi/2 build the same matrix, as do theta and theta+pi
        a = squeeze(SqueezeParams(-0.3, 0.2), 32)
        b = squeeze(SqueezeParams(0.3, 0.2 + math.pi / 2), 32)
        assert_allclose(a, b, atol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            SqueezeParams(float("nan"), 0.0)


class TestLadderOps:
    def test_cutoff_2_single_entry(self):
        a, _ = ladder_ops(2)
        assert a[0, 1] == 1.0
        assert np.count_nonzero(a) == 1

    def test_cutoff_4_entry_value(self):
        a, _ = ladder_ops(4)
        assert_allclose(a[2, 3], math.sqrt(3))

    def test_adjoint_pair(self):
        a, adag = ladder_ops(6)
        assert_allclose(adag, a.conj().T)

    @pytest.mark.parametrize("cutoff", [2, 5, 8, 64])
    def test_truncated_commutator(self, cutoff):
        a, adag = ladder_ops(cutoff)
        comm = a @ adag - adag @ a
        expected = np.eye(cutoff, dtype=complex)
        expected[-1, -1] = -(cutoff - 1)
        assert_allclose(comm, expected, atol=1e-12)

    def test_rejects_small_cutoff(self):
        with pytest.raises(InvalidDimensionError):
            ladder_ops(1)

    @pytest.mark.parametrize("cutoff", [MAX_CUTOFF + 1, 10**12])
    @pytest.mark.parametrize("build", [
        ladder_ops,
        lambda cutoff: squeeze(SqueezeParams(0.3), cutoff),
        lambda cutoff: displacement(0.5, cutoff),
        lambda cutoff: circuit_kernel(0.0, 0.5, SqueezeParams(0.3), cutoff),
    ], ids=["ladder_ops", "squeeze", "displacement", "circuit_kernel"])
    def test_rejects_a_cutoff_above_the_ceiling(self, build, cutoff):
        # before any N x N array or O(N) tail-mass sum
        with pytest.raises(InvalidDimensionError, match=rf"cutoff must be in \[2, {MAX_CUTOFF}\]"):
            build(cutoff)

    def test_ceiling_is_accepted(self):
        a, _ = ladder_ops(MAX_CUTOFF)
        assert a.shape == (MAX_CUTOFF, MAX_CUTOFF)


class TestOperatorArrays:
    def test_each_call_returns_a_fresh_square_complex_array(self):
        n = 32
        ops = [*ladder_ops(n), displacement(0.5, n), squeeze(SqueezeParams(0.3, 0.2), n)]
        for op in ops:
            assert type(op) is np.ndarray and op.dtype == complex and op.shape == (n, n)
        first = displacement(0.5, n)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(displacement(0.5, n), expected)


class TestMatrixExp:
    def test_zero_matrix(self):
        assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        result = matrix_exp(np.diag([1j, -2j]))
        expected = np.diag([complex(math.cos(1.0), math.sin(1.0)),
                            complex(math.cos(2.0), -math.sin(2.0))])
        assert_allclose(result, expected, rtol=1e-12)

    def test_antihermitian_generator_gives_unitary(self):
        a, adag = ladder_ops(32)
        gen = 0.5 * (adag - a)
        u = matrix_exp(gen)
        block = (u.conj().T @ u - np.eye(32))[:16, :16]
        assert np.max(np.abs(block)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 7, 33])
    def test_matches_scipy_on_random_matrices(self, n):
        rng = np.random.default_rng(n)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = h - h.conj().T
        expected = scipy_expm(m)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(matrix_exp(m) - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("m", [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]),
                                   np.array([[1j, 2.0], [-2.0, 1j + 1e-17]])],
                             ids=["real-diagonal", "symmetric", "tiny-real-diagonal"])
    def test_rejects_non_anti_hermitian(self, m):
        with pytest.raises(InvalidInputError):
            matrix_exp(m)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidDimensionError):
            matrix_exp(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(InvalidInputError):
            matrix_exp(m)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert_allclose(displacement(0.0, 16), np.eye(16), atol=1e-15)

    def test_vacuum_amplitude(self):
        d = displacement(1.0, 32)
        assert_allclose(d[0, 0], math.exp(-0.5), rtol=1e-12)

    def test_composition_exemplar(self):
        left = displacement(0.7, 32) @ displacement(0.3, 32)
        right = displacement(1.0, 32)
        assert np.max(np.abs(left[:16, :16] - right[:16, :16])) <= 1e-8

    @pytest.mark.parametrize("x,y", [(0.7, 0.3), (1.0, 1.0), (1.5, 0.5), (-0.9, 0.9)])
    def test_composition_half_block(self, x, y):
        n = 64
        left = displacement(x, n) @ displacement(y, n)
        right = displacement(x + y, n)
        assert np.max(np.abs(left[:32, :32] - right[:32, :32])) <= 1e-7

    def test_complex_composition_phase(self):
        # D(a) D(b) = D(a+b) exp((a b* - a* b)/2) for complex arguments
        n, a, b = 64, 0.4 + 0.3j, 0.2 - 0.5j
        phase = np.exp(0.5 * (a * np.conj(b) - np.conj(a) * b))
        left = displacement(a, n) @ displacement(b, n)
        right = phase * displacement(a + b, n)
        assert np.max(np.abs(left[:32, :32] - right[:32, :32])) <= 1e-7

    @pytest.mark.parametrize("x", [0.5, 1.0 + 0.3j])
    def test_dagger_equals_negated_argument(self, x):
        n = 64
        assert np.max(np.abs(
            displacement(x, n).conj().T - displacement(-x, n)
        )) <= 1e-10

    def test_unitary_on_leading_block(self):
        u = displacement(1.0, 64)
        err = np.max(np.abs((u.conj().T @ u - np.eye(64))[:32, :32]))
        assert err <= 1e-8

    def test_rejects_large_displacement(self):
        with pytest.raises(CutoffExceededError):
            displacement(5.0, 16)

    @pytest.mark.parametrize("x, hint", [
        (16.0, "use a cutoff of at least 1024"),
        (16.01, "no cutoff holds it"),
    ])
    def test_hint_names_no_cutoff_above_the_ceiling(self, x, hint):
        with pytest.raises(CutoffExceededError) as err:
            displacement(x, 64)
        assert str(err.value).endswith(f"exceeds cutoff/4 = 16; {hint}")

    @pytest.mark.parametrize("x", [1e154, 1e200, -1e300, complex(1e200, -1e200),
                                   complex(1.5e308, 1.5e308)],
                             ids=["four-times-overflows", "square-overflows", "negative",
                                  "complex", "modulus-overflows"])
    def test_rejects_amplitude_whose_square_overflows(self, x):
        # |x|^2 (or 4 |x|^2) past the float range is inf, which no cutoff holds
        with pytest.raises(CutoffExceededError) as err:
            displacement(x, 64)
        message = str(err.value)
        assert "\n" not in message
        assert message.endswith("exceeds cutoff/4 = 16; no cutoff holds it")


class TestSqueeze:
    def test_zero_is_identity(self):
        assert_allclose(squeeze(SqueezeParams(0.0, 0.0), 16), np.eye(16), atol=1e-15)

    def test_vacuum_amplitude(self):
        s = squeeze(SqueezeParams(0.5, 0.0), 64)
        assert_allclose(s[0, 0], 1.0 / math.sqrt(math.cosh(0.5)), rtol=1e-10)

    @pytest.mark.parametrize("r", [0.4, 0.8])
    @pytest.mark.parametrize("theta", [0.0, 1.3])
    def test_even_odd_coupling_is_exactly_zero(self, r, theta):
        s = squeeze(SqueezeParams(r, theta), 64)
        assert np.count_nonzero(s[0::2, 1::2]) == 0
        assert np.count_nonzero(s[1::2, 0::2]) == 0

    def test_conjugation_exemplar(self):
        # S'(eta) D(x) S(eta) = D(x cosh r + x* e^{2i theta} sinh r)
        r, x, n = 0.3, 0.4, 64
        s = squeeze(SqueezeParams(r, 0.0), n)
        lhs = s.conj().T @ displacement(x, n) @ s
        xbar = x * math.cosh(r) + x * math.sinh(r)
        rhs = displacement(xbar, n)
        assert np.max(np.abs(lhs[:16, :16] - rhs[:16, :16])) <= 1e-7

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
    @pytest.mark.parametrize("x", [0.3, 1.0])
    def test_conjugation_operator_block(self, r, theta, x):
        # converged leading block at a cutoff adequate for the parameters
        n, k = 128, 12
        eta = SqueezeParams(r, theta)
        s = squeeze(eta, n)
        lhs = s.conj().T @ displacement(x, n) @ s
        xbar = x * math.cosh(r) + x * np.exp(2j * theta) * math.sinh(r)
        rhs = displacement(xbar, n)
        assert np.max(np.abs(lhs[:k, :k] - rhs[:k, :k])) <= 1e-7

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
    @pytest.mark.parametrize("x", [0.3, 1.0])
    def test_conjugation_on_vacuum_column(self, r, theta, x):
        # the form the kernel construction relies on, at a larger cutoff
        n = 128
        eta = SqueezeParams(r, theta)
        s = squeeze(eta, n)
        lhs = s.conj().T @ (displacement(x, n) @ (s @ vacuum(n)))
        xbar = x * math.cosh(r) + x * np.exp(2j * theta) * math.sinh(r)
        rhs = displacement(xbar, n) @ vacuum(n)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_unitary_on_leading_block(self):
        u = squeeze(SqueezeParams(0.8, 0.3), 64)
        err = np.max(np.abs((u.conj().T @ u - np.eye(64))[:32, :32]))
        assert err <= 1e-8

    def test_rejects_overdriven_squeeze(self):
        with pytest.raises(CutoffExceededError):
            squeeze(SqueezeParams(1.5, 0.0), 16)

    @pytest.mark.parametrize("r, hint", [
        (2.3, "use a cutoff of at least 1024"),
        (2.4, "no cutoff holds it"),
        (5.0, "no cutoff holds it"),
    ])
    def test_hint_names_no_cutoff_above_the_ceiling(self, r, hint):
        with pytest.raises(CutoffExceededError) as err:
            squeeze(SqueezeParams(r, 0.0), 64)
        assert str(err.value).endswith(f"cutoff 64; {hint}")

    def test_tail_mass_decreases_with_cutoff(self):
        masses = [squeezed_vacuum_tail_mass(0.9, n) for n in (16, 32, 64)]
        assert masses[0] > masses[1] > masses[2] >= 0.0

    @pytest.mark.parametrize("r", [711.0, -711.0, 1e300])
    def test_tail_mass_is_one_where_cosh_overflows(self, r):
        assert squeezed_vacuum_tail_mass(r, 64) == 1.0


class TestDsvState:
    def test_vacuum_case(self):
        state = dsv_state(0.0, SqueezeParams(0.0, 0.0), 16)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert_allclose(state, expected, atol=1e-15)

    def test_coherent_state_amplitudes(self):
        state = dsv_state(1.0, SqueezeParams(0.0, 0.0), 64)
        n = np.arange(8)
        expected = math.exp(-0.5) / np.sqrt([math.factorial(int(k)) for k in n])
        assert_allclose(state[:8].real, expected, atol=1e-12)
        assert_allclose(state[:8].imag, 0.0, atol=1e-12)

    def test_squeezed_vacuum_even_support_and_norm(self):
        eta = SqueezeParams(0.4, 0.0)
        pre = squeeze(eta, 64) @ vacuum(64)
        assert np.max(np.abs(pre[1::2])) == 0.0
        state = dsv_state(0.5, eta, 64)
        assert abs(norm(state) - 1.0) <= EPS_NORM


class TestOverlap:
    def test_self_overlap_is_one(self):
        state = dsv_state(0.3, SqueezeParams(0.2, 0.0), 64)
        assert_allclose(overlap(state, state), 1.0, atol=EPS_NORM)

    def test_coherent_overlap(self):
        zero = dsv_state(0.0, SqueezeParams(0.0, 0.0), 64)
        one = dsv_state(1.0, SqueezeParams(0.0, 0.0), 64)
        assert_allclose(abs(overlap(zero, one)) ** 2, math.exp(-1.0), rtol=1e-10)

    def test_dsv_overlap_closed_form(self):
        # the adjudication run: theta=0 narrowing factor is e^{2r}, not e^{r}
        eta = SqueezeParams(0.4, 0.0)
        a = dsv_state(0.0, eta, 64)
        b = dsv_state(0.5, eta, 64)
        c = math.cosh(0.8) + math.sinh(0.8)  # e^{2r} expansion at theta=0
        expected = math.exp(-0.5 * 0.25 * c)
        value = overlap(a, b)
        assert abs(value - expected) / expected <= 1e-6

    def test_mismatched_cutoffs_rejected(self):
        with pytest.raises(InvalidDimensionError):
            overlap(vacuum(8), vacuum(16))


class TestCircuitKernel:
    def test_identical_inputs_give_one(self):
        eta = SqueezeParams(0.5, 0.0)
        assert_allclose(circuit_kernel(0.4, 0.4, eta, 64), 1.0, atol=1e-12)

    def test_coherent_case(self):
        value = circuit_kernel(0.0, 1.0, SqueezeParams(0.0, 0.0), 64)
        assert_allclose(value, math.exp(-1.0), atol=1e-9)

    def test_widening_phase_case(self):
        # r=0.4, theta=pi/2: factor cosh 2r - sinh 2r = e^{-0.8} ~ 0.4493
        value = circuit_kernel(0.0, 1.0, SqueezeParams(0.4, math.pi / 2), 64)
        factor = math.cosh(0.8) - math.sinh(0.8)
        assert_allclose(factor, math.exp(-0.8), rtol=1e-12)
        assert abs(value - math.exp(-factor)) <= 1e-6
        assert_allclose(value, 0.6381, atol=5e-4)

    def test_equals_squared_overlap(self):
        eta = SqueezeParams(0.6, 1.1)
        a = dsv_state(-0.3, eta, 64)
        b = dsv_state(0.8, eta, 64)
        assert abs(circuit_kernel(-0.3, 0.8, eta, 64) - abs(overlap(a, b)) ** 2) <= 1e-9

    def test_symmetric_in_inputs(self):
        eta = SqueezeParams(0.5, 0.7)
        assert abs(
            circuit_kernel(0.2, -0.6, eta, 64) - circuit_kernel(-0.6, 0.2, eta, 64)
        ) <= 1e-12

    @pytest.mark.parametrize("shift", [-0.5, 0.3])
    def test_translation_invariance(self, shift):
        eta = SqueezeParams(0.4, 0.0)
        base = circuit_kernel(0.0, 0.5, eta, 64)
        shifted = circuit_kernel(shift, 0.5 + shift, eta, 64)
        assert abs(base - shifted) <= 1e-8

    @pytest.mark.parametrize("r", [0.0, 0.4, 0.8])
    @pytest.mark.parametrize("dx", [0.2, 1.0])
    def test_cutoff_convergence(self, r, dx):
        eta = SqueezeParams(r, math.pi / 2)
        assert abs(
            circuit_kernel(0.0, dx, eta, 64) - circuit_kernel(0.0, dx, eta, 96)
        ) <= 1e-8

    def test_range_clamped(self):
        eta = SqueezeParams(0.0, 0.0)
        value = circuit_kernel(0.123, 0.123, eta, 32)
        assert 0.0 <= value <= 1.0

    def test_peak_memory_at_cutoff_256(self):
        eta = SqueezeParams(0.8, 0.3)
        circuit_kernel(0.2, -0.5, eta, 256)  # first-call set-up stays outside the trace
        tracemalloc.start()
        try:
            circuit_kernel(0.2, -0.5, eta, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _outcome(fn, *args):
    """A call's value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


class TestCircuitKernelAgainstOperatorProduct:
    """``circuit_kernel`` against ``circuit_kernel_reference``, which builds
    the four full operators: the same values and the same errors."""

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.8),
        st.floats(min_value=0.0, max_value=math.pi, exclude_max=True),
        st.sampled_from([2, 3, 8, 33, 64, 96]),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_value_or_same_error(self, xp, xq, r, theta, cutoff):
        eta = SqueezeParams(r, theta)
        new = _outcome(circuit_kernel, xp, xq, eta, cutoff)
        ref = _outcome(circuit_kernel_reference, xp, xq, eta, cutoff)
        if isinstance(ref, float):
            assert isinstance(new, float) and abs(new - ref) <= 1e-12
        else:
            assert new == ref

    @pytest.mark.parametrize("cutoff", [2, 3])
    @pytest.mark.parametrize("r", [0.0, 1e-5])
    @pytest.mark.parametrize("xp, xq", [(0.0, 0.4), (0.35, -0.3)])
    def test_smallest_even_blocks(self, xp, xq, r, cutoff):
        # one and two even states, at an even and an odd cutoff
        eta = SqueezeParams(r, 0.4)
        ref = circuit_kernel_reference(xp, xq, eta, cutoff)
        assert abs(circuit_kernel(xp, xq, eta, cutoff) - ref) <= 1e-12

    @pytest.mark.parametrize(
        "xp, xq, r, cutoff, error",
        [
            (math.nan, 0.0, 0.3, 64, InvalidInputError),
            (0.0, math.inf, 0.3, 64, InvalidInputError),
            (-math.inf, 3.0, 0.8, 8, InvalidInputError),
            (0.0, 0.5, 0.8, 8, CutoffExceededError),
            (2.0, 2.0, 0.8, 33, CutoffExceededError),
            (1.5, 0.0, 0.2, 8, CutoffExceededError),
            (0.0, -1.5, 0.2, 8, CutoffExceededError),
            (1.5, -2.0, 0.2, 8, CutoffExceededError),
            (1.5, -2.0, 0.0, 1, InvalidDimensionError),
            (0.0, 0.5, 0.8, 1, InvalidDimensionError),
            (1e200, 0.0, 0.3, 64, CutoffExceededError),
            (0.5, -1e300, 0.3, 64, CutoffExceededError),
        ],
        ids=["nan-xp", "inf-xq", "non-finite-first", "tail-mass", "tail-mass-first",
             "xp", "xq", "xp-first", "cutoff-1", "cutoff-before-tail-mass", "xp-square-overflows",
             "xq-square-overflows"],
    )
    def test_rejections_match(self, xp, xq, r, cutoff, error):
        eta = SqueezeParams(r, 0.4)
        ref = _outcome(circuit_kernel_reference, xp, xq, eta, cutoff)
        assert ref[0] is error
        assert _outcome(circuit_kernel, xp, xq, eta, cutoff) == ref
