import numpy as np
import pytest

from defect_bands.symbol import (
    InputError,
    OmegaSymbol,
    SingularMatrix,
    TrigMatrixPolynomial,
    det,
    inverse,
    is_hermitian,
    smallest_singular_value,
)


def adjacency_1d():
    return TrigMatrixPolynomial(1, {(1,): [[1.0]], (-1,): [[1.0]]})


def random_poly(rng, torus_dim=2, dim=2, n_offsets=5):
    coeffs = {}
    while len(coeffs) < n_offsets:
        off = tuple(int(x) for x in rng.integers(-2, 3, size=torus_dim))
        coeffs[off] = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return TrigMatrixPolynomial(torus_dim, coeffs)


class TestEvalK:
    def test_constant_symbol(self):
        p = TrigMatrixPolynomial(2, {(0, 0): np.eye(2)})
        for k in ([0.0, 0.0], [0.3, -1.2]):
            assert np.allclose(p.eval(k), np.eye(2))

    def test_adjacency_cosine(self):
        p = adjacency_1d()
        assert np.allclose(p.eval([0.0]), [[2.0]])
        assert np.allclose(p.eval([np.pi / 3]), [[1.0]], atol=1e-14)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(0)
        p = random_poly(rng)
        ks = rng.uniform(-np.pi, np.pi, size=(7, 2))
        batch = p.eval(ks)
        for i, k in enumerate(ks):
            assert np.allclose(batch[i], p.eval(k))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            adjacency_1d().eval([0.0, 0.0])

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            half = random_poly(rng, n_offsets=3)
            coeffs = {}
            for off, m in half.items():
                coeffs[off] = coeffs.get(off, 0) + m
                neg = tuple(-c for c in off)
                coeffs[neg] = coeffs.get(neg, 0) + m.conj().T
            p = TrigMatrixPolynomial(2, coeffs)
            assert p.is_hermitian_family()
            k = rng.uniform(-np.pi, np.pi, size=2)
            assert is_hermitian(p.eval(k), tol=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng)
        k = rng.uniform(-np.pi, np.pi, size=2)
        base = p.eval(k)
        for axis in range(2):
            shifted = k.copy()
            shifted[axis] += 2 * np.pi
            assert np.max(np.abs(p.eval(shifted) - base)) <= 1e-12


class TestOmegaSymbol:
    def shifted_adjacency(self):
        return OmegaSymbol({0: adjacency_1d(),
                            1: TrigMatrixPolynomial(1, {(0,): [[-1.0]]})})

    def test_shift_family(self):
        s = self.shifted_adjacency()
        assert np.allclose(s.eval(1.0, [0.0]), [[1.0]])
        assert np.allclose(s.eval(2.0, [0.0]), [[0.0]])

    def test_quadratic_term(self):
        s = OmegaSymbol({0: adjacency_1d(),
                         2: TrigMatrixPolynomial(1, {(0,): [[-1.0]]})})
        assert np.allclose(s.eval(0.0, [0.0]), [[2.0]])
        assert np.allclose(s.eval(2.0, [np.pi]), [[-6.0]])

    def test_power_cap(self):
        with pytest.raises(InputError):
            OmegaSymbol({3: adjacency_1d()})

    def test_hermitian_family_flag(self):
        assert self.shifted_adjacency().is_hermitian_family()
        skew = OmegaSymbol({0: TrigMatrixPolynomial(1, {(1,): [[1.0]]})})
        assert not skew.is_hermitian_family()


class TestLinearAlgebra:
    def test_det_examples(self):
        assert det(np.eye(3)) == pytest.approx(1.0)
        assert det(np.diag([2.0, 3.0])) == pytest.approx(6.0)
        assert det(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)

    def test_det_exact_for_scalar(self):
        z = 0.123456789 + 0.25j
        assert det(np.array([[z]])) == z

    def test_inverse_examples(self):
        assert np.allclose(inverse(np.eye(2)), np.eye(2))
        assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
        assert np.allclose(inverse(np.array([[1.0, 1.0], [0.0, 1.0]])),
                           np.array([[1.0, -1.0], [0.0, 1.0]]))

    def test_inverse_singular_raises(self):
        with pytest.raises(SingularMatrix) as err:
            inverse(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert err.value.min_sigma == pytest.approx(0.0, abs=1e-15)

    def test_inverse_residual_bound(self):
        rng = np.random.default_rng(4)
        for m in (1, 2, 4, 8):
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) + 3 * np.eye(m)
            res = np.linalg.norm(a @ inverse(a) - np.eye(m))
            cond = np.linalg.cond(a)
            assert res <= 1e-10 * m * cond

    def test_det_inverse_consistency(self):
        rng = np.random.default_rng(5)
        for m in (2, 4, 8):
            for _ in range(10):
                a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) + 2 * np.eye(m)
                assert det(a) * det(inverse(a)) == pytest.approx(1.0, abs=1e-8)

    def test_smallest_singular_value(self):
        assert smallest_singular_value(np.eye(2)) == pytest.approx(1.0)
        assert smallest_singular_value(np.diag([3.0, 1e-15])) == pytest.approx(1e-15, rel=1e-9)
        assert smallest_singular_value(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)
