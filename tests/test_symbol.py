import numpy as np
import pytest

from conftest import load_model
from defect_bands.spectrum import full_spectrum, membership
from defect_bands.symbol import (
    InputError,
    OmegaSymbol,
    SingularMatrix,
    TrigMatrixPolynomial,
    as_complex_matrix,
    det,
    eigh,
    eigvalsh,
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

    def test_hermitian_stack_scales_each_matrix(self):
        # a unit block 1e-13 from Hermitian beside a 1e3-scale Hermitian
        # block: the large block's scale must not cover the small one
        big = np.array([[1e3, 2.0], [2.0, -5e2]])
        small = np.array([[0.5, 1.0 + 1e-13], [1.0, 0.25]])
        stack = np.stack([big, small])
        assert is_hermitian(np.stack([big, small + small.T]), tol=1e-14)
        assert not is_hermitian(stack, tol=1e-14)
        assert is_hermitian(stack, tol=1e-12)

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

    @pytest.mark.parametrize("powers", [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)])
    def test_combine_of_row_tables_has_eval_bits(self, powers):
        # the Fourier sums evaluated once on all rows, then weighted at each
        # omega on a subset of the rows, against the term-by-term loop
        rng = np.random.default_rng(31)
        sym = OmegaSymbol({p: random_poly(rng) for p in powers})
        k = rng.uniform(-np.pi, np.pi, size=(300, 2))
        tabs = sym.tabulate(k)
        assert len(tabs) == len(powers)
        for omega in (0.0, -1.7, 2.3, 5.180756781817904):
            rows = rng.choice(len(k), size=40, replace=False)
            want = None
            for p, poly in sym.terms.items():
                piece = (complex(omega) ** p) * poly.eval(k[rows]) if p \
                    else poly.eval(k[rows])
                want = piece if want is None else want + piece
            got = sym.combine(omega, [t[rows] for t in tabs])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(sym.eval(omega, k[rows]).view(np.int64),
                                  want.view(np.int64))


@pytest.mark.parametrize("build, message", [
    (lambda: as_complex_matrix([[1.0, 2.0]]),
     r"expected a square matrix, got shape \(1, 2\)"),
    (lambda: TrigMatrixPolynomial(-1, {(): [[1.0]]}),
     "torus_dim must be >= 0"),
    (lambda: TrigMatrixPolynomial(1, {(0, 0): [[1.0]]}),
     r"offset \(0, 0\) has length 2, torus_dim is 1"),
    (lambda: TrigMatrixPolynomial(1, {(0,): [[1.0]], 0: [[2.0]]}),
     r"duplicate offset \(0,\)"),
    (lambda: TrigMatrixPolynomial(1, {(0,): [[1.0]], (1,): np.eye(2)}),
     "all coefficient matrices must share one size"),
    (lambda: TrigMatrixPolynomial(1, {}),
     "a trig polynomial needs at least one coefficient"),
    (lambda: OmegaSymbol({-1: adjacency_1d()}),
     "omega powers must be nonnegative"),
    (lambda: OmegaSymbol({0: [[1.0]]}),
     "terms must be TrigMatrixPolynomial instances"),
    (lambda: OmegaSymbol({}), "an OmegaSymbol needs at least one term"),
    (lambda: OmegaSymbol({0: adjacency_1d(), 1: TrigMatrixPolynomial(
        2, {(0, 0): [[-1.0]]})}),
     "all terms must share matrix size and torus_dim"),
])
def test_malformed_input_refused(build, message):
    with pytest.raises(InputError, match=message):
        build()


def scalar_batch(values):
    return np.asarray(values, dtype=complex).reshape(-1, 1, 1)


def ulps(a, b):
    """Distance in units in the last place of two nonnegative float arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


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
        assert np.allclose(inverse([[1e-13]]), [[1e13]], rtol=1e-15, atol=0)

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

    # M = 1: the bare entry instead of LAPACK, with LAPACK's bits
    def test_sigma_min_bit_equal_to_svd_on_real_entries(self):
        rng = np.random.default_rng(6)
        a = scalar_batch(np.concatenate([
            rng.normal(size=4000), rng.normal(size=4000) * 1e-9,
            [0.0, -0.0, 1e-310, -3.5, 1e300]]))
        svd = np.linalg.svd(a, compute_uv=False)[..., -1]
        got = smallest_singular_value(a)
        assert got.dtype == svd.dtype and got.shape == svd.shape
        assert np.array_equal(got.view(np.int64), svd.view(np.int64))

    def test_sigma_min_within_one_ulp_of_svd_on_complex_entries(self):
        rng = np.random.default_rng(7)
        a = scalar_batch((rng.normal(size=20000) + 1j * rng.normal(size=20000))
                         * np.repeat([1.0, 1e-8, 1e8, 1.0], 5000)
                         + np.repeat([0.0, 0.0, 0.0, 1e-17j], 5000))
        svd = np.linalg.svd(a, compute_uv=False)[..., -1]
        assert ulps(smallest_singular_value(a), svd).max() <= 1

    def test_sigma_min_of_one_matrix(self):
        assert smallest_singular_value([[3.0 - 4.0j]]) == 5.0

    def test_eigh_bit_identical_to_lapack(self):
        rng = np.random.default_rng(8)
        diag = np.concatenate([rng.normal(size=500),
                               rng.normal(size=500) + 1e-17j * rng.normal(size=500),
                               [0.0, -0.0, 1e-17j, np.nan, np.inf]])
        for a in (scalar_batch(diag), scalar_batch(diag).reshape(5, -1, 1, 1),
                  np.array([[2.5 + 1e-17j]])):
            w, u = eigh(a)
            w_ref, u_ref = np.linalg.eigh(a)
            assert w.dtype == w_ref.dtype and u.dtype == u_ref.dtype
            assert w.shape == w_ref.shape and u.shape == u_ref.shape
            assert np.array_equal(w.view(np.int64), w_ref.view(np.int64))
            assert np.array_equal(u.view(np.int64), u_ref.view(np.int64))

    def test_eigvalsh_bit_identical_to_lapack(self):
        rng = np.random.default_rng(12)
        diag = np.concatenate([rng.normal(size=500) + 1j * rng.normal(size=500),
                               rng.normal(size=500),
                               [0.0, -0.0, 1e-17j, np.nan, np.inf]])
        pair = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
        for a in (scalar_batch(diag), scalar_batch(diag).reshape(5, -1, 1, 1),
                  np.array([[2.5 + 1e-17j]]), pair + pair.conj().swapaxes(1, 2)):
            w, w_ref = eigvalsh(a), np.linalg.eigvalsh(a)
            assert w.dtype == w_ref.dtype and w.shape == w_ref.shape
            assert np.array_equal(w.view(np.int64), w_ref.view(np.int64))

    def test_inverse_bits_unchanged(self):
        rng = np.random.default_rng(9)
        a = scalar_batch(rng.normal(size=1000) + 1j * rng.normal(size=1000))
        assert np.array_equal(inverse(a).view(np.int64),
                              np.linalg.inv(a).view(np.int64))

    # 1e-16 is below the floor 64 eps max(1, sigma_max), which a relative
    # floor 64 eps sigma_max = 64 eps sigma_min never reaches for M = 1
    @pytest.mark.parametrize("a", [[[0.0]], [[[1.0]], [[0.0]]], [[1e-320]],
                                   [[[1e-16]]]])
    def test_inverse_singular_at_zero(self, a):
        with pytest.raises(SingularMatrix) as err:
            inverse(a)
        assert err.value.min_sigma == float(np.min(np.abs(a)))

    @pytest.mark.parametrize("entry", [np.nan, complex(1.0, np.nan),
                                       complex(np.nan, 0.0)])
    def test_nan_raises_linalg_error(self, entry):
        # a NaN sigma_min would read as "not singular"
        batch = scalar_batch([1.0, entry])
        with pytest.raises(np.linalg.LinAlgError):
            smallest_singular_value(batch)
        with pytest.raises(np.linalg.LinAlgError):
            inverse(batch)

    def test_infinite_entry_reads_like_svd(self):
        a = scalar_batch([2.0, np.inf])
        assert np.array_equal(smallest_singular_value(a),
                              np.linalg.svd(a, compute_uv=False)[..., -1],
                              equal_nan=True)

    def test_ladder_runs_without_lapack_svd_or_eigh(self, monkeypatch):
        line, _ = load_model("square_line_defect.json")
        point, point_grids = load_model("chain_point_defect.json")

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called on a 1 x 1 ladder")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert membership(line, 5.3).status == "out"
        assert membership(line, 1.0).status == "in"
        result = full_spectrum(point, point_grids, n_probes=4)
        assert any(c.kind == "isolated_point"
                   and abs(c.lo - np.sqrt(5.0)) < 1e-8 for c in result.components)
