import numpy as np
import pytest
from scipy.integrate import quad

from defect_bands.model import DefectLayer, ProblemSpec
from defect_bands.quadrature import (
    NonConvergence,
    _product_nodes,
    grid_nodes,
    trapezoid_sum,
)
from defect_bands.spectrum import N_QUAD_START, Chain, node_mesh
from defect_bands.symbol import InputError, OmegaSymbol, TrigMatrixPolynomial
from tests_util import _square_bulk

TWO_PI = 2.0 * np.pi
SQRT_TWO_PI = np.sqrt(TWO_PI)
#: the single remaining-coordinate row of a point-defect level
POINT = np.zeros((1, 0))


def on_nodes(fn, n, j=1):
    """A scalar function of k rows at the n^j leading-axis nodes, as 1x1s."""
    vals = fn(_product_nodes(grid_nodes(n), j))
    return np.asarray(vals, dtype=complex).reshape(-1, 1, 1)


def nested_sum(vals, n):
    """The scaled average over two axes of values at the n x n nodes, shape
    (n^2, ...): one one-axis sum per axis, axis 1 first."""
    return trapezoid_sum(trapezoid_sum(vals.reshape((n, n) + vals.shape[1:]),
                                       n), n)


def random_trig_2d(n):
    """Seeded random trig polynomial of degree 2 per axis, at the n x n nodes.

    Returns the coefficients by offset and the values, shape (n^2, 1, 1).
    """
    rng = np.random.default_rng(20)
    coeff = {(a, b): rng.normal() + 1j * rng.normal()
             for a in range(-2, 3) for b in range(-2, 3)}
    return coeff, on_nodes(lambda k: sum(
        c * np.exp(1j * (a * k[:, 0] + b * k[:, 1]))
        for (a, b), c in coeff.items()), n, j=2)


class TestGrid:
    def test_nodes_exclude_plus_pi(self):
        nodes = grid_nodes(8)
        assert nodes[0] == -np.pi
        assert nodes[-1] < np.pi
        assert len(nodes) == 8

    def test_power_of_two_required(self):
        for bad in (3, 6, 2, 12):
            with pytest.raises(InputError):
                grid_nodes(bad)


class TestBracket:
    """The scaled trapezoid sum every bracket of the engine is made of."""

    def test_constant_is_scaled_not_averaged(self):
        c = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
        avg = trapezoid_sum(np.broadcast_to(c, (16, 2, 2)), 16)
        assert np.allclose(avg, SQRT_TWO_PI * c, atol=1e-13)

    def test_fourier_mode_integrates_to_zero(self):
        avg = trapezoid_sum(on_nodes(lambda k: np.exp(1j * k[:, 0]), 4), 4)
        assert np.max(np.abs(avg)) <= 1e-13

    def test_fourier_orthogonality_pins_normalization(self):
        n = 16
        for mode in range(1, n):
            vals = on_nodes(lambda k: np.exp(1j * mode * k[:, 0]), n)
            assert np.max(np.abs(trapezoid_sum(vals, n))) <= 1e-13, \
                f"mode {mode}"
        ones = on_nodes(lambda k: np.ones(k.shape[0]), n)
        assert abs(trapezoid_sum(ones, n)[0, 0] - SQRT_TWO_PI) <= 1e-13

    def test_two_axis_constant_normalization(self):
        ones = on_nodes(lambda k: np.ones(k.shape[0]), 8, j=2)
        assert abs(nested_sum(ones, 8)[0, 0] - TWO_PI) <= 1e-13 * TWO_PI

    def test_lattice_green_integral(self, chain_defect_model):
        # independent oracles: adaptive Gauss quadrature of the same
        # integrand and the closed form 5^(-1/2)
        reference, err = quad(lambda k: 1.0 / (3.0 - 2.0 * np.cos(k)),
                              -np.pi, np.pi, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-6
        assert reference / TWO_PI == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)

        vals = on_nodes(lambda k: 1.0 / (3.0 - 2.0 * np.cos(k[:, 0])), 64)
        value = trapezoid_sum(vals, 64)[0, 0].real
        assert value == pytest.approx(TWO_PI ** (-0.5) * reference, abs=1e-12)
        assert value == pytest.approx(SQRT_TWO_PI / np.sqrt(5.0), abs=1e-10)

        # the unit point defect at omega = 3: B_1 = 1 - (2 pi)^-1 integral
        spec, _ = chain_defect_model
        level1 = Chain(spec, 3.0).level_values(1, POINT)[0, 0, 0]
        assert level1.real == pytest.approx(1.0 - reference / TWO_PI, abs=1e-10)

    def test_nesting_matches_double_bracket(self):
        # summing axis 1 first or axis 2 first gives the weighted double sum
        n = 16
        _, vals = random_trig_2d(n)
        both = TWO_PI ** -1.0 * (TWO_PI / n) ** 2 * vals.sum(axis=0)
        swapped = nested_sum(vals.reshape(n, n, 1, 1).swapaxes(0, 1)
                             .reshape(n * n, 1, 1), n)
        assert np.max(np.abs(both - nested_sum(vals, n))) <= 1e-12
        assert np.max(np.abs(both - swapped)) <= 1e-12

    def test_exact_below_nyquist(self):
        # degree 2 < n/2 per axis: the sum is (2 pi)^(j/2) times the mean
        n = 16
        coeff, vals = random_trig_2d(n)
        got = nested_sum(vals, n)[0, 0]
        assert abs(got - TWO_PI * coeff[(0, 0)]) <= 1e-12

    def test_remaining_axis_dependence(self):
        t_rows = np.array([[0.0], [0.5], [-1.3]])
        k = node_mesh(32, 1, t_rows)
        vals = (np.cos(k[..., 0]) + np.sin(k[..., 1]))[..., None, None]
        avg = trapezoid_sum(vals + 0j, 32)[:, 0, 0]
        assert np.allclose(avg.real, SQRT_TWO_PI * np.sin(t_rows[:, 0]),
                           rtol=0.0, atol=1e-12)

    def test_determinism(self, chain_defect_model):
        spec, _ = chain_defect_model
        a = Chain(spec, 3.0).level_values(1, POINT)
        b = Chain(spec, 3.0).level_values(1, POINT)
        assert np.array_equal(a, b)

    def test_bits_independent_of_layout_and_batch(self):
        # a row's sum is the same in a C-ordered batch, a node-contiguous
        # batch (the eigen table's layout) and alone
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((256, 64, 1, 1)) \
            + 1j * rng.standard_normal((256, 64, 1, 1))
        node_major = np.moveaxis(
            np.ascontiguousarray(np.moveaxis(vals, 0, -1)), -1, 0)
        assert node_major.strides[0] == vals.itemsize
        want = trapezoid_sum(vals, 256)
        assert np.array_equal(trapezoid_sum(node_major, 256), want)
        for r in range(vals.shape[1]):
            assert np.array_equal(trapezoid_sum(vals[:, r:r + 1], 256),
                                  want[r:r + 1])


class TestAdaptiveBracket:
    """The n-doubling `Chain` runs around the trapezoid sum.

    Level-1 brackets are exact residues with no n (`TestClosedFormBracket`
    and `test_spectrum.TestResidueLevelOne`), so these run on level-2
    brackets, which double n on axis 2 over an exact level 1."""

    def test_smooth_integrand_converges_fast(self):
        # the square lattice's point defect v: B_2 = 1 - v G(omega), G the
        # mean of 1/(omega - H) = (2/(pi omega)) K(16/omega^2) (mpmath)
        import mpmath
        v, omega = 1.5, 6.0
        chain = Chain(plane_point(_square_bulk(), v), omega)
        value = chain.level_values(2, POINT)[0, 0, 0]
        assert chain._nquad == {2: 32}
        w = mpmath.mpf(omega)
        want = 1.0 - v * float(2 / (mpmath.pi * w) * mpmath.ellipk(16 / w**2))
        assert value == pytest.approx(want, abs=1e-12)

    def test_band_edge_pole_raises_with_witness(self):
        # at omega = 4 the level-2 integrand has its pole at the k_2 = 0
        # node, where omega is the edge of that row's band [0, 4]: the
        # level-1 cell there fails the bracket on the first grid
        with pytest.raises(NonConvergence) as err:
            Chain(plane_point(_square_bulk()), 4.0).level_values(2, POINT)
        assert (err.value.n_reached, err.value.witness_sigma_min) == (0, 0.0)
        assert str(err.value).startswith("level 1 closed form: omega=4.0 ")

    def test_later_rows_use_pinned_n(self):
        # the first call at a level pins its n; rows seen later are the
        # trapezoid sum at that n alone, here built by hand for the cubic
        # lattice's line defect along axis 3 over the exact level 1,
        # P_1 = sqrt(2 pi) sign(h_0 - omega) / sqrt(d (d + 4)) with
        # h_0 = 2 cos k_2 + 2 cos k_3 and d its row's distance to the band
        bulk = OmegaSymbol({
            0: TrigMatrixPolynomial(3, {off: [[1.0]] for off in (
                (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                (0, 0, -1))}),
            1: TrigMatrixPolynomial(3, {(0, 0, 0): [[-1.0]]})})
        line = DefectLayer(2, 3, {0: TrigMatrixPolynomial(1, {(0,): [[1.0]]})})
        spec = ProblemSpec(lattice_dim=3, cell_size=1, bulk=bulk,
                           defects=(line,), omega_window=(-8.0, 8.0))
        omega = 6.5
        chain = Chain(spec, omega)
        chain.level_values(2, [[np.pi]])
        n = chain._nquad[2]
        assert n > N_QUAD_START
        got = chain.level_values(2, [[2.5]])[0, 0, 0]
        assert chain._nquad == {2: n}
        shift = 2 * np.cos(grid_nodes(n)) + 2 * np.cos(2.5) - omega
        dist = np.abs(shift) - 2.0
        p_1 = SQRT_TWO_PI * np.sign(shift) / np.sqrt(dist * (dist + 4.0))
        a = line.symbol.eval(omega, np.zeros((1, 3)))[0, 0, 0]
        want = 1.0 + trapezoid_sum(p_1 + 0j, n) * a
        assert abs(got - want) <= 1e-12

    def test_constant_converges_immediately(self):
        # the chain 2 cos k_1 on the plane makes the level-2 integrand
        # constant in k_2: B_2 = 1 + v <1/(2 cos k_1 - omega)> = 1 - 1/sqrt5
        bulk = OmegaSymbol({
            0: TrigMatrixPolynomial(2, {(1, 0): [[1.0]], (-1, 0): [[1.0]]}),
            1: TrigMatrixPolynomial(2, {(0, 0): [[-1.0]]})})
        chain = Chain(plane_point(bulk), 3.0)
        value = chain.level_values(2, POINT)[0, 0, 0]
        assert chain._nquad == {2: 2 * N_QUAD_START}
        assert value == pytest.approx(1.0 - 1.0 / np.sqrt(5.0), abs=1e-14)


def plane_point(bulk, v=1.0):
    """A plane bulk with a point defect v."""
    point = DefectLayer(2, 2, {0: TrigMatrixPolynomial(0, {(): [[v]]})})
    return ProblemSpec(lattice_dim=2, cell_size=1, bulk=bulk,
                       defects=(point,), omega_window=(-8.0, 8.0))


def flat_chain():
    """A flat band 2.5 - omega with a unit point defect."""
    bulk = OmegaSymbol({0: TrigMatrixPolynomial(1, {(0,): [[2.5]]}),
                        1: TrigMatrixPolynomial(1, {(0,): [[-1.0]]})})
    layer = DefectLayer(1, 1, {0: TrigMatrixPolynomial(0, {(): [[1.0]]})})
    return ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk,
                       defects=(layer,))


class TestClosedFormBracket:
    """The closed form of M = 1 level-1 brackets: exact values with no n
    and nothing pinned, and failing cells named by their distance to the
    row's bulk band."""

    def test_smooth_integrand_is_exact(self, chain_defect_model):
        spec, _ = chain_defect_model
        chain = Chain(spec, 3.0)
        value = chain.level_values(1, POINT)[0, 0, 0]
        assert chain._nquad == {}
        assert abs(value - (1.0 - 1.0 / np.sqrt(5.0))) <= 1e-15

    @pytest.mark.parametrize("omega", [2.0, -2.0, 1.0])
    def test_band_cell_fails_with_witness_zero(self, chain_defect_model,
                                               omega):
        # omega = +-2 is the band's edge and 1 lies inside it: distance 0
        spec, _ = chain_defect_model
        chain = Chain(spec, omega)
        with pytest.raises(NonConvergence) as err:
            chain.level_values(1, POINT)
        assert err.value.n_reached == 0
        assert err.value.witness_sigma_min == 0.0
        assert str(err.value) == (
            f"level 1 closed form: omega={omega!r} is in a row's bulk band "
            "or within its rank guard")
        assert chain._nquad == {}

    def test_later_rows_need_no_pin(self, square_line_model):
        # rows asked later are exact too, with no n: against the trapezoid
        # sum at n = 256 built by hand, and the closed form
        # sign(h_0 - omega) / sqrt((h_0 - omega)^2 - 4), h_0 = 2 cos k_2
        spec, _ = square_line_model
        chain = Chain(spec, 2.0)
        chain.level_values(1, [[np.pi]])
        got = chain.level_values(1, [[2.5]])[0, 0, 0]
        assert chain._nquad == {}
        k1 = grid_nodes(256)
        integrand = SQRT_TWO_PI ** -1 / (2 * np.cos(k1) + 2 * np.cos(2.5) - 2.0)
        assert abs(got - (1.0 + trapezoid_sum(integrand, 256))) <= 1e-14
        shift = 2 * np.cos(2.5) - 2.0
        assert abs(got - (1.0 - 1.0 / np.sqrt(shift ** 2 - 4.0))) <= 1e-14

    def test_flat_row_is_one_over_the_shift(self):
        # h_1 = 0: G = 1 / (h_0 - omega)
        chain = Chain(flat_chain(), 0.0)
        value = chain.level_values(1, POINT)[0, 0, 0]
        assert chain._nquad == {}
        assert abs(value - (1.0 + 1.0 / 2.5)) <= 1e-15
