import dataclasses
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from defect_bands.model import (
    DefectLayer,
    GridConfig,
    InvalidSpec,
    ProblemSpec,
    ToleranceSet,
    defect_stencil_to_symbol,
    validate,
)
from defect_bands.symbol import InputError, OmegaSymbol, TrigMatrixPolynomial

TWO_PI = 2.0 * np.pi


def fourier_transform(values, support, k_rows):
    """Independent oracle: the lattice Fourier transform of a finitely
    supported sequence, f_hat(k) = (2*pi)^(-N/2) sum_n f(n) exp(i n.k)."""
    n_dim = k_rows.shape[1]
    out = np.zeros(k_rows.shape[0], dtype=complex)
    for cell, val in zip(support, values):
        out += val * np.exp(1j * (k_rows @ np.asarray(cell, dtype=float)))
    return TWO_PI ** (-n_dim / 2.0) * out


class TestStencilToSymbol:
    def test_adjacency(self):
        st = TrigMatrixPolynomial(1, {(1,): [[1.0]], (-1,): [[1.0]]})
        for k in (0.0, 0.7, np.pi):
            assert st.eval([k])[0, 0] == pytest.approx(2 * np.cos(k))

    def test_2d_sum(self):
        st = TrigMatrixPolynomial(2, {(1, 0): [[1.0]], (-1, 0): [[1.0]],
                                      (0, 1): [[1.0]], (0, -1): [[1.0]]})
        k = np.array([0.4, -1.1])
        assert st.eval(k)[0, 0] == pytest.approx(2 * np.cos(k[0]) + 2 * np.cos(k[1]))

    def test_constant(self):
        st = TrigMatrixPolynomial(1, {(0,): [[2.5]]})
        assert st.eval([0.9])[0, 0] == pytest.approx(2.5)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        hoppings = {(int(a), int(b)): rng.normal(size=(3, 3))
                    for a, b in rng.integers(-2, 3, size=(4, 2))}
        st = TrigMatrixPolynomial(2, hoppings)
        for off, m in st.items():
            assert np.array_equal(st.coeff(off), m)

    def test_self_adjoint_implies_hermitian_family(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m_sz = int(rng.integers(1, 5))
            n_off = int(rng.integers(1, 6))
            hoppings = {}
            for _ in range(n_off):
                off = tuple(int(x) for x in rng.integers(-2, 3, size=2))
                block = rng.normal(size=(m_sz, m_sz)) + 1j * rng.normal(size=(m_sz, m_sz))
                hoppings[off] = hoppings.get(off, 0) + block
                neg = tuple(-c for c in off)
                hoppings[neg] = hoppings.get(neg, 0) + block.conj().T
            st = TrigMatrixPolynomial(2, hoppings)
            assert st.is_hermitian_family()


class TestDefectNormalization:
    def test_point_defect_constant(self):
        st = TrigMatrixPolynomial(0, {(): [[1.0]]})
        sym = defect_stencil_to_symbol(st, 1, 1)
        assert sym.eval([0.3])[0, 0] == pytest.approx(0.3989422804014327)

    def test_zero_defect(self):
        st = TrigMatrixPolynomial(0, {(): [[0.0]]})
        sym = defect_stencil_to_symbol(st, 1, 1)
        assert sym.eval([1.0])[0, 0] == 0.0

    def test_codim_out_of_range(self):
        st = TrigMatrixPolynomial(0, {(): [[1.0]]})
        with pytest.raises(Exception):
            defect_stencil_to_symbol(st, 2, 1)

    def test_point_defect_action_matches_fourier_oracle_1d(self):
        # real-space action: (A_1 f)(n) = eps * f(0) * delta_{n,0};
        # engine action: symbol(k) times the axis-0 average of f_hat
        eps = 1.0
        rng = np.random.default_rng(12)
        support = [(n,) for n in range(-3, 4)]
        f_vals = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        k_rows = np.linspace(-np.pi, np.pi, 41)[:, None]

        sym = defect_stencil_to_symbol(
            TrigMatrixPolynomial(0, {(): [[eps]]}), 1, 1)
        f0 = f_vals[support.index((0,))]
        # the average <f_hat>_1 equals f(0) (only the n=0 mode survives)
        n_int = 256
        k_int = -np.pi + TWO_PI * np.arange(n_int) / n_int
        f_hat_int = fourier_transform(f_vals, support, k_int[:, None])
        avg = TWO_PI ** (-0.5) * (TWO_PI / n_int) * f_hat_int.sum()
        assert avg == pytest.approx(f0, abs=1e-12)

        engine_side = sym.eval(k_rows)[:, 0, 0] * avg
        real_space = fourier_transform([eps * f0], [(0,)], k_rows)
        assert np.max(np.abs(engine_side - real_space)) <= 1e-12

    def test_line_defect_action_matches_fourier_oracle_2d(self):
        eps = 0.8
        rng = np.random.default_rng(13)
        support = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        f_vals = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))

        sym = defect_stencil_to_symbol(
            TrigMatrixPolynomial(1, {(0,): [[eps]]}), 1, 2)
        ks = np.stack(np.meshgrid(np.linspace(-np.pi, np.pi, 9),
                                  np.linspace(-np.pi, np.pi, 9),
                                  indexing="ij"), axis=-1).reshape(-1, 2)

        # average over axis 0 at fixed k2, by exact trapezoid rule
        n_int = 128
        k_int = -np.pi + TWO_PI * np.arange(n_int) / n_int
        engine_side = np.zeros(len(ks), dtype=complex)
        for i, (k1, k2) in enumerate(ks):
            rows = np.stack([k_int, np.full(n_int, k2)], axis=-1)
            f_hat = fourier_transform(f_vals, support, rows)
            avg = TWO_PI ** (-0.5) * (TWO_PI / n_int) * f_hat.sum()
            engine_side[i] = sym.eval([k1, k2])[0, 0] * avg

        # real space: g(n1,n2) = eps * delta_{n1,0} * f(0,n2)
        g_support = [(0, b) for b in range(-2, 3)]
        g_vals = [eps * f_vals[support.index((0, b))] for b in range(-2, 3)]
        real_space = fourier_transform(g_vals, g_support, ks)
        assert np.max(np.abs(engine_side - real_space)) <= 1e-12

    def test_constant_in_averaged_directions(self):
        rng = np.random.default_rng(14)
        st = TrigMatrixPolynomial(
            1, {(m,): rng.normal(size=(2, 2)) for m in (-1, 0, 1)})
        sym = defect_stencil_to_symbol(st, 1, 2)
        k2 = 0.77
        a = sym.eval([0.1, k2])
        b = sym.eval([-2.9, k2])
        assert np.array_equal(a, b)


def make_spec(defects=(), tolerances=ToleranceSet()):
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(1, {(1,): [[1.0]], (-1,): [[1.0]]}),
        1: TrigMatrixPolynomial(1, {(0,): [[-1.0]]}),
    })
    return ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk,
                       defects=tuple(defects), tolerances=tolerances,
                       omega_window=(-4, 4))


def point_layer(strength=1.0, lattice_dim=1):
    return DefectLayer(1, lattice_dim,
                       {0: TrigMatrixPolynomial(
                           lattice_dim - 1,
                           {(0,) * (lattice_dim - 1): [[strength]]})})


class TestValidate:
    def test_well_formed(self):
        spec = make_spec([point_layer()])
        report = validate(spec)
        assert report.ok
        assert report.info["self_adjoint"]
        assert spec.omega_window == (-4.0, 4.0)

    def test_duplicate_codim(self):
        with pytest.raises(InvalidSpec) as err:
            make_spec([point_layer(1.0), point_layer(2.0)])
        assert err.value.violations == ["defect codim 1: duplicate codim 1"]

    def test_tolerance_ordering(self):
        with pytest.raises(InvalidSpec) as err:
            make_spec(tolerances=ToleranceSet(det_zero_tol=0.5, band_guard=0.1))
        assert err.value.violations == [
            "det_zero_tol must be smaller than band_guard"]

    def test_wrongly_typed_tolerances_listed(self):
        # a problem file can hold any JSON value; these are violations,
        # not a TypeError out of the comparisons
        with pytest.raises(InvalidSpec) as err:
            make_spec(tolerances=ToleranceSet(det_zero_tol="1e-8",
                                              k_grid_base=64.0))
        assert err.value.violations == [
            "tolerance det_zero_tol must be positive",
            "k_grid_base must be a power of two >= 4"]

    def test_every_violation_listed(self):
        with pytest.raises(InvalidSpec) as err:
            make_spec([point_layer(1.0), point_layer(2.0)],
                      ToleranceSet(det_zero_tol=0.5, band_guard=0.1))
        assert err.value.violations == [
            "defect codim 1: duplicate codim 1",
            "det_zero_tol must be smaller than band_guard"]
        assert isinstance(err.value, InputError)
        assert str(err.value) == ("invalid spec: "
                                  + "; ".join(err.value.violations))

    def test_layer_of_another_lattice(self):
        # codim 1 of a 2D lattice is a line, not a point of the 1D chain
        with pytest.raises(InvalidSpec) as err:
            make_spec([point_layer(lattice_dim=2)])
        assert err.value.violations == [
            "defect codim 1: symbol torus_dim 2 != lattice_dim 1"]

    @pytest.mark.parametrize("fields, violations", [
        ({"lattice_dim": 0, "bulk": OmegaSymbol({
            0: TrigMatrixPolynomial(0, {(): [[0.0]]}),
            1: TrigMatrixPolynomial(0, {(): [[-1.0]]})})},
         ["lattice_dim must be >= 1"]),
        ({"cell_size": 0},
         ["cell_size must be >= 1", "bulk symbol size 1 != cell_size 0"]),
        ({"lattice_dim": 2}, ["bulk symbol torus_dim 1 != lattice_dim 2"]),
        ({"cell_size": 2}, ["bulk symbol size 1 != cell_size 2"]),
        ({"defects": (DefectLayer(1, 1, {0: TrigMatrixPolynomial(
            0, {(): np.eye(2)})}),)},
         ["defect codim 1: symbol size 2 != cell_size 1"]),
        ({"omega_window": (4.0, -4.0)}, ["omega_window must satisfy min < max"]),
        ({"omega_window": (1.0, 1.0)}, ["omega_window must satisfy min < max"]),
        ({"omega_window": (np.nan, 4.0)},
         ["omega_window must satisfy min < max"]),
    ])
    def test_structural_violations(self, fields, violations):
        base = make_spec()
        with pytest.raises(InvalidSpec) as err:
            dataclasses.replace(base, **fields)
        assert err.value.violations == violations

    def test_codim_beyond_lattice_cannot_be_built(self):
        with pytest.raises(InputError, match="codim must lie in 1..1"):
            DefectLayer(2, 1, {0: TrigMatrixPolynomial(0, {(): [[1.0]]})})

    def test_symbol_is_derived_from_stencils(self):
        stencil = TrigMatrixPolynomial(
            1, {(0,): [[0.8]], (1,): [[0.3]], (-1,): [[0.3]]})
        layer = DefectLayer(1, 2, {0: stencil})
        assert layer.stencils == {0: stencil}
        expected = defect_stencil_to_symbol(stencil, 1, 2)
        k = np.array([[0.4, -1.3], [2.0, 0.7]])
        assert np.array_equal(layer.symbol.terms[0].eval(k), expected.eval(k))

    def test_spec_is_frozen(self):
        spec = make_spec([point_layer()])
        with pytest.raises(FrozenInstanceError):
            spec.tolerances = ToleranceSet(det_zero_tol=0.5, band_guard=0.1)
        with pytest.raises(FrozenInstanceError):
            spec.tolerances.band_guard = 1e-9
        with pytest.raises(FrozenInstanceError):
            spec.defects = ()
        assert validate(spec).ok


class TestGridConfig:
    def test_defaults_and_small_grids_build(self):
        assert GridConfig() == GridConfig(k_points=64, omega_points=513)
        GridConfig(k_points=4, omega_points=2)

    @pytest.mark.parametrize("grids, violations", [
        ({"k_points": 0}, ["grids k_points must be a power of two >= 4"]),
        ({"k_points": 2}, ["grids k_points must be a power of two >= 4"]),
        ({"k_points": 24}, ["grids k_points must be a power of two >= 4"]),
        ({"k_points": 64.0}, ["grids k_points must be a power of two >= 4"]),
        ({"omega_points": 1}, ["grids omega_points must be >= 2"]),
        ({"k_points": -4, "omega_points": 0},
         ["grids k_points must be a power of two >= 4",
          "grids omega_points must be >= 2"]),
    ])
    def test_invalid_grids_cannot_be_built(self, grids, violations):
        with pytest.raises(InvalidSpec) as err:
            GridConfig(**grids)
        assert err.value.violations == violations

    def test_grids_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            GridConfig().k_points = 0
