import dataclasses
import json
import logging
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import config_path, load_model
from tests_util import two_site
from defect_bands import spectrum
from defect_bands.cli import load_config, spec_from_config
from defect_bands.model import (
    DefectLayer,
    GridConfig,
    ProblemSpec,
    ToleranceSet,
)
from defect_bands.quadrature import NonConvergence
from defect_bands.spectrum import (
    N_QUAD_MAX,
    N_QUAD_START,
    Branch,
    Chain,
    ExclusionSet,
    UncertifiedLevel,
    _Bracket,
    _GreenTable,
    _branch_components,
    _count_roots,
    _grid_tabs,
    _hermitian_linear_fast,
    _orient,
    _search,
    bands,
    bands_grid,
    dispersion_branch,
    exclusion_set,
    forward_apply,
    full_mesh,
    full_spectrum,
    lattice_green,
    membership,
    merge_intervals,
    node_mesh,
    resolvent_apply,
    step_check,
    trig_vector,
)
from defect_bands.symbol import (
    TWO_PI,
    InputError,
    OmegaSymbol,
    SingularMatrix,
    TrigMatrixPolynomial,
    inverse,
)

SQRT5 = np.sqrt(5.0)


def coarse(spec, k_points=32, omega_points=257):
    return GridConfig(k_points=k_points, omega_points=omega_points)


def omega_line_model():
    """The square lattice's line defect 1 + omega / 4 of
    `tools/square_line_omega_defect.json`: (spec, grids)."""
    path = Path(__file__).parents[1] / "tools" / \
        "square_line_omega_defect.json"
    return spec_from_config(load_config(str(path)))


def squared_frequency_point_defect():
    """(2 + 2 cos k) - omega^2 with a unit point defect: not eigenvalue form."""
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(
            1, {(0,): [[2.0]], (1,): [[1.0]], (-1,): [[1.0]]}),
        2: TrigMatrixPolynomial(1, {(0,): [[-1.0]]}),
    })
    layer = DefectLayer(1, 1, {0: TrigMatrixPolynomial(0, {(): [[1.0]]})})
    return ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk,
                       defects=(layer,), omega_window=(-3.0, 3.0))


def squared_frequency_ragged():
    """(2 cos k + 0.5) - omega^2: two real roots where cos k >= -1/4, none
    elsewhere, so the band count varies with k."""
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(
            1, {(0,): [[0.5]], (1,): [[1.0]], (-1,): [[1.0]]}),
        2: TrigMatrixPolynomial(1, {(0,): [[-1.0]]}),
    })
    return ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk,
                       omega_window=(-3.0, 3.0))


def massless_site_pair():
    """Two sites coupled by 1 + e^{ik}, on-site 2 and 1, with masses 1 and
    0: T_2 = -diag(1, 0) is singular, so every row takes a shift s.
    det T = -2 cos k - omega^2, real roots where cos k <= 0 alone."""
    hop = {(0,): [[2.0, 1.0], [1.0, 1.0]], (1,): [[0.0, 1.0], [0.0, 0.0]],
           (-1,): [[0.0, 0.0], [1.0, 0.0]]}
    mass = {(0,): -np.diag([1.0, 0.0])}
    bulk = OmegaSymbol({0: TrigMatrixPolynomial(1, hop),
                        2: TrigMatrixPolynomial(1, mass)})
    return ProblemSpec(lattice_dim=1, cell_size=2, bulk=bulk)


def squared_frequency_line_and_point():
    """(4 + 2 cos k_1 + 2 cos k_2) - omega^2 with a unit line defect and a
    unit point defect on it: every B_0^{-1} takes the SVD-guarded path."""
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(2, {(0, 0): [[4.0]],
                                    (1, 0): [[1.0]], (-1, 0): [[1.0]],
                                    (0, 1): [[1.0]], (0, -1): [[1.0]]}),
        2: TrigMatrixPolynomial(2, {(0, 0): [[-1.0]]}),
    })
    line = DefectLayer(1, 2, {0: TrigMatrixPolynomial(1, {(0,): [[1.0]]})})
    point = DefectLayer(2, 2, {0: TrigMatrixPolynomial(0, {(): [[1.0]]})})
    return ProblemSpec(lattice_dim=2, cell_size=1, bulk=bulk,
                       defects=(line, point), omega_window=(-4.0, 4.0))


def chain_in_plane():
    """2 cos k_1 - omega on the plane, with a unit point defect: an M = 1
    level-2 bracket, which doubles n on axis 2 over a closed-form level 1."""
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(2, {(1, 0): [[1.0]], (-1, 0): [[1.0]]}),
        1: TrigMatrixPolynomial(2, {(0, 0): [[-1.0]]}),
    })
    point = DefectLayer(2, 2, {0: TrigMatrixPolynomial(0, {(): [[1.0]]})})
    return ProblemSpec(lattice_dim=2, cell_size=1, bulk=bulk,
                       defects=(point,), omega_window=(-4.0, 4.0))


def next_nearest_chain():
    """2 cos 2k - omega on the chain, with a unit point defect: an M = 1
    level-1 bracket whose axis-1 hopping reaches two cells, so it doubles
    n."""
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(1, {(2,): [[1.0]], (-2,): [[1.0]]}),
        1: TrigMatrixPolynomial(1, {(0,): [[-1.0]]}),
    })
    point = DefectLayer(1, 1, {0: TrigMatrixPolynomial(0, {(): [[1.0]]})})
    return ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk,
                       defects=(point,), omega_window=(-4.0, 4.0))


class TestBuildB0:
    def test_adjacency_no_shift(self, chain_model):
        spec, _ = chain_model
        rows = np.array([[0.0], [np.pi / 2], [np.pi]])
        vals = spec.bulk.eval(0.0, rows)
        assert np.allclose(vals[:, 0, 0], 2 * np.cos(rows[:, 0]), atol=1e-14)

    def test_adjacency_shift(self, chain_model):
        spec, _ = chain_model
        assert spec.bulk.eval(3.0, np.array([[0.0]]))[0, 0, 0] == \
            pytest.approx(-1.0)

    def test_2d_origin(self, square_model):
        spec, _ = square_model
        assert spec.bulk.eval(0.0, np.array([[0.0, 0.0]]))[0, 0, 0] == \
            pytest.approx(4.0)


class TestStepCheck:
    def fn_for(self, spec, omega):
        chain = Chain(spec, omega)
        return lambda rows: chain.level_values(0, rows)

    def test_detects_inside_band(self, chain_model):
        spec, _ = chain_model
        res = step_check(self.fn_for(spec, 1.0), 1, 64, spec.tolerances,
                         mode="hermitian")
        assert res.detected

    def test_certifies_outside_band(self, chain_model):
        spec, _ = chain_model
        res = step_check(self.fn_for(spec, 3.0), 1, 64, spec.tolerances,
                         mode="hermitian")
        assert not res.detected
        assert res.min_sigma == pytest.approx(1.0, abs=1e-12)

    def test_band_edge_tangential_zero(self, chain_model):
        spec, _ = chain_model
        res = step_check(self.fn_for(spec, 2.0), 1, 64, spec.tolerances,
                         mode="hermitian")
        assert res.detected
        assert abs(res.argmin_k[0]) <= 2 * np.pi / 64

    def test_band_edge_off_grid_via_refinement(self, chain_model):
        # an off-node tangential zero: shift lambda so the touching point
        # falls between base nodes; the refinement pass must still see it
        spec, _ = chain_model
        k0 = 2 * np.pi / 64 / 2  # midway between nodes
        lam = 2 * np.cos(k0)
        res = step_check(self.fn_for(spec, lam), 1, 64, spec.tolerances,
                         mode="hermitian")
        assert res.detected


def scalar_fn(f, factor=1.0):
    """1x1 level-matrix callable with entry factor * f(k rows)."""
    return lambda rows: (factor * f(rows))[:, None, None].astype(complex)


class TestStepCheckSyntheticFields:
    """step_check on closed-form level matrices, n = 16 nodes per axis."""

    tols = ToleranceSet()

    @pytest.mark.parametrize("factor", [1.0, 1 + 1e-9j])
    def test_real_det_periodic_crossing(self, factor):
        # zeros of cos k - 1/2 at +-pi/3; the first crossing pair on the
        # grid is (-3pi/8, -pi/4) and -3pi/8 has the smaller |value|.  An
        # imaginary part of relative size 1e-9 still counts as real.
        fn = scalar_fn(lambda r: np.cos(r[:, 0]) - 0.5, factor)
        res = step_check(fn, 1, 16, self.tols, mode="real-det")
        assert res.detected
        assert res.method == "det-sign"
        assert res.argmin_k == pytest.approx((-3 * np.pi / 8,), abs=1e-15)
        assert res.min_sigma == pytest.approx(0.5 - np.cos(3 * np.pi / 8),
                                              rel=1e-12)

    @pytest.mark.parametrize("mode, detected, method",
                             [("real-det", True, "det-sign-refined"),
                              ("sigma", False, "sigma")])
    def test_zeros_between_two_nodes(self, mode, detected, method):
        # both zeros, pi/16 -+ pi/50, fall between the nodes 0 and pi/8,
        # where the field has one sign: only the refinement patch sees the
        # sign change, and sigma thresholding never does
        fn = scalar_fn(lambda r: np.cos(r[:, 0] - np.pi / 16) - np.cos(np.pi / 50))
        res = step_check(fn, 1, 16, self.tols, mode=mode)
        assert res.detected is detected
        assert res.method == method
        assert res.argmin_k == pytest.approx((5 * np.pi / 128,), abs=1e-12)
        # the patch node 5pi/128 is 3pi/128 from the field's maximum
        assert res.min_sigma == pytest.approx(
            np.cos(np.pi / 50) - np.cos(3 * np.pi / 128), rel=1e-9)

    def test_hermitian_2d_crossing(self):
        # the lower band of diag(cos k1 + cos k2 - 0.3, 5) changes sign
        # between nodes; the first crossing on axis 0 picks (-5pi/8, -pi/4)
        def fn(rows):
            out = np.zeros((rows.shape[0], 2, 2), dtype=complex)
            out[:, 0, 0] = np.cos(rows[:, 0]) + np.cos(rows[:, 1]) - 0.3
            out[:, 1, 1] = 5.0
            return out

        res = step_check(fn, 2, 16, self.tols, mode="hermitian")
        assert res.detected
        assert res.method == "crossing"
        assert res.argmin_k == pytest.approx((-5 * np.pi / 8, -np.pi / 4),
                                             abs=1e-15)
        # min_sigma is the node minimum, 0.7 - cos(0) - cos(3pi/4)
        assert res.min_sigma == pytest.approx(np.sqrt(0.5) - 0.7, rel=1e-12)


class TestExtendChain:
    def test_point_defect_value(self, chain_defect_model):
        spec, grids = chain_defect_model
        chain = Chain(spec, 3.0)
        res = step_check(lambda rows: chain.level_values(1, rows), 0,
                         grids.k_points, spec.tolerances, mode="real-det")
        chain_val = chain.level_values(1, np.zeros((1, 0)))[0, 0, 0]
        assert chain_val.real == pytest.approx(1 - 1 / SQRT5, abs=1e-10)
        assert not res.detected

    def test_line_defect_root_value(self, square_line_model):
        spec, _ = square_line_model
        k2 = 0.9
        lam = 2 * np.cos(k2) + SQRT5
        chain = Chain(spec, lam)
        val = chain.level_values(1, np.array([[k2]]))[0, 0, 0]
        assert abs(val) <= 1e-8


def _residue_level1(spec, omega, t_rows):
    """Level-1 brackets from residues, sharing no code with the ladder.

    Along a nearest-neighbour first axis B_0 = z^-1 Q(z), z = exp(i k_1),
    with Q(z) = P_-1 + P_0 z + P_1 z^2, so the mean of B_0^-1 over k_1 is the
    sum of the residues of Q^-1 inside |z| = 1.  Q^-1 is the top-right block
    of (zB - A)^-1 for the companion pencil below, whose residue at an
    eigenvalue lam is v w^H / (w^H B v) from one `scipy.linalg.eig`.  Then
    B_1 = I + (residue sum) D, with D the defect's physical block.
    """
    m = spec.cell_size
    eye, zero = np.eye(m), np.zeros((m, m))
    layer = spec.defect_by_codim(1)
    out = []
    for t in t_rows:
        p = {shift: np.zeros((m, m), dtype=complex) for shift in (-1, 0, 1)}
        for power, poly in spec.bulk.terms.items():
            for off, block in poly.items():
                p[off[0]] += omega ** power * np.exp(1j * np.dot(off[1:], t)) \
                    * block
        a = np.block([[zero, eye], [-p[-1], -p[0]]])
        b = np.block([[eye, zero], [zero, p[1]]])
        lam, left, right = scipy.linalg.eig(a, b, left=True, right=True)
        mean = sum(np.outer(right[:m, i], left[m:, i].conj())
                   / (left[:, i].conj() @ b @ right[:, i])
                   for i in np.flatnonzero(np.abs(lam) < 1.0))
        d = sum(omega ** power * stencil.eval(t)
                for power, stencil in layer.stencils.items())
        out.append(eye + mean @ d)
    return np.array(out)


class TestLevelOneReference:
    @pytest.mark.parametrize("model, omegas", [
        ("chain_point_defect", [2.5, -3.0, 3.9]),
        ("square_line_defect", [4.3, 5.0, -4.7, 5.9]),
        ("two_band_line", [0.0, 0.3, -0.4, 3.0, -2.8, 2.7]),
        ("bipartite_point", [-2.6, 2.3, 3.0, -4.5]),
    ])
    def test_matches_residue_sum(self, model, omegas):
        # gap frequencies: at every row omega lies outside the bulk bands
        # over k_1, so no pole of Q^-1 sits on the unit circle
        from tests_util import two_band_line
        if model == "two_band_line":
            spec, _ = two_band_line()
        elif model == "bipartite_point":
            # M = 2: the bipartite chain (bands in [-2, 2]) with a point
            # defect coupling both sites of the origin cell
            bulk, _ = load_model("bipartite_chain.json")
            spec = dataclasses.replace(bulk, defects=(DefectLayer(
                1, 1, {0: TrigMatrixPolynomial(
                    0, {(): [[0.7, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]]})}),))
        else:
            spec, _ = load_model(f"{model}.json")
        t_rows = full_mesh(spec.lattice_dim - 1, 16)
        for omega in omegas:
            got = Chain(spec, omega).level_values(1, t_rows)
            want = _residue_level1(spec, omega, t_rows)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestResidueLevelOne:
    """Level 1 off the closed form: the companion-matrix residue
    (`_GreenTable._residue`), exact with no n."""

    #: the row k_2 of `tests_util.two_band_line` and its band edges
    #: |b| and sqrt(|b|^2 + 4), b = 1 + e^{i k_2} / 2; the upper one is
    #: reached at k_1 = 0 and k_1 = pi
    ROW = 0.7

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-5, 1e-7, 1e-8])
    @pytest.mark.parametrize("edge", ["low", "high"])
    def test_near_band_edge_matches_mpmath(self, edge, delta):
        # the two-band row's mean of (H - omega)^{-1} is
        # I_0 [[-omega, -b], [-conj b, -omega]], I_0 = sign(c) /
        # sqrt(c (c - 4)), c = omega^2 - |b|^2 (the cos k_1 terms average
        # to 0), by mpmath at 50 digits for the same binary omega, just
        # outside the band: a decided cell is within quad_rel_tol of it,
        # any other fails with n_reached 0
        import mpmath
        from tests_util import two_band_line
        spec, _ = two_band_line()
        b = 1 + np.exp(1j * self.ROW) / 2
        omega = (abs(b) - delta if edge == "low"
                 else np.sqrt(abs(b) ** 2 + 4) + delta)
        with mpmath.workdps(50):
            w, bb = mpmath.mpf(omega), mpmath.mpc(b.real, b.imag)
            c = w * w - abs(bb) ** 2
            i_0 = mpmath.sign(c) / mpmath.sqrt(c * (c - 4))
            want = np.array([[complex(-w * i_0), complex(-bb * i_0)],
                             [complex(-mpmath.conj(bb) * i_0),
                              complex(-w * i_0)]])
        table = _GreenTable(spec, 1, [[self.ROW]])
        assert not table._closed
        out, = table._converge([omega], [[0]])
        if isinstance(out, NonConvergence):
            assert out.n_reached == 0 and delta <= 1e-5
            assert out.witness_sigma_min == pytest.approx(delta, rel=1e-3)
            return
        _, sums, decided, _ = table._residue(([0], [omega], None))
        assert decided[0]
        got = sums[0] / np.sqrt(TWO_PI)
        assert np.max(np.abs(got - want)) <= \
            spec.tolerances.quad_rel_tol * np.max(np.abs(want))

    @pytest.mark.parametrize("omega, tol", [
        (-4.5, 1e-14), (-2.5, 1e-14), (-2.001, 1e-12), (2.2, 1e-14),
        (3.0, 1e-14)])
    def test_singular_hopping_bipartite_chain(self, bipartite_model, omega,
                                              tol):
        # H(k) = [[0, 1 + e^{ik}], [1 + e^{-ik}, 0]]: its hopping block
        # [[0, 1], [0, 0]] is singular, while B_0 at the far node k_1 = pi
        # is -omega I.  Off the band [-2, 2] the mean of (H - omega)^{-1}
        # is [[-omega g, h], [h, -omega g]] with g = 1 / (|omega|
        # sqrt(omega^2 - 4)) and h = 1/2 - |omega| / (2 sqrt(omega^2 - 4));
        # 0.001 from the band the residue is off by 1.4e-13 relative
        spec, _ = bipartite_model
        root = np.sqrt(omega ** 2 - 4.0)
        g, h = 1.0 / (abs(omega) * root), 0.5 - abs(omega) / (2.0 * root)
        want = np.sqrt(TWO_PI) * np.array([[-omega * g, h], [h, -omega * g]])
        got, = _GreenTable(spec, 1, np.zeros((1, 0)))._converge([omega],
                                                                [[0]])
        assert np.max(np.abs(got[0] - want)) <= tol * np.max(np.abs(want))

    def test_singular_hopping_band_cell_fails(self, bipartite_model):
        spec, _ = bipartite_model
        out, = _GreenTable(spec, 1, np.zeros((1, 0)))._converge([0.5], [[0]])
        assert isinstance(out, NonConvergence)
        assert out.n_reached == 0 and out.witness_sigma_min <= 1e-12
        assert str(out).startswith("level 1 residue: omega=0.5 ")

    @pytest.mark.parametrize("model", ["two-band", "next-nearest",
                                       "quadratic", "two-site"])
    def test_level_one_pins_and_doubles_nothing(self, monkeypatch, model):
        # an M = 2 bulk, axis-1 hopping of range 2, a bulk quadratic in
        # omega and a two-site cell, each with level 1 its top level: a
        # spectrum with its probes and a membership query evaluate no
        # trapezoid sum and pin no n, and the level-1 cells are evaluated
        from tests_util import chain_with_defect, two_band_line
        spec, grids = {
            "two-band": lambda: two_band_line(),
            "next-nearest": lambda: (next_nearest_chain(), GridConfig(64)),
            "quadratic": lambda: (squared_frequency_point_defect(),
                                  GridConfig(64)),
            "two-site": lambda: (two_site(chain_with_defect(1.0)[0]),
                                 GridConfig(64))}[model]()
        assert spec.present_codims == (1,)
        assert not _GreenTable(spec, 1, np.zeros((1, 0)))._closed

        def no_sum(*args):
            raise AssertionError("a trapezoid sum on level 1")

        converge, pins = _GreenTable._converge, []

        def spied(table, omegas, groups, pins_=None, carry=False):
            pins_ = [{} for _ in groups] if pins_ is None else pins_
            pins.extend(pins_)
            return converge(table, omegas, groups, pins_, carry)

        monkeypatch.setattr(spectrum, "trapezoid_sum", no_sum)
        monkeypatch.setattr(_GreenTable, "_converge", spied)
        result = full_spectrum(spec, grids, n_probes=8)
        assert result.probe_report["disagreements"] == []
        membership(spec, 3.5, grids)
        assert pins and all(p == {} for p in pins)
        assert result.branches[1].cells["edges"] > 0


class TestClosedFormRootReference:
    @pytest.mark.parametrize("shift, eps, hop", [
        (0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.3, 0.0),
        (0.0, -0.3, 0.0), (0.0, 1.0, 0.25), (0.0, -0.6, 0.15),
        (0.7, -1.0, 0.0), (0.7, 0.3, 0.0)])
    def test_square_line_roots_match_mpmath(self, shift, eps, hop):
        # the square lattice shift + 2 cos k_1 + 2 cos k_2 with the line
        # defect A(k_2) = eps + 2 hop cos k_2 along the second axis: a row's
        # bound state solves 1 = A G(omega), with G = (1/2 pi) integral of
        # dk_1 / (omega - shift - 2 cos k_1 - 2 cos k_2) by mpmath.quad and
        # the root by mpmath.findroot, bracketed on A's side of the band
        # between 2 + A^2 / 8 and 2 + |A| from its centre
        import mpmath
        spec = ProblemSpec(
            lattice_dim=2, cell_size=1, bulk=OmegaSymbol({
                0: TrigMatrixPolynomial(2, {
                    (0, 0): [[shift]], (1, 0): [[1.0]], (-1, 0): [[1.0]],
                    (0, 1): [[1.0]], (0, -1): [[1.0]]}),
                1: TrigMatrixPolynomial(2, {(0, 0): [[-1.0]]})}),
            defects=(DefectLayer(1, 2, {0: TrigMatrixPolynomial(1, {
                (0,): [[eps]], (1,): [[hop]], (-1,): [[hop]]})}),),
            omega_window=(-6.0, 7.0))
        branch = dispersion_branch(spec, 1, GridConfig(k_points=8,
                                                       omega_points=129))
        assert len(branch.samples) == 8 and branch.cells["closed"] == 16
        with mpmath.workdps(18):
            for (k2,), omega, _ in branch.samples:
                c = shift + 2 * mpmath.cos(k2)
                a = eps + 2 * hop * mpmath.cos(k2)

                def excess(w):
                    return 1 - a * mpmath.quad(
                        lambda k: 1 / (w - c - 2 * mpmath.cos(k)),
                        [-mpmath.pi, 0, mpmath.pi]) / (2 * mpmath.pi)

                want = mpmath.findroot(excess, tuple(
                    c + mpmath.sign(a) * x for x in (2 + a * a / 8,
                                                     2 + abs(a))),
                    solver="anderson")
                assert abs(omega - float(want)) <= 1e-12

    @pytest.mark.parametrize("eps", [1.0, -1.0, 0.3, -0.3, 2.0, -2.0])
    def test_chain_point_root_is_exact(self, eps):
        from tests_util import chain_with_defect
        spec, grids = chain_with_defect(eps)
        branch = dispersion_branch(spec, 1, grids)
        (_, omega, _), = branch.samples
        assert abs(omega - np.sign(eps) * np.sqrt(4 + eps ** 2)) <= 1e-13


class TestLevelTwoReference:
    @pytest.mark.parametrize("omega", [4.5, 5.0, 6.0, -4.5, -5.0, -6.0])
    def test_square_point_defect_matches_elliptic_form(self, omega):
        # a point defect v on the square lattice: the level-2 bracket is
        # 1 + v <(H - omega)^-1>, and with the (2 pi)^(-j/2) factors of the
        # defect symbol and of the sub-torus average it is 1 - v G(omega),
        # G(omega) = mean of 1/(omega - H) = (2/(pi omega)) K(16/omega^2)
        # (K of parameter m, mpmath.ellipk).  Measured: 0.0 at n = 256 and
        # 512 and at the adaptive n (64) for every omega here
        import mpmath
        from tests_util import _square_bulk
        v = 1.5
        spec = ProblemSpec(lattice_dim=2, cell_size=1, bulk=_square_bulk(),
                           defects=(DefectLayer(2, 2, {0: TrigMatrixPolynomial(
                               0, {(): [[v]]})}),), omega_window=(-8.0, 8.0))
        w = mpmath.mpf(omega)
        want = 1.0 - v * float(2 / (mpmath.pi * w) * mpmath.ellipk(16 / w**2))
        t_rows = np.zeros((1, 0))
        for n in (256, 512):
            got, = _GreenTable(spec, 2, t_rows)._converge([omega], [[0]],
                                                          [{2: n}])
            assert abs(got[0, 0, 0] - want) <= 1e-15
        assert abs(Chain(spec, omega).level_values(2, t_rows)[0, 0, 0]
                   - want) <= 1e-15


def _direct_level0_inverse(spec, omega, n):
    """symbol.inverse of B_0 on the full n-grid mesh."""
    return inverse(spec.bulk.eval(omega, full_mesh(spec.lattice_dim, n)))


class TestGreenTable:
    @pytest.mark.parametrize("model, omegas", [
        ("square_line_model", (-5.3, 4.4, 6.0)),   # M = 1, band [-4, 4]
        ("bipartite_model", (-2.6, 2.3, 3.0)),     # M = 2, bands in [-2, 2]
    ])
    def test_matches_direct_inverse(self, request, model, omegas):
        # the resolvent grid's B_0^{-1}, from the stored eigenpairs of H,
        # against `inverse` of B_0 at the same nodes
        spec = dataclasses.replace(request.getfixturevalue(model)[0],
                                   defects=())
        for n in (16, 32, 64, 128):
            for omega in omegas:
                want = _direct_level0_inverse(spec, omega, n)
                got = _grid_tabs(spec, omega, n)[2][0]
                assert np.max(np.abs(got.reshape(want.shape) - want)) <= \
                    1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("omega", [2.0, -2.0])
    def test_exact_zero_raises_like_direct(self, chain_defect_model, omega):
        # 2 cos k - omega vanishes exactly at the k = 0 and k = -pi nodes:
        # on the chain's two-site model the resolvent grid fails as the
        # direct inverse does, and its level-1 residue fails with n 0
        spec = two_site(chain_defect_model[0])
        with pytest.raises(SingularMatrix) as direct:
            _direct_level0_inverse(spec, omega, 16)
        with pytest.raises(SingularMatrix) as grid:
            _grid_tabs(spec, omega, 16)
        table, = _GreenTable(spec, 1, np.zeros((1, 0)))._converge([omega],
                                                                  [[0]])
        assert isinstance(table, NonConvergence)
        assert table.n_reached == 0
        assert direct.value.min_sigma == grid.value.min_sigma == \
            table.witness_sigma_min == 0.0

    def test_rank_guard_near_zero_m1(self):
        # at omega = 0 the level-0 matrix 2 cos 2k_1 is 1.2e-16 at the
        # k_1 = +-pi/4 nodes of the n = 16 grid: below 64 eps max(1,
        # |lambda|), so the resolvent grid of the next-nearest chain fails
        # there instead of inverting values of 8e15; its level-1 residue
        # fails too, since omega = 0 lies in its band.  A level-2 bracket
        # over a closed-form level 1 (the chain along k_1 on the plane)
        # fails inside that level 1, where omega = 0 lies in every row's
        # band
        spec = next_nearest_chain()
        t_rows = np.zeros((1, 0))
        assert not _GreenTable(spec, 1, t_rows)._closed
        with pytest.raises(SingularMatrix) as grid:
            _grid_tabs(spec, 0.0, 16)
        assert grid.value.min_sigma == pytest.approx(
            abs(2.0 * np.cos(np.pi / 2)), rel=1e-3)
        with pytest.raises(NonConvergence) as err:
            Chain(spec, 0.0).level_values(1, t_rows)
        assert err.value.n_reached == 0
        assert str(err.value).startswith("level 1 residue: omega=0.0 ")
        plane = chain_in_plane()
        nested, = _GreenTable(plane, 2, t_rows)._converge([0.0], [[0]])
        assert isinstance(nested, NonConvergence)
        assert str(nested).startswith("level 1 closed form: omega=0.0 ")
        assert (nested.n_reached, nested.witness_sigma_min) == (0, 0.0)

    def test_singular_node_at_pinned_n(self, monkeypatch):
        # a level pinned at n evaluates its later rows at that n alone, so
        # a singular node found there is reported at the pinned n, and on
        # a fresh chain at the first grid: on the nested model's level 2,
        # with every B_1 made singular to `inverse` once the level is pinned
        from tests_util import square_line_and_point
        spec, _ = square_line_and_point()
        point = np.zeros((1, 0))
        chain = Chain(spec, 6.5)
        chain.level_values(2, point)
        n = chain._nquad[2]
        assert n > N_QUAD_START

        def singular(a):
            raise SingularMatrix("forced", 0.0)

        monkeypatch.setattr(spectrum, "inverse", singular)
        with pytest.raises(NonConvergence) as pinned:
            chain.level_values(2, point)
        with pytest.raises(NonConvergence) as first:
            Chain(spec, 6.5).level_values(2, point)
        assert (pinned.value.n_reached, pinned.value.witness_sigma_min) == \
            (n, 0.0)
        assert (first.value.n_reached, first.value.witness_sigma_min) == \
            (N_QUAD_START, 0.0)

    def test_singular_lower_level_fails_bracket(self, monkeypatch):
        # a level-1 value that fails the rank guard of `inverse` inside a
        # level-2 bracket fails that bracket as a singular bulk node does
        from tests_util import square_line_and_point
        spec, _ = square_line_and_point()

        def singular(a):
            raise SingularMatrix("forced", 0.5)

        monkeypatch.setattr(spectrum, "inverse", singular)
        with pytest.raises(NonConvergence) as err:
            Chain(spec, 6.5).level_values(2, np.zeros((1, 0)))
        assert (err.value.n_reached, err.value.witness_sigma_min) == \
            (N_QUAD_START, 0.5)

    def test_non_eigenform_groups_converge_together(self):
        # one level-2 table evaluation over several omegas of a bulk
        # quadratic in omega, against each group evaluated alone: the same
        # bits and pins, and the exact n = 256 solve's values; at
        # omega = 2, inside the bands, a level-1 cell fails that group alone
        spec = squared_frequency_line_and_point()
        assert not _hermitian_linear_fast(spec)
        point = np.zeros((1, 0))
        omegas = [-3.5, -3.2, 2.0, 3.2, 3.5]
        pins = [{} for _ in omegas]
        outs = _GreenTable(spec, 2, point)._converge(
            omegas, [[0]] * len(omegas), pins)
        for omega, out, pin in zip(omegas, outs, pins):
            alone = {}
            want, = _GreenTable(spec, 2, point)._converge([omega], [[0]],
                                                          [alone])
            assert pin == alone
            if omega == 2.0:
                assert isinstance(out, NonConvergence)
                assert str(out) == str(want)
                assert out.n_reached == 0
                continue
            assert np.array_equal(out, want)
            _, _, inv_tabs = _grid_tabs(spec, omega, 256)
            assert abs(out[0, 0, 0] - 1 / inv_tabs[2][0, 0]) <= 1e-12

    @pytest.mark.parametrize("delta", [1e-7, 1e-5])
    def test_stall_matches_direct(self, delta):
        # just above the band edge 4, the level-2 integrand of the square
        # lattice's point defect peaks at k_2 = 0 too sharply for
        # N_QUAD_MAX nodes: the direct chain and a one-group table
        # evaluation stall alike, with witness delta, the distance of the
        # row k_2 = 0 to its band
        from tests_util import _square_bulk
        spec = ProblemSpec(lattice_dim=2, cell_size=1, bulk=_square_bulk(),
                           defects=(DefectLayer(2, 2, {0: TrigMatrixPolynomial(
                               0, {(): [[1.0]]})}),), omega_window=(-8.0, 8.0))
        omega, point = 4.0 + delta, np.zeros((1, 0))
        with pytest.raises(NonConvergence) as err:
            Chain(spec, omega).level_values(2, point)
        direct = err.value
        cached, = _GreenTable(spec, 2, point)._converge([omega], [[0]])
        assert isinstance(cached, NonConvergence)
        assert direct.n_reached == cached.n_reached == N_QUAD_MAX
        assert direct.witness_sigma_min == cached.witness_sigma_min
        assert direct.witness_sigma_min == pytest.approx(delta, rel=1e-6)

    @pytest.mark.parametrize("omega", [2.0, -2.0])
    def test_closed_form_band_edge_fails_like_direct(self, chain_defect_model,
                                                     omega):
        # the M = 1 chain's level-1 table is closed-form: omega = +-2 is its
        # band edge, at distance 0, where the direct inverse is singular too
        spec, _ = chain_defect_model
        t_rows = np.zeros((1, 0))
        with pytest.raises(SingularMatrix) as direct:
            _direct_level0_inverse(spec, omega, 16)
        table = _GreenTable(spec, 1, t_rows)
        assert table._closed
        out, = table._converge([omega], [[0]])
        assert isinstance(out, NonConvergence)
        assert out.n_reached == 0
        assert direct.value.min_sigma == out.witness_sigma_min == 0.0

    def test_closed_form_rank_guard_floor(self, chain_defect_model):
        # a cell fails within 64 eps max(1, |h_0| + 2|h_1|) = 2.8e-14 of the
        # band [-2, 2], with the exact distance as its witness; just past
        # the floor it has its value, 1 - 1/sqrt(omega^2 - 4)
        spec, _ = chain_defect_model
        t_rows = np.zeros((1, 0))
        near, far = 2.0 + 2.5e-14, 2.0 + 3.2e-14
        failed, passed = _GreenTable(spec, 1, t_rows)._converge(
            [near, far], [[0], [0]])
        assert isinstance(failed, NonConvergence)
        assert (failed.n_reached, failed.witness_sigma_min) == (0, near - 2.0)
        want = 1.0 - 1.0 / np.sqrt((far - 2.0) * (far + 2.0))
        assert abs(passed[0, 0, 0] - want) <= 1e-12 * abs(want)

    def test_closed_form_band_row_fails_alone(self, square_line_model):
        # omega = 2 lies in the band [0, 4] of the row k2 = 0 and outside
        # the band [-4, 0] of the row k2 = pi: a group holding both fails
        # with witness 0, and one group per cell fails that cell alone
        spec, _ = square_line_model
        table = _GreenTable(spec, 1, [[np.pi], [0.0]])
        both, = table._converge([2.0], [[0, 1]])
        assert isinstance(both, NonConvergence)
        assert (both.n_reached, both.witness_sigma_min) == (0, 0.0)
        good, bad = table._converge([2.0, 2.0], [[0], [1]])
        assert isinstance(bad, NonConvergence)
        assert (bad.n_reached, bad.witness_sigma_min) == (0, 0.0)
        assert abs(good[0, 0, 0] - (1.0 - 1.0 / np.sqrt(12.0))) <= 1e-15

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-5, 1e-7, 1e-8])
    def test_closed_form_near_band_edge_matches_mpmath(self, chain_defect_model,
                                                       delta):
        # just above the band edge, where doubling stalls, the closed form
        # is exact: B_1 - 1 = <1/(2 cos k - omega)> = -1/sqrt(omega^2 - 4),
        # evaluated by mpmath at 50 digits for the same binary omega
        import mpmath
        spec, _ = chain_defect_model
        omega = 2.0 + delta
        with mpmath.workdps(50):
            w = mpmath.mpf(omega)
            want = float(-1 / mpmath.sqrt(w * w - 4))
        got = Chain(spec, omega).level_values(1, np.zeros((1, 0)))[0, 0, 0]
        assert abs((got - 1.0) - want) <= 4e-16 * abs(want)

    @pytest.mark.parametrize("model, omega", [
        ("eigen-m1", 6.5), ("eigen-m2", 6.0), ("svd", 3.5)])
    def test_level_bits_independent_of_batch(self, monkeypatch, model, omega):
        # no level value is memoized, because the same rows at the same
        # pinned n give the same bits whether they are computed alone,
        # inside a larger row set, or as the integrand B_1^{-1} P_1 that a
        # level-2 bracket takes from its level-1 tables; only omega-free
        # tables are shared, through the spec's eigen store, while level
        # values and pins stay per call
        from tests_util import square_line_and_point, two_band_line
        spec = {"eigen-m1": lambda: square_line_and_point()[0],
                "eigen-m2": lambda: two_band_line(point=2.0)[0],
                "svd": squared_frequency_line_and_point}[model]()
        assert _hermitian_linear_fast(spec) == (model != "svd")
        factors = []
        converge = _GreenTable._converge

        def spied(table, omegas, groups, pins=None, carry=False):
            outs = converge(table, omegas, groups, pins, carry)
            if table.level == 1:
                assert carry
                (rows,), (out,), (pin,) = groups, outs, pins
                factors.append((table.t_rows[rows], out.copy(), pin.get(1)))
            return outs

        monkeypatch.setattr(_GreenTable, "_converge", spied)
        Chain(spec, omega).level_values(2, np.zeros((1, 0)))
        monkeypatch.undo()

        def level1(t_rows):
            # a level-1 table is exact: it pins no n
            pins = {}
            vals, = _GreenTable(spec, 1, t_rows)._converge(
                [omega], [np.arange(len(t_rows))], [pins], carry=True)
            assert pins == {}
            return vals

        assert len(factors) > 1
        assert {n for _, _, n in factors} == {None}
        for t_rows, vals, _ in factors:
            assert np.array_equal(level1(t_rows), vals)
            assert np.array_equal(level1(t_rows[-1:]), vals[-1:])
            larger = np.concatenate([t_rows[::-1], t_rows + 0.25])
            assert np.array_equal(level1(larger)[len(t_rows) - 1::-1], vals)

    @pytest.mark.parametrize("model, omegas", [
        ("square_line_model", (-5.3, 4.4, 6.0)),
        ("bipartite_model", (-2.6, 2.3, 3.0))])
    def test_grid_eigenpairs_are_stored_once(self, request, model, omegas):
        # the resolvent grid keeps the eigenpairs of H as one store entry
        # per n, which every later omega reads: its B_0^{-1} has the bits
        # of a cold spec's
        spec = dataclasses.replace(request.getfixturevalue(model)[0],
                                   defects=())
        warm = dataclasses.replace(spec)
        for omega in omegas:
            got = _grid_tabs(warm, omega, 32)[2][0]
            cold = dataclasses.replace(spec)
            assert np.array_equal(got, _grid_tabs(cold, omega, 32)[2][0])
        key = ("eigh", spec.lattice_dim, 32)
        assert [k for k in warm.eigen_store if k[0] == "eigh"] == [key]


def _answers(spec, grids, omegas):
    """Each omega's membership certificate as JSON and, where the verdict
    is out, its resolvent solution's bytes and residual."""
    g = trig_vector(spec.lattice_dim, {(0,) * spec.lattice_dim:
                                       [1.0] * spec.cell_size,
                                       (1,) * spec.lattice_dim:
                                       [0.5j] * spec.cell_size})
    out = {}
    for omega in omegas:
        cert = membership(spec, omega, grids)
        answer = [json.dumps(cert.to_dict(), sort_keys=True)]
        if cert.status == "out":
            sol = resolvent_apply(spec, omega, g, grids)
            answer += [sol.f_tab.tobytes(), repr(sol.residual)]
        out[omega] = answer
    return out


def _entry_bytes(key, entry):
    """Bytes of a store entry's arrays and of the bytes parts of its key."""
    return (sum(len(part) for part in key if isinstance(part, bytes))
            + sum(a.nbytes for a in entry if a is not None))


def _store_bytes(store):
    return sum(_entry_bytes(key, entry) for key, entry in store.items())


def _store_models():
    """Per model a builder of a fresh (spec, grids) and omegas that give
    out, in at step 0 and in at a defect level."""
    from tests_util import square_line_and_point, two_band_line
    return {
        "chain": (lambda: load_model("chain_point_defect.json"),
                  (-3.0, -2.01, 0.5, SQRT5, 3.0)),
        "line": (lambda: load_model("square_line_defect.json"),
                 (-5.0, -4.3, 2.0, 4.1, 5.5)),
        "nested": (lambda: square_line_and_point(k_points=16),
                   (-5.0, 4.1, 5.180756781817904, 6.5, 7.5)),
        "two-band": (lambda: two_band_line(point=2.0),
                     (-6.0, -2.7, 2.2, 2.6, 3.5))}


#: what the stores of `_store_models` hold after `_answers`: term tables,
#: meshes, refinement patches and the resolvent grid's eigenpairs
STORED = {"terms", "mesh", "patch", "eigh"}


class TestEigenStore:
    """Omega-free tables shared per spec leave every answer's bits as a
    fresh spec gives them."""

    @pytest.mark.parametrize("model", ["chain", "line", "nested", "two-band"])
    def test_warm_store_gives_cold_bits(self, model):
        # each cold answer from a spec of its own; the warm answers from one
        # spec asked every omega forward, then reversed
        build, omegas = _store_models()[model]
        cold = {}
        for omega in omegas:
            spec, grids = build()
            cold.update(_answers(spec, grids, [omega]))
        spec, grids = build()
        assert _answers(spec, grids, omegas) == cold
        stored = list(spec.eigen_store)
        assert {key[0] for key in stored} == \
            STORED
        assert _answers(spec, grids, omegas[::-1]) == cold
        # the reversed pass asked for no table the forward pass had not
        # stored, so every answer in it was computed from stored tables
        assert sorted(spec.eigen_store, key=repr) == sorted(stored, key=repr)

    @pytest.mark.parametrize("model", ["chain", "line", "nested", "two-band"])
    def test_warm_repeat_sums_no_fourier_series(self, monkeypatch, model):
        # once a query set has filled the store, asking it again evaluates
        # no trig polynomial and builds no refinement patch: every symbol
        # value comes from stored terms, every patch from the store
        build, omegas = _store_models()[model]
        spec, grids = build()
        first = _answers(spec, grids, omegas)
        calls, patches = [], []
        evaluate = TrigMatrixPolynomial.eval
        refine_patch = spectrum.refine_patch

        def counted(poly, k):
            calls.append(np.shape(k))
            return evaluate(poly, k)

        def built(*args):
            patches.append(args)
            return refine_patch(*args)

        monkeypatch.setattr(TrigMatrixPolynomial, "eval", counted)
        monkeypatch.setattr(spectrum, "refine_patch", built)
        assert _answers(spec, grids, omegas) == first
        assert calls == [] and patches == []

    def test_stored_tables_are_read_only(self, square_line_model):
        spec, grids = square_line_model
        spec = dataclasses.replace(spec)
        _answers(spec, grids, (-5.0, 2.0, 4.1))
        kinds = set()
        for key, entry in spec.eigen_store.items():
            kinds.add(key[0])
            for table in entry:
                if table is None:
                    continue
                with pytest.raises(ValueError):
                    table.flat[0] = 0.0
        assert kinds == STORED

    def test_rows_of_one_shape_share_no_table(self, square_line_model):
        # one row each, at k_2 = 0 and k_2 = 1: one key each, and each
        # table's band from its own row's terms, centre 2 cos k_2, width 4
        spec = dataclasses.replace(square_line_model[0])
        for k_2 in (0.0, 1.0):
            h0, h1 = _GreenTable(spec, 1, [[k_2]])._row_band([0])
            assert abs(h0[0] - 2 * np.cos(k_2)) <= 1e-15
            assert abs(h1[0] - 1.0) <= 1e-15
        assert len(spec.eigen_store) == 2

    def test_specs_of_one_shape_share_no_table(self):
        # equal shapes, different hopping: the same keys, separate stores
        from tests_util import chain_with_defect
        unit, _ = chain_with_defect(1.0)
        half, _ = chain_with_defect(1.0, hopping=0.5)
        assert unit.eigen_store is not half.eigen_store
        _grid_tabs(unit, 3.0, 16)
        _grid_tabs(half, 3.0, 16)
        assert list(unit.eigen_store) == list(half.eigen_store)
        key = ("eigh", 1, 16)
        assert np.array_equal(0.5 * unit.eigen_store[key][0],
                              half.eigen_store[key][0])
        assert membership(unit, 2.1, GridConfig(16, 65)).status == "out"
        assert membership(half, 1.5, GridConfig(16, 65)).status == "out"
        assert membership(unit, 1.5, GridConfig(16, 65)).status == "in"
        # a copy starts with a store of its own
        copy = dataclasses.replace(unit)
        assert copy == unit and not copy.eigen_store

    def test_store_stays_within_its_bound(self, monkeypatch):
        # with a bound of a few tables, every insertion leaves the store
        # within it, least recently used tables go first, a table larger
        # than the bound is never kept, and the answers keep their bits
        build, omegas = _store_models()["nested"]
        spec, grids = build()
        cold = _answers(spec, grids, omegas)
        bound = 20_000
        monkeypatch.setattr(spectrum, "EIGEN_STORE_BYTES", bound)
        remember, sizes, held, kinds = spectrum._remember, [], [], set()

        def checked(store, key, pairs):
            before = list(store)
            remember(store, key, pairs)
            kinds.add(key[0])
            sizes.append(_entry_bytes(key, pairs))
            held.append(_store_bytes(store))
            assert held[-1] <= bound
            if sizes[-1] > bound:
                assert list(store) == before
            else:
                after = list(store)
                assert after == (before + [key])[-len(after):]

        monkeypatch.setattr(spectrum, "_remember", checked)
        spec, grids = build()
        assert _answers(spec, grids, omegas) == cold
        assert max(sizes) > bound
        assert sum(s for s in sizes if s <= bound) > max(held)
        assert kinds == STORED

    @pytest.mark.parametrize("model", ["two-band", "nested"])
    def test_only_level_one_holds_eigenpairs(self, model):
        # no bracket forms B_0^{-1} on a grid: level 1 is an exact residue
        # and a level-j bracket takes its integrand from the level below.
        # After an in-gap query on the M = 2 point model, and after a
        # nested query and a nested dispersion, the store holds only term
        # tables and meshes, and the query leaves the store below a
        # fiftieth of its bound
        from tests_util import square_line_and_point, two_band_line
        if model == "two-band":
            spec, grids = two_band_line(point=2.0)
            assert membership(spec, 0.3, grids).status == "out"
            assert _store_bytes(spec.eigen_store) < \
                spectrum.EIGEN_STORE_BYTES // 50
        else:
            spec, grids = square_line_and_point(k_points=16, omega_points=65)
            point = TestGreenRouting.NESTED_POINT
            assert membership(spec, point, grids).detected_at_step == 2
            line = dispersion_branch(spec, 1, grids)
            (_, root, _), = dispersion_branch(spec, 2, grids,
                                              branches={1: line}).samples
            assert abs(root - point) <= 1e-8
        assert {key[0] for key in spec.eigen_store} <= \
            {"terms", "mesh", "patch"}

    def test_m1_green_is_the_product(self):
        # 1/(lambda - omega) as complex against U diag(1/shift) U^H with
        # U = 1, bit for bit on finite nodes; exact zeros fail the guard
        rng = np.random.default_rng(23)
        lam = rng.uniform(-4.0, 4.0, size=(512, 8, 1))
        lam[::37] = 0.0
        omega = np.where(rng.random(8) < 0.25, 0.0,
                         rng.uniform(-5.0, 5.0, size=8))
        shift = lam - omega[..., None]
        vec = np.ones(lam.shape + (1,), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.matmul(vec / shift[..., None, :],
                             vec.conj().swapaxes(-1, -2))
        for pass_vec in (None, vec):
            green, bad = lattice_green(lam, pass_vec, omega)
            assert green.shape == want.shape and green.dtype == complex
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(green), finite)
            assert np.array_equal(green[finite], want[finite])
            failing = np.isfinite(bad)
            assert failing.any()
            assert np.array_equal(failing, shift[..., 0] == 0.0)
            assert not np.isfinite(green[failing]).any()


def _svd_reference(monkeypatch):
    """Treat every bulk as not in eigenvalue form: level 1 through the
    companion-matrix residue, the resolvent grid's B_0^{-1} through the
    SVD-guarded `inverse`."""
    monkeypatch.setattr(spectrum, "_hermitian_linear_fast", lambda spec: False)


class TestGreenRouting:
    """The eigenvalue-form paths (closed-form level 1, the resolvent grid
    from eigenpairs) against the general ones."""

    #: isolated eigenvalue of `tests_util.square_line_and_point` (mpmath)
    NESTED_POINT = 5.180756781817904

    @pytest.mark.parametrize("nested, omegas", [
        (False, (-5.0, -4.5, 1.3, 4.1, 4.2, 4.3, 5.0, 6.5)),
        (True, (-5.0, 1.3, 4.1, 4.2, 4.7, NESTED_POINT, 6.0, 7.5)),
    ])
    def test_membership_matches_reference(self, square_line_model,
                                          monkeypatch, nested, omegas):
        # gaps, the band, the guided branch up to 2 + sqrt5 and, on the
        # nested model, its isolated point; sigma is compared relative to
        # max(1, sigma) since a detected level's sigma is ~1e-16
        from tests_util import square_line_and_point
        spec = square_line_and_point()[0] if nested else square_line_model[0]
        grids = GridConfig(k_points=32)
        green = [membership(spec, om, grids) for om in omegas]
        _svd_reference(monkeypatch)
        for om, got in zip(omegas, green):
            want = membership(spec, om, grids)
            assert (got.status, got.detected_at_step) == \
                (want.status, want.detected_at_step)
            assert [lv for lv, _ in got.min_sigma_per_level] == \
                [lv for lv, _ in want.min_sigma_per_level]
            for (_, a), (_, b) in zip(got.min_sigma_per_level,
                                      want.min_sigma_per_level):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        assert {c.status for c in green} == {"in", "out"}
        assert {c.detected_at_step for c in green} >= \
            ({0, 1, 2} if nested else {0, 1})

    @pytest.mark.parametrize("model, omega", [
        ("chain", 3.0), ("line", 5.0), ("nested", 4.7), ("nested", 6.0)])
    def test_resolvent_matches_reference(self, chain_defect_model,
                                         square_line_model, monkeypatch,
                                         model, omega):
        from tests_util import square_line_and_point
        spec = {"chain": chain_defect_model[0],
                "line": square_line_model[0],
                "nested": square_line_and_point()[0]}[model]
        d = spec.lattice_dim
        g = trig_vector(d, {(0,) * d: [1.0], (1,) * d: [0.5 - 0.25j],
                            (-2,) + (0,) * (d - 1): [0.3j]})
        grids = GridConfig(k_points=32)
        got = resolvent_apply(spec, omega, g, grids).f_tab
        _svd_reference(monkeypatch)
        want = resolvent_apply(spec, omega, g, grids).f_tab
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("eigen_table", [True, False])
    def test_omega_dependent_defect_is_counted(self, monkeypatch, eigen_table):
        # the defect 2.75 - 0.5 omega equals sqrt(omega^2 - 4) at the bound
        # state 2.5 alone; its slope 0.5 is below the bulk's 1, so both
        # gaps are counted on both level-0 paths, and the root is found
        from tests_util import chain_with_defect
        spec, grids = chain_with_defect(2.75, slope=-0.5)
        if not eigen_table:
            _svd_reference(monkeypatch)
        branch = dispersion_branch(spec, 1, grids)
        assert [c[3:] for c in branch.counts] == [(0, 0), (1, 1)]
        (_, root, annot), = branch.samples
        assert abs(root - 2.5) <= spec.tolerances.root_tol_omega
        assert annot == "ok" and branch.skipped == []

    @pytest.mark.parametrize("model", ["chain_defect_model",
                                       "square_line_model"])
    def test_full_spectrum_makes_no_svd_inverse(self, request, monkeypatch,
                                                model):
        spec, _ = request.getfixturevalue(model)
        grids = GridConfig(k_points=16, omega_points=129)
        calls = []
        direct = spectrum.inverse

        def counted(a):
            calls.append(np.shape(a))
            return direct(a)

        monkeypatch.setattr(spectrum, "inverse", counted)
        full_spectrum(spec, grids, n_probes=8)
        assert calls == []
        # on the general path level 1 is the residue, which inverts no B_0
        residue, cells = _GreenTable._residue, []

        def spied(table, cells_):
            cells.append(len(cells_[0]))
            return residue(table, cells_)

        _svd_reference(monkeypatch)
        monkeypatch.setattr(_GreenTable, "_residue", spied)
        full_spectrum(spec, grids, n_probes=8)
        assert calls == [] and sum(cells) > 0


class TestMembership:
    def test_no_defect_band_interior(self, chain_model):
        spec, grids = chain_model
        cert = membership(spec, 1.0, grids)
        assert cert.in_spectrum and cert.detected_at_step == 0

    def test_defect_eigenvalue_detected_at_step_one(self, chain_defect_model):
        spec, grids = chain_defect_model
        cert = membership(spec, SQRT5, grids)
        assert cert.in_spectrum and cert.detected_at_step == 1

    def test_outside_everything(self, chain_defect_model):
        spec, grids = chain_defect_model
        cert = membership(spec, 3.0, grids)
        assert cert.status == "out"
        levels = dict(cert.min_sigma_per_level)
        assert levels[1] == pytest.approx(1 - 1 / SQRT5, abs=1e-8)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_omega_refused(self, chain_defect_model, lam):
        # without the guard nan raised LinAlgError and inf OverflowError;
        # resolvent_apply asks membership first, so it refuses them too
        spec, grids = chain_defect_model
        with pytest.raises(InputError, match="omega must be finite"):
            membership(spec, lam, grids)
        with pytest.raises(InputError, match="omega must be finite"):
            resolvent_apply(spec, lam, trig_vector(1, {(0,): [1.0]}), grids)

    def test_stalled_bracket_is_inconclusive(self, monkeypatch):
        # with n capped at the first grid, the level-2 bracket of the
        # nested model at omega = 6.5 cannot double, so it stalls; the
        # verdict names the level and the witness, the distance 2.5 from
        # omega to the bulk band [-4, 4] of the rows below
        from tests_util import square_line_and_point
        spec, grids = square_line_and_point()
        monkeypatch.setattr(spectrum, "N_QUAD_MAX", N_QUAD_START)
        cert = membership(spec, 6.5, grids)
        assert cert.status == "inconclusive"
        assert cert.reason.startswith("level 2 not evaluated: level 2 "
                                      "quadrature stalled at n=16")
        assert cert.reason.endswith("(witness sigma_min 2.500e+00)")
        assert [lv for lv, _ in cert.min_sigma_per_level] == [0, 1]

    def test_closed_form_failure_is_inconclusive(self, chain_defect_model,
                                                 monkeypatch):
        # a closed-form level-1 cell inside its row's band fails, and the
        # verdict names the level and the witness, the distance 0 to the
        # band; level 0 would have found omega = 1 in the band, so its
        # check is replaced by one that certifies it
        spec, grids = chain_defect_model
        check = spectrum._step_checks

        def level0_passes(values, n_probes, n_axes, *args, **kwargs):
            if n_axes == spec.lattice_dim:
                return [spectrum.StepCheckResult(False, 1.0, (0.0,),
                                                 "sigma")] * n_probes
            return check(values, n_probes, n_axes, *args, **kwargs)

        monkeypatch.setattr(spectrum, "_step_checks", level0_passes)
        cert = membership(spec, 1.0, grids)
        assert cert.status == "inconclusive"
        assert cert.reason == (
            "level 1 not evaluated: level 1 closed form: omega=1.0 is in a "
            "row's bulk band or within its rank guard (witness sigma_min "
            "0.000e+00)")
        assert [lv for lv, _ in cert.min_sigma_per_level] == [0]

    def test_guard_region_is_inconclusive(self, chain_defect_model):
        spec, grids = chain_defect_model
        cert = membership(spec, 2.0 + spec.tolerances.band_guard / 2, grids)
        assert cert.status == "inconclusive"
        assert "band_guard" in cert.reason

    @pytest.mark.parametrize("guard_share, status", [(None, "in"),
                                                      (0.5, "inconclusive")])
    def test_no_level_above_zero_inside_band_or_guard(
            self, chain_defect_model, monkeypatch, guard_share, status):
        # inside the band (omega = 1) and inside the guard strip above it,
        # level 0 decides and level 1 is never evaluated
        spec, grids = chain_defect_model
        omega = 1.0 if guard_share is None else \
            2.0 + guard_share * spec.tolerances.band_guard
        levels = []
        level_values = spectrum._level_values

        def counted(chains, level, t_rows):
            levels.append(level)
            return level_values(chains, level, t_rows)

        monkeypatch.setattr(spectrum, "_level_values", counted)
        cert = membership(spec, omega, grids)
        assert cert.status == status
        assert [lv for lv, _ in cert.min_sigma_per_level] == [0]
        assert levels and set(levels) == {0}

    def test_guided_branch_interior_2d(self, square_line_model):
        spec, grids = square_line_model
        cert = membership(spec, 4.1, grids)
        assert cert.in_spectrum and cert.detected_at_step == 1

    @pytest.mark.parametrize("model,edge", [("chain_model", 2.0),
                                            ("square_model", 4.0)])
    def test_step_zero_matches_band_coverage(self, model, edge, request):
        # step-0 verdicts reproduce the closed-form band edges away from the
        # guard strip around them
        spec, grids = request.getfixturevalue(model)
        guard = spec.tolerances.band_guard
        for lam in np.linspace(-edge - 1.0, edge + 1.0, 41):
            if min(abs(lam - edge), abs(lam + edge)) < 2 * guard:
                continue
            cert = membership(spec, float(lam), grids)
            assert cert.status in ("in", "out")
            assert cert.in_spectrum == (abs(lam) <= edge), f"lam={lam}"
            if cert.in_spectrum:
                assert cert.detected_at_step == 0


class TestBands:
    def test_adjacency(self, chain_model):
        spec, _ = chain_model
        assert bands(spec, [0.0])[0] == pytest.approx(2.0)

    def test_2d_corner(self, square_model):
        spec, _ = square_model
        assert bands(spec, [np.pi, np.pi])[0] == pytest.approx(-4.0)

    def test_bipartite_dirac_point(self, bipartite_model):
        spec, _ = bipartite_model
        vals = bands(spec, [np.pi])
        assert np.allclose(vals, [0.0, 0.0], atol=1e-12)

    def test_quadratic_family_companion(self):
        # squared-frequency form: A(k) - omega^2 I, roots +-sqrt(2+2cos k)
        base = TrigMatrixPolynomial(1, {(0,): [[2.0]], (1,): [[1.0]],
                                        (-1,): [[1.0]]})
        bulk = OmegaSymbol({0: base, 2: TrigMatrixPolynomial(1, {(0,): [[-1.0]]})})
        from defect_bands.model import ProblemSpec
        spec = ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk,
                           omega_window=(-3, 3))
        k = 1.1
        want = np.sqrt(2 + 2 * np.cos(k))
        assert np.allclose(bands(spec, [k]), [-want, want], atol=1e-10)

    def test_non_hermitian_rejected(self):
        from defect_bands.model import ProblemSpec
        bulk = OmegaSymbol({0: TrigMatrixPolynomial(1, {(1,): [[1.0]]}),
                            1: TrigMatrixPolynomial(1, {(0,): [[-1.0]]})})
        spec = ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk)
        with pytest.raises(InputError):
            bands(spec, [0.0])

    def test_squared_frequency_corner_is_exact_zero(self):
        # tools/squared_frequency_line.json is (4 + 2 cos k_1 + 2 cos k_2)
        # - omega^2: at (-pi, -pi) the double root 0, a band edge of the
        # spectrum, comes out exactly, not at +-sqrt(eps)
        spec, _ = spec_from_config(load_config(
            Path(__file__).parents[1] / "tools" / "squared_frequency_line.json"))
        assert bands(spec, [-np.pi, -np.pi]).tolist() == [0.0, 0.0]

    def test_identically_singular_row_raises(self):
        # (1 + cos k)(1 - omega^2): det T = 0 for every omega at k = pi,
        # where no leading block passes the rank guard
        stencil = {(0,): [[1.0]], (1,): [[0.5]], (-1,): [[0.5]]}
        bulk = OmegaSymbol({
            0: TrigMatrixPolynomial(1, stencil),
            2: TrigMatrixPolynomial(1, {off: -np.asarray(c)
                                        for off, c in stencil.items()})})
        spec = ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk)
        assert np.allclose(bands(spec, [0.0]), [-1.0, 1.0], atol=1e-14)
        with pytest.raises(InputError, match="det T = 0 for all omega"):
            bands_grid(spec, [[0.0], [np.pi]])

    @pytest.mark.parametrize("model", ["chain", "square", "ragged", "line",
                                       "massless"])
    def test_bands_is_a_row_of_bands_grid(self, model, request):
        # eigenvalue form, ragged and uniform quadratic families, and an M
        # = 2 quadratic one with a massless site, whose rows take shifted
        # changes of variable
        if model in ("chain", "square"):
            spec, _ = request.getfixturevalue(f"{model}_model")
        elif model == "ragged":
            spec = squared_frequency_ragged()
        elif model == "line":
            spec = squared_frequency_line_and_point()
        else:
            spec = massless_site_pair()
        rows = full_mesh(spec.lattice_dim, 8)
        grid = bands_grid(spec, rows)
        for row, want in zip(rows, grid):
            assert np.array_equal(bands(spec, row), want)

    def test_ragged_band_count_is_a_list(self):
        rows = full_mesh(1, 16)
        got = bands_grid(squared_frequency_ragged(), rows)
        assert isinstance(got, list) and len(got) == 16
        for (k,), roots in zip(rows, got):
            a_k = 2 * np.cos(k) + 0.5
            want = [-np.sqrt(a_k), np.sqrt(a_k)] if a_k >= 0 else []
            assert np.allclose(roots, want, rtol=0, atol=1e-12)


class TestExclusionSet:
    def test_ragged_band_count(self):
        # the roots of omega^2 = 2 cos k + 0.5 cover [-sqrt 2.5, sqrt 2.5]
        excl = exclusion_set(squared_frequency_ragged(), 1,
                             GridConfig(k_points=16))
        (lo, hi), = excl.intervals[0]
        assert lo == pytest.approx(-np.sqrt(2.5), rel=0, abs=1e-12)
        assert hi == pytest.approx(np.sqrt(2.5), rel=0, abs=1e-12)

    def test_2d_line_formula(self, square_line_model):
        spec, grids = square_line_model
        excl = exclusion_set(spec, 1, grids)
        n = grids.k_points
        for idx in (n // 2, 3 * n // 4, 0):    # k2 = 0, pi/2, -pi
            k2, = excl.nodes[idx]
            (lo, hi), = excl.intervals[idx]
            assert lo == pytest.approx(-2 + 2 * np.cos(k2), abs=1e-12)
            assert hi == pytest.approx(2 + 2 * np.cos(k2), abs=1e-12)

    def test_1d_full_band(self, chain_defect_model):
        spec, grids = chain_defect_model
        excl = exclusion_set(spec, 1, grids)
        assert excl.intervals[0] == [(-2.0, 2.0)]

    def test_lower_branch_projection_enters(self, chain_defect_model):
        # one level past the final step the defect point itself is excluded:
        # the assembled spectrum is exactly that recursive union
        spec, grids = chain_defect_model
        result = full_spectrum(spec, grids, n_probes=0)
        assert result.contains(SQRT5, dilate=spec.tolerances.root_tol_omega)
        assert not result.contains(3.0, dilate=spec.tolerances.root_tol_omega)


class TestDispersionBranch:
    def test_line_defect_samples(self, square_line_model):
        spec, grids = square_line_model
        branch = dispersion_branch(spec, 1, grids)
        guard = spec.tolerances.band_guard
        excl = exclusion_set(spec, 1, grids)
        assert len(branch.samples) == grids.k_points
        for (k_tail, omega, _), node, ivs in zip(branch.samples, excl.nodes,
                                                 excl.intervals):
            assert k_tail == tuple(node)
            want = 2 * np.cos(k_tail[0]) + SQRT5
            assert omega == pytest.approx(want, abs=1e-6)
            assert min(abs(omega - b) for iv in ivs for b in iv) >= guard

    def test_rows_come_from_the_exclusion_set(self, square_line_model):
        # the rows are the nodes of the exclusion set on `grids`, here a
        # coarser k grid than the config's: each row is searched outside
        # its own intervals
        spec, _ = square_line_model
        grids = coarse(spec, k_points=16)
        excl = exclusion_set(spec, 1, grids)
        branch = dispersion_branch(spec, 1, grids)
        assert [k_tail for k_tail, _, _ in branch.samples] == \
            [tuple(node) for node in excl.nodes]
        assert branch.skipped == []
        for (k2,), omega, _ in branch.samples:
            assert omega == pytest.approx(2 * np.cos(k2) + SQRT5, abs=1e-6)

    def test_no_defect_empty_branch(self, chain_model):
        spec, grids = chain_model
        branch = dispersion_branch(spec, 1, grids)
        assert branch.samples == []

    @pytest.mark.parametrize("eigen_table", [True, False])
    def test_window_inside_band_empty_branch(self, chain_defect_model,
                                             monkeypatch, eigen_table):
        # the window lies in the band [-2, 2]: no gap, nothing is evaluated
        spec, grids = chain_defect_model
        if not eigen_table:
            _svd_reference(monkeypatch)
        inside = dataclasses.replace(spec, omega_window=(-1.5, 1.5))
        branch = dispersion_branch(inside, 1, grids)
        assert branch.samples == [] and branch.skipped == []

    def test_non_self_adjoint_spec_refused(self):
        # a Hermitian bulk with the complex on-site defect 1 + 0.5i: the
        # count needs a self-adjoint spec, so the dispersion is refused,
        # while membership still answers
        from tests_util import chain_with_defect
        spec, grids = chain_with_defect(1.0 + 0.5j)
        assert spec.bulk.is_hermitian_family() and not spec.is_self_adjoint()
        with pytest.raises(InputError, match="self-adjoint"):
            dispersion_branch(spec, 1, grids)
        assert membership(spec, 3.0, grids).status == "out"
        assert membership(spec, 0.0, grids).detected_at_step == 0

    def test_negative_defect_negative_point(self):
        from tests_util import chain_with_defect
        spec, grids = chain_with_defect(-1.0)
        branch = dispersion_branch(spec, 1, grids)
        assert len(branch.samples) == 1
        assert branch.samples[0][1] == pytest.approx(-SQRT5, abs=1e-8)

    def test_squared_frequency_bulk_direct_path(self):
        # (2 + 2 cos k) - omega^2 is not omega-linear, so B_0 is inverted
        # directly; a unit point defect binds where 2 - omega^2 = -sqrt5
        spec = squared_frequency_point_defect()
        assert not _hermitian_linear_fast(spec)
        branch = dispersion_branch(spec, 1, GridConfig())
        want = np.sqrt(2.0 + SQRT5)
        roots = sorted(om for _, om, _ in branch.samples)
        assert len(roots) == 2
        assert abs(roots[0] + want) <= spec.tolerances.root_tol_omega
        assert abs(roots[1] - want) <= spec.tolerances.root_tol_omega

    @staticmethod
    def _narrow_band_chain(window=(-3.0, 3.0)):
        # hopping a = 1e-3 and the defect 1 - omega / 2, which depends on
        # omega and vanishes at omega = 2; band [-2a, 2a], and the bound
        # state solves 1 - omega / 2 = sqrt(omega^2 - 4a^2)
        from tests_util import chain_with_defect
        a = 1e-3
        spec, _ = chain_with_defect(1.0, hopping=a, slope=-0.5)
        return (dataclasses.replace(spec, omega_window=window),
                (np.sqrt(4 + 12 * a * a) - 1) / 1.5)

    @pytest.mark.parametrize("window", [(-3.0, 3.0), (-2.9975, 3.0)])
    def test_no_bracket_across_an_exclusion(self, caplog, window):
        # with its real exclusion, [-0.022, 0.022] dilated, narrower than
        # one step of a 100-point omega grid, the band is no gap's: each
        # gap is counted and searched on its own, so no omega in the band
        # (0, or 0.00125 with the second window) is probed
        spec, root = self._narrow_band_chain(window)
        with caplog.at_level(logging.WARNING, logger="defect_bands.spectrum"):
            branch = dispersion_branch(spec, 1, GridConfig(omega_points=100))
        assert [om for _, om, _ in branch.samples] == \
            [pytest.approx(root, abs=1e-8)]
        assert branch.skipped == []
        assert caplog.text == ""

    @pytest.mark.parametrize("model", ["point", "chain", "line"])
    def test_scan_finds_roots_beside_the_guard_edge(self, model):
        # every root of the point and chain models, and of 6 of the 16
        # rows of the line model, lies between a gap's guard edge and the
        # first omega inside the gap of a 129- or 513-point omega grid; the
        # count at the gap's edges sees it
        from tests_util import chain_with_defect
        if model == "point":
            # (2 + 2 cos k) - omega^2, unit point defect
            spec, grids = (squared_frequency_point_defect(),
                           GridConfig(omega_points=129))
            want = {(): [-np.sqrt(2 + SQRT5), np.sqrt(2 + SQRT5)]}
        elif model == "chain":
            # omega^2 = 4 + (0.3 + 0.01 omega)^2, beyond the guard edge 2.02
            # and below the first grid omega 2.03125
            spec, grids = chain_with_defect(0.3, slope=0.01)
            q = 1 - 0.01 ** 2
            want = {(): [(0.006 + np.sqrt(0.006 ** 2 + 16.36 * q)) / (2 * q)]}
        else:
            # (4 + 2 cos k_1 + 2 cos k_2) - omega^2, unit line defect
            line = squared_frequency_line_and_point()
            spec = dataclasses.replace(line, defects=line.defects[:1])
            grids = GridConfig(k_points=16, omega_points=129)
            want = {}
            for k2 in full_mesh(1, 16)[:, 0]:
                w = np.sqrt(4 + 2 * np.cos(k2) + SQRT5)
                want[(k2,)] = [-w, w]
        branch = dispersion_branch(spec, 1, grids)
        got = {}
        for k_tail, omega, _ in branch.samples:
            got.setdefault(k_tail, []).append(omega)
        assert got.keys() == want.keys()
        for k_tail, roots in want.items():
            assert got[k_tail] == pytest.approx(roots, abs=1e-9)
        assert branch.skipped == []

    def test_eigen_table_matches_direct_path(self, monkeypatch):
        # the per-cell direct inverse is the reference for the eigen table
        # at the gap edges and in the lockstep search; on the nested model
        # the point level's table takes its integrand from the level-1
        # tables it owns
        from tests_util import square_line_and_point, square_with_line_defect
        models = [square_with_line_defect(1.0, k_points=16, omega_points=129),
                  square_line_and_point(k_points=16, omega_points=129)]

        def all_branches(spec, grids):
            found = {}
            for codim in spec.present_codims:
                found[codim] = dispersion_branch(
                    spec, codim, grids, branches=dict(found))
            return found

        cached = [all_branches(*model) for model in models]
        monkeypatch.setattr(spectrum, "_hermitian_linear_fast",
                            lambda spec: False)
        direct = [all_branches(*model) for model in models]
        for (spec, _), got, want in zip(models, cached, direct):
            assert len(got[1].samples) == 16
            for codim in spec.present_codims:
                assert len(got[codim].samples) == len(want[codim].samples) > 0
                for (ka, oa, na), (kb, ob, nb) in zip(got[codim].samples,
                                                      want[codim].samples):
                    assert (ka, na) == (kb, nb)
                    assert abs(oa - ob) <= spec.tolerances.root_tol_omega

    def test_nested_call_builds_one_point_level_table(self, monkeypatch):
        # one level-2 table per call serves every omega of the edges and
        # the search, and it owns one level-1 table per n that its brackets
        # reach, on the n axis-2 nodes x its rows, not one per omega: every
        # integrand it takes comes from one of those, and no other level-1
        # table is built in the call
        from tests_util import square_line_and_point
        spec, grids = square_line_and_point(k_points=16, omega_points=65)
        line = dispersion_branch(spec, 1, grids)
        tops, levels, level2_n, lower = [], [], set(), set()
        init, integrand = _GreenTable.__init__, _GreenTable._integrand
        converge = _GreenTable._converge

        def counted(table, spec, level, t_rows):
            levels.append(level)
            if level == 2:
                tops.append(table)
            init(table, spec, level, t_rows)

        def spied(table, n, rows, omega, pins):
            level2_n.add(n)
            return integrand(table, n, rows, omega, pins)

        def carried(table, omegas, groups, pins=None, carry=False):
            if carry:
                lower.add(id(table))
            return converge(table, omegas, groups, pins, carry)

        monkeypatch.setattr(_GreenTable, "__init__", counted)
        monkeypatch.setattr(_GreenTable, "_integrand", spied)
        monkeypatch.setattr(_GreenTable, "_converge", carried)
        point = dispersion_branch(spec, 2, grids, branches={1: line})
        assert [om for _, om, _ in point.samples] == \
            [pytest.approx(5.180756781817904, abs=1e-8)]
        top, = tops
        assert 0 < levels.count(1) <= len(level2_n)
        assert set(top._below) == level2_n != set()
        assert lower == {id(t) for t in top._below.values()}
        for n, below in top._below.items():
            assert below.level == 1
            assert np.array_equal(below.t_rows, node_mesh(
                n, 1, top.t_rows).reshape(-1, 1))

    def test_lower_nonconvergence_skips_its_cells(self, monkeypatch, caplog):
        # a level-1 NonConvergence inside the point level's brackets fails
        # the top edge, 8.0, of the gap above the line branch: that cell
        # goes on Branch.skipped with the lower exception's n and witness,
        # and its gap is left uncounted, with no samples, and named in the
        # warning with the reason
        from tests_util import square_line_and_point
        spec, grids = square_line_and_point(k_points=16, omega_points=65)
        line = dispersion_branch(spec, 1, grids)
        clean = dispersion_branch(spec, 2, grids, branches={1: line})
        converge = _GreenTable._converge

        def flaky(table, omegas, groups, pins=None, carry=False):
            if table.level == 1 and omegas[0] > 7.9:
                return [NonConvergence("forced", n_reached=1024,
                                       witness_sigma_min=0.0625)] * \
                    len(groups)
            return converge(table, omegas, groups, pins, carry)

        monkeypatch.setattr(_GreenTable, "_converge", flaky)
        with caplog.at_level(logging.WARNING, logger="defect_bands.spectrum"):
            top = dispersion_branch(spec, 2, grids, branches={1: line})
        assert clean.skipped == []
        assert [c[3:] for c in clean.counts] == [(0, 0), (1, 1)]
        assert [c[3:] for c in top.counts] == [(0, 0), (None, 0)]
        assert top.skipped == [((), 8.0, 1024, 0.0625)]
        assert top.samples == [] != clean.samples
        assert top.cells == {"edges": 4, "search": 0, "closed": 0}
        _, lo, hi, _, _ = top.counts[1]
        assert (f"gaps not counted, so not searched: k=() [{lo:.6g}, "
                f"{hi:.6g}] (an edge did not converge)") in caplog.text

    def test_lockstep_polish_work(self, monkeypatch):
        # the square lattice's line defect 1 + omega / 4, which depends on
        # omega, so its level is counted and searched: at 32 k nodes and
        # 257 omegas every node has one root in one of its two gaps.  The
        # first call evaluates the two edges of every gap; every later call
        # is one search step, one group per live piece and at most one
        # piece per root here; no cell is an omega of the 257-point grid.
        # Bisecting one step of that grid, 12/256, to root_tol_omega took
        # 29 such calls; the search from whole gaps takes fewer
        spec, _ = omega_line_model()
        grids = coarse(spec)
        calls = []
        converge = _GreenTable._converge

        def counted(table, omegas, groups, pins=None):
            calls.append((np.array(omegas), [len(g) for g in groups]))
            return converge(table, omegas, groups, pins)

        monkeypatch.setattr(_GreenTable, "_converge", counted)
        branch = dispersion_branch(spec, 1, grids)
        assert len(branch.samples) == 32
        assert [c[3] for c in branch.counts] == [c[4] for c in branch.counts]
        (edges, edge_sizes), *search = calls
        assert len(branch.counts) == 64
        assert len(edges) <= 2 * len(branch.counts)
        assert set(edge_sizes) == {1}
        assert 0 < len(search) < 29
        assert all(set(sizes) == {1} and len(sizes) <= 32
                   for _, sizes in search)
        probes = np.concatenate([omegas for omegas, _ in search])
        scan = np.linspace(*spec.omega_window, grids.omega_points)
        assert not np.isin(probes, scan).any()
        assert branch.cells == {"edges": len(edges), "search": len(probes),
                                "closed": 0}

    def test_closed_form_level_evaluates_no_cell(self, square_line_model,
                                                 monkeypatch):
        # the square lattice's line defect 1, on a closed-form level with a
        # defect free of omega: each row's root is solved, so no bracket
        # is evaluated, and every node's one root is found in one of its
        # two gaps
        spec, _ = square_line_model
        calls = []
        monkeypatch.setattr(_GreenTable, "_converge",
                            lambda *a, **k: calls.append(a))
        branch = dispersion_branch(spec, 1, coarse(spec))
        assert calls == []
        assert len(branch.samples) == 32 and len(branch.counts) == 64
        assert [c[3] for c in branch.counts] == [c[4] for c in branch.counts]
        assert sorted({c[3] for c in branch.counts}) == [0, 1]
        assert branch.cells == {"edges": 0, "search": 0, "closed": 64}

    @pytest.mark.parametrize("eps", [
        pytest.param(0.25, marks=pytest.mark.xfail(strict=True, reason=(
            "the root 2.01556 lies inside band_guard of the band edge 2, "
            "where membership is inconclusive; the gap starts at 2.02"))),
        0.3, -0.3, 0.35])
    def test_point_defect_root_near_guard(self, eps):
        # sqrt(4 + eps^2) lies below the first admissible grid omega
        # 2.03125 of the 513-point window [-4, 4]; for |eps| >= 0.29 it also
        # lies beyond the guard edge 2.02, so the count at the gap's edges
        # sees it and the search finds it.  The property in
        # test_properties.py covers |eps| >= 0.29
        from tests_util import chain_with_defect
        spec, grids = chain_with_defect(eps)
        branch = dispersion_branch(spec, 1, grids)
        assert [om for _, om, _ in branch.samples] == \
            [pytest.approx(np.sign(eps) * np.sqrt(4 + eps ** 2), abs=1e-8)]


def _fake_crossing(roots, search=None):
    """A `crossing` for `_count_roots`: the crossing matrix diag(omega - r)
    over `roots` with the defect symbol I, its n pinned at N_QUAD_START;
    `search(values)` replaces the values at search probes."""
    def crossing(omegas, rows, kind, pins=None):
        for p in pins or []:
            p[1] = N_QUAD_START
        lam = np.sort(np.asarray(omegas)[:, None] - np.asarray(roots), axis=1)
        lam = np.concatenate([lam, np.ones_like(lam)], axis=1)
        return lam if search is None or kind != "search" else search(lam)
    return crossing


class TestRootCounts:
    """The inertia counts at the gap edges: the guards of `_count_roots`,
    and the counts against independent ones on models with known roots."""

    @staticmethod
    def _table(chain_defect_model):
        # the chain's level-1 table: bulk eigenvalues 2 cos k in [-2, 2]
        return _GreenTable(chain_defect_model[0], 1, np.zeros((1, 0)))

    def test_count_and_search(self, chain_defect_model):
        # 10 lies beyond the gaps and adds one negative eigenvalue at both
        # edges; the two roots in (2.5, 4) are separated by bisection on the
        # inertia and each found to root_tol_omega
        counts, roots, why = _count_roots(
            self._table(chain_defect_model), [(0, 2.5, 4.0), (0, -4.0, -2.5)],
            _fake_crossing([3.0, 3.5, 10.0]), 1e-10)
        assert counts == [2, 0] and why == [None, None]
        assert np.allclose(sorted(roots[0]), [3.0, 3.5], rtol=0, atol=1e-10)
        assert roots[1] == []

    @pytest.mark.parametrize("row, edges, want", [
        (0, (-1.0, 5.0), (0.0, "a bulk band lies inside it")),
        (0, (3.5, 4.5), (0.0, "a bulk band lies inside it")),
        (0, (-0.5, 0.25), (0.0, "a bulk band lies inside it")),
        (0, (4.02, 6.0), (1.0, None)),
        (0, (-6.0, -0.02), (1.0, None)),
        (1, (0.02, 6.0), (1.0, None)),
        (1, (-4.5, -3.9), (0.0, "a bulk band lies inside it")),
        (2, (2.02, 5.0), (1.0, None)),
    ])
    def test_closed_form_piece_sign(self, square_line_model, row, edges,
                                    want):
        # the rows k2 = 0, pi and pi/2 of the line model have the bands
        # [0, 4], [-4, 0] and [-2, 2] exactly; a piece whose edges straddle
        # or reach into one is refused, one beside it has sign +1; no n is
        # read
        table = _GreenTable(square_line_model[0], 1,
                            [[0.0], [np.pi], [np.pi / 2]])
        assert table._closed
        assert table.piece_sign(0, row, np.array(edges)) == want

    def test_gaps_left_uncounted(self, chain_defect_model):
        # a gap over the bulk eigenvalues, a count that decreases, an edge
        # that does not converge, and a probe whose count lies below its
        # piece's upper end each leave their gap uncounted, with no roots
        # and the reason
        table = self._table(chain_defect_model)
        assert _count_roots(table, [(0, 1.0, 4.0)], _fake_crossing([3.0]),
                            1e-10) == ([None], [[]],
                                       ["a bulk band lies inside it"])
        falling = _fake_crossing([3.0])
        assert _count_roots(
            table, [(0, 2.5, 4.0)],
            lambda omegas, *args: -falling(omegas, *args), 1e-10) == \
            ([None], [[]], ["its count is negative"])

        def stalled_top(omegas, rows, kind, pins=None):
            lam = _fake_crossing([3.0])(omegas, rows, kind, pins)
            lam[np.asarray(omegas) == 4.0] = np.nan
            return lam
        assert _count_roots(table, [(0, 2.5, 4.0)], stalled_top, 1e-10) == \
            ([None], [[]], ["an edge did not converge"])
        assert _count_roots(
            table, [(0, 2.5, 4.0), (0, -4.0, -2.5)],
            _fake_crossing([3.0, 10.0], search=np.abs), 1e-10) == \
            ([None, 0], [[], []],
             ["a search probe left the count range", None])

    def test_probe_that_does_not_converge_ends_its_piece(
            self, chain_defect_model):
        # the count stands and the root is not found
        assert _count_roots(
            self._table(chain_defect_model), [(0, 2.5, 4.0)],
            _fake_crossing([3.0], search=lambda lam: lam * np.nan),
            1e-10) == ([1], [[]], [None])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_count_is_continuous_at_a_zero_of_the_defect(self, sign):
        # M = 1, G = 1 and A = 0.7 - s omega, which vanishes at 0.7 s, so
        # C = 1 + A falls in s omega, S = 1 / A + 1 has a pole at 0.7 s and
        # the one root is at 1.7 s.  On the piece between 0 and 2 s, nu(S)
        # is the same at both ends, but the count oriented by s drops by
        # one; the piece is bisected while the pole lies inside it.  The
        # probes of s = sign mirror those of s = -sign bit for bit up to
        # the sixth, the root itself, where a zero value counts on the side
        # of larger omega in both frames, so the two searches part there
        tol = ToleranceSet().root_tol_omega

        def run(s):
            def values(w):
                a = 0.7 - s * w
                return np.array([1.0 / a + 1.0, a])
            a, b = sorted((0.0, 2.0 * s))
            assert (values(a)[0] < 0) == (values(b)[0] < 0)
            piece = _Bracket(7, a, b, *_orient(np.stack([values(a),
                                                         values(b)]), s), s)
            assert piece.na - piece.nb == 1
            probes, ends = [], []

            def evaluate(omegas, gaps):
                assert list(gaps) == [7]
                probes.extend(omegas)
                ends.append((piece.a, piece.b))
                return np.array([values(w) for w in omegas])

            (gap, root), = _search([piece], evaluate, tol)[0]
            assert gap == 7 and abs(root - 1.7 * s) <= tol
            assert all(x == 0.5 * (lo + hi) for x, (lo, hi) in
                       zip(probes, ends) if lo < 0.7 * s < hi)
            return probes, root

        here, mirror = run(sign), run(-sign)
        assert here[0][5] == 1.7 * sign
        assert here[0][:6] == [-x for x in mirror[0][:6]]

    def test_unfinished_search_is_reported(self, monkeypatch, caplog):
        # level-1 integrands that do not converge near the nested model's
        # point 5.18076 end the search there: the probes go on
        # Branch.skipped and the warning names the gap where 0 of 1 counted
        # roots were found
        from tests_util import square_line_and_point
        spec, grids = square_line_and_point(k_points=16, omega_points=65)
        line = dispersion_branch(spec, 1, grids)
        converge = _GreenTable._converge

        def flaky(table, omegas, groups, pins=None, carry=False):
            if table.level == 1 and abs(omegas[0] - 5.18) < 0.05:
                return [NonConvergence("forced", n_reached=1024,
                                       witness_sigma_min=0.0625)] * \
                    len(groups)
            return converge(table, omegas, groups, pins, carry)

        monkeypatch.setattr(_GreenTable, "_converge", flaky)
        with caplog.at_level(logging.WARNING, logger="defect_bands.spectrum"):
            point = dispersion_branch(spec, 2, grids, branches={1: line})
        assert point.samples == []
        assert [c[3:] for c in point.counts] == [(0, 0), (1, 0)]
        (k_tail, omega, n_reached, witness), = point.skipped
        assert (k_tail, n_reached, witness) == ((), 1024, 0.0625)
        assert abs(omega - 5.18) < 0.05
        assert "cells that did not converge: 1 (see Branch.skipped)" in \
            caplog.text
        assert "fewer roots found than counted in k=() [" in caplog.text
        assert "(0 of 1)" in caplog.text

    @pytest.mark.parametrize("eigen_table", [True, False])
    @pytest.mark.parametrize("model", ["chain", "narrow"])
    def test_exclusion_missing_the_band_is_not_counted(
            self, chain_defect_model, monkeypatch, caplog, model,
            eigen_table):
        # with no exclusion intervals the one gap, the whole window, holds
        # the band, where the level-1 integrand has poles: B_0 changes
        # inertia between the gap's edges at some node (on the eigen path
        # an eigenvalue of H lies between them), so the gap is left
        # uncounted with no samples, only its edges are evaluated and the
        # warning names it
        if model == "chain":
            spec, grids = chain_defect_model
        else:
            spec, _ = TestDispersionBranch._narrow_band_chain()
            grids = GridConfig(omega_points=100)
        if not eigen_table:
            _svd_reference(monkeypatch)
        real = exclusion_set(spec, 1, grids)
        empty = ExclusionSet(nodes=real.nodes, intervals=[[]])
        monkeypatch.setattr(spectrum, "exclusion_set", lambda *a: empty)
        with caplog.at_level(logging.WARNING, logger="defect_bands.spectrum"):
            branch = dispersion_branch(spec, 1, grids)
        lo, hi = spec.omega_window
        assert branch.counts == [((), lo, hi, None, 0)]
        assert branch.samples == [] and branch.skipped == []
        closed = model == "chain" and eigen_table
        assert branch.cells == {"edges": 0 if closed else 2, "search": 0,
                                "closed": int(closed)}
        assert (f"k=() [{lo:.6g}, {hi:.6g}] (a bulk band lies inside it)"
                in caplog.text)

    def test_exclusion_missing_the_band_in_each_row_is_not_counted(
            self, caplog, monkeypatch):
        # the square lattice's line defect with no exclusion intervals: in
        # each row the one gap, the whole window, holds that row's band
        # [c - 2, c + 2], c = 2 cos k_2, so every row is left uncounted with
        # no samples, only the two edges of each row are evaluated and the
        # warning names every row
        from tests_util import square_with_line_defect
        spec, grids = square_with_line_defect(1.0, k_points=8,
                                              omega_points=65)
        real = exclusion_set(spec, 1, grids)
        empty = ExclusionSet(nodes=real.nodes,
                             intervals=[[] for _ in real.nodes])
        monkeypatch.setattr(spectrum, "exclusion_set", lambda *a: empty)
        with caplog.at_level(logging.WARNING, logger="defect_bands.spectrum"):
            branch = dispersion_branch(spec, 1, grids)
        lo, hi = spec.omega_window
        rows = [tuple(k) for k in real.nodes]
        assert len(rows) == 8
        assert branch.counts == [(k, lo, hi, None, 0) for k in rows]
        assert branch.samples == [] and branch.skipped == []
        assert branch.cells == {"edges": 0, "search": 0, "closed": len(rows)}
        assert caplog.text.count("(a bulk band lies inside it)") == len(rows)

    def test_steep_defect_is_not_counted(self, caplog):
        # the on-site defect 1 + 1.5 omega outruns the bulk's slope:
        # -dT/domega = 1 - 1.5 P_0 is indefinite, so neither orientation
        # is shown and both gaps are left uncounted, with the reason
        from tests_util import chain_with_defect
        spec, grids = chain_with_defect(1.0, slope=1.5)
        with caplog.at_level(logging.WARNING, logger="defect_bands.spectrum"):
            branch = dispersion_branch(spec, 1, grids)
        assert [c[3:] for c in branch.counts] == [(None, 0), (None, 0)]
        assert branch.samples == [] and branch.cells["search"] == 0
        assert caplog.text.count("(-dT/domega is not shown definite on it)") \
            == 2

    @pytest.mark.parametrize("model", ["point", "narrow", "omega_line"])
    def test_counts_match_closed_forms(self, model):
        # levels that the count serves since it checks -dT/domega: a bulk
        # quadratic in omega, and defects that depend on omega, whose
        # zeros (omega = 2 on the narrow chain, -4 on the line) lie inside
        # a gap.  Per gap, the count equals the closed-form roots in it,
        # and each root is found to 1e-9
        if model == "point":
            # (2 + 2 cos k) - omega^2, unit point defect: 2 - omega^2 = -sqrt5
            spec, grids = squared_frequency_point_defect(), GridConfig()
            w = np.sqrt(2 + SQRT5)
            want, zero = {(): [-w, w]}, None
        elif model == "narrow":
            spec, root = TestDispersionBranch._narrow_band_chain()
            grids = GridConfig(omega_points=100)
            want, zero = {(): [root]}, 2.0
        else:
            # square lattice, line defect 1 + omega / 4; per row, with
            # c = 2 cos k_2, 1 + omega / 4 = sign(omega - c) sqrt((omega -
            # c)^2 - 4), so (1/16 - 1) omega^2 + (1/2 + 2c) omega + 5 - c^2
            # = 0 with 1 + omega / 4 of the sign of omega - c
            spec, grids = omega_line_model()
            want, zero = {}, -4.0
            for (k2,) in full_mesh(1, grids.k_points):
                c = 2 * np.cos(k2)
                want[(k2,)] = sorted(
                    w.real for w in np.roots([1 / 16 - 1, 0.5 + 2 * c,
                                              5 - c * c])
                    if abs(w.imag) < 1e-12
                    and np.sign(1 + w.real / 4) == np.sign(w.real - c))
        branch = dispersion_branch(spec, 1, grids)
        got = {}
        for k_tail, omega, annot in branch.samples:
            assert annot == "ok"
            got.setdefault(k_tail, []).append(omega)
        expect = {}
        for k_tail, lo, hi, counted, found in branch.counts:
            inside = [w for w in want[k_tail] if lo < w < hi]
            assert counted == found == len(inside)
            expect.setdefault(k_tail, []).extend(inside)
        assert {k: got.get(k, []) for k in expect} == \
            {k: pytest.approx(w, abs=1e-9) for k, w in expect.items()}
        assert got.keys() <= expect.keys() and branch.skipped == []
        assert len(branch.samples) > 0
        assert zero is None or any(lo < zero < hi
                                   for _, lo, hi, _, _ in branch.counts)

    @pytest.mark.parametrize("eps", [0.3, -0.3, 0.5, -0.5, 2.0, -2.0])
    def test_counts_match_open_chain_box(self, eps):
        # per gap, the eigenvalues of the open L = 200 chain box inside it:
        # the bound state sign(eps) sqrt(4 + eps^2) and no band eigenvalue
        from defect_bands.oracle import assemble_truncated, oracle_eigenvalues
        from tests_util import chain_with_defect
        spec, grids = chain_with_defect(eps)
        eigs = oracle_eigenvalues(assemble_truncated(spec, 200, "open"))
        branch = dispersion_branch(spec, 1, grids)
        counted = [c[3] for c in branch.counts]
        assert counted == [int(np.sum((eigs >= lo) & (eigs <= hi)))
                           for _, lo, hi, _, _ in branch.counts]
        assert counted == [c[4] for c in branch.counts]
        assert sum(counted) == len(branch.samples) == 1

    def test_two_band_line_finds_every_root(self):
        # M = 2: the top gap of each of the 16 rows holds two roots, across
        # which Re det keeps its sign, so the scan found 32 of the 48
        from tests_util import two_band_line
        spec, grids = two_band_line()
        branch = dispersion_branch(spec, 1, grids)
        counted = [c[3] for c in branch.counts]
        assert counted == [c[4] for c in branch.counts]
        assert sum(counted) == len(branch.samples) == 48

    def test_two_band_root_the_scan_missed_matches_strip(self):
        # at k_2 = -pi the root 2.11275 lies between the guard edge 2.082
        # and the first admissible scan omega 2.1875; the (40, 8) open x
        # periodic strip has it as an eigenvalue
        from defect_bands.oracle import assemble_truncated, oracle_eigenvalues
        from tests_util import two_band_line
        spec, grids = two_band_line()
        branch = dispersion_branch(spec, 1, grids)
        root, = [om for (k2,), om, _ in branch.samples
                 if k2 == -np.pi and 2.0 < om < 2.2]
        assert root == pytest.approx(2.11275, abs=1e-5)
        eigs = oracle_eigenvalues(
            assemble_truncated(spec, (40, 8), ("open", "periodic")))
        assert np.min(np.abs(eigs - root)) <= 1e-8

    @pytest.mark.parametrize("config", [
        "chain_point_defect.json", "square_line_defect.json",
        "nested_line_point.json"])
    def test_bundled_models_find_every_counted_root(self, config):
        # every gap of every level is counted, and searched or solved, no
        # cell is skipped, and each count is met
        path = (Path(__file__).parents[1] / "perfbench" / config
                if config.startswith("nested") else config_path(config))
        spec, grids = spec_from_config(load_config(str(path)))
        found = {}
        for codim in spec.present_codims:
            branch = found[codim] = dispersion_branch(
                spec, codim, grids, branches=dict(found))
            assert branch.skipped == []
            counted = [c[3] for c in branch.counts]
            assert None not in counted
            assert counted == [c[4] for c in branch.counts]
            assert sum(counted) == len(branch.samples) > 0


class TestFullSpectrum:
    def test_chain_with_defect(self, chain_defect_model):
        spec, grids = chain_defect_model
        result = full_spectrum(spec, grids, n_probes=25)
        kinds = {(c.kind, c.codim) for c in result.components}
        assert ("band_interval", 0) in kinds
        assert ("isolated_point", 1) in kinds
        band = next(c for c in result.components if c.kind == "band_interval")
        assert (band.lo, band.hi) == (pytest.approx(-2.0), pytest.approx(2.0))
        point = next(c for c in result.components if c.kind == "isolated_point")
        assert point.lo == pytest.approx(SQRT5, abs=1e-8)
        assert result.probe_report["disagreements"] == []

    def test_negative_probe_count_refused(self, chain_defect_model):
        spec, grids = chain_defect_model
        with pytest.raises(InputError, match="probe count must be >= 0"):
            full_spectrum(spec, grids, n_probes=-1)

    def test_square_line_defect(self, square_line_model):
        spec, grids = square_line_model
        result = full_spectrum(spec, grids, n_probes=10)
        band = next(c for c in result.components if c.kind == "band_interval")
        assert (band.lo, band.hi) == (pytest.approx(-4.0), pytest.approx(4.0))
        guided = next(c for c in result.components if c.kind == "branch_interval")
        assert guided.lo == pytest.approx(-2 + SQRT5, abs=1e-6)
        assert guided.hi == pytest.approx(2 + SQRT5, abs=1e-6)
        assert result.probe_report["disagreements"] == []

    def test_no_defect_band_only(self, square_model):
        spec, grids = square_model
        result = full_spectrum(spec, grids, n_probes=10)
        assert all(c.kind == "band_interval" for c in result.components)
        assert result.omega_intervals == [(pytest.approx(-4.0), pytest.approx(4.0))]

    def test_defect_strength_continuity(self):
        from tests_util import square_with_line_defect
        eps = 1.0
        spec_a, grids = square_with_line_defect(eps, k_points=16,
                                                omega_points=129)
        spec_b, _ = square_with_line_defect(eps + 1e-3, k_points=16,
                                            omega_points=129)
        br_a = dispersion_branch(spec_a, 1, grids)
        br_b = dispersion_branch(spec_b, 1, grids)
        assert len(br_a.samples) == len(br_b.samples) == 16
        for (ka, oa, _), (kb, ob, _) in zip(br_a.samples, br_b.samples):
            assert ka == kb
            assert abs(oa - ob) <= 1e-2


    def test_two_band_gap_stays_open(self):
        # membership and the open x periodic strip agree: the bulk gap
        # (-0.5, 0.5) of the two-band line model is open near omega = 0
        from defect_bands.oracle import assemble_truncated, oracle_eigenvalues
        from tests_util import two_band_line
        spec, grids = two_band_line()
        assert membership(spec, 0.0, grids).status == "out"
        eigs = oracle_eigenvalues(
            assemble_truncated(spec, (40, 32), ("open", "periodic")))
        assert not np.any((eigs > -0.37) & (eigs < 0.49))

    def test_two_band_branch_does_not_bridge_gap(self):
        # the guided sheets below and above the gap that
        # test_two_band_gap_stays_open shows open stay two branch_intervals,
        # [-1.193, -0.382] and [2.113, 2.867], not one across it
        from tests_util import two_band_line
        spec, grids = two_band_line()
        result = full_spectrum(spec, grids, n_probes=0)
        assert not result.contains(0.0)

    @pytest.mark.parametrize("k_points", [32, 64])
    @pytest.mark.parametrize("v", [3.0, -2.0, pytest.param(
        1.5, marks=pytest.mark.xfail(strict=True, reason=(
            "the point 4.00731 lies inside band_guard of the band edge 4, "
            "so it is not reported")))])
    def test_square_point_defect_matches_elliptic_integral(self, v,
                                                           k_points):
        # the square lattice with a point defect v alone: its one point
        # solves 1 = v G(omega), G = (2/(pi omega)) K(16/omega^2), on the
        # side of the band [-4, 4] that v's sign picks (G(-w) = -G(w));
        # mpmath.ellipk and findroot at 30 digits give the reference
        import mpmath
        from test_quadrature import plane_point
        from tests_util import _square_bulk
        with mpmath.workdps(30):
            root = mpmath.findroot(
                lambda w: 1 - abs(v) * 2 / (mpmath.pi * w)
                * mpmath.ellipk(16 / w ** 2), (4.001, 20),
                solver="anderson")
        want = np.sign(v) * float(root)
        result = full_spectrum(plane_point(_square_bulk(), v),
                               GridConfig(k_points=k_points, omega_points=129))
        points = [c.lo for c in result.components
                  if c.kind == "isolated_point"]
        assert result.probe_report["disagreements"] == []
        assert len(points) == 1 and abs(points[0] - want) <= 1e-12


def _hand_branch(rows, codim=1):
    """A Branch from {k_tail tuple: [(lo, hi, roots ascending), ...]}, in
    row order, each gap counted with its roots."""
    samples, counts = [], []
    for k, gaps in rows.items():
        for lo, hi, roots in gaps:
            samples += [(k, x, "ok") for x in roots]
            counts.append((k, lo, hi, len(roots), len(roots)))
    return Branch(codim=codim, samples=samples, counts=counts)


class TestBranchImage:
    """The link rule of `_branch_image` on hand-built level-1 branches of
    the square lattice, through `_branch_components` (the line model) and
    through the level-2 exclusion set (the line plus point model), on an
    8-point k grid whose band [-4, 4] the exclusion set adds."""

    ROWS = [tuple(k) for k in full_mesh(1, 8)]

    @staticmethod
    def _images(rows):
        from tests_util import square_line_and_point, square_with_line_defect
        branch = _hand_branch(rows)
        line, _ = square_with_line_defect(1.0, k_points=8)
        point, _ = square_line_and_point(k_points=8)
        comps = _branch_components(line, branch, 8)
        assert {c.kind for c in comps} == {"branch_interval"}
        excl = exclusion_set(point, 2, GridConfig(k_points=8), {1: branch})
        return [(c.lo, c.hi) for c in comps], excl.intervals[0]

    def test_sheets_in_different_gaps_stay_apart(self):
        # one sheet below the band, one above: nothing links them across
        rows = {k: [(-6.0, -4.5, [-5.5 + 0.01 * r]),
                    (4.5, 6.0, [5.2 + 0.01 * r])]
                for r, k in enumerate(self.ROWS)}
        comps, excl = self._images(rows)
        assert comps == [pytest.approx((-5.5, -5.43)),
                         pytest.approx((5.2, 5.27))]
        assert excl == [pytest.approx((-5.5, -5.43)), (-4.0, 4.0),
                        pytest.approx((5.2, 5.27))]

    def test_sheets_in_one_gap_keep_their_hole(self):
        # two roots per row in one gap link by crossing index, so the hole
        # between the two sheets stays
        rows = {k: [(4.5, 6.0, [4.6 + 0.01 * r, 5.8 + 0.01 * r])]
                for r, k in enumerate(self.ROWS)}
        comps, excl = self._images(rows)
        assert comps == [pytest.approx((4.6, 4.67)),
                         pytest.approx((5.8, 5.87))]
        assert excl == [(-4.0, 4.0), pytest.approx((4.6, 4.67)),
                        pytest.approx((5.8, 5.87))]

    def test_surplus_root_links_to_its_gap_edge(self):
        # one sheet near 5.5; row 0 holds one more root below it and row 4
        # one more above it: each surplus root links to its gap's edge on
        # its side, while the sheet links across the rows
        rows = {k: [(4.5, 6.0, [5.5 - 0.01 * r])]
                for r, k in enumerate(self.ROWS)}
        rows[self.ROWS[0]] = [(4.5, 6.0, [4.7, 5.5])]
        rows[self.ROWS[4]] = [(4.5, 6.0, [5.46, 5.9])]
        comps, excl = self._images(rows)
        assert comps == [pytest.approx((4.5, 4.7)),
                         pytest.approx((5.43, 5.5)),
                         pytest.approx((5.9, 6.0))]
        assert excl[1:] == comps

    def test_last_row_links_to_first(self):
        # only the first and the last row hold the gap (4.5, 6); the rows
        # between hold a gap below the band with no root.  Each of the two
        # roots links to its gap's nearer edge towards the rows between, and
        # to the other across the periodic grid's end
        rows = {k: [(-6.0, -4.5, [])] for k in self.ROWS}
        rows[self.ROWS[0]] = [(4.5, 6.0, [5.0])]
        rows[self.ROWS[-1]] = [(4.5, 6.0, [5.6])]
        comps, excl = self._images(rows)
        assert comps == [(4.5, 6.0)]
        assert excl == [(-4.0, 4.0), (4.5, 6.0)]

    def test_gap_that_splits_links_to_edges(self):
        # row 4's gap splits in two at (5.2, 5.4): rows 3 and 5 overlap
        # both halves, so no root of rows 3 to 5 links across a row, and
        # each links to its gap's nearer edge; the split stays open
        rows = {k: [(4.5, 6.0, [5.0])] for k in self.ROWS}
        rows[self.ROWS[4]] = [(4.5, 5.2, [5.0]), (5.4, 6.0, [5.6])]
        comps, excl = self._images(rows)
        assert comps == [(4.5, 5.2), (5.4, 5.6)]
        assert excl[1:] == comps

    def test_two_axis_rows_are_keyed_by_the_kept_axis(self):
        # a level-1 branch of the cubic model on rows (k_2, k_3): the
        # level-2 exclusion set of row k_3 holds that row's roots over k_2
        from tests_util import cubic_plane_line_point
        spec, _ = cubic_plane_line_point()
        rows = {tuple(k): [(6.5, 9.9, [8.0 + 0.25 * i3 + 0.01 * i2])]
                for (i2, i3), k in zip(np.ndindex(4, 4), full_mesh(2, 4))}
        excl = exclusion_set(spec, 2, GridConfig(k_points=4),
                             {1: _hand_branch(rows)})
        assert [ivs[-1] for ivs in excl.intervals] == [
            pytest.approx((8.0 + 0.25 * i3, 8.03 + 0.25 * i3))
            for i3 in range(4)]


def _branch_image_reference(branch, n, moved):
    """`spectrum._branch_image` as a loop over the grid's rows and their
    neighbours, one root at a time: {kept row number: merged image}."""
    def index(k):
        return tuple(round((float(t) + np.pi) * n / (2 * np.pi)) % n
                     for t in k)

    found = iter([x for _, x, _ in branch.samples])
    rows = {}
    for k, lo, hi, _, m in branch.counts:
        rows.setdefault(index(k), []).append(
            (lo, hi, [next(found) for _ in range(m)]))

    def to_edge(lo, hi, roots):
        return [(lo, x) if x - lo <= hi - x else (x, hi) for x in roots]

    def overlaps(g, gaps):
        return [h for h in gaps if h[0] < g[1] and g[0] < h[1]]

    image = {}
    dim = len(branch.counts[0][0])
    for idx in np.ndindex(*(n,) * dim):
        key = sum(i * n ** (dim - 1 - a) for a, i in enumerate(idx)
                  if a >= moved)
        segments = image.setdefault(key, [])
        for a in range(moved):
            mine = rows.get(idx, [])
            theirs = rows.get(idx[:a] + ((idx[a] + 1) % n,) + idx[a + 1:],
                              [])
            for one, other in ((mine, theirs), (theirs, mine)):
                for g in one:
                    hit = overlaps(g, other)
                    if (len(hit) != 1 or overlaps(hit[0], one) != [g]
                            or not g[2] or not hit[0][2]):
                        segments += to_edge(*g)
                    elif one is mine:
                        (lo, hi, big), (_, _, small) = sorted(
                            (g, hit[0]), key=lambda v: -len(v[2]))
                        costs = [sum(abs(u - v) for u, v in
                                     zip(big[s:], small))
                                 for s in range(len(big) - len(small) + 1)]
                        s = costs.index(min(costs))
                        segments += [(lo, u) for u in big[:s]]
                        segments += [(u, hi) for u in big[s + len(small):]]
                        segments += [(min(u, v), max(u, v))
                                     for u, v in zip(big[s:], small)]
    return {key: merge_intervals(segs) for key, segs in image.items()}


class TestBranchImageReference:
    def test_matches_the_loop_reference(self):
        # random gaps on 1- and 2-axis rows of 4- and 8-point grids, with
        # edges on a 0.5 lattice so that gaps of neighbouring rows often
        # share an edge, some rows with no gap and some gaps with no root
        rng = np.random.default_rng(26)
        for _ in range(300):
            dim, n = int(rng.integers(1, 3)), int(rng.choice([4, 8]))
            moved = int(rng.integers(1, dim + 1))
            rows = {}
            for k in full_mesh(dim, n):
                if rng.random() < 0.1:
                    continue
                edges = np.sort(rng.choice(np.arange(-10, 11) * 0.5,
                                           2 * int(rng.integers(1, 4)),
                                           replace=False))
                rows[tuple(k)] = [
                    (lo, hi, sorted(rng.uniform(lo, hi, int(
                        rng.integers(0, 4)) if rng.random() > 0.1 else 0)))
                    for lo, hi in zip(edges[::2].tolist(),
                                      edges[1::2].tolist())]
            branch = _hand_branch(rows)
            keys, los, his = spectrum._branch_image(branch, n, moved)
            got = {}
            for key, lo, hi in zip(keys.tolist(), los.tolist(),
                                   his.tolist()):
                got.setdefault(key, []).append((lo, hi))
            want = _branch_image_reference(branch, n, moved)
            assert {key: merge_intervals(segs)
                    for key, segs in got.items()} == \
                {key: ivs for key, ivs in want.items() if ivs}


class TestTwoBandPointModel:
    def test_level_two_without_lower_branches_is_refused(self, monkeypatch):
        # without the level-1 branch the level-2 exclusion set would leave
        # out its image, and a level-2 bracket then met a level-1 pole: the
        # dispersion call ran for more than 10 CPU-minutes.  It is refused
        # before any cell is evaluated
        from tests_util import two_band_line
        spec, grids = two_band_line(point=2.0)
        monkeypatch.setattr(spectrum._GreenTable, "_converge", lambda *a, **k:
                            pytest.fail("a level bracket was evaluated"))
        start = time.perf_counter()
        for call in (exclusion_set, dispersion_branch):
            with pytest.raises(InputError, match="every lower level's branch"):
                call(spec, 2, grids)
        with pytest.raises(InputError, match="every lower level's branch"):
            dispersion_branch(spec, 2, grids, {2: Branch(codim=2, samples=[])})
        assert time.perf_counter() - start < 1.0

    def test_level_two_point_in_the_gap(self):
        # the level-1 image in the bulk gap is [-0.497, -0.382], so level 2
        # searches the rest of the gap and finds the point where det B_2
        # changes sign between 0.13 and 0.14.  The open box converges to it
        # as L grows: 0.13179, 0.13141, 0.13137 and 0.13136 at L = 12, 16,
        # 20 and 24, so at L = 16 (dimension 2,178) it is within 1e-4
        from defect_bands.oracle import assemble_truncated, oracle_eigenvalues
        from scipy.optimize import brentq
        from tests_util import two_band_line
        spec, grids = two_band_line(point=2.0)
        rows = np.zeros((1, 0))
        want = brentq(lambda w: np.linalg.det(
            Chain(spec, w).level_values(2, rows)[0]).real, 0.13, 0.14,
            xtol=1e-14)
        assert want == pytest.approx(0.131360295336162, abs=1e-12)
        result = full_spectrum(spec, grids)
        assert result.probe_report["disagreements"] == []
        points = [c.lo for c in result.components
                  if c.kind == "isolated_point"]
        assert min(abs(w - want) for w in points) <= \
            spec.tolerances.root_tol_omega
        assert not any(c.lo <= 0.0 <= c.hi for c in result.components
                       if c.kind == "branch_interval")
        eigs = oracle_eigenvalues(assemble_truncated(spec, 16, bc="open"))
        assert np.min(np.abs(eigs - want)) <= 1e-4

    def test_two_band_line_probes_agree(self):
        from tests_util import two_band_line
        spec, grids = two_band_line()
        result = full_spectrum(spec, grids)
        assert result.probe_report["disagreements"] == []
        assert not any(c.lo <= 0.0 <= c.hi for c in result.components
                       if c.kind == "branch_interval")


class TestResolvent:
    def test_no_defect_pointwise_inverse(self, chain_model):
        spec, grids = chain_model
        g = trig_vector(1, {(0,): [1.0], (1,): [0.5]})
        sol = resolvent_apply(spec, 3.0, g, grids)
        assert sol.residual <= 1e-10
        mesh = full_mesh(1, grids.k_points)
        want = g(mesh)[:, 0] / (2 * np.cos(mesh[:, 0]) - 3.0)
        assert np.max(np.abs(sol.f_tab[:, 0] - want)) <= 1e-10

    def test_defect_residual(self, chain_defect_model):
        spec, grids = chain_defect_model
        g = trig_vector(1, {(0,): [1.0]})
        sol = resolvent_apply(spec, 3.0, g, grids)
        assert sol.residual <= 1e-8

    def test_round_trip_recovers_polynomial(self, chain_defect_model):
        spec, grids = chain_defect_model
        rng = np.random.default_rng(30)
        n = grids.k_points
        mesh = full_mesh(1, n)
        f0 = trig_vector(1, {(m,): rng.normal(size=1) + 1j * rng.normal(size=1)
                             for m in range(-4, 5)})
        f0_tab = f0(mesh).reshape(n, 1)
        g_tab = forward_apply(spec, 3.0, f0_tab, n)
        lookup = {tuple(row): i for i, row in enumerate(mesh)}
        g = lambda rows: np.stack([g_tab.reshape(-1, 1)[lookup[tuple(r)]]
                                   for r in rows])
        sol = resolvent_apply(spec, 3.0, g, grids)
        assert np.max(np.abs(sol.f_tab - f0_tab)) <= 1e-8
        assert sol.residual <= 1e-8

    def test_uncertified_omega_rejected(self, chain_defect_model):
        spec, grids = chain_defect_model
        g = trig_vector(1, {(0,): [1.0]})
        with pytest.raises(UncertifiedLevel):
            resolvent_apply(spec, 1.0, g, grids)  # inside the band
        with pytest.raises(UncertifiedLevel):
            resolvent_apply(spec, SQRT5, g, grids)  # at the defect point

    def test_singular_grid_level_refused(self):
        # level 0 is regular at sqrt 5, outside the band; the fixed-grid
        # level 1 vanishes there and is refused before it is inverted
        from tests_util import chain_with_defect
        spec, _ = chain_with_defect(1.0)
        with pytest.raises(UncertifiedLevel, match="^level 1 is singular"):
            _grid_tabs(spec, SQRT5, 64)


class TestNestedDefects:
    def test_line_plus_point_defect_full_ladder(self):
        # codim 1 and codim 2 together: the final level integrates through
        # the intermediate inverse and its exclusion set carries the guided
        # branch projection; the truncated box is the independent check
        from defect_bands.oracle import assemble_truncated, oracle_eigenvalues
        from tests_util import square_line_and_point

        spec, grids = square_line_and_point()

        result = full_spectrum(spec, grids, n_probes=0)
        by_kind = {c.kind: c for c in result.components}
        assert by_kind["band_interval"].lo == pytest.approx(-4.0)
        assert by_kind["band_interval"].hi == pytest.approx(4.0)
        assert by_kind["branch_interval"].lo == pytest.approx(-2 + SQRT5, abs=1e-5)
        assert by_kind["branch_interval"].hi == pytest.approx(2 + SQRT5, abs=1e-5)
        point_omega = by_kind["isolated_point"].lo
        assert point_omega > 2 + SQRT5

        cert = membership(spec, point_omega, grids)
        assert cert.in_spectrum and cert.detected_at_step == 2

        excl = exclusion_set(spec, 2, grids, result.branches)
        assert any(lo <= 2 + SQRT5 - 1e-6 <= hi
                   for lo, hi in excl.intervals[0])

        eigs = oracle_eigenvalues(assemble_truncated(spec, 24, bc="open"))
        assert float(np.min(np.abs(eigs - point_omega))) <= 1e-8


    @pytest.mark.parametrize("omega", [-9.0, 8.5, 9.5])
    def test_three_levels_match_fixed_grid(self, omega):
        # a level-3 bracket owns one level-2 table per n, and each level-2
        # table owns level-1 tables of its own rows; away from the spectrum
        # the converged level 3 is the exact n = 64 solve's
        from tests_util import cubic_plane_line_point
        spec, grids = cubic_plane_line_point()
        got = Chain(spec, omega).level_values(3, np.zeros((1, 0)))
        _, _, inv_tabs = _grid_tabs(spec, omega, 64)
        assert abs(got[0, 0, 0] - 1 / inv_tabs[3][0, 0]) <= 1e-12
        assert membership(spec, omega, grids).status == "out"

    def test_rank_deficient_lower_defect_matches_fixed_grid(self):
        # the block bulk diag(H, H - 10), H the square lattice, with a line
        # defect diag(1, 0) and a point defect 3 I: at omega = -5.9 the
        # second block's level-1 bracket, which B_1 = I + P_1 diag(1, 0)
        # holds none of, reaches level 2 through B_1^{-1} P_1; with level 1
        # exact, level 2 is the exact n = 256 solve's (9.3e-10 off the
        # n = 64 solve's)
        one = np.eye(2)
        bulk = OmegaSymbol({
            0: TrigMatrixPolynomial(2, {
                (1, 0): one, (-1, 0): one, (0, 1): one, (0, -1): one,
                (0, 0): np.diag([0.0, -10.0])}),
            1: TrigMatrixPolynomial(2, {(0, 0): -one}),
        })
        line = DefectLayer(
            1, 2, {0: TrigMatrixPolynomial(1, {(0,): np.diag([1.0, 0.0])})})
        point = DefectLayer(2, 2, {0: TrigMatrixPolynomial(0, {(): 3 * one})})
        spec = ProblemSpec(lattice_dim=2, cell_size=2, bulk=bulk,
                           defects=(line, point), omega_window=(-16.0, 9.0))
        chain = Chain(spec, -5.9)
        got = chain.level_values(2, np.zeros((1, 0)))
        assert chain._nquad == {2: 256}
        _, _, inv_tabs = _grid_tabs(spec, -5.9, 256)
        want = np.linalg.inv(inv_tabs[2].reshape(2, 2))
        assert np.max(np.abs(got[0] - want)) <= 1e-12

    def test_cubic_point_matches_open_boxes(self):
        # levels 1-3 of the cubic model: its one level-3 root, 6.42346, is
        # "in" at step 3, and the nearest eigenvalue of the open box of
        # half-width L approaches it as a bound state's does, with
        # truncation errors 4.6e-3, 1.1e-3 and 2.6e-4 at L = 6, 8 and 10
        # (each step of 2 shrinks it about fourfold); the ladder stores no
        # eigenpairs
        from defect_bands.oracle import assemble_truncated, oracle_eigenvalues
        from tests_util import cubic_plane_line_point
        spec, grids = cubic_plane_line_point(k_points=8)
        branches = {}
        for codim in spec.present_codims:
            branches[codim] = dispersion_branch(spec, codim, grids,
                                                branches=dict(branches))
            assert branches[codim].skipped == []
        (_, point, _), = branches[3].samples
        cert = membership(spec, point, grids)
        assert cert.in_spectrum and cert.detected_at_step == 3
        assert "eigh" not in {key[0] for key in spec.eigen_store}
        errors = []
        for half_width in (6, 8, 10):
            eigs = oracle_eigenvalues(assemble_truncated(spec, half_width))
            errors.append(float(np.min(np.abs(eigs - point))))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 5e-4


class TestIntervals:
    def test_merge(self):
        assert merge_intervals([(0, 1), (0.5, 2), (3, 4)]) == [(0, 2), (3, 4)]
        assert merge_intervals([(3, 4), (0, 1)]) == [(0, 1), (3, 4)]
        assert merge_intervals([]) == []
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]
