import numpy as np
import pytest

from defect_bands import oracle
from defect_bands.oracle import (
    _eigenvalues,
    _place,
    assemble_truncated,
    boundary_mass,
    compare_spectra,
    oracle_eigenpairs,
    oracle_eigenvalues,
    periodic_box_check,
)
from defect_bands.model import DefectLayer, ProblemSpec
from defect_bands.spectrum import bands, full_spectrum
from defect_bands.symbol import InputError, OmegaSymbol, TrigMatrixPolynomial
from conftest import load_model
from tests_util import (
    chain_with_defect,
    cubic_plane_line_point,
    square_line_and_point,
    two_band_line,
)

SQRT5 = np.sqrt(5.0)

BUNDLED = ["chain.json", "chain_point_defect.json", "square.json",
           "square_line_defect.json", "bipartite_chain.json"]


def complex_hopping_chain(phi, eps=None):
    """Unit chain with hopping e^{i phi}, optionally an on-site point defect.

    Hermitian, with a complex box matrix unless phi is a multiple of pi.
    """
    hop = np.exp(1j * phi)
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(1, {(1,): [[hop]], (-1,): [[np.conj(hop)]]}),
        1: TrigMatrixPolynomial(1, {(0,): [[-1.0]]})})
    defects = ()
    if eps is not None:
        defects = (DefectLayer(
            1, 1, {0: TrigMatrixPolynomial(0, {(): [[eps]]})}),)
    return ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk, defects=defects)


def lopsided_chain():
    """Eigenvalue-form chain with hopping 1 to the right and 0.5 to the
    left: H(k) is not Hermitian."""
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(1, {(1,): [[1.0]], (-1,): [[0.5]]}),
        1: TrigMatrixPolynomial(1, {(0,): [[-1.0]]})})
    return ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk)


def assert_bloch_matches_dense(trunc):
    got = oracle_eigenvalues(trunc)
    assert "matrix" not in trunc.__dict__    # no dense box was built
    want = np.linalg.eigvalsh(trunc.matrix)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def sector_shapes(trunc):
    """(blocks, size, size) of each stack `oracle_eigenvalues` solves."""
    return [stack.shape for stack, _ in _place(trunc, ("mirror", "bloch"))]


class TestAssembly:
    def test_open_chain_tridiagonal(self, chain_model):
        spec, _ = chain_model
        trunc = assemble_truncated(spec, 5, bc="open")
        h = trunc.matrix.real
        assert h.shape == (11, 11)
        assert np.allclose(np.diag(h), 0.0)
        assert np.allclose(np.diag(h, 1), 1.0)
        assert np.allclose(np.diag(h, -1), 1.0)
        assert np.count_nonzero(h) == 20

    def test_point_defect_center_entry(self, chain_defect_model):
        spec, _ = chain_defect_model
        trunc = assemble_truncated(spec, 5, bc="open")
        h = trunc.matrix.real
        center = 5  # cell coordinate 0 of -5..5
        assert h[center, center] == pytest.approx(1.0)
        off_diag = h - np.diag(np.diag(h))
        assert np.allclose(off_diag, np.diag(np.ones(10), 1) + np.diag(np.ones(10), -1))

    def test_periodic_circulant_eigenvalues(self, chain_model):
        spec, _ = chain_model
        trunc = assemble_truncated(spec, 4, bc="periodic")
        eigs = oracle_eigenvalues(trunc)
        assert np.allclose(np.sort(eigs), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_open_chain_closed_form(self, chain_model):
        # open adjacency chain on 11 sites: eigenvalues 2 cos(pi m / 12)
        spec, _ = chain_model
        trunc = assemble_truncated(spec, 5, bc="open")
        eigs = oracle_eigenvalues(trunc)
        want = np.sort(2 * np.cos(np.pi * np.arange(1, 12) / 12.0))
        assert np.max(np.abs(np.sort(eigs) - want)) <= 1e-12

    def test_quadratic_family_rejected(self):
        bulk = OmegaSymbol({0: TrigMatrixPolynomial(1, {(0,): [[2.0]]}),
                            2: TrigMatrixPolynomial(1, {(0,): [[-1.0]]})})
        spec = ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk)
        with pytest.raises(InputError, match="companion"):
            assemble_truncated(spec, 4, bc="open")

    def test_eigenvalue_form_slack_rejected(self):
        # -(1 + 5e-6) omega + 2 cos k is not H - omega*I: its bands are
        # 2 cos k / (1 + 5e-6), and a box of H alone would read 2 cos k
        bulk = OmegaSymbol({
            0: TrigMatrixPolynomial(1, {(1,): [[1.0]], (-1,): [[1.0]]}),
            1: TrigMatrixPolynomial(1, {(0,): [[-(1 + 5e-6)]]})})
        spec = ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk)
        with pytest.raises(InputError, match="eigenvalue-form"):
            assemble_truncated(spec, 4, bc="open")
        assert bands(spec, [0.0])[0] == pytest.approx(2 / (1 + 5e-6),
                                                      rel=0, abs=1e-12)

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    def test_non_hermitian_rejected_at_input(self, bc):
        # refused before any box is built, not when it is solved
        with pytest.raises(InputError, match="Hermitian"):
            assemble_truncated(lopsided_chain(), 4, bc=bc)

    @pytest.mark.parametrize("half_widths", [(3, 4), (2, 2), (3, 1)],
                             ids=["3x4", "2x2", "3x1"])
    def test_line_defect_kronecker_reference(self, square_line_model,
                                             half_widths):
        # independent reference for open x periodic boxes:
        # H = T_open (x) I + I (x) C_periodic + P (x) I, with T the path on
        # 2 L1 + 1 sites, C the L2-cycle (both offsets land on one entry
        # when L2 <= 2) and P the projector on the x1 = 0 row
        spec, _ = square_line_model
        l1, l2 = half_widths
        n1 = 2 * l1 + 1
        path = np.eye(n1, k=1) + np.eye(n1, k=-1)
        cycle = np.zeros((l2, l2))
        for x in range(l2):
            cycle[(x + 1) % l2, x] += 1.0
            cycle[(x - 1) % l2, x] += 1.0
        proj = np.zeros((n1, n1))
        proj[l1, l1] = 1.0
        want = (np.kron(path, np.eye(l2)) + np.kron(np.eye(n1), cycle)
                + np.kron(proj, np.eye(l2)))
        trunc = assemble_truncated(spec, half_widths, ("open", "periodic"))
        assert np.array_equal(trunc.matrix, want)

    def test_size_cap(self, square_model):
        spec, _ = square_model
        with pytest.raises(InputError, match="reduce L"):
            assemble_truncated(spec, 200, bc="open")

    @pytest.mark.parametrize("half_width, bc", [
        (0, "periodic"), (-1, "periodic"), (-1, "open"), (-3, "open"),
        ((2, 0), ("open", "periodic"))])
    def test_empty_box_rejected(self, chain_model, square_model, half_width,
                                bc):
        spec, _ = square_model if isinstance(bc, tuple) else chain_model
        with pytest.raises(InputError, match="half-width must be at least"):
            assemble_truncated(spec, half_width, bc=bc)

    def test_single_site_box(self, chain_defect_model):
        # half-width 0 open box: one site, bulk hoppings dropped, only the
        # defect survives
        spec, _ = chain_defect_model
        trunc = assemble_truncated(spec, 0, bc="open")
        assert trunc.matrix.shape == (1, 1)
        assert oracle_eigenvalues(trunc)[0] == pytest.approx(1.0)


class TestDtype:
    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_models_are_real(self, name, bc):
        spec, _ = load_model(name)
        assert assemble_truncated(spec, 3, bc=bc).matrix.dtype == np.float64

    def test_complex_hopping_is_complex(self):
        trunc = assemble_truncated(complex_hopping_chain(0.7), 4, "periodic")
        assert trunc.matrix.dtype == np.complex128
        assert trunc.matrix[1, 0] == pytest.approx(np.exp(0.7j), abs=1e-15)


class TestBlochBlocks:
    """oracle_eigenvalues' blocks against the whole dense matrix."""

    @pytest.mark.parametrize("l2", [1, 2, 3, 5])
    def test_line_defect_strip(self, square_line_model, l2):
        spec, _ = square_line_model
        assert_bloch_matches_dense(
            assemble_truncated(spec, (3, l2), ("open", "periodic")))

    @pytest.mark.parametrize("half_widths", [(1, 2), (3, 4), (5, 5)])
    def test_square_periodic_box(self, square_model, half_widths):
        # no defect: both axes are reduced, blocks are 1 x 1
        spec, _ = square_model
        assert_bloch_matches_dense(
            assemble_truncated(spec, half_widths, "periodic"))

    def test_line_defect_periodic_box(self, square_line_model):
        # axis 0 is pinned by the codim-1 defect, axis 1 is reduced
        spec, _ = square_line_model
        assert_bloch_matches_dense(assemble_truncated(spec, (4, 5), "periodic"))

    def test_nested_periodic_box(self):
        # the point defect pins both axes: one block, the whole matrix
        spec, _ = square_line_and_point()
        assert_bloch_matches_dense(assemble_truncated(spec, 5, "periodic"))

    @pytest.mark.parametrize("half_width", [1, 2, 7])
    def test_bipartite_periodic(self, bipartite_model, half_width):
        spec, _ = bipartite_model
        assert_bloch_matches_dense(
            assemble_truncated(spec, half_width, "periodic"))

    @pytest.mark.parametrize("eps", [None, 0.8])
    @pytest.mark.parametrize("half_width", [1, 2, 7, 8])
    def test_complex_hopping_chain(self, eps, half_width):
        spec = complex_hopping_chain(0.7, eps)
        assert_bloch_matches_dense(
            assemble_truncated(spec, half_width, "periodic"))

    def test_complex_hopping_box_identity(self):
        assert periodic_box_check(complex_hopping_chain(0.7), 9) <= 1e-10

    @pytest.mark.parametrize("phi", [0.7, 1e-15])
    def test_complex_hopping_not_folded(self, phi):
        # the hoppings e^{i phi} at +1 and e^{-i phi} at -1 differ bit for
        # bit, however small phi is, so the open chain is not mirror-folded:
        # one block, the whole box
        trunc = assemble_truncated(complex_hopping_chain(phi, 0.8), 5, "open")
        assert sector_shapes(trunc) == [(1, 11, 11)]
        assert_bloch_matches_dense(trunc)

    def test_bipartite_open_not_folded(self, bipartite_model):
        # the cell's two sites swap under the mirror, which the fold does
        # not use: one block
        spec, _ = bipartite_model
        trunc = assemble_truncated(spec, 4, "open")
        assert sector_shapes(trunc) == [(1, 18, 18)]
        assert_bloch_matches_dense(trunc)


class TestParityHalves:
    """Mirror-symmetric kept axes split into even and odd halves."""

    @pytest.mark.parametrize("half_width, shapes", [
        (0, [(1, 1, 1)]),
        (1, [(1, 4, 4), (1, 2, 2), (1, 2, 2), (1, 1, 1)]),
        (5, [(1, 36, 36), (1, 30, 30), (1, 30, 30), (1, 25, 25)])])
    def test_nested_open(self, half_width, shapes):
        # sites 0..L represent -L..L; the odd halves drop the fixed site 0
        spec, _ = square_line_and_point()
        trunc = assemble_truncated(spec, half_width, "open")
        assert sector_shapes(trunc) == shapes
        assert_bloch_matches_dense(trunc)

    @pytest.mark.parametrize("half_width", [7, 8])
    def test_pinned_periodic_chain(self, chain_defect_model, half_width):
        # a periodic axis the point defect pins: fixed sites 0, and L/2
        # when L is even
        spec, _ = chain_defect_model
        trunc = assemble_truncated(spec, half_width, "periodic")
        odd = (half_width - 1) // 2
        assert sector_shapes(trunc) == [(1, half_width - odd, half_width - odd),
                                        (1, odd, odd)]
        assert_bloch_matches_dense(trunc)

    @pytest.mark.parametrize("half_width", [5, 6])
    def test_pinned_periodic_nested(self, half_width):
        spec, _ = square_line_and_point()
        trunc = assemble_truncated(spec, half_width, "periodic")
        assert len(sector_shapes(trunc)) == 4
        assert_bloch_matches_dense(trunc)

    def test_three_levels_open(self):
        # plane, line and point pin every axis of the open cubic box:
        # eight halves
        spec, _ = cubic_plane_line_point()
        trunc = assemble_truncated(spec, 2, "open")
        assert len(sector_shapes(trunc)) == 8
        assert_bloch_matches_dense(trunc)

    @pytest.mark.parametrize("half_widths, bcs, shapes", [
        ((4, 6), ("open", "periodic"), [(6, 10, 10), (6, 8, 8)]),
        ((3, 3), "open", [(1, 56, 56), (1, 42, 42)])])
    def test_two_band_line(self, half_widths, bcs, shapes):
        # M = 2: the first axis folds, the second is Bloch-reduced when
        # periodic and placed site by site when open, since its hoppings
        # at +1 and -1 differ
        spec, _ = two_band_line()
        trunc = assemble_truncated(spec, half_widths, bcs)
        assert sector_shapes(trunc) == shapes
        assert_bloch_matches_dense(trunc)


class TestMirrorHalves:
    """The mirror halves alone, with no Bloch reduction, against the whole
    dense matrix: the spectrum `periodic_box_check` reads."""

    @pytest.mark.parametrize("half_width", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", ["chain.json", "square.json",
                                      "bipartite_chain.json"])
    def test_periodic_box(self, name, half_width):
        spec, _ = load_model(name)
        trunc = assemble_truncated(spec, half_width, "periodic")
        got = _eigenvalues(trunc, ("mirror",))
        assert "matrix" not in trunc.__dict__
        want = np.linalg.eigvalsh(trunc.matrix)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


class TestEigenpairs:
    """oracle_eigenpairs, solved on mirror halves, against eigh of the
    whole dense matrix."""

    @pytest.mark.parametrize("make, half_width", [
        (lambda: load_model("chain_point_defect.json")[0], 30),
        (lambda: square_line_and_point()[0], 5),
        (lambda: cubic_plane_line_point()[0], 2),
        (lambda: two_band_line()[0], (3, 3)),
        (lambda: complex_hopping_chain(0.7, 0.8), 5),
        (lambda: load_model("bipartite_chain.json")[0], 4)],
        ids=["chain-defect", "nested", "cubic", "two-band", "complex-hopping",
             "bipartite"])
    def test_matches_dense(self, make, half_width):
        trunc = assemble_truncated(make(), half_width, "open")
        values, vectors = oracle_eigenpairs(trunc)
        assert "matrix" not in trunc.__dict__    # no dense box was built
        h = trunc.matrix
        want, want_vectors = np.linalg.eigh(h)
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(values - want)) <= 1e-12
        scale = max(1.0, np.linalg.norm(h, 2))
        assert np.linalg.norm(h @ vectors - vectors * values, 2) <= 1e-12 * scale
        assert np.max(np.abs(vectors.conj().T @ vectors
                             - np.eye(len(values)))) <= 1e-12
        # one vector of a degenerate eigenspace depends on the basis; the
        # mass summed over the eigenspace does not
        starts = np.flatnonzero(np.r_[True, np.diff(want) > 1e-9])
        mass = np.add.reduceat(boundary_mass(trunc, vectors), starts)
        want_mass = np.add.reduceat(boundary_mass(trunc, want_vectors), starts)
        assert np.max(np.abs(mass - want_mass)) <= 1e-12


class TestPeriodicBoxIdentity:
    @pytest.mark.parametrize("half_width", [1, 2, 3, 4, 5, 8, 16])
    def test_chain(self, chain_model, half_width):
        spec, _ = chain_model
        assert periodic_box_check(spec, half_width) <= 1e-10

    @pytest.mark.parametrize("half_width", [1, 2, 3, 4, 5, 8, 16, 24])
    def test_square(self, square_model, half_width):
        spec, _ = square_model
        assert periodic_box_check(spec, half_width) <= 1e-10

    @pytest.mark.parametrize("half_width", [1, 2, 3, 4, 5, 8, 16])
    def test_bipartite(self, bipartite_model, half_width):
        spec, _ = bipartite_model
        assert periodic_box_check(spec, half_width) <= 1e-10

    def test_solves_real_halves_not_the_dense_box(self, square_model,
                                                  monkeypatch):
        # 24 sites per axis: representatives 0..12, the odd halves without
        # the fixed sites 0 and 12
        boxes, shapes = [], []

        def assemble(*args, **kwargs):
            boxes.append(assemble_truncated(*args, **kwargs))
            return boxes[-1]

        def place(*args):
            placed = _place(*args)
            shapes.extend((stack.shape, stack.dtype) for stack, _ in placed)
            return placed

        monkeypatch.setattr(oracle, "assemble_truncated", assemble)
        monkeypatch.setattr(oracle, "_place", place)
        spec, _ = square_model
        assert periodic_box_check(spec, 24) <= 1e-10
        assert "matrix" not in boxes[0].__dict__
        assert shapes == [((1, n, n), np.float64)
                          for n in (169, 143, 143, 121)]

    def test_requires_no_defect(self, chain_defect_model):
        spec, _ = chain_defect_model
        with pytest.raises(InputError):
            periodic_box_check(spec, 4)


class TestCompareSpectra:
    def test_defect_point_matched_at_l100(self, chain_defect_model):
        spec, grids = chain_defect_model
        result = full_spectrum(spec, grids, n_probes=0)
        trunc = assemble_truncated(spec, 100, bc="open")
        eigs = oracle_eigenvalues(trunc)
        report = compare_spectra(result, eigs, tol=1e-6)
        assert report["ok"]
        match, = report["isolated_point_matches"]
        assert match["gap"] <= 1e-10

    def test_no_defect_no_spillover(self, chain_model):
        spec, grids = chain_model
        result = full_spectrum(spec, grids, n_probes=0)
        trunc = assemble_truncated(spec, 60, bc="open")
        eigs = oracle_eigenvalues(trunc)
        report = compare_spectra(result, eigs, tol=1e-6)
        assert report["ok"]
        assert report["isolated_point_matches"] == []

    def test_localization_gap_shrinks_with_box(self):
        spec, _ = chain_with_defect(1.0)
        gaps = []
        for half_width in (25, 50):
            trunc = assemble_truncated(spec, half_width, bc="open")
            eigs = oracle_eigenvalues(trunc)
            gaps.append(float(np.min(np.abs(eigs - SQRT5))))
        assert gaps[1] < gaps[0]

    def test_unmatched_point_reports_nearest(self, chain_defect_model):
        spec, grids = chain_defect_model
        result = full_spectrum(spec, grids, n_probes=0)
        fake_eigs = np.linspace(-2, 2, 50)  # no defect eigenvalue present
        report = compare_spectra(result, fake_eigs, tol=1e-6)
        assert not report["ok"]
        failure, = report["isolated_point_failures"]
        assert failure["nearest_eigenvalue"] == pytest.approx(2.0)

    def test_boundary_flagging(self, chain_defect_model):
        spec, _ = chain_defect_model
        trunc = assemble_truncated(spec, 30, bc="open")
        eigs, vecs = oracle_eigenpairs(trunc)
        frac = boundary_mass(trunc, vecs)
        # the bound state at sqrt5 lives at the center, not the boundary
        idx = int(np.argmin(np.abs(eigs - SQRT5)))
        assert frac[idx] <= 0.01
        assert frac.shape == eigs.shape


class TestTruncationRate:
    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_point_defect_error_decays_at_twice_kappa(self, eps):
        # the bound state E = sqrt(4 + eps^2) decays as e^{-kappa |n|} with
        # cosh kappa = E / 2, so the eigenvalue error of the open box -L..L
        # falls as e^{-2 kappa L}; errors below 1e-12 are eigensolver noise
        spec, _ = chain_with_defect(eps)
        exact = np.sqrt(4.0 + eps ** 2)
        kappa = np.arccosh(exact / 2)
        widths = np.arange(4, 61, 2)
        errors = np.array([
            abs(oracle_eigenvalues(assemble_truncated(spec, l))[-1] - exact)
            for l in widths])
        above = errors > 1e-12
        assert above.sum() >= 8
        slope = np.polyfit(widths[above], np.log(errors[above]), 1)[0]
        assert slope == pytest.approx(-2 * kappa, rel=0.05)
