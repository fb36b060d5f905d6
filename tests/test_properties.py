from unittest import mock

import numpy as np
import pytest

from defect_bands import spectrum
from defect_bands.model import DefectLayer, ProblemSpec
from defect_bands.oracle import assemble_truncated, oracle_eigenvalues
from defect_bands.spectrum import dispersion_branch
from defect_bands.symbol import OmegaSymbol, TrigMatrixPolynomial, inverse

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(strength=st.floats(0.29, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       slope=st.floats(-0.9, 0.9))
def test_point_defect_root_property(strength, sign, slope):
    # the bound states of the on-site defect eps + s omega on the unit
    # chain solve eps + s omega = sign(omega) sqrt(omega^2 - 4), that is
    # (1 - s^2) omega^2 - 2 eps s omega - (eps^2 + 4) = 0 with eps + s omega
    # of the sign of omega.  With s = 0 they sit at sign(eps) sqrt(4 +
    # eps^2), at least 2.0209 for |eps| >= 0.29: beyond the guard edge 2.02
    # of the band [-2, 2], so the edge count sees it (below |eps| = 0.283
    # it lies inside band_guard, the strict xfail case of
    # test_spectrum.py::test_point_defect_root_near_guard).  A slope below
    # 1 keeps -dT/domega = 1 - s P_0 positive definite, so the level is
    # counted; the roots in the gaps of the window (-4, 4) are found
    from tests_util import chain_with_defect
    eps = sign * strength
    spec, grids = chain_with_defect(eps, slope=slope)
    guard = 2.0 + spec.tolerances.band_guard
    want = sorted(w.real for w in np.roots([1 - slope ** 2, -2 * eps * slope,
                                            -(eps ** 2 + 4)])
                  if np.sign(eps + slope * w.real) == np.sign(w.real)
                  and guard < abs(w.real) < 4.0)
    branch = dispersion_branch(spec, 1, grids)
    assert [om for _, om, _ in branch.samples] == \
        pytest.approx(want, abs=1e-8)
    assert [c[3] for c in branch.counts] == [c[4] for c in branch.counts]
    if slope == 0.0:
        assert want == [pytest.approx(eps / abs(eps) * np.sqrt(4 + eps ** 2))]


def _hermitian(re, im):
    """2 x 2 Hermitian matrix: diagonal re[0], re[1]; corner re[2] + i im."""
    return np.array([[re[0], re[2] + 1j * im], [re[2] - 1j * im, re[1]]])


entries = st.floats(-1.0, 1.0)


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(a=st.tuples(entries, entries, entries, entries),
       b=st.tuples(*[entries] * 8),
       d=st.tuples(entries, entries, entries, entries),
       margin=st.floats(0.5, 2.0), sign=st.sampled_from([-1.0, 1.0]))
def test_green_function_matches_svd_path_m2(a, b, d, margin, sign):
    # a random M = 2 Hermitian nearest-neighbour chain
    # H(k) = A + B e^{ik} + B^H e^{-ik}, at an omega at least `margin`
    # outside the bound |lambda| <= |A| + 2|B| on its bands
    a_mat = _hermitian(a[:3], a[3])
    b_mat = np.array(b[:4]).reshape(2, 2) + 1j * np.array(b[4:]).reshape(2, 2)
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(1, {(0,): a_mat, (1,): b_mat,
                                    (-1,): b_mat.conj().T}),
        1: TrigMatrixPolynomial(1, {(0,): -np.eye(2)}),
    })
    layer = DefectLayer(
        1, 1, {0: TrigMatrixPolynomial(0, {(): _hermitian(d[:3], d[3])})})
    spec = ProblemSpec(lattice_dim=1, cell_size=2, bulk=bulk,
                       defects=(layer,))
    assert spectrum._hermitian_linear_fast(spec)
    omega = sign * (np.linalg.norm(a_mat, 2) + 2 * np.linalg.norm(b_mat, 2)
                    + margin)
    t_rows = np.zeros((1, 0))

    table = spectrum._GreenTable(spec, 1, t_rows)
    for n in (16, 64):
        want = inverse(bulk.eval(omega, spectrum.node_mesh(n, 1, t_rows)
                                 .reshape(-1, 1)))
        got, worst = table.level0_inverse(n, [0], [omega])
        assert np.isinf(worst[0])
        assert np.max(np.abs(got.reshape(want.shape) - want)) <= \
            1e-12 * np.max(np.abs(want))

    got = spectrum.Chain(spec, omega).level_values(1, t_rows)
    with mock.patch.object(spectrum, "_hermitian_linear_fast",
                           lambda spec: False):
        want = spectrum.Chain(spec, omega).level_values(1, t_rows)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=24, deadline=None, database=None, derandomize=True)
@given(half_widths=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       bcs=st.tuples(*[st.sampled_from(["open", "periodic"])] * 2),
       eps=st.floats(-3.0, 3.0),
       defects=st.sampled_from(["none", "line", "line+point"]))
def test_bloch_eigenvalues_match_dense(half_widths, bcs, eps, defects):
    # every box of the 2D square lattice, bare, with a line defect, or with
    # a point on the line: the Bloch blocks of the reducible axes give the
    # dense spectrum
    from tests_util import square_line_and_point, square_with_line_defect
    spec, _ = square_line_and_point() if defects == "line+point" else \
        square_with_line_defect(eps)
    if defects == "none":
        spec = ProblemSpec(lattice_dim=2, cell_size=1, bulk=spec.bulk)
    trunc = assemble_truncated(spec, half_widths, bcs)
    got = oracle_eigenvalues(trunc)
    want = np.linalg.eigvalsh(trunc.matrix)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
