import dataclasses
from unittest import mock

import numpy as np
import pytest

from defect_bands import spectrum
from defect_bands.model import DefectLayer, ProblemSpec
from defect_bands.oracle import assemble_truncated, oracle_eigenvalues
from defect_bands.quadrature import trapezoid_sum
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
    # outside the bound |lambda| <= |A| + 2|B| on its bands: the resolvent
    # grid's B_0^{-1} from the eigenpairs of H against the SVD-guarded
    # inverse, which a bulk not in eigenvalue form takes, and the exact
    # level 1 against the trapezoid sum of that inverse at n = 256
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

    bare = ProblemSpec(lattice_dim=1, cell_size=2, bulk=bulk)
    for n in (16, 64):
        want = inverse(bulk.eval(omega, spectrum.full_mesh(1, n)))
        got = spectrum._grid_tabs(bare, omega, n)[2][0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        with mock.patch.object(spectrum, "_hermitian_linear_fast",
                               lambda spec: False):
            svd = spectrum._grid_tabs(dataclasses.replace(bare), omega, n)[2]
        assert np.array_equal(svd[0], want)

    got = spectrum.Chain(spec, omega).level_values(1, np.zeros((1, 0)))
    k = spectrum.full_mesh(1, 256)
    want = np.eye(2) + trapezoid_sum(np.matmul(
        inverse(bulk.eval(omega, k)), layer.symbol.eval(omega, k)), 256)
    assert np.max(np.abs(got[0] - want)) <= \
        1e-12 * max(1.0, np.max(np.abs(want)))


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


coefficients = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(c00=st.floats(-2.0, 2.0), c01=coefficients,
       axis1=st.tuples(coefficients, coefficients, coefficients),
       kind=st.sampled_from(["general", "zero-at-row-0", "flat"]),
       d0=st.floats(-2.0, 2.0), d1=coefficients,
       gap=st.floats(0.05, 2.0), side=st.sampled_from([-1.0, 1.0]))
def test_closed_form_level1_matches_references(c00, c01, axis1, kind, d0,
                                               d1, gap, side):
    # a 2D M = 1 bulk with nearest-neighbour axis-1 hopping that depends
    # on the row, h_1(t) = c_{1,-1} e^{-it} + c_{1,0} + c_{1,1} e^{it}
    # (zero at the row t = 0 for "zero-at-row-0", zero for "flat"), and a
    # line defect d_0 + d_1 e^{it} + h.c.; omega lies `gap` beyond every
    # row band.  The closed-form level-1 values against a trapezoid sum at
    # n = 8192 over k_1 written here, and against the residue reference
    # of test_spectrum, which solves the companion pencil with scipy
    from test_spectrum import _residue_level1
    from defect_bands.spectrum import Chain, full_mesh
    hop = {b: complex(*c) for b, c in zip((-1, 0, 1), axis1)}
    if kind == "zero-at-row-0":
        hop[0] = -(hop[-1] + hop[1])
    elif kind == "flat":
        hop = {b: 0j for b in hop}
    coeffs = {(0, 0): c00, (0, 1): complex(*c01),
              (0, -1): complex(*c01).conjugate()}
    for b, c in hop.items():
        coeffs[(1, b)] = c
        coeffs[(-1, -b)] = c.conjugate()
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(2, {off: [[c]] for off, c in coeffs.items()}),
        1: TrigMatrixPolynomial(2, {(0, 0): [[-1.0]]})})
    line = DefectLayer(1, 2, {0: TrigMatrixPolynomial(1, {
        (0,): [[d0]], (1,): [[complex(*d1)]],
        (-1,): [[complex(*d1).conjugate()]]})})
    spec = ProblemSpec(lattice_dim=2, cell_size=1, bulk=bulk,
                       defects=(line,), omega_window=(-20.0, 20.0))
    t = full_mesh(1, 8)[:, 0]
    h0 = c00 + 2.0 * (complex(*c01) * np.exp(1j * t)).real
    h1 = np.abs(sum(c * np.exp(1j * b * t) for b, c in hop.items()))
    if kind != "general":
        assert h1[t == 0.0] <= 1e-15
    omega = (np.max(h0 + 2 * h1) + gap if side > 0
             else np.min(h0 - 2 * h1) - gap)

    got = Chain(spec, omega).level_values(1, t[:, None])[:, 0, 0]
    k = 2.0 * np.pi * np.arange(8192) / 8192
    h = sum(c * np.exp(1j * (a * k[:, None] + b * t)) for (a, b), c in
            coeffs.items())
    d = d0 + 2.0 * (complex(*d1) * np.exp(1j * t)).real
    want = 1.0 + d * np.mean(1.0 / (h.real - omega), axis=0)
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 1e-12
    residue = _residue_level1(spec, omega, t[:, None])[:, 0, 0]
    assert np.max(np.abs(got - residue) / scale) <= 1e-12


@settings(max_examples=24, deadline=None, database=None, derandomize=True)
@given(m=st.sampled_from([1, 2]), reach=st.sampled_from([1, 2]),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20),
       where=st.floats(0.0, 1.0))
def test_residue_matches_trapezoid(m, reach, coeffs, where):
    # a random Hermitian chain H(k) = sum over |s| <= r of H_s e^{isk},
    # H_{-s} = H_s^H, M = 1 or 2 and r = 1 or 2, at an omega 0.05 or more
    # from its bands (on a 4096-point grid): the level-1 residue, decided,
    # against the mean of (H - omega)^{-1} over the n = 4096 trapezoid
    # nodes, to 1e-11 relative
    from hypothesis import assume
    from defect_bands.spectrum import _GreenTable, full_mesh
    vals = iter(coeffs)
    h_0 = np.array([[next(vals) for _ in range(m)] for _ in range(m)])
    hops = {(0,): h_0 + h_0.T}
    for s in range(1, reach + 1):
        h_s = np.array([[complex(next(vals), next(vals)) for _ in range(m)]
                        for _ in range(m)])
        hops[(s,)], hops[(-s,)] = h_s, h_s.conj().T
    bulk = OmegaSymbol({0: TrigMatrixPolynomial(1, hops),
                        1: TrigMatrixPolynomial(1, {(0,): -np.eye(m)})})
    spec = ProblemSpec(lattice_dim=1, cell_size=m, bulk=bulk)
    k = full_mesh(1, 4096)
    bands = np.linalg.eigvalsh(bulk.terms[0].eval(k)).ravel()
    omega = bands.min() - 2.0 + where * (np.ptp(bands) + 4.0)
    assume(np.min(np.abs(bands - omega)) >= 0.05)
    want = inverse(bulk.eval(omega, k)).mean(axis=0)
    _, sums, decided, _ = _GreenTable(spec, 1, np.zeros((1, 0)))._residue(
        ([0], [omega], None))
    assert decided[0]
    got = sums[0] / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(m=st.integers(1, 3), deg=st.integers(1, 2), massless=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pencil_bands_match_generalized_eig(m, deg, massless, seed):
    # a Hermitian family T_0(k) + omega T_1 + omega^2 T_2 of degree d, its
    # leading block of condition at most 1e3 or with a massless site (a
    # zero row and column), at seven k: `bands_grid` against the
    # generalized eigenproblem of the companion pencil, solved by scipy.
    # scipy returns an infinite eigenvalue of a singular pencil as inf or
    # as a huge finite number; the families' finite roots are below 1e3
    import scipy.linalg
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.uniform(-2, 2, (m, m)) + 1j * rng.uniform(-2, 2, (m, m))
        return (a + a.conj().T) / 2

    hop = rng.uniform(-1, 1, (m, m)) + 1j * rng.uniform(-1, 1, (m, m))
    terms = {0: {(0,): hermitian(), (1,): hop, (-1,): hop.conj().T}}
    if deg == 2:
        terms[1] = {(0,): hermitian()}
    q, _ = np.linalg.qr(rng.normal(size=(m, m))
                        + 1j * rng.normal(size=(m, m)))
    sigma = rng.choice([-1.0, 1.0], m) * np.exp(rng.uniform(0, np.log(1e3), m))
    sigma[np.argmin(np.abs(sigma))] = 1.0
    lead = (q * sigma) @ q.conj().T
    if massless:
        site = rng.integers(m)
        lead[site, :] = lead[:, site] = 0.0
    terms[deg] = {(0,): (lead + lead.conj().T) / 2}
    bulk = OmegaSymbol({p: TrigMatrixPolynomial(1, coeffs)
                        for p, coeffs in terms.items()})
    spec = ProblemSpec(lattice_dim=1, cell_size=m, bulk=bulk)
    rows = np.linspace(-np.pi, np.pi, 7)[:, None]
    got = spectrum.bands_grid(spec, rows)
    zero, eye = np.zeros((m, m)), np.eye(m)
    for row, roots in zip(rows, got):
        t = [poly.eval(row) for poly in bulk.terms.values()]
        if deg == 1:
            vals = scipy.linalg.eig(t[0], -t[1], right=False)
        else:
            vals = scipy.linalg.eig(np.block([[zero, eye], [-t[0], -t[1]]]),
                                    np.block([[eye, zero], [zero, t[2]]]),
                                    right=False)
        vals = vals[np.isfinite(vals) & (np.abs(vals) < 1e8)]
        scale = np.maximum(1.0, np.abs(vals))
        want = np.sort(vals[np.abs(vals.imag) <= 1e-9 * scale].real)
        assert len(roots) == len(want)
        assert np.all(np.abs(roots - want)
                      <= 1e-10 * np.maximum(1.0, np.abs(want)))
