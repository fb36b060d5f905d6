"""The step procedure run on many frequencies together.

`spectrum._memberships` steps every undecided frequency up the levels at
once; `membership` is its one-frequency case and `full_spectrum` runs its
probes through it.  Each frequency's certificate must be the one the step
procedure gives it alone, bit for bit.  The reference below is a plain
transcription of that procedure, one frequency and one level at a time,
kept in this file: it evaluates each level through `Chain.level_values`
and finds sign changes with `np.argwhere`.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import config_path
from tests_util import square_line_and_point, two_band_line
from defect_bands import spectrum
from defect_bands.cli import load_config, spec_from_config
from defect_bands.model import ToleranceSet
from defect_bands.quadrature import NonConvergence
from defect_bands.spectrum import (
    IMAG_DOMINANCE,
    PROBE_SEED,
    REFINE_POINTS,
    Chain,
    MembershipCertificate,
    StepCheckResult,
    _GreenTable,
    _memberships,
    bands,
    bands_grid,
    full_mesh,
    full_spectrum,
    membership,
    refine_patch,
    step_check,
)
from defect_bands.symbol import det, eigvalsh, smallest_singular_value

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

REPO = Path(__file__).resolve().parents[1]

#: every bundled config, the nested model and the `tools/` models but the
#: two-band point model, which has a test of its own below
CONFIGS = [config_path(name) for name in (
    "bipartite_chain.json", "chain.json", "chain_point_defect.json",
    "square.json", "square_line_defect.json")] + [
    str(REPO / "perfbench" / "nested_line_point.json")] + [
    str(REPO / "tools" / name) for name in (
        "square_line_omega_defect.json", "squared_frequency_line.json",
        "next_nearest_point.json")]


# ---------------------------------------------------------------------------
# the reference: one frequency at a time


def _first_crossing(field, periodic):
    """Grid index of the smaller-|value| end of the first strict sign change
    of `field` (n_1, ..., n_d, channels), lowest axis first, or None."""
    for axis in range(field.ndim - 1):
        cross = field * np.roll(field, -1, axis=axis) < 0
        if not periodic:
            cross[(slice(None),) * axis + (-1,)] = False
        if np.any(cross):
            *here, chan = np.argwhere(cross)[0]
            there = list(here)
            there[axis] = (there[axis] + 1) % field.shape[axis]
            return tuple(here) if abs(field[tuple(here) + (chan,)]) <= \
                abs(field[tuple(there) + (chan,)]) else tuple(there)
    return None


def _reference_step_check(fn, n_axes, k_points, tol, mode):
    if n_axes == 0:
        val = fn(np.zeros((1, 0)))
        return StepCheckResult(bool(abs(complex(det(val)[0])) <= tol),
                               float(smallest_singular_value(val)[0]), (),
                               "final-det")

    def examine(vals, periodic):
        sig = smallest_singular_value(vals)
        i_min = int(np.argmin(sig))
        if sig[i_min] <= tol:
            return True, "sigma", float(sig[i_min]), i_min
        field = None
        if mode == "hermitian":
            field, method = eigvalsh(vals), "crossing"
        elif mode == "real-det":
            dets = det(vals)
            scale = float(np.max(np.abs(dets))) + 1e-300
            if float(np.max(np.abs(dets.imag))) <= IMAG_DOMINANCE * scale:
                field, method = dets.real[:, None], "det-sign"
        shape = ((k_points if periodic else REFINE_POINTS),) * n_axes
        hit = None if field is None else _first_crossing(
            field.reshape(shape + field.shape[-1:]), periodic)
        if hit is None:
            return False, "sigma", float(sig[i_min]), i_min
        where = int(np.ravel_multi_index(hit, shape)) if periodic else i_min
        return True, method, float(sig[i_min]), where

    rows = full_mesh(n_axes, k_points)
    found, method, min_sig, where = examine(fn(rows), True)
    argmin = tuple(rows[where])
    if found:
        return StepCheckResult(True, min_sig, argmin, method)
    patch = np.asarray(argmin) + refine_patch(n_axes, k_points)
    pfound, pmethod, pmin, pwhere = examine(fn(patch), False)
    if pmin < min_sig:
        min_sig, argmin = pmin, tuple(patch[pwhere])
    if pfound:
        return StepCheckResult(True, min_sig, argmin, pmethod + "-refined")
    return StepCheckResult(False, min_sig, argmin, method)


def _reference_membership(spec, lam, grids):
    guard = spec.tolerances.band_guard
    chain = Chain(spec, lam)
    trace = []
    floor = np.inf
    for level in (0, *spec.present_codims):
        if level and floor < guard:
            return MembershipCertificate(
                "inconclusive", min_sigma_per_level=trace,
                reason=(f"lambda is within band_guard={guard} of a lower-level "
                        f"spectrum projection (min sigma {floor:.3e})"))
        mode = ("real-det" if level else
                "hermitian" if spec.is_self_adjoint() else "sigma")
        try:
            res = _reference_step_check(
                lambda rows: chain.level_values(level, rows),
                spec.lattice_dim - level, grids.k_points,
                spec.tolerances.det_zero_tol, mode)
        except NonConvergence as exc:
            return MembershipCertificate(
                "inconclusive", min_sigma_per_level=trace,
                reason=(f"level {level} not evaluated: {exc} (witness "
                        f"sigma_min {exc.witness_sigma_min:.3e})"))
        trace.append((level, res.min_sigma))
        if res.detected:
            return MembershipCertificate("in", detected_at_step=level,
                                         witness_k=res.argmin_k,
                                         min_sigma_per_level=trace)
        floor = min(floor, res.min_sigma)
    return MembershipCertificate("out", min_sigma_per_level=trace)


# ---------------------------------------------------------------------------
# frequencies


def _probe_omegas(spec, n):
    lo, hi = spec.omega_window
    return np.random.default_rng(PROBE_SEED).uniform(lo, hi, n).tolist()


def _omegas(spec):
    """The 32 probe frequencies, 24 more uniform ones, and around each
    lowest and highest band value on the 16-point grid (a subset of every
    config's k grid): +-1e-9, +-band_guard/8 (inconclusive where a level
    is above, also where sigma_min grows as 2 omega, for a bulk quadratic
    in omega) and +-2 band_guard."""
    lo, hi = spec.omega_window
    guard = spec.tolerances.band_guard
    bands = np.asarray(bands_grid(spec, full_mesh(spec.lattice_dim, 16)))
    edges = np.concatenate([bands.min(axis=0), bands.max(axis=0)])
    near = [e + d for e in edges.tolist()
            for d in (-1e-9, 1e-9, -guard / 8, guard / 8, -2 * guard,
                      2 * guard)]
    return (_probe_omegas(spec, 32)
            + np.random.default_rng(27).uniform(lo, hi, 24).tolist() + near)


def _dicts(certs):
    return [cert.to_dict() for cert in certs]


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: Path(p).stem)
def test_batch_matches_one_at_a_time(path):
    spec, grids = spec_from_config(load_config(path))
    omegas = _omegas(spec)
    assert len(omegas) >= 64
    got = _dicts(_memberships(spec, omegas, grids))
    assert got == _dicts(membership(spec, w, grids) for w in omegas)
    assert got == _dicts(_reference_membership(spec, w, grids)
                         for w in omegas)
    statuses = {cert["status"] for cert in got}
    assert {"in", "out"} <= statuses
    if spec.present_codims:
        assert "inconclusive" in statuses


@pytest.mark.parametrize("cap", [None, 256])
def test_two_band_point_model_batch(monkeypatch, cap):
    # M = 2 with an exact level 1 and a level 2 that doubles n: a level-1
    # root (-0.3823), the level-2 point (0.13136), the guard strip of the
    # level-1 image (2.868), a bulk band (1.0) and omegas outside (0.0,
    # 0.132, 5.0).  With the n cap lowered to 256 the level-2 quadrature
    # of -0.374, 0.008 from the level-1 root, stalls, while 0.0 and 0.132
    # still converge: one batch holds a probe whose level does not
    # converge next to probes whose levels do
    spec, grids = two_band_line(point=2.0)
    omegas = [-0.3823, 0.1313602953, 0.132, 2.868, 1.0, 0.0, 5.0, -0.374]
    if cap is None:
        omegas.pop()
    else:
        monkeypatch.setattr(spectrum, "N_QUAD_MAX", cap)
    got = _dicts(_memberships(spec, omegas, grids))
    assert got == _dicts(membership(spec, w, grids) for w in omegas)
    assert got == _dicts(_reference_membership(spec, w, grids)
                         for w in omegas)
    reasons = [cert["reason"] for cert in got]
    if cap is None:
        assert [cert["detected_at_step"] for cert in got[:2]] == [1, 2]
        assert "band_guard" in reasons[3]
    else:
        assert reasons[-1].startswith("level 2 not evaluated: level 2 "
                                      "quadrature stalled at n=256")
        assert [cert["status"] for cert in got[5:7]] == ["out", "out"]


def _scalar(f):
    return lambda rows: f(rows)[:, None, None].astype(complex)


@pytest.mark.parametrize("mode", ["real-det", "sigma", "hermitian"])
def test_step_checks_match_step_check_per_probe(mode):
    # fields checked together get the results each gets alone.  On one
    # axis: a zero on a node (sigma decides, though the sign changes too),
    # a sign change between nodes, the same field with an imaginary part
    # 1e-5 of its own size (too large for the det sign test) next to one a
    # million times larger, and zeros that only the patch sees.  On two
    # axes: sign changes on both axes, on the second alone, and none
    tols = ToleranceSet()
    one = [_scalar(lambda r: np.cos(r[:, 0])),
           _scalar(lambda r: np.cos(r[:, 0]) - 0.5),
           _scalar(lambda r: (np.cos(r[:, 0]) - 0.5) * (1 + 1e-5j)),
           _scalar(lambda r: 1e6 * (np.cos(r[:, 0]) + 2.0)),
           _scalar(lambda r: np.cos(r[:, 0] - np.pi / 16)
                   - np.cos(np.pi / 50))]
    two = [_scalar(lambda r: np.cos(r[:, 0]) + np.cos(r[:, 1]) - 0.3),
           _scalar(lambda r: np.cos(r[:, 1]) - 0.2 + 0.0 * r[:, 0]),
           _scalar(lambda r: np.cos(r[:, 0]) + 3.0)]
    if mode == "hermitian":
        del one[2]
    for n_axes, fns in ((1, one), (2, two)):
        got = spectrum._step_checks(
            lambda rows, probes: [fns[p](rows) for p in probes], len(fns),
            n_axes, 16, tols, mode, full_mesh(n_axes, 16),
            refine_patch(n_axes, 16))
        assert got == [step_check(fn, n_axes, 16, tols, mode=mode)
                       for fn in fns]
        if mode != "sigma":
            assert len({res.method for res in got}) > 1


def test_level_values_keep_each_chains_pins():
    # chains pinned at different n on level 2, and two fresh ones,
    # evaluated in one call: each at its own n, and each fresh one pins
    # the n it converges at; level 1 is exact and pins none
    spec, _ = two_band_line(point=2.0)
    point = np.zeros((1, 0))

    def chains():
        out = [Chain(spec, w) for w in (5.0, 0.0, -3.0, 0.132)]
        for chain in out[:2]:
            chain.level_values(2, point)
        return out

    lone, together = chains(), chains()
    want = [chain.level_values(2, point) for chain in lone]
    assert len({c._nquad[2] for c in lone[:2]}) == 2
    assert len({c._nquad[2] for c in lone[2:]}) == 2
    got = spectrum._level_values(together, 2, point)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert [c._nquad for c in together] == [c._nquad for c in lone]
    assert all(set(c._nquad) == {2} for c in lone)


@pytest.fixture(scope="module")
def nested_pool():
    spec, grids = square_line_and_point()
    pool = _probe_omegas(spec, 12) + [-4.0 - 1e-9, 4.0 + 1e-9, 4.0 + 0.01,
                                      4.0 + 0.03, 6.9]
    return spec, grids, pool, {w: _reference_membership(spec, w, grids)
                               .to_dict() for w in pool}


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(picks=st.lists(st.integers(0, 16), min_size=1, max_size=12))
def test_order_and_repeats_do_not_change_certificates(nested_pool, picks):
    # any order of the frequencies, any of them repeated, gives each the
    # certificate it has alone
    spec, grids, pool, want = nested_pool
    omegas = [pool[i] for i in picks]
    assert _dicts(_memberships(spec, omegas, grids)) == \
        [want[w] for w in omegas]


@pytest.mark.parametrize("n_probes", [0, 1, 100])
def test_probe_report_matches_one_at_a_time(n_probes):
    spec, grids = square_line_and_point()
    result = full_spectrum(spec, grids, n_probes=n_probes)
    disagreements, inconclusive = [], []
    for lam in _probe_omegas(spec, n_probes):
        cert = _reference_membership(spec, lam, grids)
        if cert.status == "inconclusive":
            inconclusive.append(lam)
            continue
        in_set = result.contains(lam, dilate=spec.tolerances.root_tol_omega)
        if cert.in_spectrum != in_set:
            disagreements.append({"lambda": lam, "membership": cert.status,
                                  "in_assembled_set": in_set})
    assert result.probe_report == {"n_probes": n_probes,
                                   "disagreements": disagreements,
                                   "inconclusive": inconclusive}


def test_each_patch_has_a_table_of_its_own(monkeypatch):
    # the mesh of a level is one table for every probe, but each probe's
    # refinement patch is a table of its own: a level-1 table diagonalises
    # its rows at every n any of its groups reaches, and one table of all
    # the patches would hold entries too large for the spec's store
    spec, grids = two_band_line(point=2.0)
    tables = []
    init = _GreenTable.__init__

    def recorded(table, *args):
        init(table, *args)
        tables.append(table)

    monkeypatch.setattr(_GreenTable, "__init__", recorded)
    omegas = [0.0, 0.132, -3.0, 5.0]
    certs = _memberships(spec, omegas, grids)
    assert [len(cert.min_sigma_per_level) for cert in certs] == [3] * 4
    owned = {id(below) for table in tables for below in table._below.values()}
    rows = sorted(len(table.t_rows) for table in tables
                  if table.level == 1 and id(table) not in owned)
    assert rows == [grids.k_points] + [REFINE_POINTS] * len(omegas)


# ---------------------------------------------------------------------------
# bands_grid


@pytest.mark.parametrize("path", CONFIGS[:5] + ["two-band"],
                         ids=lambda p: Path(p).stem)
def test_bands_grid_has_the_bits_of_lapack(path):
    # M = 1 takes the bare entry, M = 2 (bipartite chain, two-band bulk)
    # LAPACK itself
    spec, _ = (two_band_line() if path == "two-band"
               else spec_from_config(load_config(path)))
    rows = full_mesh(spec.lattice_dim, 32)
    want = np.linalg.eigvalsh(spec.bulk.terms[0].eval(rows))
    got = bands_grid(spec, rows)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    # `bands` at one wavevector, LAPACK's bits on a single matrix
    for row in rows[::97]:
        assert np.array_equal(bands(spec, row),
                              np.linalg.eigvalsh(spec.bulk.terms[0].eval(row)))
