"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line; a pytest failure marks the criterion red.
Closed-form lattice identities and brute-force truncations serve as the
independent references throughout.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import config_path, load_model
from defect_bands.oracle import (
    assemble_truncated,
    oracle_eigenvalues,
    periodic_box_check,
)
from defect_bands.quadrature import grid_nodes, trapezoid_sum
from defect_bands.spectrum import (
    dispersion_branch,
    exclusion_set,
    forward_apply,
    full_mesh,
    full_spectrum,
    membership,
    resolvent_apply,
    step_check,
    Chain,
)
from tests_util import chain_with_defect

TWO_PI = 2.0 * np.pi
SQRT5 = np.sqrt(5.0)

BUNDLED = ["chain.json", "chain_point_defect.json", "square.json",
           "square_line_defect.json", "bipartite_chain.json"]


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_bracket_normalization():
    eye = np.eye(2, dtype=complex)
    avg = trapezoid_sum(np.broadcast_to(eye, (16, 2, 2)), 16)
    assert np.max(np.abs(avg - np.sqrt(TWO_PI) * np.eye(2))) <= 1e-13

    mode = np.exp(1j * grid_nodes(16))[:, None, None] * eye
    zero = trapezoid_sum(mode, 16)
    assert np.max(np.abs(zero)) <= 1e-13
    announce(1, "bracket of I is sqrt(2*pi)*I and of exp(ik)*I is 0, to 1e-13")


def test_criterion_2_lattice_green_integral():
    # independent references: adaptive Gauss quadrature and 5^(-1/2)
    reference, err = quad(lambda k: 1.0 / (3.0 - 2.0 * np.cos(k)),
                          -np.pi, np.pi, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-6
    assert reference / TWO_PI == pytest.approx(1.0 / SQRT5, abs=1e-12)

    n = 256
    f = (1.0 / (3.0 - 2.0 * np.cos(grid_nodes(n))))[:, None, None] + 0j
    avg = trapezoid_sum(f, n)[0, 0]
    plain_average = avg.real / np.sqrt(TWO_PI)   # (2*pi)^-1 * integral
    assert plain_average == pytest.approx(1.0 / SQRT5, abs=1e-10)
    assert plain_average == pytest.approx(reference / TWO_PI, abs=1e-10)

    # the engine's level 1 for the unit point defect at omega = 3
    spec, _ = load_model("chain_point_defect.json")
    level1 = Chain(spec, 3.0).level_values(1, np.zeros((1, 0)))[0, 0, 0]
    assert level1.real == pytest.approx(1.0 - 1.0 / SQRT5, abs=1e-10)
    announce(2, f"(2pi)^-1 integral dk/(3-2cos k) = {plain_average:.9f} "
                f"= 5^-1/2 to 1e-10 with {n} points; level 1 at omega=3 "
                "is 1 - 5^-1/2")


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_criterion_3_point_defect_eigenvalue(eps):
    spec, grids = chain_with_defect(eps)
    lam_star = np.sqrt(4.0 + eps ** 2)

    branch = dispersion_branch(spec, 1, grids)
    assert len(branch.samples) == 1
    found = branch.samples[0][1]
    assert found == pytest.approx(lam_star, abs=1e-8)

    cert = membership(spec, lam_star, grids)
    assert cert.in_spectrum and cert.detected_at_step == 1

    eigs = oracle_eigenvalues(assemble_truncated(spec, 100, bc="open"))
    assert float(np.min(np.abs(eigs - lam_star))) <= 1e-9
    announce(3, f"eps={eps}: isolated point {found:.10f} = sqrt(4+eps^2) "
                "to 1e-8, membership step 1, L=100 oracle to 1e-9")


def test_criterion_4_guided_branch_2d():
    t_start = time.time()
    spec, grids = load_model("square_line_defect.json")
    guard = spec.tolerances.band_guard

    excl = exclusion_set(spec, 1, grids)
    branch = dispersion_branch(spec, 1, grids)
    n = grids.k_points
    # the nodes k2 = 0, pi/2 and -pi (the grid alias of +pi)
    for idx, k2 in ((n // 2, 0.0), (3 * n // 4, np.pi / 2), (0, -np.pi)):
        assert excl.nodes[idx] == pytest.approx([k2], abs=1e-15)
        roots = [om for k_tail, om, _ in branch.samples
                 if k_tail == tuple(excl.nodes[idx])]
        want = 2 * np.cos(k2) + SQRT5
        assert len(roots) == 1
        assert roots[0] == pytest.approx(want, abs=1e-6)
        lo, hi = -2 + 2 * np.cos(k2), 2 + 2 * np.cos(k2)
        assert min(abs(roots[0] - lo), abs(roots[0] - hi)) >= guard
        (xlo, xhi), = excl.intervals[idx]
        assert (xlo, xhi) == (pytest.approx(lo, abs=1e-12),
                              pytest.approx(hi, abs=1e-12))

    trunc = assemble_truncated(spec, (60, 32), bc=("open", "periodic"))
    eigs = oracle_eigenvalues(trunc)
    worst = 0.0
    for m in range(32):
        k2 = TWO_PI * m / 32 - np.pi
        want = 2 * np.cos(k2) + SQRT5
        worst = max(worst, float(np.min(np.abs(eigs - want))))
    assert worst <= 1e-8

    elapsed = time.time() - t_start
    assert elapsed <= 120.0
    announce(4, f"guided branch 2cos(k2)+sqrt5 to 1e-6, outside I_1 by "
                f">= band_guard, strip oracle to 1e-8 (worst {worst:.2e}), "
                f"{elapsed:.0f}s")


def test_criterion_5_periodic_box_identity():
    for name in ("chain.json", "square.json", "bipartite_chain.json"):
        spec, _ = load_model(name)
        for half_width in (4, 8, 16):
            deviation = periodic_box_check(spec, half_width)
            assert deviation <= 1e-10, f"{name} L={half_width}: {deviation}"
    announce(5, "periodic-box eigenvalues equal bands at discrete k to 1e-10 "
                "for all three models, L in {4,8,16}")


def test_criterion_6_omega_membership_equivalence():
    for name in BUNDLED:
        spec, grids = load_model(name)
        result = full_spectrum(spec, grids, n_probes=100)
        report = result.probe_report
        assert report["n_probes"] == 100
        assert report["disagreements"] == [], f"{name}: {report['disagreements']}"
    announce(6, "100 probes per bundled model: membership verdicts agree "
                "with the assembled set (inconclusive excluded)")


def test_criterion_7_resolvent_round_trip():
    spec, grids = load_model("chain_point_defect.json")
    rng = np.random.default_rng(77)
    n = grids.k_points
    mesh = full_mesh(1, n)
    lookup = {tuple(row): i for i, row in enumerate(mesh)}
    worst = 0.0
    for _ in range(10):
        degree = int(rng.integers(1, 6))
        coeffs = {(m,): rng.normal(size=1) + 1j * rng.normal(size=1)
                  for m in range(-degree, degree + 1)}
        from defect_bands.spectrum import trig_vector
        g = trig_vector(1, coeffs)
        sol = resolvent_apply(spec, 3.0, g, grids)
        worst = max(worst, sol.residual)
        # forward application is the self-check
        applied = forward_apply(spec, 3.0, sol.f_tab, n)
        g_tab = g(mesh).reshape(n, 1)
        direct = float(np.max(np.abs(applied - g_tab))
                       / max(1.0, np.max(np.abs(g_tab))))
        worst = max(worst, direct)
    assert worst <= 1e-8
    announce(7, f"10 random trig right-hand sides at omega=3: relative "
                f"residual <= 1e-8 (worst {worst:.2e})")


def test_criterion_8_band_edge_detection():
    spec, grids = load_model("chain.json")
    chain = Chain(spec, 2.0)
    res = step_check(lambda rows: chain.level_values(0, rows), 1,
                     grids.k_points, spec.tolerances, mode="hermitian")
    assert res.detected

    # independent confirmation: refine near the argmin and watch the minimum
    # of the level-0 eigenvalue approach zero quadratically
    k_fine = np.linspace(res.argmin_k[0] - 0.05, res.argmin_k[0] + 0.05,
                         2001)[:, None]
    vals = chain.level_values(0, k_fine)[:, 0, 0].real
    assert float(np.min(np.abs(vals))) <= 1e-6
    assert np.all(vals <= 1e-12)   # tangential: touches zero, never crosses

    cert = membership(spec, 2.0, grids)
    assert cert.in_spectrum and cert.detected_at_step == 0
    announce(8, "band-edge frequency 2 detected at step 0 despite the "
                "tangential zero")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = config_path("chain_point_defect.json")
    outputs = []
    for run in range(2):
        spectrum_csv = tmp_path / f"s{run}.csv"
        bands_csv = tmp_path / f"b{run}.csv"
        blobs = []
        for argv in (
            ["spectrum", "--config", cfg, "--out", str(spectrum_csv),
             "--probes", "5"],
            ["bands", "--config", cfg, "--k-grid", "16",
             "--out", str(bands_csv)],
            ["membership", "--config", cfg, "--omega", "3.0", "--json"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "defect_bands.cli"] + argv,
                capture_output=True, check=True)
            blobs.append(proc.stdout)
        blobs.append(spectrum_csv.read_bytes())
        blobs.append((tmp_path / f"s{run}_branch_codim1.csv").read_bytes())
        blobs.append(bands_csv.read_bytes())
        outputs.append(blobs)
    assert outputs[0] == outputs[1]
    announce(9, "CLI outputs byte-identical across two fresh runs")
