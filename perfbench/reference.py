"""Closed-form and high-precision references for the benchmark's checks.

Nothing here imports the engine: every value is derived from the lattice
models' textbook forms (nearest-neighbour hopping 1, on-site defects), so an
engine defect cannot hide behind a shared helper.

Models (all hopping 1, cell size 1 unless stated):

* ``chain``  -- 1D chain, point defect eps=1: spectrum [-2, 2] + {sqrt5}.
* ``line``   -- 2D square lattice, line defect eps=1 on x1=0: band [-4, 4],
  guided branch 2 cos k2 + sqrt5, spectrum [-4, 2 + sqrt5].
* ``nested`` -- ``line`` plus a point defect eps=3 at the origin: the
  spectrum of ``line`` plus one isolated point solving
  <g/(1-g)>_{k2} = 1/3 with g = ((w - 2 cos k2)^2 - 4)^(-1/2).
"""

import math

import numpy as np

SQRT5 = math.sqrt(5.0)

#: mpmath root of <g/(1-g)>_{k2} = 1/3 (30 digits); `nested_point_mpmath`
#: recomputes it and the self-test checks the two agree
NESTED_POINT = 5.180756781817904

#: a verdict within this distance of an analytic spectrum edge is not judged
EDGE_TOL = 1e-8

#: line-defect strength, point-defect strength per model, by codimension
DEFECTS = {
    "chain": {1: 1.0},
    "line": {1: 1.0},
    "nested": {1: 1.0, 2: 3.0},
}

LATTICE_DIM = {"chain": 1, "line": 2, "nested": 2}


def nested_point_mpmath(dps=30):
    """The nested model's isolated eigenvalue, solved with mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        def average(w):
            def integrand(k):
                e = w - 2 * mpmath.cos(k)
                g = 1 / mpmath.sqrt(e * e - 4)
                return g / (1 - g)
            return mpmath.quad(integrand, [0, mpmath.pi]) / mpmath.pi

        root = mpmath.findroot(lambda w: average(w) - mpmath.mpf(1) / 3,
                               mpmath.mpf("5.18"))
        return float(root)


def analytic_spectrum(model, nested_point=NESTED_POINT):
    """(intervals, points) of the exact spectrum of a model."""
    if model == "chain":
        return [(-2.0, 2.0)], [SQRT5]
    if model == "line":
        return [(-4.0, 2.0 + SQRT5)], []
    if model == "nested":
        return [(-4.0, 2.0 + SQRT5)], [nested_point]
    raise ValueError(f"unknown model {model!r}")


def distance_to_spectrum(model, omega, nested_point=NESTED_POINT):
    """0 inside an interval, else the distance to the nearest piece."""
    intervals, points = analytic_spectrum(model, nested_point)
    best = math.inf
    for lo, hi in intervals:
        if lo <= omega <= hi:
            return 0.0
        best = min(best, abs(omega - lo), abs(omega - hi))
    for p in points:
        best = min(best, abs(omega - p))
    return best


def depth_inside(model, omega, nested_point=NESTED_POINT):
    """How far inside an interval of the spectrum omega lies (0 outside)."""
    intervals, _ = analytic_spectrum(model, nested_point)
    return max([min(omega - lo, hi - omega) for lo, hi in intervals
                if lo <= omega <= hi] or [0.0])


def level_edges(model, nested_point=NESTED_POINT):
    """Edges of every level's spectrum: bulk band, guided branch, points."""
    if model == "chain":
        return [-2.0, 2.0, SQRT5]
    if model in ("line", "nested"):
        edges = [-4.0, 4.0, SQRT5 - 2.0, SQRT5 + 2.0]
        return edges + ([nested_point] if model == "nested" else [])
    raise ValueError(f"unknown model {model!r}")


def edge_distance(model, omega, nested_point=NESTED_POINT):
    """Distance from omega to the nearest edge of any level's spectrum."""
    return min(abs(omega - e) for e in level_edges(model, nested_point))


def membership_wrong(model, omega, status, nested_point=NESTED_POINT):
    """True when a decided verdict contradicts the analytic spectrum."""
    if status == "in":
        return distance_to_spectrum(model, omega, nested_point) > EDGE_TOL
    if status == "out":
        return depth_inside(model, omega, nested_point) > EDGE_TOL
    return False


def outside_intervals(model, window, margin, nested_point=NESTED_POINT):
    """Pieces of the window at least `margin` away from the spectrum."""
    intervals, points = analytic_spectrum(model, nested_point)
    blocked = sorted([(lo - margin, hi + margin) for lo, hi in intervals]
                     + [(p - margin, p + margin) for p in points])
    pieces, start = [], window[0]
    for lo, hi in blocked:
        if lo > start:
            pieces.append((start, min(lo, window[1])))
        start = max(start, hi)
    if start < window[1]:
        pieces.append((start, window[1]))
    return [(lo, hi) for lo, hi in pieces if hi > lo]


def branch_omega(k2):
    """Guided branch of the eps=1 line defect."""
    return 2.0 * math.cos(k2) + SQRT5


def spectrum_components(model, nested_point=NESTED_POINT):
    """Expected `spectrum` CSV rows (kind, codim, lo, hi) on the window."""
    rows = [("band_interval", 0, -4.0, 4.0),
            ("branch_interval", 1, SQRT5 - 2.0, SQRT5 + 2.0)]
    if model == "nested":
        rows.append(("isolated_point", 2, nested_point, nested_point))
    return rows


def grid_axis(n):
    """The engine's periodic quadrature nodes, -pi + 2 pi l / n."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def trig_values(coeffs, lattice_dim, n):
    """sum_m v_m exp(i m.k) on the n^N grid, shape (n,)*N, from scratch."""
    axes = np.meshgrid(*([grid_axis(n)] * lattice_dim), indexing="ij")
    out = np.zeros((n,) * lattice_dim, dtype=complex)
    for offset, value in coeffs.items():
        phase = sum(m * k for m, k in zip(offset, axes))
        out += complex(np.asarray(value).ravel()[0]) * np.exp(1j * phase)
    return out


def resolvent_residual(model, omega, f_tab, coeffs, n):
    """Relative residual of (H - omega) f = g on the grid, from scratch.

    H is the bulk dispersion sum_i 2 cos k_i plus, per codim-j defect of
    strength eps, eps times the mean of f over the first j axes.
    """
    dim = LATTICE_DIM[model]
    axes = np.meshgrid(*([grid_axis(n)] * dim), indexing="ij")
    f = np.asarray(f_tab).reshape((n,) * dim)
    applied = (sum(2.0 * np.cos(k) for k in axes) - omega) * f
    for codim, eps in DEFECTS[model].items():
        applied = applied + eps * f.mean(axis=tuple(range(codim)),
                                         keepdims=True)
    g = trig_values(coeffs, dim, n)
    return float(np.linalg.norm(applied - g) / np.linalg.norm(g))


def square_periodic_eigenvalues(half_width):
    """Sorted eigenvalues of the L x L periodic square lattice."""
    k = 2.0 * np.pi * np.arange(half_width) / half_width
    return np.sort((2 * np.cos(k)[:, None] + 2 * np.cos(k)[None, :]).ravel())


def bipartite_periodic_eigenvalues(half_width):
    """Sorted eigenvalues of the periodic two-site-cell chain, +-2|cos(k/2)|."""
    k = 2.0 * np.pi * np.arange(half_width) / half_width
    mag = 2.0 * np.abs(np.cos(k / 2.0))
    return np.sort(np.concatenate([-mag, mag]))
