"""Programmatic model builders for parameter sweeps in tests."""

from defect_bands.model import (
    DefectLayer,
    GridConfig,
    ProblemSpec,
)
from defect_bands.symbol import OmegaSymbol, TrigMatrixPolynomial


def chain_with_defect(eps, k_points=64, omega_points=513, hopping=1.0,
                      slope=0.0):
    """1D nearest-neighbor chain with an on-site point defect of strength
    eps, or eps + slope * omega when `slope` is nonzero."""
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(1, {(1,): [[hopping]], (-1,): [[hopping]]}),
        1: TrigMatrixPolynomial(1, {(0,): [[-1.0]]}),
    })
    stencils = {0: TrigMatrixPolynomial(0, {(): [[eps]]})}
    if slope:
        stencils[1] = TrigMatrixPolynomial(0, {(): [[slope]]})
    layer = DefectLayer(1, 1, stencils)
    spec = ProblemSpec(lattice_dim=1, cell_size=1, bulk=bulk,
                       defects=(layer,), omega_window=(-4.0, 4.0))
    return spec, GridConfig(k_points=k_points, omega_points=omega_points)


def _square_bulk():
    return OmegaSymbol({
        0: TrigMatrixPolynomial(2, {(1, 0): [[1.0]], (-1, 0): [[1.0]],
                                    (0, 1): [[1.0]], (0, -1): [[1.0]]}),
        1: TrigMatrixPolynomial(2, {(0, 0): [[-1.0]]}),
    })


def square_with_line_defect(eps, k_points=64, omega_points=513):
    """2D square lattice with an on-site line defect along the second axis."""
    layer = DefectLayer(1, 2, {0: TrigMatrixPolynomial(1, {(0,): [[eps]]})})
    spec = ProblemSpec(lattice_dim=2, cell_size=1, bulk=_square_bulk(),
                       defects=(layer,), omega_window=(-6.0, 6.0))
    return spec, GridConfig(k_points=k_points, omega_points=omega_points)


def square_line_and_point(k_points=32, omega_points=513):
    """2D square lattice, unit line defect plus a point defect of 3 on it."""
    line = DefectLayer(1, 2, {0: TrigMatrixPolynomial(1, {(0,): [[1.0]]})})
    point = DefectLayer(2, 2, {0: TrigMatrixPolynomial(0, {(): [[3.0]]})})
    spec = ProblemSpec(lattice_dim=2, cell_size=1, bulk=_square_bulk(),
                       defects=(line, point), omega_window=(-6.0, 8.0))
    return spec, GridConfig(k_points=k_points, omega_points=omega_points)


def cubic_plane_line_point(k_points=16, omega_points=129):
    """3D cubic lattice with three nested defects: a unit plane, a unit line
    in it and a point defect of 2 on the line."""
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(3, {(1, 0, 0): [[1.0]], (-1, 0, 0): [[1.0]],
                                    (0, 1, 0): [[1.0]], (0, -1, 0): [[1.0]],
                                    (0, 0, 1): [[1.0]], (0, 0, -1): [[1.0]]}),
        1: TrigMatrixPolynomial(3, {(0, 0, 0): [[-1.0]]}),
    })
    plane = DefectLayer(1, 3, {0: TrigMatrixPolynomial(2, {(0, 0): [[1.0]]})})
    line = DefectLayer(2, 3, {0: TrigMatrixPolynomial(1, {(0,): [[1.0]]})})
    point = DefectLayer(3, 3, {0: TrigMatrixPolynomial(0, {(): [[2.0]]})})
    spec = ProblemSpec(lattice_dim=3, cell_size=1, bulk=bulk,
                       defects=(plane, line, point), omega_window=(-8.0, 10.0))
    return spec, GridConfig(k_points=k_points, omega_points=omega_points)


def two_band_line(k_points=16, omega_points=129, point=None):
    """2D two-band lattice with a gap (-0.5, 0.5) and a line defect
    diag(1, 0.5) along the second axis; with `point`, also a point defect
    point * I on the line.

    H(k) = diag(2 cos k_1, -2 cos k_1) + [[0, 1 + e^{ik_2}/2], [h.c., 0]],
    whose bands are +-sqrt(4 cos^2 k_1 + 5/4 + cos k_2) in [0.5, 2.5].
    """
    bulk = OmegaSymbol({
        0: TrigMatrixPolynomial(2, {(1, 0): [[1.0, 0.0], [0.0, -1.0]],
                                    (-1, 0): [[1.0, 0.0], [0.0, -1.0]],
                                    (0, 0): [[0.0, 1.0], [1.0, 0.0]],
                                    (0, 1): [[0.0, 0.5], [0.0, 0.0]],
                                    (0, -1): [[0.0, 0.0], [0.5, 0.0]]}),
        1: TrigMatrixPolynomial(2, {(0, 0): [[-1.0, 0.0], [0.0, -1.0]]}),
    })
    layers = [DefectLayer(
        1, 2, {0: TrigMatrixPolynomial(1, {(0,): [[1.0, 0.0], [0.0, 0.5]]})})]
    if point is not None:
        layers.append(DefectLayer(
            2, 2,
            {0: TrigMatrixPolynomial(0, {(): [[point, 0.0], [0.0, point]]})}))
    spec = ProblemSpec(lattice_dim=2, cell_size=2, bulk=bulk,
                       defects=tuple(layers), omega_window=(-7.0, 7.0))
    return spec, GridConfig(k_points=k_points, omega_points=omega_points)


def two_site(spec, offset=10.0):
    """The M = 2 model diag(H, H + offset) - omega of an M = 1
    eigenvalue-form spec, with each defect stencil A placed as diag(A, A).

    Its first site is the M = 1 model itself, with the same numbers; its
    brackets are not closed-form (M > 1), so n is doubled on them.
    """
    def doubled(poly, shift=0.0):
        zero = (0,) * poly.torus_dim
        coeffs = {off: [[m[0, 0], 0.0], [0.0, m[0, 0]]]
                  for off, m in poly.items()}
        base = coeffs.get(zero, [[0.0, 0.0], [0.0, 0.0]])
        coeffs[zero] = [[base[0][0], 0.0], [0.0, base[1][1] + shift]]
        return TrigMatrixPolynomial(poly.torus_dim, coeffs)

    terms = spec.bulk.terms
    bulk = OmegaSymbol({0: doubled(terms[0], offset), 1: doubled(terms[1])})
    layers = tuple(
        DefectLayer(layer.codim, spec.lattice_dim,
                    {p: doubled(st) for p, st in layer.stencils.items()})
        for layer in spec.defects)
    return ProblemSpec(lattice_dim=spec.lattice_dim, cell_size=2, bulk=bulk,
                       defects=layers, omega_window=spec.omega_window)
