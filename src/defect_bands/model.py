"""Problem description: bulk operator plus nested lower-dimensional defects.

A model is entered as real-space hopping stencils.  A stencil is the
`TrigMatrixPolynomial` of its hoppings: offset n -> the block coupling cell
0 to cell n, so its symbol is sum_n exp(i n.k) hopping(n), the bulk stencil
on Z^N is already the bulk's Floquet symbol, and self-adjointness,
hopping(-n) = hopping(n)^H, is `is_hermitian_family`.  A defect of
codimension j lives on the sublattice obtained by freezing the first j
lattice coordinates to zero, so its own offsets have length N - j.
``defect_stencil_to_symbol`` converts a defect stencil to its Floquet symbol
on the N-torus, which acquires the factor (2*pi)^(-j/2) from the sublattice
averaging convention; users always write physical hopping strengths and
never see that constant.  A `DefectLayer` is built from its stencils alone,
and a `ProblemSpec` is frozen and validated when built, so the engine and
the oracle read one operator of a valid spec.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from numbers import Integral, Real

from .symbol import InputError, OmegaSymbol, TrigMatrixPolynomial, TWO_PI


def defect_stencil_to_symbol(stencil, codim, lattice_dim):
    """Floquet symbol of a codimension-`codim` defect operator.

    The defect stencil lives on the last ``lattice_dim - codim`` coordinates;
    the returned polynomial has torus_dim = lattice_dim, offsets zero-padded
    in front, and every block scaled by (2*pi)^(-codim/2).  With that factor
    the Floquet action "multiply by symbol, then apply the sublattice average
    over the first `codim` axes" reproduces the real-space defect exactly.
    """
    codim = int(codim)
    n = int(lattice_dim)
    if not 1 <= codim <= n:
        raise InputError(f"codim must lie in 1..{n}, got {codim}")
    if stencil.torus_dim != n - codim:
        raise InputError(
            f"defect stencil dim {stencil.torus_dim} != lattice_dim - codim = {n - codim}")
    scale = TWO_PI ** (-codim / 2.0)
    pad = (0,) * codim
    coeffs = {pad + off: scale * m for off, m in stencil.items()}
    return TrigMatrixPolynomial(n, coeffs)


class DefectLayer:
    """A codimension-j defect, built from its real-space stencils.

    `stencils` maps omega powers to the physical hoppings on Z^(N - j),
    which the oracle places; `symbol`, which the engine reads, is derived
    from them by `defect_stencil_to_symbol`, so both read one operator.
    """

    def __init__(self, codim, lattice_dim, stencils):
        self.codim = int(codim)
        self.stencils = dict(stencils)
        self.symbol = OmegaSymbol({
            p: defect_stencil_to_symbol(st, codim, lattice_dim)
            for p, st in self.stencils.items()})

    def __repr__(self):
        return f"DefectLayer(codim={self.codim}, powers={tuple(self.symbol.terms)})"


def _is_grid_size(value):
    """True for a power of two >= 4, the sizes of nested trapezoid grids."""
    return isinstance(value, Integral) and value >= 4 and not value & (value - 1)


@dataclass(frozen=True)
class ToleranceSet:
    """Numeric knobs; all strictly positive, det_zero_tol < band_guard.

    det_zero_tol : sigma_min threshold below which a determinant counts as 0.
    quad_rel_tol : relative convergence target of adaptive quadrature.
    band_guard : keep-out distance from exclusion intervals inside which the
        chain quadrature is not trusted.
    root_tol_omega : bisection width for dispersion roots.
    k_grid_base : wavevector points per axis (a power of two >= 4) of any
        run that names no other k grid.
    """

    det_zero_tol: float = 1e-8
    quad_rel_tol: float = 1e-10
    band_guard: float = 0.02
    root_tol_omega: float = 1e-10
    k_grid_base: int = 64

    def violations(self):
        out = []
        for name in ("det_zero_tol", "quad_rel_tol", "band_guard", "root_tol_omega"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and value > 0):
                out.append(f"tolerance {name} must be positive")
        if not _is_grid_size(self.k_grid_base):
            out.append("k_grid_base must be a power of two >= 4")
        det_tol, guard = self.det_zero_tol, self.band_guard
        if isinstance(det_tol, Real) and isinstance(guard, Real) and det_tol >= guard:
            out.append("det_zero_tol must be smaller than band_guard")
        return out


class InvalidSpec(InputError):
    """A ProblemSpec or GridConfig that breaks its invariants; `violations`
    lists all."""

    def __init__(self, violations):
        super().__init__("invalid spec: " + "; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class GridConfig:
    """Evaluation grids: wavevector points per axis, omega points.

    k_points is a power of two >= 4, like k_grid_base.  omega_points >= 2
    is read by no engine code; it stays accepted and validated so existing
    configs keep loading.  Building one with either broken raises
    `InvalidSpec`; the config is frozen, so it stays valid.
    """

    k_points: int = 64
    omega_points: int = 513

    def __post_init__(self):
        violations = []
        if not _is_grid_size(self.k_points):
            violations.append("grids k_points must be a power of two >= 4")
        if not (isinstance(self.omega_points, Integral) and self.omega_points >= 2):
            violations.append("grids omega_points must be >= 2")
        if violations:
            raise InvalidSpec(violations)


@dataclass(frozen=True)
class ProblemSpec:
    """Bulk symbol plus the ordered stack of defect layers.

    lattice_dim is N, cell_size is M.  Defects are sorted by codimension,
    at most one per codimension, each supported on the coordinate sublattice
    chain through the origin cell.  Building one runs `validate` and raises
    `InvalidSpec` on any violation; the spec is frozen, so it stays valid.

    `eigen_store` is not part of the operator: it holds the engine's
    omega-free tables, read-only: the term tables of the bulk and defect
    symbols at the wavevectors the engine evaluates them on
    (`OmegaSymbol.tabulate`), the bulk eigenpairs on the mesh of the
    fixed-grid resolvent solve (`spectrum._grid_tabs`), and the full k
    meshes.  They depend on the
    operator alone and so serve every query on this spec; the store lives
    and dies with the spec.  Entries are filled on first use, never when
    the spec is built.
    """

    lattice_dim: int
    cell_size: int
    bulk: OmegaSymbol
    defects: tuple = ()
    tolerances: ToleranceSet = field(default_factory=ToleranceSet)
    omega_window: tuple = (-10.0, 10.0)
    eigen_store: OrderedDict = field(default_factory=OrderedDict, init=False,
                                     repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "defects",
                           tuple(sorted(self.defects, key=lambda d: d.codim)))
        object.__setattr__(self, "omega_window", (float(self.omega_window[0]),
                                                  float(self.omega_window[1])))
        report = validate(self)
        if not report.ok:
            raise InvalidSpec(report.violations)

    def defect_by_codim(self, codim):
        for layer in self.defects:
            if layer.codim == codim:
                return layer
        return None

    @property
    def present_codims(self):
        return tuple(layer.codim for layer in self.defects)

    def is_self_adjoint(self):
        return self.bulk.is_hermitian_family() and all(
            layer.symbol.is_hermitian_family() for layer in self.defects)


@dataclass
class ValidationReport:
    violations: list
    info: dict

    @property
    def ok(self):
        return not self.violations


def validate(spec):
    """Check every structural invariant of a ProblemSpec.

    Returns a ValidationReport with the full ordered violation list (empty
    means valid) and an info dict recording Hermitian-family status and the
    highest omega power per symbol.
    """
    violations = []
    info = {}
    n = spec.lattice_dim
    m = spec.cell_size
    if n < 1:
        violations.append("lattice_dim must be >= 1")
    if m < 1:
        violations.append("cell_size must be >= 1")
    if spec.bulk.torus_dim != n:
        violations.append(
            f"bulk symbol torus_dim {spec.bulk.torus_dim} != lattice_dim {n}")
    if spec.bulk.dim != m:
        violations.append(f"bulk symbol size {spec.bulk.dim} != cell_size {m}")
    info["bulk"] = {"hermitian_family": spec.bulk.is_hermitian_family(),
                    "max_omega_power": spec.bulk.max_power}

    seen_codims = set()
    for layer in spec.defects:
        tag = f"defect codim {layer.codim}"
        if layer.codim in seen_codims:
            violations.append(f"{tag}: duplicate codim {layer.codim}")
        seen_codims.add(layer.codim)
        sym = layer.symbol
        if sym.dim != m:
            violations.append(f"{tag}: symbol size {sym.dim} != cell_size {m}")
        if sym.torus_dim != n:
            violations.append(
                f"{tag}: symbol torus_dim {sym.torus_dim} != lattice_dim {n}")
        info[tag] = {"hermitian_family": sym.is_hermitian_family(),
                     "max_omega_power": sym.max_power}

    violations.extend(spec.tolerances.violations())
    lo, hi = spec.omega_window
    if not lo < hi:
        violations.append("omega_window must satisfy min < max")
    info["self_adjoint"] = spec.is_self_adjoint()
    return ValidationReport(violations=violations, info=info)
