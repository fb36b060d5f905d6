"""Brute-force validation: truncate to a finite box, diagonalize, compare.

The truncated operator places the raw real-space hoppings (bulk everywhere,
defect stack on the coordinate sublattices through the origin) on a finite
box, with open or periodic boundaries per axis: each hopping offset lands on
all its source cells at once, periodic coordinates wrapped and hoppings
leaving an open axis dropped.  The spec must be self-adjoint and its bulk
in eigenvalue form, H(k) - omega*I, so that the box matrix is the Hermitian
H itself; assembly checks each box once, no eigensolve again.  The matrix
is real whenever every placed block is, which holds on all bundled models,
and complex otherwise.

`oracle_eigenvalues` splits the box into Bloch blocks along its reducible
axes: periodic axes that no defect pins (index >= every layer's codim), on
which the matrix is block-circulant.  The blocks are the discrete Fourier
transform of the assembled matrix's first block row, checked bit-exactly
against every other block row, so they come from the real-space matrix and
not from the engine's symbols.  A box with no reducible axis is one block.
`oracle_eigenpairs` and `periodic_box_check` stay on the whole dense box: the
first because `boundary_mass` needs real-space eigenvectors, the second
because its identity is a statement about the whole box.  Two comparisons
matter:

* periodic boundaries, no defect: eigenvalues equal the bulk dispersion at
  the box's Bloch wavevectors exactly, so the deviation is pure eigensolver
  noise — the strongest available cross-check;
* open boundaries with defects: localized and guided modes appear with
  exponentially small truncation error, while genuine edge artifacts are
  recognized by eigenvector mass near the boundary and flagged, not failed.

Defect hoppings enter with their raw physical values; the sublattice
normalization factor lives on the Fourier side only.
"""

import numpy as np

from .quadrature import _product_nodes
from .spectrum import bands_grid, point_in_intervals
from .symbol import InputError, TWO_PI, is_hermitian

#: dense eigensolver size cap
MAX_DIMENSION = 20000


class TruncatedOperator:
    """Dense real-space truncation of the perturbed operator.

    `matrix` is float64 when every placed block is real, else complex128.
    """

    def __init__(self, spec, half_widths, bcs, matrix, site_cells):
        self.spec = spec
        self.half_widths = tuple(half_widths)
        self.bcs = tuple(bcs)
        self.matrix = matrix
        self.site_cells = site_cells    # (n_cells, N) integer cell coordinates
        self.dimension = matrix.shape[0]

    def __repr__(self):
        return (f"TruncatedOperator(L={self.half_widths}, bc={self.bcs}, "
                f"dim={self.dimension})")


def _axis_sites(half_width, bc):
    if bc not in ("open", "periodic"):
        raise InputError(
            f"boundary condition must be open|periodic, got {bc!r}")
    smallest = 0 if bc == "open" else 1
    if half_width < smallest:
        raise InputError(f"{bc} half-width must be at least {smallest}, "
                         f"got {half_width}")
    if bc == "open":
        return np.arange(-half_width, half_width + 1)
    return np.arange(half_width)


def _check_eigenproblem_form(spec):
    if not spec.bulk.is_eigenvalue_form():
        raise InputError(
            "truncated assembly needs an eigenvalue-form family (linear in "
            "omega with power-1 term -I); linearize quadratic families to "
            "companion form first")
    if not spec.is_self_adjoint():
        raise InputError("the oracle is a Hermitian eigensolver; the bulk "
                         "and defect families must be Hermitian")
    for layer in spec.defects:
        if set(layer.symbol.terms) != {0}:
            raise InputError(
                "truncated assembly supports omega-independent defects only")
        if not layer.raw_stencils:
            raise InputError(
                f"defect codim {layer.codim} carries no raw stencil; build "
                "layers with DefectLayer.from_stencils for oracle comparisons")


def assemble_truncated(spec, half_width, bc="open"):
    """Dense truncation on a finite box.

    Parameters
    ----------
    half_width : int or sequence of int
        Box half-width per axis: open axes hold sites -L..L (L >= 0),
        periodic axes L sites with wraparound (L >= 1).
    bc : str or sequence of str
        "open" or "periodic", per axis or one value for all axes.
    """
    _check_eigenproblem_form(spec)
    n_dim = spec.lattice_dim
    m_sz = spec.cell_size
    if np.isscalar(half_width):
        half_widths = (int(half_width),) * n_dim
    else:
        half_widths = tuple(int(x) for x in half_width)
    if isinstance(bc, str):
        bcs = (bc,) * n_dim
    else:
        bcs = tuple(bc)
    if len(half_widths) != n_dim or len(bcs) != n_dim:
        raise InputError("half_width and bc must cover every axis")

    axes_sites = [_axis_sites(l, b) for l, b in zip(half_widths, bcs)]
    mesh = np.meshgrid(*axes_sites, indexing="ij")
    cells = np.stack([m.ravel(order="C") for m in mesh], axis=-1)
    n_cells = cells.shape[0]
    dim = n_cells * m_sz
    if dim > MAX_DIMENSION:
        raise InputError(
            f"truncated dimension {dim} exceeds {MAX_DIMENSION}; reduce L")

    # one placement per (offset, block, source cells): the bulk on every
    # cell, each defect on its sublattice; offsets are added in this fixed
    # order, which fixes the sum where offsets alias on a small periodic box
    bulk_stencil = spec.bulk.terms.get(0)
    every_cell = np.arange(n_cells)
    placements = [(off, block, every_cell) for off, block in
                  (bulk_stencil.items() if bulk_stencil is not None else ())]
    for layer in spec.defects:
        j = layer.codim
        on_sub = np.flatnonzero(np.all(cells[:, :j] == 0, axis=1))
        placements += [((0,) * j + off, block, on_sub)
                       for off, block in layer.raw_stencils[0].items()]

    widths = np.asarray(half_widths)
    periodic = np.array([b == "periodic" for b in bcs])
    sizes = [len(sites) for sites in axes_sites]
    lowest = np.where(periodic, 0, -widths)
    slot = np.arange(m_sz)
    real = not any(np.any(block.imag) for _, block, _ in placements)
    h = np.zeros((dim, dim), dtype=float if real else complex)
    for offset, block, source in placements:
        target = cells[source] + np.asarray(offset, dtype=int)
        # wrapped periodic coordinates lie in 0..L-1, so only open axes drop
        target[:, periodic] %= widths[periodic]
        inside = np.all(np.abs(target) <= widths, axis=1)
        t_idx = np.ravel_multi_index((target[inside] - lowest).T, sizes)
        rows = (t_idx[:, None] * m_sz + slot)[:, :, None]
        cols = (source[inside][:, None] * m_sz + slot)[:, None, :]
        h[rows, cols] += block.real if real else block

    if not is_hermitian(h, tol=1e-14):
        raise AssertionError("assembly broke Hermiticity")
    return TruncatedOperator(spec, half_widths, bcs, h, cells)


def _bloch_blocks(truncated):
    """(n_q, D, D) Bloch blocks of the box along its reducible axes.

    Reducible axes are periodic ones that every defect leaves free.  The box
    matrix, viewed as (cells..., slot, cells..., slot), must then be
    block-circulant on them: every block row along those axes is the first
    one rolled, bit for bit.  The blocks are the Fourier transform of that
    first row over the column axes; with no reducible axis the one block is
    the whole matrix.
    """
    spec = truncated.spec
    n_dim = spec.lattice_dim
    pinned = max((layer.codim for layer in spec.defects), default=0)
    reduced = [a for a in range(n_dim)
               if truncated.bcs[a] == "periodic" and a >= pinned]
    kept = [a for a in range(n_dim) if a not in reduced]
    sizes = tuple(_axis_sites(l, b).size
                  for l, b in zip(truncated.half_widths, truncated.bcs))
    h = truncated.matrix.reshape(2 * (sizes + (spec.cell_size,)))
    # rows ordered (reduced cells, kept cells, slot), columns likewise
    order = reduced + kept + [n_dim]
    h = h.transpose(order + [n_dim + 1 + a for a in order])
    q_shape = h.shape[:len(reduced)]
    first = h[(0,) * len(reduced)]
    q_axes = tuple(range(len(order) - len(reduced), len(order)))
    for shift in list(np.ndindex(*q_shape))[1:]:
        if not np.array_equal(h[shift], np.roll(first, shift, axis=q_axes)):
            raise AssertionError(
                f"box is not translation-invariant along axes {reduced}")
    blocks = np.moveaxis(np.fft.fftn(first, axes=q_axes), q_axes,
                         range(len(reduced)))
    size = truncated.dimension // int(np.prod(q_shape))
    return blocks.reshape(-1, size, size)


def oracle_eigenvalues(truncated):
    """Ascending eigenvalues of the truncation, one batched Hermitian solve
    over its Bloch blocks (the whole matrix when no axis is reducible)."""
    return np.sort(np.linalg.eigvalsh(_bloch_blocks(truncated)).ravel())


def oracle_eigenpairs(truncated):
    """Eigenvalues and real-space eigenvectors of the dense truncation,
    ascending."""
    return np.linalg.eigh(truncated.matrix)


def boundary_mass(truncated, vectors, margin=2):
    """Fraction of each eigenvector's weight within `margin` cells of an
    open boundary (0 for fully periodic boxes)."""
    cells = truncated.site_cells
    near = np.zeros(cells.shape[0], dtype=bool)
    for axis, (l, b) in enumerate(zip(truncated.half_widths, truncated.bcs)):
        if b != "open":
            continue
        near |= np.abs(cells[:, axis]) > l - margin
    m_sz = truncated.spec.cell_size
    near_sites = np.repeat(near, m_sz)
    weight = np.abs(vectors) ** 2
    return weight[near_sites].sum(axis=0) / weight.sum(axis=0)


def periodic_box_check(spec, half_width):
    """Exact identity: periodic-box eigenvalues vs bands at discrete k.

    Requires a defect-free spec.  Returns the max absolute deviation between
    the sorted eigenvalues of the periodic truncation and the sorted multiset
    of bands at the box's Bloch wavevectors k* = -pi + 2*pi*(m + s)/L per
    axis, m = 0..L-1, with s = (L mod 2)/2 so that exp(i L k*) = 1 for odd L
    too; any deviation is eigensolver noise.
    """
    if spec.defects:
        raise InputError("periodic_box_check requires a defect-free spec")
    l = int(half_width)
    eigs = np.linalg.eigvalsh(assemble_truncated(spec, l, bc="periodic").matrix)
    axis_k = TWO_PI * (np.arange(l) + (l % 2) / 2) / l - np.pi
    k_rows = _product_nodes(axis_k, spec.lattice_dim)
    # one row of bands per wavevector, ragged (a list) or not
    model = np.sort(np.concatenate(bands_grid(spec, k_rows)))
    return float(np.max(np.abs(eigs - model)))


def compare_spectra(result, eigenvalues, tol, boundary_fraction=None,
                    edge_threshold=0.5):
    """Check truncated eigenvalues against an assembled spectrum.

    Every eigenvalue must lie within `tol` of the assembled set, except
    those whose `boundary_fraction` exceeds `edge_threshold` (open-boundary
    artifacts, flagged).  Every isolated point of the set must be matched by
    some eigenvalue within `tol`; an unmatched point is a failure carrying
    the nearest eigenvalue.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    intervals = result.omega_intervals
    unmatched_eigs, flagged = [], []
    for idx, val in enumerate(eigenvalues):
        if point_in_intervals(val, intervals, dilate=tol):
            continue
        if boundary_fraction is not None and boundary_fraction[idx] > edge_threshold:
            flagged.append((float(val), float(boundary_fraction[idx])))
        else:
            unmatched_eigs.append(float(val))
    point_matches, failures = [], []
    for comp in result.components:
        if comp.kind != "isolated_point":
            continue
        gap = float(np.min(np.abs(eigenvalues - comp.lo)))
        if gap <= tol:
            point_matches.append({"point": comp.lo, "gap": gap})
        else:
            nearest = float(eigenvalues[np.argmin(np.abs(eigenvalues - comp.lo))])
            failures.append({"point": comp.lo, "nearest_eigenvalue": nearest,
                             "gap": gap})
    return {
        "ok": not unmatched_eigs and not failures,
        "unmatched_eigenvalues": unmatched_eigs,
        "edge_flagged": flagged,
        "isolated_point_matches": point_matches,
        "isolated_point_failures": failures,
    }
