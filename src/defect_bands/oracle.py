"""Brute-force validation: truncate to a finite box, diagonalize, compare.

The truncated operator places the raw real-space hoppings (bulk everywhere,
defect stack on the coordinate sublattices through the origin) on a finite
box, with open or periodic boundaries per axis: each hopping offset lands on
all its source cells at once, periodic coordinates wrapped and hoppings
leaving an open axis dropped.  The spec must be self-adjoint and its bulk
in eigenvalue form, H(k) - omega*I, so that the box is the Hermitian H
itself.  `assemble_truncated` checks all of that, and the box size, at once;
the dense box `TruncatedOperator.matrix` is placed on first access and
checked Hermitian then.  It is real whenever every placed block is, which
holds on all bundled models, and complex otherwise.

No oracle solve builds the dense box; the tests compare against it.  The
same placement loop puts the stencils straight onto symmetry-adapted
blocks, one per sector, by two reductions:

* a periodic axis that no defect pins (index >= every layer's codim) is
  reducible: only sources at coordinate 0 are placed, each entry weighted by
  the Bloch phase exp(i q.n) of its target, one block per wavevector q;
* a kept axis on which every stencil's block at n equals, bit for bit, the
  block at the mirrored offset commutes with n -> -n, and splits into an
  even and an odd half.  Sites pair with their mirror images; the fixed
  sites are 0 and, on a periodic axis of even length L, L/2.  An entry from
  site s to site t is weighted c_t * c_s, c = 1/sqrt(2) on paired sites and
  1 on fixed ones, times the parity of the mirrored members in the odd half,
  which holds no fixed site;
* any other axis is placed site by site.

`oracle_eigenvalues` applies both.  `oracle_eigenpairs` and
`periodic_box_check` apply the mirror halves alone: they are a real
orthogonal change of basis of the whole box, with no phase, so the box
identity still covers every eigenvalue of the whole box, and each half's
eigenvectors map back to real space by the same weights, one gather per
half.  The Bloch reduction stays out of the identity, which would otherwise
compare the Fourier series `bands_grid` sums with itself.  The blocks come
from the stencils, not from the engine's symbols, and each is checked
Hermitian before its eigensolve.  Two comparisons matter:

* periodic boundaries, no defect: eigenvalues equal the bulk dispersion at
  the box's Bloch wavevectors exactly, so the deviation is pure eigensolver
  noise — the strongest available cross-check;
* open boundaries with defects: localized and guided modes appear with
  exponentially small truncation error, while genuine edge artifacts are
  recognized by eigenvector mass near the boundary and flagged, not failed.

Defect hoppings enter with their raw physical values; the sublattice
normalization factor lives on the Fourier side only.
"""

from functools import cached_property

import numpy as np

from .spectrum import bands_grid, point_in_intervals
from .symbol import InputError, TWO_PI, is_hermitian

#: dense eigensolver size cap
MAX_DIMENSION = 20000

#: relative Hermiticity tolerance of the dense box and of each block
_HERMITIAN_TOL = 1e-14

#: cells from an open boundary that `boundary_mass` counts as near it
BOUNDARY_MARGIN = 2

#: boundary mass above which `compare_spectra` flags, not fails, a mismatch
EDGE_THRESHOLD = 0.5


class TruncatedOperator:
    """Real-space truncation of the perturbed operator on a finite box.

    `matrix`, the dense box, is placed on first access: float64 when every
    placed block is real, else complex128.
    """

    def __init__(self, spec, half_widths, bcs, site_cells):
        self.spec = spec
        self.half_widths = tuple(half_widths)
        self.bcs = tuple(bcs)
        self.site_cells = site_cells    # (n_cells, N) integer cell coordinates
        self.dimension = site_cells.shape[0] * spec.cell_size

    @cached_property
    def matrix(self):
        ((h,), _), = _blocks(self, ())
        return h

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


def assemble_truncated(spec, half_width, bc="open"):
    """Truncation on a finite box, its inputs checked; no box is placed yet.

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
    dim = cells.shape[0] * spec.cell_size
    if dim > MAX_DIMENSION:
        raise InputError(
            f"truncated dimension {dim} exceeds {MAX_DIMENSION}; reduce L")
    return TruncatedOperator(spec, half_widths, bcs, cells)


def _stencils(spec, cells):
    """(offset -> block, source cells) of the bulk, on every cell, and of
    each defect on its sublattice, offsets padded to the lattice dimension.

    Offsets are placed in this fixed order, which fixes the sum where they
    alias on a small periodic box.
    """
    out = []
    bulk_stencil = spec.bulk.terms.get(0)
    if bulk_stencil is not None:
        out.append((dict(bulk_stencil.items()), np.arange(cells.shape[0])))
    for layer in spec.defects:
        j = layer.codim
        on_sub = np.flatnonzero(np.all(cells[:, :j] == 0, axis=1))
        out.append(({(0,) * j + off: block
                     for off, block in layer.stencils[0].items()}, on_sub))
    return out


def _mirror_symmetric(stencils, axis):
    """True when every stencil's block at each offset equals, bit for bit,
    its block at the offset mirrored on `axis`."""
    for offsets, _ in stencils:
        for off, block in offsets.items():
            image = offsets.get(off[:axis] + (-off[axis],) + off[axis + 1:])
            if image is None or not np.array_equal(image, block):
                return False
    return True


def _place(truncated, reductions):
    """Place every stencil on the box, as one (n_q, D, D) stack per half.

    `reductions` names those applied, a subset of ("mirror", "bloch").
    With none, the one stack holds the one dense box.  With "bloch", each
    reducible axis gives one block per Bloch wavevector q; with "mirror",
    each mirror-symmetric kept axis an even and an odd half (module
    docstring).  The list holds one (stack, basis) pair per combination of
    halves, empty ones left out.  Without "bloch", the basis (rows, weights)
    maps the stack's one block back to real space: the vector u on the
    block is weights * u[rows] on the box, component by component.
    """
    spec, cells = truncated.spec, truncated.site_cells
    m_sz = spec.cell_size
    stencils = _stencils(spec, cells)
    pinned = max((layer.codim for layer in spec.defects), default=0)
    widths = np.asarray(truncated.half_widths)
    periodic = np.array([b == "periodic" for b in truncated.bcs])
    sizes = np.where(periodic, widths, 2 * widths + 1)
    lowest = np.where(periodic, 0, -widths)
    # the mirror image of site position p is (shift - p) % size
    shift = np.where(periodic, 0, 2 * widths)
    axes = range(len(sizes))
    bloch = np.array([("bloch" in reductions) and periodic[a] and a >= pinned
                      for a in axes], dtype=bool)
    mirror = np.array([("mirror" in reductions) and not bloch[a]
                       and _mirror_symmetric(stencils, a) for a in axes],
                      dtype=bool)
    # representatives per axis: 0 on Bloch axes, 0..size//2 on mirror axes
    counts = np.where(bloch, 1, np.where(mirror, sizes // 2 + 1, sizes))
    parities = 1.0 - 2.0 * np.array(list(np.ndindex((2,) * mirror.sum())))
    # wavevector q = 2 pi m / L on each Bloch axis, held as the integers m
    l_b = sizes[bloch]
    m_rows = np.array(list(np.ndindex(*l_b)), dtype=int)
    n_sectors = len(parities) * len(m_rows)
    dim = int(np.prod(counts)) * m_sz

    def fold_sites(pos):
        # representative, mirrored member per mirror axis, and the product
        # of c over the mirror axes, of each site position
        image = (shift - pos) % sizes
        rep = np.where(mirror, np.minimum(pos, image),
                       np.where(bloch, 0, pos))
        c = np.prod(np.where((pos != image)[:, mirror], np.sqrt(0.5), 1.0),
                    axis=1)
        return np.ravel_multi_index(rep.T, counts), (pos > image)[:, mirror], c

    def phases(pos):
        # exp(i q.n) per q, with m n mod L taken nearest 0: opposite offsets
        # get conjugate phases, and no angle exceeds pi
        if not bloch.any():
            return np.ones((len(pos), 1))
        turns = (pos[:, None, bloch] * m_rows + l_b // 2) % l_b - l_b // 2
        return np.exp(1j * TWO_PI * (turns / l_b).sum(axis=-1))

    real = not bloch.any() and not any(
        np.any(block.imag) for offsets, _ in stencils
        for block in offsets.values())
    acc = np.zeros((n_sectors, dim, dim), dtype=float if real else complex)
    slot = np.arange(m_sz)
    sector = np.arange(n_sectors)[None, :, None, None]
    for offsets, source in stencils:
        source = cells[source] - lowest
        source = source[np.all(source[:, bloch] == 0, axis=1)]
        s_idx, s_bit, s_c = fold_sites(source)
        for offset, block in offsets.items():
            target = source + np.asarray(offset, dtype=int)
            target[:, periodic] %= sizes[periodic]
            # wrapped periodic positions lie in 0..L-1, so only open axes drop
            inside = np.all((target >= 0) & (target < sizes), axis=1)
            target = target[inside]
            t_idx, t_bit, t_c = fold_sites(target)
            # c_t c_s, times the parity of each mirror axis on which exactly
            # one end is a mirrored member, times the Bloch phase
            sign = np.prod(np.where((t_bit ^ s_bit[inside])[:, None, :],
                                    parities, 1.0), axis=-1)
            weight = ((t_c * s_c[inside])[:, None, None] * sign[:, :, None]
                      * phases(target)[:, None, :])
            rows = (t_idx[:, None] * m_sz + slot)[:, None, :, None]
            cols = (s_idx[inside][:, None] * m_sz + slot)[:, None, None, :]
            # folding maps distinct entries onto one index: accumulate
            np.add.at(acc, (sector, rows, cols),
                      weight.reshape(len(target), n_sectors)[:, :, None, None]
                      * (block.real if real else block))

    reps = np.stack(np.unravel_index(np.arange(np.prod(counts)), counts),
                    axis=-1)
    fixed = ((shift - reps) % sizes == reps)[:, mirror]
    # each box component's index on the folded box, its mirrored members
    # and its c
    idx, bit, c = fold_sites(cells - lowest)
    comp = (idx[:, None] * m_sz + slot).ravel()
    placed = []
    for i, parity in enumerate(parities):
        # an odd half holds no fixed site of its axis
        keep = np.flatnonzero(np.repeat(
            ~np.any(fixed[:, parity < 0], axis=1), m_sz))
        part = acc[i * len(m_rows):(i + 1) * len(m_rows)]
        if not keep.size:
            continue
        if keep.size < dim:
            part = part[:, keep[:, None], keep[None, :]]
        basis = None
        if not bloch.any():
            rows = np.full(dim, -1)
            rows[keep] = np.arange(keep.size)
            rows = rows[comp]
            weights = np.repeat(
                c * np.prod(np.where(bit, parity, 1.0), axis=1), m_sz)
            basis = rows, np.where(rows < 0, 0.0, weights)
        placed.append((part, basis))
    return placed


def _blocks(truncated, reductions):
    """`_place`'s pairs, each stack checked Hermitian to 1e-14 relative."""
    placed = _place(truncated, reductions)
    for stack, _ in placed:
        if not is_hermitian(stack, tol=_HERMITIAN_TOL):
            raise AssertionError("a placed block is not Hermitian")
    return placed


def _eigenvalues(truncated, reductions):
    """Ascending eigenvalues of the truncation, one batched Hermitian solve
    per stack of its checked blocks."""
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(stack).ravel()
        for stack, _ in _blocks(truncated, reductions)]))


def oracle_eigenvalues(truncated):
    """Ascending eigenvalues of the truncation, from its Bloch blocks and
    mirror halves placed straight from the stencils; the dense box is not
    built."""
    return _eigenvalues(truncated, ("mirror", "bloch"))


def oracle_eigenpairs(truncated):
    """Eigenvalues and real-space eigenvectors of the truncation, from its
    mirror halves; the dense box is not built.

    Each half is one `eigh`, its vectors mapped back to the box by one
    gather.  Eigenvalues ascend, ties in stable order.
    """
    values, vectors = [], []
    for (block,), (rows, weights) in _blocks(truncated, ("mirror",)):
        lam, u = np.linalg.eigh(block)
        values.append(lam)
        vectors.append(weights[:, None] * u[rows])
    order = np.argsort(np.concatenate(values), kind="stable")
    return np.concatenate(values)[order], np.hstack(vectors)[:, order]


def boundary_mass(truncated, vectors):
    """Fraction of each eigenvector's weight within BOUNDARY_MARGIN cells of
    an open boundary (0 for fully periodic boxes)."""
    cells = truncated.site_cells
    near = np.zeros(cells.shape[0], dtype=bool)
    for axis, (l, b) in enumerate(zip(truncated.half_widths, truncated.bcs)):
        if b != "open":
            continue
        near |= np.abs(cells[:, axis]) > l - BOUNDARY_MARGIN
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
    return _box_identity(assemble_truncated(spec, half_width, "periodic"))[1]


def _box_identity(truncated):
    """The ascending eigenvalues of a defect-free periodic truncation, from
    one solve of its mirror halves, and `periodic_box_check`'s deviation
    of them from the bands at k*, whose m are the box's cells."""
    eigs = _eigenvalues(truncated, ("mirror",))
    widths = np.asarray(truncated.half_widths)
    k_rows = TWO_PI * (truncated.site_cells + widths % 2 / 2) / widths - np.pi
    # one row of bands per wavevector, ragged (a list) or not
    model = np.sort(np.concatenate(bands_grid(truncated.spec, k_rows)))
    return eigs, float(np.max(np.abs(eigs - model)))


def compare_spectra(result, eigenvalues, tol, boundary_fraction=None):
    """Check truncated eigenvalues against an assembled spectrum.

    Every eigenvalue must lie within `tol` of the assembled set, except
    those whose `boundary_fraction` exceeds EDGE_THRESHOLD (open-boundary
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
        if boundary_fraction is not None and boundary_fraction[idx] > EDGE_THRESHOLD:
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
