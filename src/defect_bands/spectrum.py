"""Spectral engine for periodic operators with nested lower-dimensional defects.

Everything revolves around a ladder of matrices built at a fixed omega.
Level 0 is the bulk symbol itself, a function of all N wavevector
components.  Whenever level j-1 is invertible everywhere, level j is

    B_j = I + < B_{j-1}^{-1} ... B_1^{-1} B_0^{-1} A_j >_{1..j}

with the codimension-j defect symbol A_j and the scaled sub-torus average
over the first j axes; B_j depends only on the trailing N-j components,
so the average is taken one axis per level (`_GreenTable`).  A singular
level-j matrix certifies omega in the spectrum and yields a dispersion
branch of dimension N-j: bulk bands at level 0, guided branches in
between, isolated points at level N.  Membership testing, branch root
finding, exclusion-interval bookkeeping, the assembled spectrum, and the
constructive inverse of the operator all live here.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .model import GridConfig
from .quadrature import NonConvergence, _product_nodes, grid_nodes, trapezoid_sum
from .symbol import (
    TWO_PI,
    InputError,
    SingularMatrix,
    det,
    eigh,
    eigvalsh,
    inverse,
    smallest_singular_value,
)

logger = logging.getLogger("defect_bands.spectrum")

#: relative imaginary-part threshold below which a determinant field is
#: treated as a real function of k (the step check's sign test enabled)
IMAG_DOMINANCE = 1e-6

#: points per axis of the one local refinement pass around a sigma_min argmin
REFINE_POINTS = 33

#: first and largest points on a bracket's axis of its n-doubling
N_QUAD_START = 16
N_QUAD_MAX = 4096

#: points per axis of the mesh a NonConvergence witness is taken on, and
#: of the k_1 nodes a level-1 piece's -dB_0/domega is checked on
WITNESS_POINTS = 4 * N_QUAD_START

#: seed of the membership probe frequencies of `full_spectrum`
PROBE_SEED = 20260808

#: bytes of omega-free tables (symbol term tables, the bulk eigenpairs of a
#: resolvent grid, meshes) and their keys that one spec keeps in its
#: `eigen_store`, least recently used dropped first; a larger table is not
#: kept, so a stalled query does not hold it.  The `query-mix` query sets
#: of seeds 1-10, asked on the same specs, leave 0.51 MB on the nested model
#: (0.45 MB term tables), 0.64 MB on the line model and 0.01 MB on the chain
EIGEN_STORE_BYTES = 1 << 25


class UncertifiedLevel(RuntimeError):
    """Level matrices not certified invertible at the requested omega."""


def full_mesh(lattice_dim, n):
    """All grid points of [-pi,pi)^lattice_dim, lexicographic rows."""
    return _product_nodes(grid_nodes(n), lattice_dim)


# ---------------------------------------------------------------------------
# omega-free tables kept per spec


def _stored(spec, key, build):
    """The entry under `key` in the spec's `eigen_store`, made its most
    recently used; on a miss `build()` makes it and `_remember` keeps it.
    An entry is a tuple of arrays, None standing for an array not kept."""
    store = spec.eigen_store
    entry = store.get(key)
    if entry is None:
        entry = build()
        _remember(store, key, entry)
    else:
        store.move_to_end(key)
    return entry


def _entry_bytes(key, entry):
    return (sum(len(part) for part in key if isinstance(part, bytes))
            + sum(a.nbytes for a in entry if a is not None))


def _remember(store, key, entry):
    """Mark the entry's arrays read-only and put it in a spec's
    `eigen_store` as its most recently used entry, then drop the least
    recently used entries until the store holds at most EIGEN_STORE_BYTES
    of arrays and key bytes.  An entry larger than that on its own is not
    stored."""
    for a in entry:
        if a is not None:
            a.flags.writeable = False
    if _entry_bytes(key, entry) > EIGEN_STORE_BYTES:
        return
    store[key] = entry
    held = sum(_entry_bytes(k, v) for k, v in store.items())
    while held > EIGEN_STORE_BYTES:
        held -= _entry_bytes(*store.popitem(last=False))


def _mesh(spec, lattice_dim, n):
    """`full_mesh(lattice_dim, n)`, kept read-only in the spec's store."""
    return _stored(spec, ("mesh", lattice_dim, n),
                   lambda: (full_mesh(lattice_dim, n),))[0]


def _patch(spec, n_axes, k_points):
    """`refine_patch(n_axes, k_points)`, kept read-only in the spec's store."""
    return _stored(spec, ("patch", n_axes, k_points),
                   lambda: (refine_patch(n_axes, k_points),))[0]


def _terms(spec, codim, k):
    """`tabulate` of the bulk (codim 0) or of the codim-`codim` defect
    symbol at the wavevector rows `k`, shape (m, N), kept read-only in the
    spec's store under the bytes of `k`."""
    symbol = spec.bulk if codim == 0 else spec.defect_by_codim(codim).symbol
    return _stored(spec, ("terms", codim, k.tobytes()),
                   lambda: symbol.tabulate(k))


def node_mesh(n, level, t_rows):
    """Wavevectors of a bracket: n-grid nodes on the first `level` axes.

    Integration nodes come first, in `_product_nodes` order, and the rows
    `t_rows`, shape (m, r), of the remaining coordinates last; the result
    has shape (n^level, m, level + r).
    """
    kint = _product_nodes(grid_nodes(n), level)
    mesh = np.empty((kint.shape[0], t_rows.shape[0], level + t_rows.shape[1]))
    mesh[:, :, :level] = kint[:, None, :]
    mesh[:, :, level:] = t_rows[None, :, :]
    return mesh


# ---------------------------------------------------------------------------
# the level-0 inverse of a resolvent grid


def _rank_floor(scale):
    """The rank guard's floor 64 eps max(1, scale) for values of magnitude
    up to `scale`: the rounding floor of those values themselves."""
    return 64.0 * np.finfo(float).eps * np.maximum(1.0, scale)


def _companion(poly):
    """Monic companion matrices of `poly` (batch, d + 1, m, m), coefficients
    ascending, whose eigenvalues are the roots of det sum_s poly_s x^s, and
    L^{-1} for the leading blocks L, which must be invertible."""
    m = poly.shape[-1]
    size = (poly.shape[1] - 1) * m
    inv_lead = np.linalg.inv(poly[:, -1])
    comp = np.zeros((len(poly), size, size), complex)
    comp[:, :-m, m:] = np.eye(size - m)
    comp[:, -m:] = -np.matmul(inv_lead[:, None], poly[:, :-1]).transpose(
        0, 2, 1, 3).reshape(-1, m, size)
    return comp, inv_lead


def lattice_green(lam, vec, omega):
    """U diag(1/(lambda - omega)) U^H and its rank guard, per node.

    `lam`, `vec` are eigenpairs of a Hermitian H at nodes, shapes (..., M)
    and (..., M, M); `omega` broadcasts against the node axes.  This is
    (H - omega*I)^{-1}, the lattice Green's function (Koster-Slater for
    M = 1).  For M = 1, U = 1 and `vec` is not read (it may be None): the
    inverse is 1/(lambda - omega) as complex, the product's bits on every
    finite node without the matmul.  Its singular values are
    1/|lambda_i - omega|, and a node fails the guard when
    min |lambda_i - omega| is below `_rank_floor(max |lambda_i|)`.  Returns
    the inverses and per node the failing sigma_min, inf where the node
    passes (the inverse of a failing node is not finite).
    """
    shift = lam - np.asarray(omega, dtype=float)[..., None]
    s_min = np.abs(shift).min(axis=-1)
    floor = _rank_floor(np.abs(lam).max(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        if lam.shape[-1] == 1:
            green = (1.0 / shift).astype(complex)[..., None]
        else:
            green = np.matmul(vec / shift[..., None, :],
                              vec.conj().swapaxes(-1, -2))
    return green, np.where(s_min < floor, s_min, np.inf)


# ---------------------------------------------------------------------------
# the chain of level matrices at fixed omega


class Chain:
    """Level matrices at one omega, with one pinned n per level.

    `level_values` evaluates a level's rows as one group of a `_GreenTable`
    built for them at this omega, which sums over the level's own axis the
    integrand from the levels below; `_level_values` does so for many
    chains at the same rows in one table.  Each level above 1 pins in
    `_nquad` the n its axis first converged at, for its later rows, inside
    higher brackets too; a failing bracket raises `NonConvergence`.  No
    level value is memoized: a row recomputed at its pinned n has the same
    bits.  Only omega-free tables, the symbols' term tables, are shared
    across chains, through the spec's `eigen_store`.  `membership` steps up
    one chain per frequency, all of them together.
    """

    def __init__(self, spec, omega):
        self.spec = spec
        self.omega = float(omega)
        self._nquad = {}

    def level_values(self, level, t_rows):
        """Level matrices at rows of remaining coordinates.

        Parameters
        ----------
        level : int, 0 or a present defect codim
        t_rows : array, shape (m, N - level)

        Returns
        -------
        ndarray, shape (m, M, M)
        """
        out, = _level_values([self], level, t_rows)
        if isinstance(out, NonConvergence):
            raise out
        return out


def _level_values(chains, level, t_rows):
    """`Chain.level_values` of chains of one spec at the same rows: per
    chain its (m, M, M) matrices or its `NonConvergence`.  Level 0 combines
    the one stored term table at each omega; a higher level evaluates one
    table, one group per chain, in one `_converge` call per pinned n."""
    spec = chains[0].spec
    n_dim = spec.lattice_dim
    t_rows = np.asarray(t_rows, dtype=float)
    if n_dim - level == 0:
        t_rows = t_rows.reshape(max(1, t_rows.shape[0] if t_rows.ndim else 1), 0)
    else:
        t_rows = t_rows.reshape(-1, n_dim - level)
    if level == 0:
        tabs = _terms(spec, 0, t_rows)
        return [spec.bulk.combine(c.omega, tabs) for c in chains]
    table = _GreenTable(spec, level, t_rows)
    rows = np.arange(t_rows.shape[0])
    by_pin = {}
    for i, c in enumerate(chains):
        by_pin.setdefault(c._nquad.get(level), []).append(i)
    out = [None] * len(chains)
    for idx in by_pin.values():
        got = table._converge([chains[i].omega for i in idx],
                              [rows] * len(idx),
                              [chains[i]._nquad for i in idx])
        for i, res in zip(idx, got):
            out[i] = res
    return out


class _GreenTable:
    """Converged level values of groups of (omega, row) cells.

    This is the one place where a bracket is built and n is doubled.  The
    table serves one level j and fixed rows of k_{j+1..N}.  B_i depends on
    k_{i+1..N} alone, so the average over the first j axes factors into
    one axis per level:

        P_1 = <B_0^{-1}>_1,  P_j = <B_{j-1}^{-1} P_{j-1}>_j,
        B_j = I + P_j A_j,

    and a level with no defect has B = I and passes P on unchanged.  A
    level-j table sums over axis j alone:
    - Level 1 is an exact residue sum, with no n, for every bulk (Lee &
      Joannopoulos, PRB 23, 4988, 1981; Umerski, PRB 55, 5266, 1997): in
      closed form (`_closed_form`) for an eigenvalue-form Hermitian M = 1
      bulk whose every axis-1 offset is -1, 0 or 1 (`_closed`), else from
      the eigenvalues of one companion matrix per cell (`_residue`).
    - Level j >= 2: n doubles on axis j over B_{j-1}^{-1} P_{j-1}
      (`_integrand`), taken from the one level-(j-1) table it owns per n
      (`_lower`).
    A_j at the rows is `combine` of the stored term tables at each omega.
    Level values, pinned n and verdicts stay with the call.
    `_level_values` builds one table per call, for all its chains;
    `dispersion_branch` one per call,
    which on a closed-form level with an omega-free defect evaluates no
    cell: it solves each row's root from `_row_band` (`_closed_roots`).
    """

    def __init__(self, spec, level, t_rows):
        self.spec = spec
        self.level = int(level)
        self.t_rows = np.asarray(t_rows, dtype=float)   # (rows, N - level)
        self._eigen = _hermitian_linear_fast(spec)
        self._closed = (self.level == 1 and self._eigen
                        and spec.cell_size == 1
                        and all(abs(off[0]) <= 1
                                for off in spec.bulk.terms[0].offsets))
        self._rows_key = self.t_rows.tobytes()
        self._below = {}        # n -> the level-(j-1) table it owns for n
        self._band = None       # h_0 and |h_1| of every row, closed form

    def _lower(self, n, rows):
        """The level-(j-1) table owned for n, on the rows `node_mesh(n, 1,
        t_rows)`, and its rows under the table rows `rows`, node-major."""
        if n not in self._below:
            mesh = node_mesh(n, 1, self.t_rows)
            self._below[n] = _GreenTable(self.spec, self.level - 1,
                                         mesh.reshape(-1, mesh.shape[-1]))
        nodes = np.arange(n)[:, None] * len(self.t_rows) + np.asarray(rows)
        return self._below[n], nodes.ravel()

    def _bottom(self, n, rows):
        """The level-1 table under the tables owned for n, and its rows (the
        n-grid nodes of axes 2..j x the table rows `rows`)."""
        table = self
        while table.level > 1:
            table, rows = table._lower(n, rows)
        return table, rows

    def _witness(self, omega, rows):
        """How near omega lies to the level-0 spectrum over the
        WITNESS_POINTS grid of the integrated axes above axis 1 x the table
        rows `rows`, from the level-1 table below: the least distance to a
        row's band where it is closed-form, else the least `_residue`
        witness."""
        table, rows = self._bottom(WITNESS_POINTS, rows)
        if table._closed:
            h0, h1 = table._row_band(rows)
            lo, hi = h0 - 2.0 * h1, h0 + 2.0 * h1
            return float(np.maximum(np.maximum(lo - omega, omega - hi),
                                    0.0).min())
        cells = (rows, np.full(len(rows), float(omega)), None)
        return float(table._residue(cells)[3].min())

    def defect_terms(self):
        """`tabulate` of the level's defect symbol at the table rows."""
        k_t = np.zeros((self.t_rows.shape[0], self.spec.lattice_dim))
        k_t[:, self.level:] = self.t_rows
        return _terms(self.spec, self.level, k_t)

    def _row_band(self, rows):
        """h_0 and |h_1| of the table rows `rows` of a closed-form table, so
        that a row's bulk band is [h_0 - 2|h_1|, h_0 + 2|h_1|]: the 4-point
        discrete Fourier transform along k_1 of the eigenvalues of H on the
        n = 4 grid (-pi, -pi/2, 0, pi/2), read from the stored term table,
        exact for the axis-1 offsets -1, 0 and 1."""
        if self._band is None:
            mesh = node_mesh(4, 1, self.t_rows)
            lam = eigvalsh(_terms(self.spec, 0, mesh.reshape(
                -1, self.spec.lattice_dim))[0]).reshape(mesh.shape[:2])
            # the bits of lam.mean(axis=0), without its overhead
            self._band = (lam.sum(axis=0) / 4,
                          0.25 * np.hypot(lam[2] - lam[0], lam[3] - lam[1]))
        return self._band[0][rows], self._band[1][rows]

    def _closed_form(self, cells):
        """Level-1 values, averages P and failing distances of `cells` on a
        closed-form table, in one vectorised pass.  A cell's omega at
        distance d > 0 from its row's band puts one root z_in of Q inside
        |z| = 1, and the residue there is the exact average
        G = 1/Q'(z_in) = 1/(2 h_1 z_in + h_0 - omega)
          = sign(h_0 - omega) / sqrt(d (d + 4|h_1|)),
        which is 1/(h_0 - omega) where h_1 = 0.  P = sqrt(2 pi) G is the
        limit of the scaled trapezoid sum, and the cell's value is 1 + P A,
        A its defect term (P where the level has no defect).  A cell fails
        when d is below `_rank_floor(|h_0| + 2|h_1|)` (d = 0 inside the
        band); its failing distance is then d, else inf.
        """
        cell_t, cell_omega, cell_a = cells
        h0, h1 = self._row_band(cell_t)
        shift = h0 - cell_omega
        dist = np.maximum(np.abs(shift) - 2.0 * h1, 0.0)
        bad = np.where(dist < _rank_floor(np.abs(h0) + 2.0 * h1), dist, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = (np.sqrt(TWO_PI) * (np.sign(shift) / np.sqrt(
                dist * (dist + 4.0 * h1))))[:, None, None]
            values = sums if cell_a is None else 1.0 + sums * cell_a
        return values, sums, bad

    def _residue(self, cells):
        """Level-1 values, averages P, whether each is decided, and
        witnesses of `cells` off the closed form, in one pass with no n.

        B_0 = sum over |s| <= r of C_s e^{isk_1}, the blocks the FFT of the
        stored term table on a grid of more than 2r nodes.  With
        w = tan((k_1 - k_0) / 2), R(w) = B_0 (1 + w^2)^r has degree 2r and
        leading block L = B_0(k_0 + pi), at the node of (-pi, -pi/2, 0,
        pi/2) where sigma_min is largest (no eigenvalue runs off to w = inf
        near a band edge).  G = mean B_0^{-1} is 1/pi times the integral of
        (1 + w^2)^(r-1) R(w)^{-1}, and so the sum of its residues in the
        upper half plane: 2i X V_in f(lambda_in) (V^{-1})_in Y L^{-1}, from
        C = V diag(lambda) V^{-1} the monic companion matrix of L^{-1} R,
        f(w) = (1 + w^2)^(r-1) and X, Y its first block row and last block
        column.  Where eigenvalues meet the real axis at a band edge, G is
        off by about eps ||C||_F^2 / sep^2, sep the distance of the nearest
        eigenvalue from the real axis; a cell is decided when that is at
        most quad_rel_tol and L passes the rank guard.  Its witness is
        sigma_min of B_0 at the real k_1 below that eigenvalue, or of L.
        P and values are as in `_closed_form`.
        """
        cell_t, cell_omega, cell_a = cells
        spec, m = self.spec, self.spec.cell_size
        reach = max(1, max(abs(off[0]) for poly in spec.bulk.terms.values()
                           for off in poly.offsets))
        nodes = 4
        while nodes <= 2 * reach:
            nodes *= 2
        mesh = node_mesh(nodes, 1, self.t_rows)
        tabs = _terms(spec, 0, mesh.reshape(-1, spec.lattice_dim))
        omega = np.asarray(cell_omega, dtype=complex)[:, None, None]
        vals = sum(omega ** p * t.reshape(mesh.shape[:2] + (m, m))[:, cell_t]
                   for p, t in zip(spec.bulk.terms, tabs))
        far = np.arange(4) * (nodes // 4)
        sig = smallest_singular_value(vals[far])
        k_far = mesh[far[sig.argmax(axis=0)], 0, 0]
        shifts = np.arange(-reach, reach + 1)
        # the blocks of B_0(k_far - pi + k), C_s e^{is(k_far - pi)}
        blocks = np.fft.fft(vals, axis=0)[shifts % nodes].swapaxes(0, 1) \
            * np.exp(1j * np.outer(k_far, shifts))[:, :, None, None] / nodes
        poly = np.einsum("sd,csij->cdij", np.array([P.polymul(
            P.polypow([1, 1j], reach + s), P.polypow([1, -1j], reach - s))
            for s in shifts]), blocks)
        ok = sig.max(axis=0) >= _rank_floor(np.linalg.norm(poly[:, -1],
                                                            axis=(-2, -1)))
        poly[:, -1] = np.where(ok[:, None, None], poly[:, -1], np.eye(m))
        comp, inv_lead = _companion(poly)
        lam, vec = np.linalg.eig(comp)
        near = lam[np.arange(len(lam)), np.abs(lam.imag).argmin(axis=1)]
        decided = ok & (np.finfo(float).eps * np.sum(np.abs(comp) ** 2,
                                                     axis=(1, 2))
                        <= spec.tolerances.quad_rel_tol * near.imag ** 2)
        vec = np.where(decided[:, None, None], vec, np.eye(comp.shape[-1]))
        weight = np.where(lam.imag > 0, (1.0 + lam ** 2) ** (reach - 1), 0.0)
        sums = np.sqrt(TWO_PI) * 2j * np.matmul(np.matmul(
            vec[:, :m] * weight[:, None, :], np.linalg.inv(vec)[:, :, -m:]),
            inv_lead)
        values = sums if cell_a is None else np.eye(m) + np.matmul(sums,
                                                                   cell_a)
        phase = np.exp(2j * np.outer(np.arctan(near.real), shifts))
        witness = np.where(ok, smallest_singular_value(np.einsum(
            "cs,csij->cij", phase, blocks)), sig.max(axis=0))
        return values, sums, decided, witness

    def piece_sign(self, n, row, edges):
        """How the omega piece between the two `edges` of a table row is
        counted, at the row's n-grid nodes: (sign, None) with sign +1 or -1
        when -sign dT/domega is shown positive definite there, T being the
        bulk plus the defects up to this level, or (0, why).

        The test of sign: at both edges the least eigenvalue of
        -sign dB_0/domega over the nodes is at least the sum over the
        levels i <= this one of max |eig dA_i/domega|, A_i the physical
        defect stencils at the nodes, and above it at one edge.  With at
        most quadratic omega dependence the left side is concave in omega
        and the right side convex, so the margin is then positive inside
        the piece.  For H(k) - omega*I, dB_0/domega = -I.  B_0 is then
        monotone at each node, so the piece is still refused when the
        inertia of B_0 at some node differs between the edges: a bulk band
        lies inside it; where the level-1 table below is closed-form, when
        one of its rows' bands meets [a, b).  A level-1 table reads no n:
        its nodes are the WITNESS_POINTS grid of k_1, and its band test
        needs the inertia at one node, since both edges were evaluated, so
        neither lies in a row's band, and a band wholly inside the piece
        changes the inertia at every node.
        """
        spec, dim = self.spec, self.spec.lattice_dim
        varying = [layer for layer in spec.defects
                   if layer.codim <= self.level and layer.symbol.max_power]
        bottom, rows = self._bottom(n, [row])
        if self.level == 1 or varying or not bottom._closed:
            mesh = node_mesh(n if self.level > 1 else WITNESS_POINTS,
                             self.level,
                             self.t_rows[row:row + 1]).reshape(-1, dim)
        if bottom._closed:
            h0, h1 = bottom._row_band(rows)
            banded = np.any((h0 - 2.0 * h1 < edges[1])
                            & (h0 + 2.0 * h1 >= edges[0]))
        else:
            tabs = spec.bulk.tabulate(mesh if self.level > 1 or not self._eigen
                                      else mesh[:1])
            nodes = tabs if self.level > 1 else [t[:1] for t in tabs]
            negative = [(eigvalsh(spec.bulk.combine(w, nodes)) < 0).sum(axis=-1)
                        for w in edges]
            banded = np.any(negative[0] != negative[1])
        if self._eigen:
            least = {1.0: [1.0, 1.0], -1.0: [-1.0, -1.0]}
        else:
            slopes = [eigvalsh(-_slope(spec.bulk.terms, w, tabs))
                      for w in edges]
            least = {1.0: [s.min() for s in slopes],
                     -1.0: [-s.max() for s in slopes]}
        slack = np.zeros(2)
        for layer in varying:
            st = layer.stencils
            tabs = [st[p].eval(mesh[:, layer.codim:]) for p in st]
            slack += [np.abs(eigvalsh(_slope(st, w, tabs))).max()
                      for w in edges]
        for sign in (1.0, -1.0):
            margin = np.subtract(least[sign], slack)
            if margin.min() >= 0.0 and margin.max() > 0.0:
                break
        else:
            return 0.0, "-dT/domega is not shown definite on it"
        if banded:
            return 0.0, "a bulk band lies inside it"
        return sign, None

    def _converge(self, omegas, groups, pins=None, carry=False):
        """Converged level values of groups of cells, evaluated together.

        Group g is the cells (omegas[g], row) for the table rows groups[g];
        `dispersion_branch` makes one group per cell, each chain one group.  A
        cell's value is B_j (P_j with no defect); with `carry`, the
        integrand of the level above, B_j^{-1} P_j.  A level-1 table
        evaluates every cell in one pass, exactly, and ignores `pins`; a
        group fails there when one of its cells is not decided, with
        n_reached 0.  Above level 1, n doubles on this level's axis, all
        live groups at each n, one group at a time.  A group starts at
        N_QUAD_START and converges at its first relative change below
        quad_rel_tol, in B_j and with `carry` in P_j too (a small or
        rank-deficient A_j hides P_j's error from B_j); a singular node
        fails it, and N_QUAD_MAX stalls it.  `pins` holds per group a dict
        level -> n (fresh by default), where it and the tables below it pin
        their n; a level pinned for every group (or none) is evaluated at
        that n alone.  Returns per group its values or its
        `NonConvergence`, a lower level's included.
        """
        if len(groups) == 0:
            return []
        j = self.level
        pins = [{} for _ in groups] if pins is None else pins
        pinned, = {p.get(j) for p in pins}
        tol = self.spec.tolerances.quad_rel_tol
        sizes = [len(rows) for rows in groups]
        ends = np.cumsum(sizes)
        live = list(zip(range(len(groups)), ends - sizes, ends))
        layer = self.spec.defect_by_codim(j)
        cell_t, cell_a = np.concatenate(groups), None
        if layer is not None:
            tabs = self.defect_terms()
            cell_a = np.concatenate(
                [layer.symbol.combine(float(w), [t[rows] for t in tabs])
                 for w, rows in zip(omegas, groups)])
        cells = (cell_t, np.repeat(omegas, sizes), cell_a)
        outcome = [None] * len(groups)
        m_sz = self.spec.cell_size
        if j == 1:
            if self._closed:
                vals, sums, bad = self._closed_form(cells)
            else:
                vals, sums, decided, witness = self._residue(cells)
                bad = np.where(decided, np.inf, witness)
            for g, s, e in live:
                worst = bad[s:e].min()
                outcome[g] = vals[s:e] if np.isinf(worst) else NonConvergence(
                    f"level 1 {'closed form' if self._closed else 'residue'}: "
                    f"omega={float(omegas[g])!r} is in a row's bulk band or "
                    "within its rank guard", n_reached=0,
                    witness_sigma_min=float(worst))
            live = []
        else:
            eye, prev = np.eye(m_sz, dtype=complex), {}
            sums = np.empty((cell_t.size, m_sz, m_sz), dtype=complex)
        n = pinned or N_QUAD_START
        while live:
            still = []
            for group in live:
                g, s, e = group
                try:
                    x = self._integrand(n, cell_t[s:e], omegas[g], pins[g])
                except SingularMatrix as exc:
                    outcome[g] = NonConvergence(
                        f"level {j} integrand singular on the n={n} grid",
                        n_reached=n, witness_sigma_min=exc.min_sigma)
                    continue
                except NonConvergence as exc:
                    outcome[g] = exc
                    continue
                with np.errstate(invalid="ignore", over="ignore"):
                    avg = trapezoid_sum(x, n) if cell_a is None or carry \
                        else None
                    curr = avg if cell_a is None else eye + trapezoid_sum(
                        np.matmul(x, cell_a[s:e]), n)
                old, prev[g] = prev.get(g), (curr, avg)[:1 + carry]
                if pinned or (old is not None and np.max([
                        np.abs(a - b).max() / max(1.0, np.abs(a).max())
                        for a, b in zip(prev[g], old)]) < tol):
                    outcome[g] = curr
                    if carry:
                        sums[s:e] = avg
                    pins[g][j] = n
                else:
                    still.append(group)
            live = still
            if live and 2 * n > N_QUAD_MAX:
                for g, s, e in live:
                    omega = float(omegas[g])
                    outcome[g] = NonConvergence(
                        f"level {j} quadrature stalled at n={n} on axis {j} "
                        f"(omega={omega!r} is too close to a lower-level "
                        "spectrum projection)", n_reached=n,
                        witness_sigma_min=self._witness(omega, cell_t[s:e]))
                live = []
            n *= 2
        if not carry or cell_a is None:
            return outcome
        return [out if isinstance(out, NonConvergence)
                else np.matmul(inverse(out), sums[s:e])
                for out, s, e in zip(outcome, ends - sizes, ends)]

    def _integrand(self, n, rows, omega, pins):
        """B_{j-1}^{-1} P_{j-1} at the n axis-j nodes x the table rows
        `rows`, node-major, shape (n, len(rows), M, M): one group at
        `omega`, with `pins`, of the level-(j-1) table this table owns for
        n (`_lower`)."""
        below, nodes = self._lower(n, rows)
        out, = below._converge([omega], [nodes], [pins], carry=True)
        if isinstance(out, NonConvergence):
            raise out
        return out.reshape((n, len(rows)) + out.shape[1:])


# ---------------------------------------------------------------------------
# step checks: does det vanish somewhere on the level's torus?


@dataclass
class StepCheckResult:
    detected: bool
    min_sigma: float
    argmin_k: tuple
    method: str


def _sign_change(field, periodic):
    """First strict sign change between adjacent nodes of real fields.

    `field` has shape (P, n_1, ..., n_d, channels), one field per probe;
    along each axis the last node is adjacent to the first only when
    `periodic`.  Returns per probe, in a list, the flat grid index of the
    smaller-|value| endpoint of its first crossing pair, in C order, on the
    lowest axis that has one, or -1.
    """
    n_p, grid, chans = field.shape[0], field.shape[1:-1], field.shape[-1]
    nodes = field.reshape(n_p, -1)
    hit = [-1] * n_p
    stride = nodes.shape[1] // chans
    for axis, n in enumerate(grid, start=1):
        stride //= n            # flat grid index step along this axis
        cross = field * field.take(np.arange(1, n + 1) % n, axis=axis) < 0
        if not periodic:
            cross[(slice(None),) * axis + (-1,)] = False
        if not cross.any():
            continue
        flat = cross.reshape(n_p, -1)
        for p in np.flatnonzero(flat.any(axis=1)).tolist():
            if hit[p] >= 0:
                continue
            here, chan = divmod(int(flat[p].argmax()), chans)
            there = (here + stride if here // stride % n < n - 1
                     else here - (n - 1) * stride)
            hit[p] = (here if abs(nodes[p, here * chans + chan])
                      <= abs(nodes[p, there * chans + chan]) else there)
    return hit


def _examine(vals, mode, tol, shape, periodic):
    """The step check's rule on the stacked level values `vals`, shape
    (P, m, M, M), of P probes at the m rows of the grid `shape`: per probe
    whether it detects and how (lists), its sigma_min and the row of its
    witness (on the patch, the row of its sigma_min)."""
    sig = smallest_singular_value(vals)
    where, s_min = sig.argmin(axis=1), sig.min(axis=1)
    found = (s_min <= tol).tolist()
    methods = ["sigma"] * len(found)
    if mode == "sigma" or all(found):
        return found, methods, s_min, where
    if mode == "hermitian":
        field, name = eigvalsh(vals), "crossing"
    else:
        dets = det(vals)
        scale = np.abs(dets).max(axis=1) + 1e-300
        real = np.abs(dets.imag).max(axis=1) <= IMAG_DOMINANCE * scale
        # a zero field has no strict sign change: no test where det is complex
        field, name = np.where(real[:, None], dets.real, 0.0)[..., None], \
            "det-sign"
    hits = _sign_change(field.reshape((len(found),) + shape
                                      + field.shape[-1:]), periodic)
    for p, hit in enumerate(hits):
        if hit >= 0 and not found[p]:
            found[p], methods[p] = True, name
            if periodic:
                where[p] = hit
    return found, methods, s_min, where


def _stacked(results, probes, out):
    """The indices of the values among `results` and those values stacked;
    each other result is the `NonConvergence` of its probe, `probes[i]`,
    and goes to `out`."""
    kept = []
    for i, res in enumerate(results):
        if isinstance(res, NonConvergence):
            out[probes[i]] = res
        else:
            kept.append(i)
    if len(kept) < 2:          # a lone probe's values need no copy
        return kept, (results[kept[0]][None] if kept else None)
    return kept, np.stack([results[i] for i in kept])


def refine_patch(n_axes, k_points):
    """Offsets of the refinement patch: +-1 coarse cell of the k_points grid
    per axis, REFINE_POINTS points each, lexicographic rows."""
    cell = TWO_PI / k_points
    return _product_nodes(np.linspace(-cell, cell, REFINE_POINTS), n_axes)


def step_check(fn, n_axes, k_points, tolerances, mode="sigma"):
    """Decide whether det of a level matrix vanishes somewhere on its torus.

    Parameters
    ----------
    fn : callable
        Maps (m, n_axes) wavevector rows to (m, M, M) matrices.
    n_axes : int
        Number of free wavevector components (0 for the final level, where
        the check degenerates to |det| <= det_zero_tol on a single matrix).
    mode : {"sigma", "hermitian", "real-det"}
        "hermitian" adds per-band eigenvalue sign crossings between adjacent
        nodes (catches zeros the grid does not land on); "real-det" adds the
        analogous sign test on Re(det) when the imaginary part is dominated;
        "sigma" thresholds sigma_min only.

    A detection ends the search immediately; otherwise one local refinement
    pass around the sigma_min argmin is made before certifying.  This is
    the one-probe case of `_step_checks`, which `membership` runs on all
    its frequencies together.
    """
    res, = _step_checks(lambda rows, probes: [fn(rows)], 1, n_axes, k_points,
                        tolerances, mode, full_mesh(n_axes, k_points),
                        refine_patch(n_axes, k_points))
    return res


def _step_checks(values, n_probes, n_axes, k_points, tolerances, mode, rows,
                 offsets):
    """`step_check` of `n_probes` level-matrix functions together.

    `values(rows, probes)` evaluates the probes listed in `probes` at the
    same wavevector rows, shape (m, n_axes): per probe its (m, M, M)
    matrices or the `NonConvergence` that stopped them.  The mesh `rows`
    is evaluated for all probes in one call and each refinement patch, its
    probe's argmin + `offsets`, in a call of its own; the rule runs on the
    values of all probes stacked (`_examine`).  Returns per probe its
    `StepCheckResult`, or the `NonConvergence` of its mesh or its patch.
    """
    tol = tolerances.det_zero_tol
    out = [None] * n_probes
    everyone = range(n_probes)
    if n_axes == 0:
        kept, vals = _stacked(values(np.zeros((1, 0)), everyone), everyone,
                              out)
        if kept:
            dets, sig = det(vals)[:, 0], smallest_singular_value(vals)[:, 0]
            for p, d, s in zip(kept, dets, sig):
                out[p] = StepCheckResult(bool(abs(complex(d)) <= tol),
                                         float(s), (), "final-det")
        return out

    live, vals = _stacked(values(rows, everyone), everyone, out)
    if not live:
        return out
    found, methods, s_min, where = _examine(vals, mode, tol,
                                            (k_points,) * n_axes, True)
    argmin = rows[where]
    todo = []
    for i, p in enumerate(live):
        if found[i]:
            out[p] = StepCheckResult(True, float(s_min[i]), tuple(argmin[i]),
                                     methods[i])
        else:
            todo.append(i)
    if not todo:
        return out

    # local refinement rows: +-1 coarse cell around each argmin, fine spacing
    patches = [argmin[i] + offsets for i in todo]
    probes = [live[i] for i in todo]
    kept, pvals = _stacked([values(rows_, [p])[0]
                            for p, rows_ in zip(probes, patches)], probes, out)
    if not kept:
        return out
    pfound, pmethods, pmin, pwhere = _examine(
        pvals, mode, tol, (REFINE_POINTS,) * n_axes, False)
    for j, t in enumerate(kept):
        i = todo[t]
        min_sig, arg = float(s_min[i]), tuple(argmin[i])
        if pmin[j] < min_sig:
            min_sig, arg = float(pmin[j]), tuple(patches[t][pwhere[j]])
        out[probes[t]] = (
            StepCheckResult(True, min_sig, arg, pmethods[j] + "-refined")
            if pfound[j] else StepCheckResult(False, min_sig, arg, methods[i]))
    return out


# ---------------------------------------------------------------------------
# membership


@dataclass
class MembershipCertificate:
    status: str                      # "in" | "out" | "inconclusive"
    detected_at_step: int = None
    witness_k: tuple = None
    min_sigma_per_level: list = field(default_factory=list)
    reason: str = ""

    @property
    def in_spectrum(self):
        return self.status == "in"

    def to_dict(self):
        return {
            "status": self.status,
            "in_spectrum": self.in_spectrum,
            "detected_at_step": self.detected_at_step,
            "witness_k": (None if self.witness_k is None
                          else [float(x) for x in self.witness_k]),
            "min_sigma_per_level": [
                {"level": int(lv), "min_sigma": float(sg)}
                for lv, sg in self.min_sigma_per_level],
            "reason": self.reason,
        }


def membership(spec, lam, grids=None):
    """Test whether `lam` belongs to the spectrum of the perturbed operator.

    Runs the step procedure: check level 0 on the full grid, then extend the
    ladder through each present defect level in codimension order, checking
    each.  The first singular level decides membership and is reported with
    its witness wavevector.  When `lam` sits within band_guard of a lower
    level's spectrum the higher brackets cannot be trusted and the verdict is
    "inconclusive" (membership there is already decided by the lower level in
    exact arithmetic, just not resolvable at this tolerance).  This is the
    one-frequency case of `_memberships`.
    """
    cert, = _memberships(spec, [lam], grids)
    return cert


def _memberships(spec, lams, grids=None):
    """`membership` at each frequency of `lams`, all stepped up the levels
    together: at each level the frequencies still undecided share one
    evaluation of the mesh (`_level_values`, one `Chain` each) and one run
    of the step check's rule (`_step_checks`).  Each certificate is the one
    `membership` gives its frequency alone, bit for bit."""
    for lam in lams:
        if not np.isfinite(lam):
            raise InputError(f"omega must be finite, got {lam}")
    grids = grids or GridConfig(k_points=spec.tolerances.k_grid_base)
    guard = spec.tolerances.band_guard
    chains = [Chain(spec, lam) for lam in lams]
    traces = [[] for _ in chains]
    floors = [np.inf] * len(chains)
    certs = [None] * len(chains)
    live = list(range(len(chains)))
    for level in (0, *spec.present_codims):
        if level:
            for p in live:
                if floors[p] < guard:
                    certs[p] = MembershipCertificate(
                        "inconclusive", min_sigma_per_level=traces[p],
                        reason=("lambda is within band_guard="
                                f"{guard} of a lower-level spectrum "
                                f"projection (min sigma {floors[p]:.3e})"))
            live = [p for p in live if certs[p] is None]
        if not live:
            break
        mode = ("real-det" if level else
                "hermitian" if spec.is_self_adjoint() else "sigma")
        n_axes = spec.lattice_dim - level
        results = _step_checks(
            lambda rows, probes: _level_values(
                [chains[live[i]] for i in probes], level, rows),
            len(live), n_axes, grids.k_points, spec.tolerances, mode,
            _mesh(spec, n_axes, grids.k_points),
            _patch(spec, n_axes, grids.k_points))
        for p, res in zip(live, results):
            if isinstance(res, NonConvergence):
                certs[p] = MembershipCertificate(
                    "inconclusive", min_sigma_per_level=traces[p],
                    reason=(f"level {level} not evaluated: {res} (witness "
                            f"sigma_min {res.witness_sigma_min:.3e})"))
                continue
            traces[p].append((level, res.min_sigma))
            if res.detected:
                certs[p] = MembershipCertificate(
                    "in", detected_at_step=level, witness_k=res.argmin_k,
                    min_sigma_per_level=traces[p])
            floors[p] = min(floors[p], res.min_sigma)
        live = [p for p in live if certs[p] is None]
    for p in live:
        certs[p] = MembershipCertificate("out", min_sigma_per_level=traces[p])
    return certs


# ---------------------------------------------------------------------------
# bulk dispersion


def bands(spec, k):
    """`bands_grid` at the one wavevector `k`: its frequencies, ascending."""
    return bands_grid(spec, np.reshape(k, (1, spec.lattice_dim)))[0]


def _hermitian_linear_fast(spec):
    """B_0 = H(k) - omega*I with H Hermitian: bands are eigenvalues of H."""
    return spec.bulk.is_eigenvalue_form() and spec.bulk.is_hermitian_family()


def bands_grid(spec, k_rows):
    """Dispersion frequencies per wavevector row, ascending: (m, n_bands),
    or a list when the counts differ.  H(k) - omega*I: the eigenvalues of
    H.  Other Hermitian T(omega) of degree d: the real roots of det T, one
    batched solve of `_companion` matrices in omega = mu or s + 1/mu, d M
    + 1 shifts s, per row the one whose leading block (T_d or T(s)) passes
    the rank guard with the largest sigma_min / sigma_max, ties to mu; if
    none does, det T = 0 for all omega: InputError."""
    if not spec.bulk.is_hermitian_family():
        raise InputError("bands requires a Hermitian-family bulk symbol")
    if spec.bulk.max_power == 0:
        raise InputError("bulk family does not depend on omega; no dispersion")
    k_rows = np.asarray(k_rows, dtype=float).reshape(-1, spec.lattice_dim)
    if spec.bulk.is_eigenvalue_form():
        return eigvalsh(spec.bulk.terms[0].eval(k_rows))
    deg, m = spec.bulk.max_power, spec.cell_size
    # s off the real axis: mu^d T(s + 1/mu) = sum_p T_p (1 + s mu)^p mu^(d - p)
    shifts = (np.sqrt(2.0) + 1j / np.pi) * np.arange(deg * m + 2)
    polys = np.zeros((len(k_rows), len(shifts), deg + 1, m, m), complex)
    polys[:, 0, [*spec.bulk.terms]] = np.stack(spec.bulk.tabulate(k_rows), 1)
    for c, s in enumerate(shifts[1:], 1):
        for p in range(deg + 1):
            polys[:, c, deg - p:] += (P.polypow([1, s], p)[:, None, None]
                                      * polys[:, 0, p, None])
    sig = np.linalg.svd(polys[:, :, -1], compute_uv=False)
    low, high = sig[..., -1], sig[..., 0]
    score = np.divide(low, high, out=np.full(low.shape, -1.0),
                      where=low >= _rank_floor(high))
    bad = score.max(axis=1) < 0
    if bad.any():
        raise InputError(f"det T = 0 for all omega at k = {k_rows[bad][0]}")
    choice = score.argmax(axis=1)
    comp, _ = _companion(polys[np.arange(len(k_rows)), choice])
    mu = np.linalg.eigvals(comp)
    # 1/mu; a shifted mu below the floor is omega = inf: NaN, never real
    floor = _rank_floor(np.linalg.norm(comp, axis=(-2, -1)))[:, None]
    inv = np.divide(1.0, mu, out=np.full_like(mu, np.nan),
                    where=np.abs(mu) >= floor)
    omega = np.where((choice > 0)[:, None], shifts[choice][:, None] + inv, mu)
    real = np.abs(omega.imag) <= 1e-9 * np.maximum(1.0, np.abs(omega))
    per_row = [np.sort(row.real[keep]) for row, keep in zip(omega, real)]
    if len({len(row) for row in per_row}) == 1:
        return np.stack(per_row)
    return per_row


# ---------------------------------------------------------------------------
# interval bookkeeping


def merge_intervals(intervals):
    """Union of closed intervals; overlapping or touching pieces are joined."""
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def point_in_intervals(x, intervals, dilate=0.0):
    return any(lo - dilate <= x <= hi + dilate for lo, hi in intervals)


# ---------------------------------------------------------------------------
# exclusion sets


@dataclass
class ExclusionSet:
    nodes: np.ndarray                 # (m, N - codim) remaining coordinates
    intervals: list                   # per node: list of (lo, hi)


def _band_ranges(spec, mesh, k_points):
    """Per row of a (nodes, rows, N) wavevector mesh: the band ranges over
    the row's nodes, as a list of (lo, hi) per row.

    With one band count everywhere each band gives its [min, max]; ragged
    real-root counts (quadratic families) split the row's sorted roots at
    jumps over `ragged_gap`, scaled by the `k_points` grid and the window.
    """
    band_vals = bands_grid(spec, mesh.reshape(-1, spec.lattice_dim))
    n_rows = mesh.shape[1]
    if isinstance(band_vals, np.ndarray):
        grid_e = band_vals.reshape(mesh.shape[:2] + band_vals.shape[-1:])
        lo, hi = grid_e.min(axis=0).tolist(), grid_e.max(axis=0).tolist()
        return [list(zip(lo[r], hi[r])) for r in range(n_rows)]
    pooled = [[] for _ in range(n_rows)]
    for flat_idx, roots in enumerate(band_vals):
        pooled[flat_idx % n_rows].extend(roots)
    lo, hi = spec.omega_window
    ragged_gap = max(10.0 * spec.tolerances.root_tol_omega,
                     4.0 * (TWO_PI / k_points) * max(1.0, (hi - lo) / np.pi))
    ranges = [[] for _ in pooled]
    for out, samples in zip(ranges, pooled):
        for v in sorted(samples):
            if out and v - out[-1][1] <= ragged_gap:
                out[-1] = (out[-1][0], v)
            else:
                out.append((v, v))
    return ranges


def exclusion_set(spec, codim, grids=None, branches=None):
    """Omega intervals where the level-`codim` dispersion is not evaluated.

    Per remaining-coordinate node: the per-band [min, max] of the bulk
    dispersion over the integrated axes, unioned with the image
    (`_branch_image`) over the axes between of each lower branch on the
    `grids` k grid, which `branches` must hold (`InputError` otherwise).
    """
    grids = grids or GridConfig(k_points=spec.tolerances.k_grid_base)
    branches = branches or {}
    if any(c < codim and c not in branches for c in spec.present_codims):
        raise InputError(f"level {codim} needs every lower level's branch")
    n_dim, n = spec.lattice_dim, grids.k_points
    t_mesh = full_mesh(n_dim - codim, n)
    per_node = _band_ranges(spec, node_mesh((4 if n_dim <= 2 else 2) * n,
                                            codim, t_mesh), n)
    for lower in [c for c in branches if c < codim]:
        rows, los, his = _branch_image(branches[lower], n, codim - lower)
        for t, lo, hi in zip(rows.tolist(), los.tolist(), his.tolist()):
            per_node[t].append((lo, hi))
    return ExclusionSet(t_mesh, [merge_intervals(ivs) for ivs in per_node])


def _branch_image(branch, n, moved):
    """The omega segments a branch covers as its rows move along their
    first `moved` axes of the periodic n-point k grid, as arrays of each
    segment's row number over the other axes (as in `full_mesh`), lo, hi.
    Roots link to the roots of the neighbour rows, gap by gap (`counts`):
    two gaps that overlap each other only, both with roots, by crossing
    index, the larger count by its contiguous run that moves least (roots
    leave a gap only through its ends) and its other roots to their gap's
    edge on their side.  Any other root links to its gap's nearer edge."""
    if not branch.counts:
        return np.zeros((3, 0))
    k, lo, hi, _, m = zip(*branch.counts)
    lo, hi, m = np.array(lo), np.array(hi), np.array(m)
    x = np.array([w for _, w, _ in branch.samples])
    gap, first = np.repeat(np.arange(len(m)), m), np.cumsum(m) - m
    k = np.fromiter((t for tail in k for t in tail), float).reshape(len(m), -1)
    digits = np.rint((k + np.pi) * (n / TWO_PI)).astype(int) % n
    strides = n ** np.arange(k.shape[1])[::-1]
    row = digits @ strides
    # (row, gap edge) as integers that sort alike, a hi before an equal lo;
    # rows come in order, each row's gaps disjoint and ascending
    key = np.argsort(np.argsort(np.concatenate([hi, lo]), kind="stable"))
    key_hi, key_lo = key.reshape(2, -1) + row * len(key)
    segments, edge = [], np.zeros(len(m), dtype=bool)
    for digit, stride in zip(digits.T[:moved], strides * len(key)):
        # gap g overlaps gaps start[g]..end[g] - 1 of the next row along the
        # axis, and over[g] gaps of the row before
        shift = ((digit + 1) % n - digit) * stride
        start = np.searchsorted(key_hi, key_lo + shift, "right")
        end = np.searchsorted(key_lo, key_hi + shift)
        over = np.cumsum(np.bincount(start, minlength=len(m) + 1)
                         - np.bincount(end, minlength=len(m) + 1))
        up = np.minimum(start, len(m) - 1)
        linked = (end - start == 1) & (over[up] == 1) & (m * m[up] > 0)
        edge |= ~linked | (np.bincount(up[linked], minlength=len(m)) == 0)
        same = linked & (m[up] == m)
        r = np.flatnonzero(same[gap])
        y = x[r + (first[up] - first)[gap[r]]]
        segments.append((gap[r], np.minimum(x[r], y), np.maximum(x[r], y)))
        for g in np.flatnonzero(linked & ~same):
            g, h = sorted((g, up[g]), key=lambda i: -m[i])
            a, b = (x[first[i]:first[i] + m[i]].tolist() for i in (g, h))
            s = min(range(len(a) - len(b) + 1), key=lambda s: sum(
                abs(u - v) for u, v in zip(a[s:], b)))
            b = [lo[g]] * s + b + [hi[g]] * (len(a) - s - len(b))
            segments.append(([g] * len(a), *np.sort([a, b], axis=0)))
    r = np.flatnonzero(edge[gap])
    low = x[r] - lo[gap[r]] <= hi[gap[r]] - x[r]
    segments.append((gap[r], np.where(low, lo[gap[r]], x[r]),
                     np.where(low, x[r], hi[gap[r]])))
    gaps, los, his = (np.concatenate(part) for part in zip(*segments))
    return row[gaps] % strides[moved - 1], los, his


# ---------------------------------------------------------------------------
# dispersion branches of defect levels


@dataclass
class Branch:
    codim: int
    samples: list      # (k_tail tuple, omega, annotation), in gap order
    #: gap edges and search steps left out because their bracket did not
    #: converge: (k_tail tuple, omega, n_reached, witness_sigma_min)
    skipped: list = field(default_factory=list)
    #: per row and gap: (k_tail tuple, lo, hi, roots counted at the edges,
    #: None where the gap could not be counted, roots found)
    counts: list = field(default_factory=list)
    #: (omega, row) cells evaluated at gap edges and in the search, under
    #: "edges" and "search", and gaps solved in closed form, under "closed"
    cells: dict = field(default_factory=dict)


def _gaps(window, intervals, guard):
    """The gaps of one row: the omega window less its merged exclusion
    intervals dilated by `guard`, as closed (lo, hi) pairs with lo < hi."""
    out, start = [], window[0]
    for lo, hi in intervals:
        end = min(lo - guard, window[1])
        if end > start:
            out.append((start, end))
        start = max(start, hi + guard)
    if window[1] > start:
        out.append((start, window[1]))
    return out


def _slope(powers, omega, tabs):
    """d/domega of sum_p omega^p tabs_p: the omega slope of a family with
    the omega powers `powers`, from its term values `tabs`."""
    return sum((p * omega ** (p - 1) * t for p, t in zip(powers, tabs) if p),
               np.zeros_like(tabs[0]))


def _crossing_factors(a):
    """V, 1/D and D for matrices of the defect symbol A = V D V^H, 1/D and
    D set to 0 on the null space of A (|d| below `_rank_floor(max |d|)`)."""
    d, v = eigh(a)
    rank = np.abs(d) >= _rank_floor(np.abs(d).max(axis=-1, keepdims=True))
    return (v, np.where(rank, 1.0 / np.where(rank, d, 1.0), 0.0),
            np.where(rank, d, 0.0))


def _crossing_eigenvalues(values, v, inv_d):
    """Ascending eigenvalues of the crossing matrices of level values.

    For B = I + G A with A = V D V^H the crossing matrix is
    S = V^H B V D^{-1} = D^{-1} + V^H G V on the range of A, and I on its
    null space, so det B = det D det S and each root of det B is a zero
    eigenvalue of S; S is Hermitian (its Hermitian part is taken).  For
    M = 1 it is Re B / A.  Shapes (cells, M, M), (cells, M, M), (cells, M).
    """
    t = np.matmul(v.conj().swapaxes(-1, -2), np.matmul(values, v))
    on = inv_d != 0
    s = np.where(on[:, :, None] & on[:, None, :], t * inv_d[:, None, :],
                 np.eye(values.shape[-1]))
    return eigvalsh(0.5 * (s + s.conj().swapaxes(-1, -2)))


def _orient(e, sign):
    """Cells' `_Bracket` values times `sign`, the crossing eigenvalues kept
    ascending."""
    m = e.shape[-1] // 2
    out = sign * e
    out[..., :m] = np.sort(out[..., :m], axis=-1)
    return out


def _tallies(e):
    """Per cell of oriented `_Bracket` values: the negative crossing
    eigenvalues and the negative defect eigenvalues, as lists."""
    m = e.shape[-1] // 2
    return ((e[..., :m] < 0).sum(axis=-1).tolist(),
            (e[..., m:] < 0).sum(axis=-1).tolist())


class _Bracket:
    """A piece [a, b] of gap number `gap` that holds na - nb roots.

    ea and eb are the values of its ends, oriented by `sign` (`_orient`):
    per cell the eigenvalues of the crossing matrix S, then the
    eigenvalues D of the defect symbol A, all times `sign`, where
    -sign dT/domega is positive definite on the piece.  The count of an
    end, na or nb, is its negative S values less its negative D values:
    for sign = 1, nu(S) - nu(A), which by Haynsworth inertia additivity is
    pi(C) - pi(G) for the Schur complement C = G^{-1} + A, decreasing in
    omega, so it falls by one at each root and does not jump where A or G
    is singular; for sign = -1, pi(S) - pi(A) = nu(C) - nu(G).  The
    crossing eigenvalue of a piece with one root is the one at index sb,
    the negative S values at b; while the negative D values da and db of
    the ends differ, S has a pole inside and the piece is bisected."""

    def __init__(self, gap, a, b, ea, eb, sign=1.0):
        self.gap, self.a, self.b, self.sign = gap, a, b, sign
        self.ea, self.eb = ea, eb
        (sa, self.sb), (self.da, self.db) = _tallies(np.stack([ea, eb]))
        self.na, self.nb = sa - self.da, self.sb - self.db
        self.weight = [1.0, 1.0]    # Anderson-Bjorck factors of the end values
        self.moved = None           # the end the last update moved
        self.before = None          # the width before the last update
        self.bisect = self.na - self.nb != 1 or self.da != self.db

    def probe(self, tol_omega):
        """The next omega: the midpoint while the piece holds more than one
        root, has a pole of S or had two updates in a row that did not
        halve it, else the regula falsi point of the crossing eigenvalue
        with its end values weighted, kept tol_omega / 2 inside the ends."""
        if self.bisect:
            return 0.5 * (self.a + self.b)
        fa = self.weight[0] * self.ea[self.sb]
        fb = self.weight[1] * self.eb[self.sb]
        x = (self.a * fb - self.b * fa) / (fb - fa)
        return min(max(x, self.a + 0.5 * tol_omega), self.b - 0.5 * tol_omega)

    def root(self):
        """The root of a piece narrowed to tol_omega: the secant root of its
        crossing eigenvalue's end values when it holds one root and no
        pole, else its midpoint."""
        if self.na - self.nb != 1 or self.da != self.db:
            return 0.5 * (self.a + self.b)
        fa, fb = self.ea[self.sb], self.eb[self.sb]
        return (self.a * fb - self.b * fa) / (fb - fa)

    def split(self, x, ex, s, d):
        """The pieces at x, where the oriented values are ex, with s
        negative S values and d negative D values and a count s - d between
        nb and na, that hold roots."""
        if self.na - self.nb > 1:
            return [p for p in (
                _Bracket(self.gap, self.a, x, self.ea, ex, self.sign),
                _Bracket(self.gap, x, self.b, ex, self.eb, self.sign))
                if p.na > p.nb]
        width, bisected, i = self.b - self.a, self.bisect, self.sb
        end = 0 if s - d == self.na else 1
        old = self.ea[i] if end == 0 else self.eb[i]
        if end == 0:
            self.a, self.ea, self.da = x, ex, d
        else:
            self.b, self.eb, self.sb, self.db = x, ex, s, d
        self.weight[end] = 1.0
        self.bisect = False
        if not bisected:
            # Anderson-Bjorck: the value of an end kept through two updates
            # in a row is scaled by 1 - f(x) / f(moved end), or halved
            if self.moved == end:
                m = 1.0 - ex[i] / old
                self.weight[1 - end] *= m if m > 0 else 0.5
            self.moved = end
            self.bisect = (self.before is not None
                           and self.b - self.a > 0.5 * self.before)
            self.before = None if self.bisect else width
        self.bisect = self.bisect or self.da != self.db
        return [self]


def _search(pieces, evaluate, tol_omega):
    """Refine `_Bracket` pieces in lockstep, one call of
    `evaluate(omegas, gaps)` per step over every live piece, until each is
    at most tol_omega wide; its root is then `_Bracket.root` (once, if it
    still holds more than one).  `evaluate` gives the values at (omegas[i],
    the row of gap gaps[i]), NaN where a bracket does not converge, which
    ends that piece; a probe whose count lies outside [nb, na] loses its
    gap.  Returns the (gap, root) pairs of the gaps not lost, and the lost
    gaps."""
    roots, lost = [], set()
    while True:
        live = [p for p in pieces if p.gap not in lost]
        roots += [(p.gap, p.root()) for p in live if p.b - p.a <= tol_omega]
        live = [p for p in live if p.b - p.a > tol_omega]
        if not live:
            return [(g, x) for g, x in roots if g not in lost], lost
        x = np.array([p.probe(tol_omega) for p in live])
        values = _orient(evaluate(x, np.array([p.gap for p in live])),
                         np.array([p.sign for p in live])[:, None])
        failed = np.isnan(values).any(axis=1).tolist()
        pieces = []
        for p, xp, ex, bad, s, d in zip(live, x, values, failed,
                                        *_tallies(values)):
            if bad or p.gap in lost:
                continue
            if p.nb <= s - d <= p.na:
                pieces += p.split(xp, ex, s, d)
            else:
                lost.add(p.gap)


def _count_roots(table, gaps, crossing, tol_omega):
    """Count the roots in each gap (row, lo, hi) at its edges, then find them.

    `crossing(omegas, rows, kind, pins=None)` gives the `_Bracket` values
    of (omega, row) cells, NaN where a bracket does not converge.  A gap is
    cut into pieces at omega = 0 when the bulk is quadratic in omega, where
    the slope of a squared-frequency bulk H(k) - omega^2 vanishes.  One
    call evaluates the edges of every piece of every gap.  Each piece is
    oriented by `_GreenTable.piece_sign` at the larger n its two edges
    reached (none on a closed-form table, which pins no n and comes here
    only with an omega-dependent defect, else `_closed_roots` solves its
    gaps), and holds the drop of its count between its edges.  A gap is
    left uncounted when an edge does not converge, when `piece_sign`
    refuses a piece, when a count is negative, or when `_search` loses it.
    `_search` bisects a piece with more than one root on the counts, and
    steps a piece with one root by Anderson-Bjorck regula falsi on its
    crossing eigenvalue, or by bisection after two such steps in a row that
    did not halve it.  Returns per gap its count, its roots and None, or
    for an uncounted gap None, no roots and the reason.
    """
    splits = (0.0,) if table.spec.bulk.max_power == 2 else ()
    points = [[lo, *(s for s in splits if lo < s < hi), hi]
              for _, lo, hi in gaps]
    gap_rows = np.array([r for r, _, _ in gaps], dtype=int)
    edges = np.array([w for p in points for w in p])
    pins = [{} for _ in edges]
    lam = crossing(edges, np.repeat(gap_rows, [len(p) for p in points]),
                   "edges", pins)
    counts, why, pieces = [0] * len(gaps), [None] * len(gaps), []
    start = 0
    for g, p in enumerate(points):
        held = []
        for e in range(start, start + len(p) - 1):
            if np.isnan(lam[e]).any() or np.isnan(lam[e + 1]).any():
                why[g] = "an edge did not converge"
                break
            n = max(p.get(table.level, 0) for p in pins[e:e + 2])
            sign, why[g] = table.piece_sign(n, gaps[g][0], edges[e:e + 2])
            if why[g]:
                break
            piece = _Bracket(g, edges[e], edges[e + 1],
                             *_orient(lam[e:e + 2], sign), sign)
            if piece.na < piece.nb:
                why[g] = "its count is negative"
                break
            counts[g] += piece.na - piece.nb
            held += [piece] if piece.na > piece.nb else []
        start += len(p)
        if why[g]:
            counts[g] = None
        else:
            pieces += held
    found, lost = _search(
        pieces, lambda x, g: crossing(x, gap_rows[g], "search"), tol_omega)
    roots = [[] for _ in gaps]
    for g, x in found:
        roots[g].append(x)
    for g in lost:
        counts[g], why[g] = None, "a search probe left the count range"
    return counts, roots, why


def _closed_roots(table, gaps, a):
    """Count and find the roots in each gap (row, lo, hi) of a closed-form
    table, whose defect term `a` (per table row, shape (rows, 1, 1)) does
    not depend on omega, with no bracket evaluated.

    A cell's value is 1 + sqrt(2 pi) G A (`_GreenTable._closed_form`), and
    G = sign(h_0 - omega) / sqrt((h_0 - omega)^2 - 4 h_1^2) rises strictly
    on each side of the row's band [h_0 - 2|h_1|, h_0 + 2|h_1|] (h_0 and
    |h_1| from `_row_band`).  So the row has the one root
        omega* = h_0 + sign(A) sqrt(4 h_1^2 + 2 pi A^2)
    outside its band when A != 0; when A = 0, omega* = h_0 lies in the
    band.  A gap holds omega* when lo < omega* < hi.  As in `piece_sign`, a
    gap that meets its row's band, here within `_rank_floor(|h_0| + 2|h_1|)`
    of it, is left uncounted.  Returns what `_count_roots` returns.
    """
    rows = np.array([r for r, _, _ in gaps], dtype=int)
    lo, hi = np.array([g[1:] for g in gaps], dtype=float).reshape(-1, 2).T
    h0, h1 = table._row_band(rows)
    a = a[rows, 0, 0].real
    root = h0 + np.sign(a) * np.sqrt(4.0 * h1 ** 2 + TWO_PI * a ** 2)
    apart = np.maximum(h0 - 2.0 * h1 - hi, lo - h0 - 2.0 * h1)
    banded = apart < _rank_floor(np.abs(h0) + 2.0 * h1)
    held = (lo < root) & (root < hi) & ~banded
    return ([None if b else int(h) for b, h in zip(banded, held)],
            [[float(x)] if h else [] for x, h in zip(root, held)],
            ["a bulk band lies inside it" if b else None for b in banded])


def dispersion_branch(spec, codim, grids=None, branches=None):
    """Roots of det B_codim in the gaps of each node of
    `exclusion_set(spec, codim, grids, branches)`, which gives the k rows
    and their intervals; a row's gaps are the spec's window less its
    exclusion intervals dilated by band_guard.  Samples are in gap order.

    The spec must be self-adjoint (`InputError` otherwise).  Each gap is
    the unit of work.  On a closed-form level whose defect does not depend
    on omega, `_closed_roots` solves each row's one root exactly, with no
    cell evaluated, and `Branch.cells["closed"]` counts the gaps.  On every
    other level `_count_roots` counts a gap's roots at its edges and
    searches for them, to root_tol_omega.  A gap that cannot be counted
    holds no samples.  Every root lies band_guard or more from the
    exclusion set, so each sample is annotated "ok".  Cells whose bracket
    does not converge, at a gap edge or in the search, are recorded in
    `Branch.skipped`, and a root whose search meets one is not reported;
    one warning reports them, each gap left uncounted and why, and every
    gap where fewer roots were found than counted.

    Every evaluation goes through the `_converge` of one `_GreenTable` built
    for this call, whatever the bulk: the gap edges in one call and each
    search step in one call, with one group per cell.  The crossing
    matrices take the factors A = V D V^H of the defect symbol at each
    cell's omega.  With lower defect levels inside the bracket (the point
    level of a line+point model) that table's own lower tables serve the
    whole call; each group pins their n afresh, and a lower level's
    `NonConvergence` fails that group's cells.
    """
    if not spec.is_self_adjoint():
        raise InputError("dispersion roots are counted on self-adjoint "
                         "specs only; the bulk and defect families must be "
                         "Hermitian")
    if spec.defect_by_codim(codim) is None:
        return Branch(codim=codim, samples=[])
    grids = grids or GridConfig(k_points=spec.tolerances.k_grid_base)
    tol = spec.tolerances
    exclusion = exclusion_set(spec, codim, grids, branches)

    t_mesh = exclusion.nodes
    gaps = [(r, lo, hi) for r, ivs in enumerate(exclusion.intervals)
            for lo, hi in _gaps(spec.omega_window, ivs, tol.band_guard)]
    table = _GreenTable(spec, codim, t_mesh)
    symbol = spec.defect_by_codim(codim).symbol
    tabs = table.defect_terms()
    m_sz = spec.cell_size
    skipped = []
    cells = dict.fromkeys(("edges", "search", "closed"), 0)

    def crossing(omegas, rows, kind, pins=None):
        """The `_Bracket` values of (omega, t_mesh row) cells, one group
        each; a cell that does not converge is NaN and recorded on
        `skipped`."""
        outs = table._converge(omegas, np.asarray(rows)[:, None], pins)
        cells[kind] += len(outs)
        values = np.full((len(outs), m_sz, m_sz), np.nan, dtype=complex)
        for i, (omega, row, out) in enumerate(zip(omegas, rows, outs)):
            if isinstance(out, NonConvergence):
                skipped.append((tuple(t_mesh[row]), float(omega),
                                out.n_reached, out.witness_sigma_min))
            else:
                values[i] = out[0]
        done = ~np.isnan(values[:, 0, 0])
        w = np.asarray(omegas, dtype=complex)[done, None, None]
        v, inv_d, d = _crossing_factors(sum(
            w ** p * t[rows[done]] if p else t[rows[done]]
            for p, t in zip(symbol.terms, tabs)))
        lam = np.full((len(outs), 2 * m_sz), np.nan)
        lam[done, :m_sz] = _crossing_eigenvalues(values[done], v, inv_d)
        lam[done, m_sz:] = d
        return lam

    if table._closed and symbol.max_power == 0:
        cells["closed"] = len(gaps)
        counts, roots, why = _closed_roots(table, gaps, tabs[0])
    else:
        counts, roots, why = _count_roots(table, gaps, crossing,
                                          tol.root_tol_omega)
    samples, counted = [], []
    for (r, lo, hi), c, found in zip(gaps, counts, roots):
        samples += [(tuple(t_mesh[r]), float(x), "ok") for x in sorted(found)]
        counted.append((tuple(t_mesh[r]), float(lo), float(hi), c,
                        len(found)))
    notes = []
    if skipped:
        notes.append(f"cells that did not converge: {len(skipped)} (see "
                     "Branch.skipped)")
    uncounted = [f"k={k} [{lo:.6g}, {hi:.6g}] ({w})"
                 for (k, lo, hi, _, _), w in zip(counted, why) if w]
    if uncounted:
        notes.append("gaps not counted, so not searched: "
                     + ", ".join(uncounted))
    short = [f"k={k} [{lo:.6g}, {hi:.6g}] ({f} of {c})"
             for k, lo, hi, c, f in counted if c is not None and f < c]
    if short:
        notes.append("fewer roots found than counted in " + ", ".join(short))
    if notes:
        logger.warning("level %d: %s", codim, "; ".join(notes))
    return Branch(codim=codim, samples=samples, skipped=skipped,
                  counts=counted, cells=cells)


# ---------------------------------------------------------------------------
# the assembled spectrum


@dataclass
class OmegaComponent:
    kind: str        # "band_interval" | "branch_interval" | "isolated_point"
    codim: int
    lo: float
    hi: float


@dataclass
class SpectralResult:
    components: list
    branches: dict
    probe_report: dict

    @property
    def omega_intervals(self):
        """The spectrum as a merged union of closed intervals."""
        return merge_intervals([(c.lo, c.hi) for c in self.components])

    def contains(self, omega, dilate=0.0):
        return point_in_intervals(omega, self.omega_intervals, dilate)


def _branch_components(spec, branch, k_points):
    """A branch's points at the final level, else its image's intervals."""
    if branch.codim == spec.lattice_dim:
        return [OmegaComponent("isolated_point", branch.codim, omega, omega)
                for _, omega, _ in branch.samples]
    _, los, his = _branch_image(branch, k_points,
                                spec.lattice_dim - branch.codim)
    return [OmegaComponent("branch_interval", branch.codim, lo, hi)
            for lo, hi in merge_intervals(zip(los.tolist(), his.tolist()))]


def full_spectrum(spec, grids=None, n_probes=32):
    """Bands, every present defect branch, and the assembled spectrum over
    the spec's omega window.

    Each level is searched outside the images of the levels below; the
    spectrum is the bands and every branch's image.  Then tests
    membership at `n_probes` uniform probe frequencies seeded with
    PROBE_SEED, all stepped up the levels together (`_memberships`), and
    records agreement with the assembled set (inconclusive verdicts are
    listed, not counted as disagreements).
    """
    if n_probes < 0:
        raise InputError(f"probe count must be >= 0, got {n_probes}")
    grids = grids or GridConfig(k_points=spec.tolerances.k_grid_base)
    window = spec.omega_window

    n_dim = spec.lattice_dim
    refine = 4 if n_dim <= 2 else 1
    ranges, = _band_ranges(spec, node_mesh(refine * grids.k_points, n_dim,
                                           np.zeros((1, 0))), grids.k_points)
    components = [OmegaComponent("band_interval", 0, lo, hi)
                  for lo, hi in ranges]

    branches = {}
    for codim in spec.present_codims:
        br = branches[codim] = dispersion_branch(spec, codim, grids, branches)
        components.extend(_branch_components(spec, br, grids.k_points))

    clipped = []
    for c in components:
        lo, hi = max(c.lo, window[0]), min(c.hi, window[1])
        if hi >= lo:
            clipped.append(OmegaComponent(c.kind, c.codim, lo, hi))

    result = SpectralResult(components=clipped, branches=branches,
                            probe_report={})
    rng = np.random.default_rng(PROBE_SEED)
    lams = rng.uniform(window[0], window[1], size=int(n_probes)).tolist()
    disagreements, inconclusive = [], []
    for lam, cert in zip(lams, _memberships(spec, lams, grids)):
        if cert.status == "inconclusive":
            inconclusive.append(lam)
            continue
        in_set = result.contains(lam, dilate=spec.tolerances.root_tol_omega)
        if cert.in_spectrum != in_set:
            disagreements.append(
                {"lambda": lam, "membership": cert.status,
                 "in_assembled_set": bool(in_set)})
    result.probe_report = {"n_probes": int(n_probes),
                           "disagreements": disagreements,
                           "inconclusive": inconclusive}
    if disagreements:
        logger.warning("membership/assembly probe disagreements: %r",
                       disagreements)
    return result


# ---------------------------------------------------------------------------
# constructive inverse


def trig_vector(torus_dim, coeffs):
    """Vector-valued trig polynomial sum_n exp(i n.k) v_n as a callable."""
    items = sorted((tuple(int(c) for c in off), np.asarray(v, dtype=complex))
                   for off, v in coeffs.items())

    def fn(k_rows):
        k_rows = np.asarray(k_rows, dtype=float).reshape(-1, torus_dim)
        out = np.zeros((k_rows.shape[0], items[0][1].shape[0]), dtype=complex)
        for off, v in items:
            phase = np.exp(1j * (k_rows @ np.asarray(off, dtype=float)))
            out += phase[:, None] * v
        return out

    return fn


def _grid_tabs(spec, omega, n):
    """Reduced defect symbols and inverse level matrices on one fixed grid.

    Every bracket uses the same n-point trapezoid rule, so the reduction and
    back-substitution below solve the discretized operator exactly.
    `membership` certifies level 0 on this grid from the same B_0 values;
    each level 1..N is certified here, once, before it is inverted.
    """
    n_dim = spec.lattice_dim
    m_sz = spec.cell_size
    tol = spec.tolerances.det_zero_tol
    mesh = _mesh(spec, n_dim, n)
    grid_shape = (n,) * n_dim

    a_tabs = {}
    for layer in spec.defects:
        vals = layer.symbol.combine(omega, _terms(spec, layer.codim, mesh))
        a_tabs[(0, layer.codim)] = vals.reshape(grid_shape + (m_sz, m_sz))

    if _hermitian_linear_fast(spec):
        lam, vec = _stored(spec, ("eigh", n_dim, n),
                           lambda: eigh(spec.bulk.terms[0].eval(mesh)))
        green, bad = lattice_green(lam, vec, omega)
        worst = bad.min()
        if np.isfinite(worst):
            raise SingularMatrix("matrix singular to working precision "
                                 f"(sigma_min={worst:.3e})", worst)
    else:
        green = inverse(spec.bulk.combine(omega, _terms(spec, 0, mesh)))
    inv_tabs = {0: green.reshape(grid_shape + (m_sz, m_sz))}
    eye = np.eye(m_sz, dtype=complex)
    for level in range(1, n_dim + 1):
        for codim in spec.present_codims:
            if codim >= level:
                a_tabs[(level, codim)] = trapezoid_sum(np.matmul(
                    inv_tabs[level - 1], a_tabs[(level - 1, codim)]), n)
        if level in spec.present_codims:
            b_level = eye + a_tabs[(level, level)]
        else:
            b_level = np.broadcast_to(eye, grid_shape[level:] + (m_sz, m_sz))
        b_flat = b_level.reshape(-1, m_sz, m_sz)
        sig = float(smallest_singular_value(b_flat).min())
        if sig <= tol:
            raise UncertifiedLevel(
                f"level {level} is singular on the grid (min sigma "
                f"{sig:.3e}); omega is in or too close to the spectrum")
        inv_tabs[level] = inverse(b_flat).reshape(b_level.shape)
    return mesh, a_tabs, inv_tabs


def forward_apply(spec, omega, f_tab, n):
    """Apply the perturbed operator to a grid-sampled function.

    f_tab has shape (n,)*N + (M,); brackets use the same n-point rule as the
    solver, so forward_apply is the exact discrete adjoint check.
    """
    n_dim = spec.lattice_dim
    m_sz = spec.cell_size
    mesh = _mesh(spec, n_dim, n)
    grid_shape = (n,) * n_dim
    b0 = spec.bulk.combine(omega, _terms(spec, 0, mesh)).reshape(
        grid_shape + (m_sz, m_sz))
    out = np.matmul(b0, f_tab[..., None])[..., 0]
    for layer in spec.defects:
        avg = f_tab
        for _ in range(layer.codim):
            avg = trapezoid_sum(avg, n)
        a_vals = layer.symbol.combine(omega, _terms(spec, layer.codim, mesh)
                                      ).reshape(grid_shape + (m_sz, m_sz))
        out = out + np.matmul(a_vals, np.broadcast_to(
            avg, grid_shape[:layer.codim] + avg.shape)[..., None])[..., 0]
    return out


@dataclass
class ResolventSolution:
    f_tab: np.ndarray
    residual: float
    n: int


def resolvent_apply(spec, omega, g, grids=None):
    """Solve (perturbed operator) f = g at an omega outside the spectrum.

    `g` is a callable mapping (m, N) wavevector rows to (m, M) vectors (see
    `trig_vector`).  The solve reduces the right-hand side level by level
    with the inverse level matrices, solves the final small system, and
    back-substitutes, all on the n = grids.k_points grid.  Returns the
    grid-sampled solution and the relative residual of the forward operator
    applied to it.
    """
    grids = grids or GridConfig(k_points=spec.tolerances.k_grid_base)
    n = int(grids.k_points)
    n_dim = spec.lattice_dim
    m_sz = spec.cell_size
    omega = float(omega)

    cert = membership(spec, omega, grids)
    if cert.status != "out":
        raise UncertifiedLevel(
            f"omega={omega!r} is in or unresolvably close to the spectrum "
            f"(membership: {cert.status}"
            + (f", step {cert.detected_at_step}" if cert.in_spectrum else "")
            + ")")
    mesh, a_tabs, inv_tabs = _grid_tabs(spec, omega, n)
    grid_shape = (n,) * n_dim
    g_tab = np.asarray(g(mesh), dtype=complex).reshape(grid_shape + (m_sz,))

    g_levels = {0: g_tab}
    for level in range(1, n_dim + 1):
        g_levels[level] = trapezoid_sum(np.matmul(
            inv_tabs[level - 1], g_levels[level - 1][..., None])[..., 0], n)

    u = {n_dim: np.matmul(inv_tabs[n_dim], g_levels[n_dim][..., None])[..., 0]}
    for level in range(n_dim - 1, -1, -1):
        rhs = g_levels[level].copy()
        for codim in spec.present_codims:
            if codim <= level:
                continue
            u_b = u[codim].reshape((1,) * (codim - level) + u[codim].shape)
            rhs = rhs - np.matmul(
                a_tabs[(level, codim)],
                np.broadcast_to(u_b, grid_shape[level:codim] + u[codim].shape)[..., None])[..., 0]
        u[level] = np.matmul(inv_tabs[level], rhs[..., None])[..., 0]

    f_tab = u[0]
    applied = forward_apply(spec, omega, f_tab, n)
    cell = (TWO_PI / n) ** n_dim
    num = np.sqrt(cell * np.sum(np.abs(applied - g_tab) ** 2))
    den = np.sqrt(cell * np.sum(np.abs(g_tab) ** 2))
    residual = float(num / den) if den > 0 else float(num)
    return ResolventSolution(f_tab=f_tab, residual=residual, n=n)
