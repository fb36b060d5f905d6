"""Matrix-valued trigonometric polynomials on the torus.

A periodic hopping operator on a lattice with an M-site unit cell becomes,
after the Floquet transform, multiplication by an M x M matrix function

    A(k) = sum_n  exp(i n.k) A^(n),      k in [-pi, pi]^d,

with finitely many integer offsets n.  This module holds that representation
(`TrigMatrixPolynomial`), polynomial-in-omega families of it (`OmegaSymbol`),
and the small dense complex linear algebra the rest of the package needs.
For a one-site cell (M = 1) `det`, `smallest_singular_value`, the rank
guard of `inverse`, `eigh` and `eigvalsh` read the bare entry instead of
calling LAPACK, with the bits LAPACK's own 1 x 1 rules give.

Matrices are plain complex ndarrays; everything here is pure and safe to call
from any number of threads.
"""

import numpy as np

TWO_PI = 2.0 * np.pi

#: relative tolerance for "is Hermitian" checks
HERMITIAN_TOL = 1e-12

#: highest omega power accepted in an OmegaSymbol (covers the eigenvalue
#: shift, power 1, and squared-frequency mass terms, power 2)
MAX_OMEGA_POWER = 2


class InputError(ValueError):
    """Malformed argument: dimension mismatch, bad offset, unsupported power."""


class SingularMatrix(Exception):
    """Inversion of a numerically rank-deficient matrix was requested.

    Attributes
    ----------
    min_sigma : float
        Smallest singular value of the offending matrix.
    """

    def __init__(self, message, min_sigma):
        super().__init__(message)
        self.min_sigma = float(min_sigma)


def as_complex_matrix(entries):
    """Coerce to a square complex matrix, validating shape."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(a, tol=HERMITIAN_TOL):
    """True when max |a - a^H| <= tol * max(1, |a|) for every matrix of the
    stack a (..., n, n), each against its own scale."""
    a = np.asarray(a)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    skew = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), axis=(-2, -1),
                  initial=0.0)
    return bool(np.all(skew <= tol * scale))


class TrigMatrixPolynomial:
    """Finite Fourier series of square complex matrices over a d-torus.

    Parameters
    ----------
    torus_dim : int
        Number of wavevector components d.
    coeffs : mapping
        Integer offset tuple of length d -> (M, M) array-like.  All matrices
        must share M.  Treat instances as immutable after construction.
    """

    def __init__(self, torus_dim, coeffs):
        torus_dim = int(torus_dim)
        if torus_dim < 0:
            raise InputError("torus_dim must be >= 0")
        items = []
        dim = None
        seen = set()
        for offset, mat in coeffs.items():
            off = tuple(int(c) for c in np.atleast_1d(np.asarray(offset, dtype=int)).ravel()) \
                if not isinstance(offset, tuple) else tuple(int(c) for c in offset)
            if len(off) != torus_dim:
                raise InputError(
                    f"offset {off} has length {len(off)}, torus_dim is {torus_dim}")
            if off in seen:
                raise InputError(f"duplicate offset {off}")
            seen.add(off)
            m = as_complex_matrix(mat)
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise InputError("all coefficient matrices must share one size")
            m = m.copy()
            m.flags.writeable = False
            items.append((off, m))
        if dim is None:
            raise InputError("a trig polynomial needs at least one coefficient")
        items.sort(key=lambda it: it[0])  # canonical lexicographic order
        self.torus_dim = torus_dim
        self.dim = dim
        self._items = tuple(items)
        self._lookup = {off: m for off, m in items}
        self._hermitian = all(
            np.allclose(self._lookup.get(tuple(-c for c in off), np.zeros_like(m)),
                        m.conj().T, rtol=0.0,
                        atol=HERMITIAN_TOL * max(1.0, float(np.max(np.abs(m)))))
            for off, m in items)

    @property
    def offsets(self):
        return tuple(off for off, _ in self._items)

    def coeff(self, offset):
        """Coefficient matrix at `offset`, zero matrix if absent."""
        off = tuple(int(c) for c in offset)
        m = self._lookup.get(off)
        if m is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return m

    def items(self):
        return self._items

    def is_hermitian_family(self):
        """True when the coefficient at -n is the conjugate transpose at n.

        This makes eval(k) Hermitian for every real k.  Decided once, when
        the instance is built.
        """
        return self._hermitian

    def eval(self, k):
        """Evaluate sum_n exp(i n.k) A^(n).

        Parameters
        ----------
        k : array_like
            Shape (torus_dim,) for a single point or (..., torus_dim) for a
            batch.

        Returns
        -------
        ndarray, shape (M, M) or (..., M, M)
        """
        k = np.asarray(k, dtype=float)
        single = (k.ndim == 1)
        if k.shape[-1] != self.torus_dim and not (self.torus_dim == 0 and k.size == 0):
            raise InputError(
                f"k has {k.shape[-1] if k.ndim else 0} components, expected {self.torus_dim}")
        if self.torus_dim == 0:
            base = self._lookup[()]
            if single or k.ndim == 0:
                return base.copy()
            out = np.broadcast_to(base, k.shape[:-1] + base.shape).copy()
            return out
        if single:
            k = k[None, :]
        out = np.zeros(k.shape[:-1] + (self.dim, self.dim), dtype=complex)
        for off, m in self._items:  # fixed canonical order
            phase = np.exp(1j * (k @ np.asarray(off, dtype=float)))
            out += phase[..., None, None] * m
        return out[0] if single else out

    def __repr__(self):
        return (f"TrigMatrixPolynomial(torus_dim={self.torus_dim}, "
                f"dim={self.dim}, n_coeffs={len(self._items)})")


class OmegaSymbol:
    """Polynomial-in-omega family of trig matrix polynomials.

    eval(omega, k) = sum_p omega^p * term_p(k).  Powers above
    ``MAX_OMEGA_POWER`` are rejected.  `tabulate` and `combine` split eval
    into the omega-free term values and their omega weights.
    """

    def __init__(self, terms):
        cleaned = {}
        for p, poly in terms.items():
            p = int(p)
            if p < 0:
                raise InputError("omega powers must be nonnegative")
            if p > MAX_OMEGA_POWER:
                raise InputError(
                    f"omega power {p} unsupported (max {MAX_OMEGA_POWER}); "
                    "rewrite the model in shift or squared-frequency form")
            if not isinstance(poly, TrigMatrixPolynomial):
                raise InputError("terms must be TrigMatrixPolynomial instances")
            cleaned[p] = poly
        if not cleaned:
            raise InputError("an OmegaSymbol needs at least one term")
        dims = {poly.dim for poly in cleaned.values()}
        tds = {poly.torus_dim for poly in cleaned.values()}
        if len(dims) != 1 or len(tds) != 1:
            raise InputError("all terms must share matrix size and torus_dim")
        self.terms = dict(sorted(cleaned.items()))
        self.dim = dims.pop()
        self.torus_dim = tds.pop()
        self.max_power = max(self.terms)
        self._hermitian = all(poly.is_hermitian_family()
                              for poly in self.terms.values())
        shift = self.terms.get(1)
        zero = (0,) * self.torus_dim
        self._eigenvalue_form = (
            self.max_power == 1 and shift.offsets == (zero,)
            and bool(np.allclose(shift.coeff(zero), -np.eye(self.dim),
                                 rtol=0.0, atol=1e-12)))

    def is_hermitian_family(self):
        return self._hermitian

    def is_eigenvalue_form(self):
        """True for H(k) - omega*I: linear in omega, power-1 term exactly -I.

        "Exactly" means every entry within an absolute 1e-12, with no
        relative slack: -(1 + 5e-6)*omega is not eigenvalue form.  Decided
        once, when the instance is built.
        """
        return self._eigenvalue_form

    def tabulate(self, k):
        """The term values term_p(k), one array per power in `terms` order,
        each shaped as poly.eval's.  They do not depend on omega: a caller
        that keeps them evaluates the family at any omega with `combine`."""
        return tuple(poly.eval(k) for poly in self.terms.values())

    def combine(self, omega, tabs):
        """sum_p omega^p tabs_p for the `tabulate` output `tabs`.

        This is `eval` without the Fourier sums, with its bits.  A family
        with the power-0 term alone returns tabs[0] itself, not a copy.
        """
        out = None
        for p, term in zip(self.terms, tabs):
            piece = (complex(omega) ** p) * term if p else term
            out = piece if out is None else out + piece
        return out

    def eval(self, omega, k):
        """sum_p omega^p term_p(k); same shape conventions as poly.eval."""
        return self.combine(omega, self.tabulate(k))

    def __repr__(self):
        return (f"OmegaSymbol(powers={tuple(self.terms)}, dim={self.dim}, "
                f"torus_dim={self.torus_dim})")


# ----------------------------------------------------------------------------
# operation surface


def det(a):
    """Determinant (LU with partial pivoting; the bare entry for M = 1).

    Accepts a single matrix or a batch (..., M, M).
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-1] == 1:
        return a[..., 0, 0].copy()
    return np.linalg.det(a)


def _singular_extremes(a):
    """(sigma_max, sigma_min) of a complex batch (..., M, M).

    For M = 1 with every entry finite, both are the modulus of the bare
    entry, computed as LAPACK's SVD computes it: its Householder step takes
    the norm with `dlapy3`, w * sqrt((x/w)^2 + (y/w)^2) with x, y = |Re a|,
    |Im a| and w = max(x, y), so the result is the SVD's bit for bit
    (`np.abs`, a hypot, differs by up to 2 ulp on about 4% of random complex
    entries).  Any other batch, a NaN or infinite entry included, goes
    through `np.linalg.svd`, which raises `LinAlgError` on NaN.
    """
    if a.shape[-1] == 1 and np.isfinite(a).all():
        x, y = np.abs(a.real[..., 0, 0]), np.abs(a.imag[..., 0, 0])
        w = np.maximum(x, y)
        scale = np.where(w > 0, w, 1.0)
        s = w * np.sqrt((x / scale) ** 2 + (y / scale) ** 2)
        return s, s
    s = np.linalg.svd(a, compute_uv=False)
    return s[..., 0], s[..., -1]


def smallest_singular_value(a):
    """sigma_min, batched over leading axes; |a| for M = 1.

    The M = 1 rule needs no LAPACK call and returns the SVD's value bit for
    bit (see `_singular_extremes`); a NaN entry raises `LinAlgError` either
    way, so a NaN never reads as "not singular".
    """
    return _singular_extremes(np.asarray(a, dtype=complex))[1]


def eigh(a):
    """Eigenvalues and eigenvectors of a Hermitian batch (..., M, M).

    For M = 1 the pair is (Re a, 1) without a LAPACK call.  That is LAPACK
    `zheevd`'s own N = 1 rule (W(1) = DBLE(A(1,1)), Z = 1), so the result is
    `np.linalg.eigh`'s bit for bit, values, vectors and dtypes; any other M
    calls it.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-1] == 1:
        return eigvalsh(a), np.ones_like(a)
    return np.linalg.eigh(a)


def eigvalsh(a):
    """Eigenvalues of a Hermitian batch (..., M, M), ascending.

    For M = 1 they are Re a without a LAPACK call, `zheevd`'s N = 1 rule as
    in `eigh`, so the result is `np.linalg.eigvalsh`'s bit for bit; any
    other M calls it.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-1] == 1:
        return a.real[..., 0].copy()
    return np.linalg.eigvalsh(a)


def inverse(a):
    """Matrix inverse with a rank-deficiency guard.

    The guard's singular values come from `_singular_extremes`, so for
    M = 1 from the bare entry; the inverse itself is always `np.linalg.inv`.

    Raises
    ------
    SingularMatrix
        When sigma_min < 64 * eps * sigma_max for some matrix in the batch,
        carrying the offending smallest singular value.
    numpy.linalg.LinAlgError
        When an entry is NaN.
    """
    a = np.asarray(a, dtype=complex)
    s_max, s_min = _singular_extremes(a)
    floor = 64.0 * np.finfo(float).eps * np.maximum(s_max, 1e-300)
    bad = s_min < floor
    if np.any(bad):
        worst = float(np.min(s_min[bad] if s_min.ndim else s_min))
        raise SingularMatrix(
            f"matrix singular to working precision (sigma_min={worst:.3e})", worst)
    return np.linalg.inv(a)
