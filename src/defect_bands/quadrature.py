"""Nodes and the scaled trapezoid sum of the sub-torus average.

The sublattice average of f over the leading j axes is

    <f>_{1..j} = (2*pi)^(-j/2) * integral over [-pi,pi]^j of f dk_{1..j}

(a scaled integral: the bracket of a constant C over one axis is
sqrt(2*pi)*C, not C).  The level brackets factor into one axis per level,
P_j = <B_{j-1}^{-1} P_{j-1}>_j (`spectrum._GreenTable`), so each sum runs
over one axis: the periodic trapezoid rule on the nodes
k_l = -pi + 2*pi*l/n, exact for trig polynomials below the grid Nyquist
degree and exponentially convergent, at its own rate per axis, for
analytic periodic integrands; callers double n on that axis until the
result stops moving.  No level-1 bracket is a sum: it is the exact residue
the sums converge to, and the fixed-grid resolvent solve sums every
level at one n.  Each sum is pairwise over the
nodes in order, whatever the layout of its input and the rows batched
with it, so results are reproducible bit for bit.
"""

import numpy as np

from .symbol import TWO_PI, InputError


class NonConvergence(RuntimeError):
    """Adaptive refinement hit its node budget without meeting tolerance.

    Signals a (near-)singular integrand, i.e. omega too close to the
    exclusion set of a lower level.

    Attributes
    ----------
    n_reached : int
        Last n tried on the failing level's axis; 0 on level 1, which is an
        exact residue with no n.
    witness_sigma_min : float
        How singular the integrand is: the minimum sigma_min of the node
        matrices that failed the rank guard; for a failing level-1 cell,
        the distance from omega to its row's band (closed form) or sigma_min
        of B_0 at the real k_1 below the residue's nearest pole; for a
        stall, the least of these over the level-1 rows of a witness mesh
        under the cells.
    """

    def __init__(self, message, n_reached, witness_sigma_min):
        super().__init__(message)
        self.n_reached = int(n_reached)
        self.witness_sigma_min = float(witness_sigma_min)


def grid_nodes(n):
    """Uniform periodic nodes -pi + 2*pi*l/n, l = 0..n-1 (no +pi duplicate)."""
    n = int(n)
    if n < 4 or (n & (n - 1)):
        raise InputError(f"points per axis must be a power of two >= 4, got {n}")
    return -np.pi + TWO_PI * np.arange(n) / n


def _product_nodes(nodes, j):
    """All j-tuples of nodes, lexicographic, shape (n^j, j)."""
    if j == 0:
        return np.zeros((1, 0))
    mesh = np.meshgrid(*([nodes] * j), indexing="ij")
    return np.stack([m.ravel(order="C") for m in mesh], axis=-1)


def trapezoid_sum(values, n):
    """(2 pi)^(-1/2) (2 pi / n) times the sum of `values` over axis 0, the
    integrand at the n nodes of one axis: its scaled average over that axis
    (several axes nest one sum each).  Nodes are summed pairwise along a
    contiguous axis, so the bits do not depend on the layout of `values`
    (numpy adds a strided axis node by node)."""
    weight = TWO_PI ** -0.5 * (TWO_PI / n)
    nodes_last = np.ascontiguousarray(values.reshape(values.shape[0], -1).T)
    return weight * nodes_last.sum(axis=-1).reshape(values.shape[1:])
