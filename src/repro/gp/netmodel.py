"""Quadratic net models (clique / star).

Quadratic placement minimizes Σ w_ij ((x_i - x_j)² + (y_i - y_j)²).  Each
multi-pin net must first be decomposed into two-point connections:

- **clique** — every pin pair, each with weight ``w / (k - 1)`` (the
  standard normalization so total net weight is independent of degree);
  used for small nets.
- **star** — one auxiliary movable "star" node connected to every pin with
  weight ``w·k / (k - 1)``; used for high-degree nets where a clique would
  densify the system quadratically.

The result is the (Laplacian) normal-equation system ``A x = b_x`` /
``A y = b_y`` over movable nodes (plus star nodes), with fixed-node terms
folded into the right-hand side.

Entry order is part of the contract.  The matrix is assembled from COO
triplets, and COO→CSR sums duplicate entries in input order, so the
triplets are emitted in the order of a plain nested loop: net by net; within
a clique net pin pair ``(a, b)``, ``a < b``, row-major; within a star net pin
by pin; within one pair or pin the sub-entries as listed below.  ``b_x`` /
``b_y`` are accumulated from 0.0 in that same order.  Any other order can
change ``A.data`` in the last bit, and the factorization cache
(:mod:`repro.gp.quadratic`) keys on the matrix bytes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.netlist.hpwl import FlatNetlist


@dataclass
class QuadraticSystem:
    """The assembled quadratic placement system.

    ``A`` is symmetric positive semi-definite over the ``n_mov + n_star``
    unknowns; ``bx``/``by`` carry fixed-pin contributions.  ``movable`` maps
    unknown index -> node index in the originating :class:`FlatNetlist`
    (star nodes have no mapping and occupy the tail of the unknown vector).
    """

    A: sp.csr_matrix
    bx: np.ndarray
    by: np.ndarray
    movable: np.ndarray  # node indices of the first n_mov unknowns
    n_star: int


@functools.lru_cache(maxsize=64)
def _pair_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pin pairs ``(a, b)``, ``a < b``, of a *k*-pin clique in row-major order."""
    ia, ib = np.triu_indices(k, 1)
    ia.setflags(write=False)
    ib.setflags(write=False)
    return ia, ib


def build_quadratic_system(
    flat: FlatNetlist,
    movable_mask: np.ndarray,
    clique_threshold: int = 6,
    min_weight: float = 1e-9,
) -> QuadraticSystem:
    """Assemble ``A x = b`` from *flat* for the nodes selected by *movable_mask*.

    Nodes where ``movable_mask`` is False are treated as fixed at their
    current centers.  Nets whose pins are all fixed contribute nothing.
    Nets of degree <= *clique_threshold* use the clique model, larger nets
    the star model.

    Every two-point connection (a clique pair or a star pin) is one *unit*
    of up to four triplets.  Units are placed at their position in the
    module's entry order, so degree groups can be built in any order:

    - clique pair ``(u, v)`` of weight ``w``: both movable gives
      ``(u,u,w) (v,v,w) (u,v,-w) (v,u,-w)``; one end movable gives its
      diagonal ``w`` plus ``w·`` (other end's center) on the right-hand side;
    - star pin ``u`` of star ``s``: ``(s,s,w)``, then ``(u,u,w) (u,s,-w)
      (s,u,-w)`` if the pin is movable, else ``w·`` (pin center) on ``b[s]``
      when ``w > 0``.
    """
    if movable_mask.shape != (flat.n_nodes,):
        raise ValueError("movable_mask must have one entry per node")
    movable = np.flatnonzero(movable_mask)
    n_mov = len(movable)
    unknown_of_node = -np.ones(flat.n_nodes, dtype=np.int64)
    unknown_of_node[movable] = np.arange(n_mov)

    fx = flat.cx
    fy = flat.cy
    ptr = flat.net_ptr
    deg = np.diff(ptr)
    w_net = np.asarray(flat.net_weight, dtype=np.float64)
    pin_node = flat.pin_node
    pin_unknown = unknown_of_node[pin_node]
    net_of_pin = np.repeat(np.arange(flat.n_nets), deg)
    has_movable = np.bincount(net_of_pin[pin_unknown >= 0], minlength=flat.n_nets) > 0
    # ``~(w <= min)``, not ``w > min``: a NaN weight is assembled, not skipped.
    live = ~(w_net <= min_weight) & (deg >= 2) & has_movable
    clique = live & (deg <= clique_threshold)
    star = live & (deg > clique_threshold)

    units_per_net = np.where(clique, deg * (deg - 1) // 2, np.where(star, deg, 0))
    unit_start = np.cumsum(units_per_net) - units_per_net
    n_units = int(units_per_net.sum())
    # Slot-major tables: column ``i`` holds unit ``i``'s four triplets.
    rows = np.empty((4, n_units), dtype=np.int64)
    cols = np.empty((4, n_units), dtype=np.int64)
    vals = np.empty((4, n_units))
    keep = np.empty((4, n_units), dtype=bool)
    b_idx = np.empty(n_units, dtype=np.int64)
    b_x = np.empty(n_units)
    b_y = np.empty(n_units)
    b_keep = np.empty(n_units, dtype=bool)

    def fill(pos, r, c, w, k, bi, bx_val, by_val, bk) -> None:
        for j in range(4):
            rows[j, pos] = r[j]
            cols[j, pos] = c[j]
            vals[j, pos] = w if j < 2 else -w
            keep[j, pos] = k[j]
        b_idx[pos] = bi
        b_x[pos] = bx_val
        b_y[pos] = by_val
        b_keep[pos] = bk

    for k in np.unique(deg[clique]):
        nets = np.flatnonzero(clique & (deg == k))
        ia, ib = _pair_table(int(k))
        pa = (ptr[nets, None] + ia).ravel()
        pb = (ptr[nets, None] + ib).ravel()
        pos = (unit_start[nets, None] + np.arange(len(ia))).ravel()
        w = np.repeat(w_net[nets] / (k - 1), len(ia))
        u, v = pin_unknown[pa], pin_unknown[pb]
        mu, mv = u >= 0, v >= 0
        both = mu & mv
        # With one end movable, the diagonal lands on it and the other
        # (fixed) end's center goes to the right-hand side.
        d = np.where(mu, u, v)
        other = np.where(mu, pin_node[pb], pin_node[pa])
        fill(
            pos,
            (d, v, u, v),
            (d, v, v, u),
            w,
            (mu | mv, both, both, both),
            d,
            w * fx[other],
            w * fy[other],
            mu ^ mv,
        )

    # Star: auxiliary unknown n_mov + (rank of the net among star nets).
    star_nets = np.flatnonzero(star)
    n_star = len(star_nets)
    if n_star:
        star_of_net = np.full(flat.n_nets, -1, dtype=np.int64)
        star_of_net[star_nets] = n_mov + np.arange(n_star)
        w_star = np.zeros(flat.n_nets)
        w_star[star_nets] = w_net[star_nets] * deg[star_nets] / (deg[star_nets] - 1)
        p = np.flatnonzero(star[net_of_pin])
        net = net_of_pin[p]
        s = star_of_net[net]
        w = w_star[net]
        u = pin_unknown[p]
        mu = u >= 0
        fill(
            unit_start[net] + (p - ptr[net]),
            (s, u, u, s),
            (s, u, s, u),
            w,
            (np.ones_like(mu), mu, mu, mu),
            s,
            w * fx[pin_node[p]],
            w * fy[pin_node[p]],
            ~mu & (w > 0),
        )

    n = n_mov + n_star
    # Transposing back to unit-major order gives the triplets in entry order.
    kept = keep.T.ravel()
    A = sp.coo_matrix(
        (vals.T.ravel()[kept], (rows.T.ravel()[kept], cols.T.ravel()[kept])),
        shape=(n, n),
    ).tocsr()
    bx = np.zeros(n)
    by = np.zeros(n)
    np.add.at(bx, b_idx[b_keep], b_x[b_keep])
    np.add.at(by, b_idx[b_keep], b_y[b_keep])
    return QuadraticSystem(A=A, bx=bx, by=by, movable=movable, n_star=n_star)
