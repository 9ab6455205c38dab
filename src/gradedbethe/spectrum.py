"""Exact diagonalization of (twisted) transfer matrices, matched to Bethe roots.

On-shell vectors are obtained as transfer-matrix eigenvectors rather than as
explicit Bethe-vector polynomials; every downstream identity is formulated so
that the unknown eigenvector normalization cancels.

The transfer matrix commutes with the diagonal zero modes, which count local
basis content, so the Hilbert space splits into weight sectors labelled
(a, b) and the diagonalization is done sector by sector.  This matters: at
kappa = 1 the transfer matrix commutes with the full set of raising/lowering
charges, forcing exact cross-sector degeneracies (descendant multiplets) that
no inhomogeneity choice can lift.  Within a sector, states of distinct
ancestry are nondegenerate for generic inhomogeneities; states that still
cluster are quarantined and never matched.

Each state is kept on its own sector only: its right and left vectors are
the coordinates on the sector's basis indices (``chain.sector_indices``),
never embedded in the 3^M space.  Every chain operator is keyed by sector,
so matrix elements go through ``sandwich``, which reads the one operator
block from B's sector to C's and reads zero where that block does not exist.

Each sector block is diagonalized once, by ``np.linalg.eig`` for the
eigenvalues and the right eigenvectors (the columns of vr).  The bilinear left
eigenvectors are the rows of vr^-1, each scaled to unit 2-norm like the right
ones, so ``EigenState.pairing`` = left . right is the reciprocal condition
number of the eigenvalue: a vanishing pairing marks a nearly defective pair.
A vr singular to working precision has no inverse; its sector's left rows are
zero, and the zero pairing flags every state of that sector as clustered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bethe import BetheRoots, BetheSolverError, fit_roots_to_samples, solve_bethe, \
    subset_seed_candidates, tau_eigenvalue
from .chain import ChainSpec, sector_indices, transfer_blocks, zero_mode_entry

__all__ = [
    "SpectralDecomposition",
    "EigenState",
    "sandwich",
    "DegenerateSpectrumError",
    "MatchError",
    "default_probes",
    "diagonalize_transfer",
    "match_roots_to_state",
    "classify_spectrum",
    "sector_labels_from_zero_modes",
]

_CLUSTER_GAP = 1e-8  # relative eigenvalue gap below which two states of a sector cluster
_MATCH_RTOL = 1e-6   # relative distance at which eigenvalue samples match
_NEWTON_TOL = 1e-12  # Bethe residual of the roots classify_spectrum attaches


class DegenerateSpectrumError(RuntimeError):
    """A needed eigenvalue sits in a degenerate cluster; perturb the xi_n."""


class MatchError(RuntimeError):
    """Root set matched no eigenstate, or more than one."""


def default_probes() -> np.ndarray:
    """Five generic probe points away from roots and inhomogeneities."""
    return np.array([(1.7 + 0.3 * j) + 0.41j for j in range(5)], dtype=complex)


@dataclass
class EigenState:
    """One transfer-matrix eigenstate on its own sector, with its Bethe roots once known.

    ``right`` and ``left`` hold its coordinates on the sector's basis
    indices, in ``sector_indices`` order; ``tau_samples`` are
    its eigenvalues at the ``default_probes``.  ``roots`` stays None until
    ``classify_spectrum`` or ``match_roots_to_state`` attaches them, which
    makes the state an on-shell Bethe vector; its ``kind`` follows from them.
    """

    sector: tuple[int, int]
    tau_samples: np.ndarray
    right: np.ndarray
    left: np.ndarray
    clustered: bool = False
    roots: BetheRoots | None = None

    @property
    def kind(self) -> str:
        """One of cluster, unresolved (no roots), descendant (roots at infinity), primitive."""
        if self.clustered:
            return "cluster"
        if self.roots is None:
            return "unresolved"
        if self.roots.n_u_inf or self.roots.n_v_inf:
            return "descendant"
        return "primitive"

    @property
    def pairing(self) -> complex:
        return complex(self.left @ self.right)

    def rescaled(self, s_right: complex, s_left: complex) -> "EigenState":
        """Same state with rescaled vectors; every check must be invariant."""
        return replace(self, right=s_right * self.right, left=s_left * self.left)


@dataclass
class SpectralDecomposition:
    """Joint right/left eigendecomposition of the transfer family at the default probes."""

    spec: ChainSpec
    states: list[EigenState]
    consistency: float

    def by_sector(self, sector: tuple[int, int]) -> list[EigenState]:
        return [s for s in self.states if s.sector == sector]


def sandwich(c, op: dict | None, b) -> complex:
    """<C| op |B> for states of any sectors; ``op`` as {sector: (image, block)}, None for 1.

    Only the block of ``op`` on B's sector can act, and only if it maps onto
    C's sector; otherwise the matrix element vanishes by weight and reads 0.
    """
    if op is None:
        return complex(c.left @ b.right) if b.sector == c.sector else 0j
    entry = op.get(b.sector)
    if entry is None or entry[0] != c.sector:
        return 0j
    return complex(c.left @ (entry[1] @ b.right))


def _sector_eigenbasis(block: np.ndarray, cluster_gap: float):
    """Eigenvalues, right columns, left rows, pairings and cluster flags of one block.

    Sorted by eigenvalue.  Right columns are unit, left rows are the rows of
    vr^-1 scaled to unit 2-norm, or zero when vr is singular to working
    precision.  A state is clustered when its pairing is below 1e-10 or its
    eigenvalue lies within ``cluster_gap`` (relative) of another one.
    """
    w0, vr = np.linalg.eig(block)
    try:
        left_rows = np.linalg.solve(vr, np.eye(w0.size, dtype=vr.dtype))
    except np.linalg.LinAlgError:
        left_rows = np.zeros_like(vr)
    else:
        left_rows /= np.linalg.norm(left_rows, axis=1, keepdims=True)
    order = np.lexsort((w0.imag, w0.real))
    w0, vr, left_rows = w0[order], vr[:, order], left_rows[order]
    pairing = np.einsum("ij,ji->i", left_rows, vr)

    # degenerate multiplets collide already at the first probe; nearly
    # defective pairs betray themselves through a vanishing pairing
    scale0 = max(1.0, float(np.abs(w0).max()))
    close = np.abs(w0[:, None] - w0[None, :]) < cluster_gap * scale0
    np.fill_diagonal(close, False)
    clustered = (np.abs(pairing) < 1e-10) | close.any(axis=1)
    return w0, vr, left_rows, pairing, clustered


def diagonalize_transfer(spec: ChainSpec, *,
                         sectors: list[tuple[int, int]]) -> SpectralDecomposition:
    """Sector-blocked eigendecomposition of the (twisted) transfer matrix.

    The full decomposition is computed at the first default probe; eigenvalues
    at the remaining probes come from sandwiching the fixed eigenvectors, and
    their off-diagonal leakage is returned as the consistency figure.  States whose
    eigenvalue samples are closer than _CLUSTER_GAP (relative) to another
    state in the same sector are flagged as clustered.  Only the given
    ``sectors`` are diagonalized, each independently of the others, so a
    sector's states are the same whichever sectors come with it.
    Left eigenvectors are the unit-norm rows of vr^-1, so a state's pairing
    is the reciprocal condition number of its eigenvalue; pairings below
    1e-10 flag nearly defective states as clustered, and a sector whose vr is
    singular to working precision has all its states flagged clustered.
    """
    wanted = [s for s in sector_indices(spec) if s in sectors]
    return _decompose(spec, wanted, (transfer_blocks(spec, w, sectors=wanted)
                                     for w in default_probes()))


def _decompose(spec: ChainSpec, wanted: list[tuple[int, int]], t_ops) -> SpectralDecomposition:
    """diagonalize_transfer on the ``wanted`` sectors, in sector order.

    ``t_ops``, an iterator, yields the transfer blocks on the wanted sectors at
    each default probe in turn; each is dropped before the next is drawn.
    """
    probes = default_probes()
    # one probe's transfer blocks at a time: every sector is diagonalized at the
    # first probe, then each later probe is sandwiched on every sector
    t_op = next(t_ops)
    bases = {}
    for sector in wanted:
        w0, vr, left_rows, pairing, clustered = _sector_eigenbasis(
            t_op[sector][1], _CLUSTER_GAP)
        samples = np.zeros((w0.size, probes.size), dtype=complex)
        samples[:, 0] = w0
        bases[sector] = (vr, left_rows, pairing, clustered, samples)
    del t_op

    worst = 0.0
    for q in range(1, probes.size):
        # no enumerate(t_ops): its reused result tuple would keep this
        # probe's blocks alive while the next probe's are built
        t_op = next(t_ops)
        for sector, (vr, left_rows, pairing, clustered, samples) in bases.items():
            safe = ~clustered
            tv = t_op[sector][1] @ vr
            num = np.einsum("ij,ji->i", left_rows, tv)
            samples[:, q] = samples[:, 0]
            samples[safe, q] = num[safe] / pairing[safe]
            if np.any(safe):
                resid = np.linalg.norm(tv - vr * samples[:, q][None, :], axis=0)
                resid = resid[safe] / np.maximum(1.0, np.abs(samples[safe, q]))
                worst = max(worst, float(resid.max()))
        del t_op

    states: list[EigenState] = []
    for sector in wanted:
        vr, left_rows, _, clustered, samples = bases.pop(sector)
        # contiguous rows: a strided column of vr can take another BLAS path
        # in the products downstream, and the reports' bits were pinned with these
        rights, lefts = np.ascontiguousarray(vr.T), np.ascontiguousarray(left_rows)
        states += [EigenState(sector, samples[k], rights[k], lefts[k],
                              clustered=bool(clustered[k])) for k in range(samples.shape[0])]
    return SpectralDecomposition(spec, states, worst)


def _samples_match(samples: np.ndarray, ref: np.ndarray) -> bool:
    """Whether two eigenvalue-sample vectors agree at every probe, relative to ``ref``'s size."""
    return bool(np.abs(samples - ref).max() <= _MATCH_RTOL * max(float(np.abs(ref).max()), 1e-300))


def match_roots_to_state(dec: SpectralDecomposition, roots: BetheRoots) -> EigenState:
    """Find the unique eigenstate whose eigenvalue samples match the roots; attach them.

    Matching is restricted to the sector given by the root cardinalities and
    must succeed at every probe simultaneously.  Raises MatchError when no
    state or more than one state matches, and DegenerateSpectrumError when
    the matched state sits in a degenerate cluster.
    """
    target = np.array([tau_eigenvalue(w, roots, dec.spec) for w in default_probes()])
    candidates = [st for st in dec.by_sector(roots.sector)
                  if _samples_match(st.tau_samples, target)]
    if not candidates:
        raise MatchError(f"no eigenstate matches roots in sector {roots.sector}")
    if len(candidates) > 1:
        raise MatchError(f"{len(candidates)} eigenstates match roots in sector {roots.sector}")
    st = candidates[0]
    if st.clustered:
        raise DegenerateSpectrumError(
            "matched state lies in a degenerate cluster; perturb the inhomogeneities"
        )
    return replace(st, roots=roots)


def sector_labels_from_zero_modes(spec: ChainSpec, state: EigenState) -> tuple[int, int]:
    """Sector labels read off the diagonal total zero modes.

    On a matched on-shell state, T_11[0] acts as lambda_1[0] - a and
    T_33[0] as lambda_3[0] - b; both expectation values are exact integers.
    """
    on = [state.sector]
    cb = state.pairing
    t11 = sandwich(state, zero_mode_entry(spec, 1, 1, sectors=on), state) / cb
    t33 = sandwich(state, zero_mode_entry(spec, 3, 3, sectors=on), state) / cb
    a = spec.lam_zero_mode(1) - t11
    b = spec.lam_zero_mode(3) - t33
    return (int(round(a.real)), int(round(b.real)))


# -- spectrum classification ---------------------------------------------------


def _swept_sectors(sectors, requested) -> list[tuple[int, int]]:
    """The ``sectors`` at or below a requested one, all of them when none is requested.

    A sector below a requested one may hold an ancestor of its states.
    """
    return [s for s in sectors
            if not requested or any(s[0] <= a and s[1] <= b for a, b in requested)]


def classify_spectrum(dec: SpectralDecomposition,
                      sectors: list[tuple[int, int]] | None = None) -> list[EigenState]:
    """The states of the requested sectors, each with Bethe roots attached where found.

    Sectors are swept in increasing order, and every sector below a
    requested one is swept too, since it may hold an ancestor.  Each state is
    first compared against the states with roots in lower sectors: an exact
    eigenvalue match identifies a descendant, whose roots are the ancestor's
    plus roots at infinity.  A remaining state of a b = 0 sector tries its
    own TQ-fit seed; one of a b >= 1 sector walks the sector's subset seeds.
    Each seed is followed by a Newton polish on the Bethe equations,
    validated by re-matching the eigenvalue samples.  Each sector's subset
    seeds are drawn and polished once, in seed order and only as far as some
    state needs them, and every state of the sector walks that one list.
    Clustered states and states no seed reaches keep ``roots=None``;
    ``EigenState.kind`` tells the four apart.
    Only the requested sectors' states are returned.
    """
    spec = dec.spec
    probes = default_probes()
    swept = _swept_sectors(sorted({s.sector for s in dec.states}), sectors)
    wanted = set(sectors or swept)
    classified: list[EigenState] = []
    done: list[EigenState] = []
    t_cache: dict[tuple, dict] = {}

    def tau_fn_for(st: EigenState):
        def fn(w: complex) -> complex:
            t = t_cache.get((w, st.sector))
            if t is None:
                t = transfer_blocks(spec, w, sectors=[st.sector])
                t_cache[(w, st.sector)] = t
            return sandwich(st, t, st) / st.pairing
        return fn

    def polish(seed: BetheRoots):
        """The polished roots and their eigenvalue samples, None where Newton fails."""
        try:
            roots = solve_bethe(seed, spec, tol=_NEWTON_TOL)
            return roots, np.array([tau_eigenvalue(w, roots, spec) for w in probes])
        except (BetheSolverError, ValueError):
            return None

    def polished_seeds(st: EigenState, shared: list, pending):
        """The state's own TQ-fit seed at b = 0, else the sector's shared list, drawn lazily."""
        a, b = st.sector
        if b == 0:
            guess = fit_roots_to_samples(a, tau_fn_for(st), spec)
            if guess is not None:
                yield polish(guess)
            return
        yield from shared
        for seed in pending:
            shared.append(polish(seed))
            yield shared[-1]

    for sector in swept:
        a, b = sector
        found: list[EigenState] = []
        shared: list = []
        pending = subset_seed_candidates(sector, spec) if b else ()
        for st in dec.by_sector(sector):
            if st.clustered:
                found.append(st)
                continue
            # done holds lower sectors only
            parent = next((prev for prev in done
                           if prev.sector[0] <= a and prev.sector[1] <= b
                           and _samples_match(prev.tau_samples, st.tau_samples)), None)
            if parent is not None:
                roots = replace(parent.roots,
                                n_u_inf=parent.roots.n_u_inf + (a - parent.sector[0]),
                                n_v_inf=parent.roots.n_v_inf + (b - parent.sector[1]))
                found.append(replace(st, roots=roots))
                continue

            roots = None
            for entry in polished_seeds(st, shared, pending):
                if entry is not None and _samples_match(entry[1], st.tau_samples):
                    roots = entry[0]
                    break
            found.append(replace(st, roots=roots))
        done += [st for st in found if st.roots is not None]
        if sector in wanted:
            classified += found
    return classified

