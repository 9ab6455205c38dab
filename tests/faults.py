"""Fault catalogue: defects planted in the package with monkeypatch, for the checks to catch.

Each defect is a function of a ``pytest.MonkeyPatch`` that breaks one
convention of the chain from outside, so the package carries no test-only
switch.  ``injected(name)`` plants one for the length of a ``with`` block.
The plans built from the sign rule are cached, and all of them come from
the one graded-swap formula ``chain._swap``: ``chain._gather`` holds the
vector path's whole-grid plans, each an axis swap with the flip mask
``_swap`` gives at the rows whose only nonzero digits are x..y, and
``chain._run`` the block path's source rows and flips at the rows of each
column run; the twisted duals reuse the diagonal entries they read at the
probes (``formfactors._probe_diagonals``), signed with BLOCK_SIGNS.  A
defect that wraps ``_swap`` reaches both paths; the three caches built on
it are cleared on the way in and on the way out, so nothing built under a
defect outlives it.  The sectors' basis indices (``chain._block_map``) are
read off the digits alone, and the letter rule of the zero modes
(``chain._site_moves``) caches nothing, so no defect reaches either cache.

- ``unsigned-P02``: the graded permutation of factor 0 (the auxiliary
  space) and factor 2 loses its sign, as if site 2 of the chain were
  ungraded.  ``_swap`` negates no row there, so neither a run's flips nor
  the whole-grid flip mask of P_02 negates any; on V (x) V (x) V this is R13
  of the Yang-Baxter check, which then fails.
- ``flipped-T22-sign``: the sign BLOCK_SIGNS gives the entry T_22 is flipped.
  This is the twist kappa_2 -> -kappa_2 for every transfer matrix, and the
  twisted transfer matrices commute for any diagonal twist, so no
  consistency figure (eigenvector leakage or commutator) can see it; the
  entry-level commutation relation does.  The RTT relation on
  V (x) V (x) H reads no entry, and so no BLOCK_SIGNS: it holds.
- ``dropped-odd-letters``: the letter rule of the zero modes T_ij[0] counts
  no odd letter before any site, N_odd(<n) = 0, so the sign of the odd
  entries (T_13, T_23, T_31, T_32) no longer follows the grading.  Only the
  zero-mode limit compares the letter rule with the monodromy: the diagonal
  zero modes, which the sector labels read, keep their signs.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from gradedbethe import chain, formfactors


def _unsigned_p02(monkeypatch) -> None:
    original = chain._swap

    def unsigned(n_factors, x, y, rows):
        src, flipped = original(n_factors, x, y, rows)
        if (min(x, y), max(x, y)) == (0, 2):
            flipped = np.zeros_like(flipped)
        return src, flipped

    monkeypatch.setattr(chain, "_swap", unsigned)


def _flipped_t22_sign(monkeypatch) -> None:
    signs = chain.BLOCK_SIGNS.copy()
    signs[1, 1] *= -1
    monkeypatch.setattr(chain, "BLOCK_SIGNS", signs)


def _dropped_odd_letters(monkeypatch) -> None:
    original = chain._site_moves

    def no_odd_letters(spec, i, j, sites, columns):
        # every sign is (-1)^[j], the rule's sign at N_odd(<n) = 0
        for position, target, sign in original(spec, i, j, sites, columns):
            yield position, target, np.full_like(sign, (-1.0) ** chain._PAR[j - 1])

    monkeypatch.setattr(chain, "_site_moves", no_odd_letters)


DEFECTS = {
    "unsigned-P02": _unsigned_p02,
    "flipped-T22-sign": _flipped_t22_sign,
    "dropped-odd-letters": _dropped_odd_letters,
}


def _clear_plans() -> None:
    chain._gather.cache_clear()
    chain._run.cache_clear()
    formfactors._probe_diagonals.cache_clear()


@contextmanager
def injected(name: str):
    """The package with the defect ``name`` planted, for the body of the ``with`` block."""
    _clear_plans()
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            DEFECTS[name](monkeypatch)
            yield
    finally:
        _clear_plans()
