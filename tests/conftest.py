import tracemalloc

import numpy as np
import pytest

from gradedbethe import cli
from gradedbethe.bethe import continue_twist
from gradedbethe.chain import ChainSpec
from gradedbethe.formfactors import check_theorem2, universal_form_factor
from gradedbethe.spectrum import classify_spectrum, diagonalize_transfer, sector_indices

from oracles import all_sectors

TESTED_SECTORS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]


@pytest.fixture(scope="session")
def spec4():
    return ChainSpec(M=4)


@pytest.fixture(scope="session")
def dec4(spec4):
    return diagonalize_transfer(spec4, sectors=all_sectors(spec4))


@pytest.fixture(scope="session")
def classified4(dec4):
    return classify_spectrum(dec4, sectors=TESTED_SECTORS)


@pytest.fixture(scope="session")
def pairs4(classified4):
    """On-shell states (roots attached) of the M=4 chain, keyed by (sector, kind)."""
    out = {}
    for st in classified4:
        if st.roots is not None:
            out.setdefault((st.sector, st.kind), []).append(st)
    return out


def primitive_pairs(pairs, sector):
    return pairs.get((sector, "primitive"), [])


def descendant_pairs(pairs, sector):
    return pairs.get((sector, "descendant"), [])


def with_ff(check, spec, pc, pb, i, j, m):
    """``check_theorem1`` or ``check_local_corollary`` as the cli runner calls it,
    with the pair's universal form factor."""
    return check(spec, pc, pb, i, j, m, universal_form_factor(spec, pc, pb, i, j))


def theorem2(spec, pair, i, m):
    """``check_theorem2`` as the cli runner calls it, at the runner's twist step."""
    return check_theorem2(spec, pair, i, m,
                          continue_twist(pair.roots, spec, direction=i, delta=cli._TWIST_STEP))


def embed(spec, sector, vec):
    """A sector-local state vector placed on all 3^M basis indices, for dense oracles."""
    out = np.zeros(3 ** spec.M, dtype=complex)
    out[sector_indices(spec)[sector]] = vec
    return out


def rng(seed=0):
    return np.random.default_rng(seed)


def peak_bytes(fn):
    """Peak traced allocation while fn runs, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def record_builds(monkeypatch, swept=None) -> dict[str, list]:
    """Every column run built from now on, as (group, column range, g values of its steps).

    The g values fix the spectral point.  The builds of a diagonalization cli
    runs are filed under "swept" for the ``swept`` sectors and under "rest"
    for any others; every other build is filed under "other".
    """
    from gradedbethe import chain, cli

    built = {"other": [], "swept": [], "rest": []}
    passes = ["other"]
    product, diagonalize = chain._group_product, cli.diagonalize_transfer

    def recorded(k, size, cols, steps):
        built[passes[-1]].append((k, (cols.start, cols.stop), tuple(g for _, g in steps)))
        return product(k, size, cols, steps)

    def tagged(spec, sectors):
        passes.append("swept" if sectors == swept else "rest")
        try:
            return diagonalize(spec, sectors=sectors)
        finally:
            passes.pop()

    monkeypatch.setattr(chain, "_group_product", recorded)
    monkeypatch.setattr(cli, "diagonalize_transfer", tagged)
    return built
