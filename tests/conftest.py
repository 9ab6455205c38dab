import tracemalloc
import warnings

import numpy as np
import pytest

from gradedbethe.chain import ChainSpec, VacuumFunctions
from gradedbethe.spectrum import classify_spectrum, diagonalize_transfer, sector_indices

from oracles import all_sectors

# the Bethe residual warns near the log branch cut during wide seed sweeps;
# that is expected behaviour, not a test failure
warnings.filterwarnings("ignore", message="Bethe residual near the log branch cut")

TESTED_SECTORS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]


@pytest.fixture(scope="session")
def spec4():
    return ChainSpec(M=4)


@pytest.fixture(scope="session")
def vac4(spec4):
    return VacuumFunctions(spec4)


@pytest.fixture(scope="session")
def dec4(spec4):
    return diagonalize_transfer(spec4, sectors=all_sectors(spec4))


@pytest.fixture(scope="session")
def classified4(dec4, vac4):
    return classify_spectrum(dec4, vac4, sectors=TESTED_SECTORS)


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
