"""Shared fixtures: paper instances, scenarios and small random problems."""

from __future__ import annotations

import pytest

from repro.workloads import (
    figure4_dwg,
    healthcare_scenario,
    paper_example_problem,
    random_problem,
    snmp_scenario,
)


@pytest.fixture
def fig4():
    """The Figure-4 doubly weighted graph."""
    return figure4_dwg()


@pytest.fixture
def paper_problem():
    """The Figure-2/5/6/8 CRU tree instance."""
    return paper_example_problem()


@pytest.fixture
def healthcare_problem():
    """The epilepsy tele-monitoring scenario."""
    return healthcare_scenario()


@pytest.fixture
def snmp_problem():
    """The SNMP monitoring scenario."""
    return snmp_scenario()


@pytest.fixture
def small_random_problem():
    """A small random instance with scattered sensors (fallback regime)."""
    return random_problem(n_processing=8, n_satellites=3, seed=3, sensor_scatter=0.5)


@pytest.fixture
def clustered_random_problem():
    """A small random instance with clustered sensors (contiguous colour regions)."""
    return random_problem(n_processing=8, n_satellites=3, seed=5, sensor_scatter=0.0)


@pytest.fixture
def cache_puts(monkeypatch):
    """Keys of every ``JSONFileCache.put`` made while the test runs."""
    from repro.runtime.cache import JSONFileCache

    keys = []
    put = JSONFileCache.put

    def counted(self, key, entry):
        keys.append(key)
        put(self, key, entry)

    monkeypatch.setattr(JSONFileCache, "put", counted)
    return keys
