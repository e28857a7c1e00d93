"""Run the doctests embedded in the library's docstrings."""

import doctest

import pytest

import repro.api
import repro.flow.maxflow
import repro.graph.builder
import repro.graph.directed
import repro.graph.undirected
import repro.store.csr

MODULES = [
    repro.api,
    repro.graph.undirected,
    repro.graph.directed,
    repro.graph.builder,
    repro.flow.maxflow,
    repro.store.csr,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    failures, tests = doctest.testmod(
        module, verbose=False, optionflags=doctest.ELLIPSIS
    )
    assert tests > 0, f"{module.__name__} has no doctests to run"
    assert failures == 0
