"""Run the doctest examples embedded in the public API docstrings.

Keeps every ``>>>`` example in the documentation honest — if an API
signature or behavior changes, the stale example fails here.
"""

import doctest

import pytest

import repro.baselines.pll
import repro.baselines.pwah
import repro.baselines.transitive_closure
import repro.bench.report
import repro.core.batch
import repro.core.general_k
import repro.bitsets.packed
import repro.bitsets.wah
import repro.core.hkreach
import repro.core.index_graph
import repro.core.kreach
import repro.core.serve
import repro.graph.builder
import repro.graph.digraph
import repro.native

MODULES = [
    repro.graph.digraph,
    repro.graph.builder,
    repro.bitsets.wah,
    repro.bitsets.packed,
    repro.core.index_graph,
    repro.core.kreach,
    repro.core.batch,
    repro.core.general_k,
    repro.core.hkreach,
    repro.core.serve,
    repro.native,
    repro.baselines.transitive_closure,
    repro.baselines.pwah,
    repro.baselines.pll,
    repro.bench.report,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(
        module, optionflags=doctest.NORMALIZE_WHITESPACE, verbose=False
    )
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"
    assert result.attempted > 0 or module in (repro.bench.report,), (
        f"expected at least one doctest in {module.__name__}"
    )
