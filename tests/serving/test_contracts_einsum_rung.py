"""The serving contracts, once more on the einsum rung.

``test_engine_equivalence`` and ``test_scheduler`` state the contracts
(cached = uncached, batched = solo, scheduled = ``engine.generate``) and
run them on whatever rung binds — the generated-C kernels wherever a
compiler exists.  This module re-collects the very same test functions
under a fixture that removes the toolchain, so each contract is asserted
on both rungs without a second copy of its body.
"""

import pytest

from tests.serving.test_engine_equivalence import *  # noqa: F401,F403
from tests.serving.test_scheduler import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def _on_einsum_rung(einsum_rung):
    from repro.observability import registry

    native = registry().counter("lower_direct_calls").value
    yield
    assert registry().counter("lower_direct_calls").value == native  # no C ran
