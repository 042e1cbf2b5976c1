"""Named robustness counters, kept in the metrics registry.

Every recovery path in the fault-tolerance layer increments a counter
when it fires — router fallbacks, skipped steps, rewinds, collective
retries — so tests and operators can assert that a recovery mechanism
actually ran instead of inferring it from silence.  Each name is a
registry counter as is (``router_fallback``, ``collective_retries``,
...), next to every other count of the run.

Typical use::

    from repro.observability import registry
    from repro.resilience import counters

    registry().reset()
    run_training()
    assert counters.get("router_fallback") == 0
"""

from __future__ import annotations

from repro.observability.metrics import registry

_REG = registry()


def increment(name: str, by: int = 1) -> int:
    """Add ``by`` to counter ``name`` (created at zero); returns the new value."""
    return _REG.counter(name).inc(int(by))


def get(name: str) -> int:
    """Current value of ``name`` (0 if never incremented)."""
    return _REG.counter(name).value
