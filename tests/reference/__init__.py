"""Reference implementations the differential suites compare ``src/`` against.

Nothing here is shipped or selectable at run time, and nothing in ``src/``
knows these modules exist:

- :mod:`tests.reference.simulator` — the binary-heap event queue and the
  entry-at-a-time run loop on the locked component paths (the simulator
  before the wheel/batched engine), for ``tests/simulation/
  test_engine_differential.py``;
- :mod:`tests.reference.walker` — the recursive §2.3 dissemination walk
  (dispatch before compiled plans), for
  ``tests/property/test_dispatch_differential.py``.
"""
