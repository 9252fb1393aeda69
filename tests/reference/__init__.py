"""Reference implementations the differential suites compare ``src/`` against.

Nothing here is shipped or selectable at run time, and nothing in ``src/``
knows these modules exist:

- :mod:`tests.reference.simulator` — the binary-heap event queue and the
  entry-at-a-time run loop on the locked component paths (the simulator
  before the wheel/batched engine), for ``tests/simulation/
  test_engine_differential.py``;
- :mod:`tests.reference.walker` — the recursive §2.3 dissemination walk
  (dispatch before compiled plans), for
  ``tests/property/test_dispatch_differential.py``;
- :mod:`tests.reference.tcp` — the blocking thread-per-connection
  ``TcpNetwork`` (the socket transport before ``AioTcpNetwork``), for
  ``tests/substrate/test_netio_differential.py`` and the interop and
  bounded-outbox cases of ``tests/substrate/test_aio_network.py``;
- :mod:`tests.reference.compact` — the interpreted field-by-field compact
  codec (before layouts were compiled), for
  ``tests/substrate/test_compact_differential.py``.
"""
