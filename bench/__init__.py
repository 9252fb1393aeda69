"""One benchmark for the whole stack (see bench/README.md).

Run ``python -m bench`` from the repository root.  Everything here uses
only public names of ``repro``; nothing from ``benchmarks/`` or ``tests/``.
"""
