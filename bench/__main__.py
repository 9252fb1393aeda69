"""Entry point: ``python -m bench`` from the repository root."""

import sys
import time

if __name__ == "__main__":
    PROCESS_START = time.perf_counter()
    from pathlib import Path

    _src = Path(__file__).resolve().parent.parent / "src"
    if (_src / "repro").is_dir():
        sys.path.insert(0, str(_src))
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.exit("bench: cannot import repro (no src/repro beside bench/, none on PYTHONPATH)")
    from .cli import main

    sys.exit(main(sys.argv[1:], PROCESS_START))
