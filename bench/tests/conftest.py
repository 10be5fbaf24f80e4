"""Make ``bench/`` importable the way ``python3 bench/run.py`` sees it."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from harness import prepare_environment  # noqa: E402

prepare_environment()
