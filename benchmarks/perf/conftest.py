"""Path setup for ``python -m pytest benchmarks/perf``.

pytest puts this directory on ``sys.path`` itself (rootdir-relative
imports of ``kernels``); ``src`` comes from the ``pythonpath = ["src"]``
pytest setting, and from here when that setting is not in effect (an
older pytest, or a different ``-c`` file).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
