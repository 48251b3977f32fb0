"""Let the ``python -m kohnert.cli`` subprocesses some tests start import the
package from this checkout, as ``pythonpath`` in pyproject.toml does for the
test process itself."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
