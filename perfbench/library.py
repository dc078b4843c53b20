"""Find the diskdispersal sources of the checkout this benchmark sits in.

The benchmark runs the library from source, so that a checkout measures its
own code and never an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Put ``src/`` first on the import path and import the package.

    Exits with an error (status 1) when the checkout has no sources.
    """
    pkg = SRC / "diskdispersal"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no diskdispersal sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import diskdispersal
    if Path(diskdispersal.__file__).resolve().parent != pkg:
        raise SystemExit("perfbench: diskdispersal was imported from "
                         f"{diskdispersal.__file__}, not from {pkg}")
    return diskdispersal
