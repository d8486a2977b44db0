"""What importing tiediv loads: numpy is its only runtime dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints three lists, each empty when its rule holds:
# - what a bare `import tiediv` loads of the CLI and its settings, which would add to every
#   library caller's start-up;
# - the top-level modules outside the standard library, numpy and tiediv that `import tiediv.cli` loads;
# - the tiediv modules that hold a csv module: tiediv splits every input and quotes every
#   artifact cell itself.
SCRIPT = """
import sys
before = set(sys.modules)
import tiediv
print(sorted({"tiediv.config", "tiediv.cli", "argparse"} & (set(sys.modules) - before)))
import tiediv.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "tiediv"}))
print(sorted(m for m, module in sys.modules.items() if m.split(".")[0] == "tiediv" and "csv" in vars(module)))
"""


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter: the tests themselves have imported csv, argparse and the rest
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "[]", "[]"]
