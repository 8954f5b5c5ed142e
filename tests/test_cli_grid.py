"""The recorded CLI grid (scripts/cli_grid.py) is pinned by its SHA-256, so
a change to any printed answer, exit code or error text shows here."""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of `python scripts/cli_grid.py -o grid.json`: 3 587 records, 2 073
# exit 0, 1 514 exit 2 and none raising; the same under every PYTHONHASHSEED
GRID_SHA256 = "646d77a8f3f0d7cb163add46c7f4f2261b05359b2716725e86e5bd2decd53a2f"


def test_cli_grid_digest_is_pinned(tmp_path):
    out = tmp_path / "grid.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_grid.py"), "-o", str(out)],
                   check=True, capture_output=True, cwd=ROOT)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GRID_SHA256, (
        "the CLI grid changed.  To see how, write the grid of the commit that set "
        "GRID_SHA256 (`git log -S GRID_SHA256 -- tests/test_cli_grid.py`) from a "
        "copy of it (`git archive <commit> | tar -x -C <dir>`, then "
        "`python <dir>/scripts/cli_grid.py -o old.json`), write this tree's with "
        "`python scripts/cli_grid.py -o new.json`, and diff old.json new.json.  "
        "If the change is intended, say which records changed and why, and "
        "update GRID_SHA256."
    )
