"""The recorded CLI grid (scripts/cli_grid.py) is pinned by its SHA-256, so
a change to any printed answer, exit code or error text shows here."""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of `python scripts/cli_grid.py -o grid.json`: 3 515 records, 2 019
# exit 0, 1 496 exit 2 and none raising; the same under every PYTHONHASHSEED
GRID_SHA256 = "bf52cc478b47b681d85364dfacbcbe1d16142cd26a18c934368b1c33e70db19f"


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
