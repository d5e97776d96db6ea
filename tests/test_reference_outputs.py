"""scripts/reference_outputs.py's artifacts keep the bits recorded in tests/reference_digests.txt."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "reference_digests.txt"


def by_path(lines):
    """{relative path: sha256} from digests.txt's `sha256  relative/path` lines."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_reference_outputs_match_committed_digests(tmp_path):
    """Generation, training, eval, inference and transforms keep their bits.

    After a change of bits on purpose, regenerate the file as the script's
    docstring says; the file's git diff then shows which artifacts moved.
    """
    script = ROOT / "scripts" / "reference_outputs.py"
    argv = [sys.executable, str(script), "--src", str(ROOT / "src"), "--out", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = (tmp_path / "digests.txt").read_text().splitlines()
    want = DIGESTS.read_text().splitlines()
    assert got[0] == want[0], (
        f"the environment differs from the one {DIGESTS.name} was written in: "
        f"{got[0]!r}, not {want[0]!r}; its bits can differ, so regenerate the file here"
    )
    got, want = by_path(got[1:]), by_path(want[1:])
    moved = sorted(path for path in got.keys() | want.keys() if got.get(path) != want.get(path))
    assert not moved, f"{len(moved)} artifacts differ from {DIGESTS.name}: {moved}"
