"""tools/cli_outputs.py: the fixed list of CLI runs that two checkouts are
compared by."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_subcommand_runs_with_its_exit_code():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_outputs.py"),
                           str(ROOT / "src")], capture_output=True, text=True, check=True)
    codes: dict[str, list[int]] = {}
    for command, code in re.findall(r"^\$ twisthom (\S+).*?^exit (\d+)$", proc.stdout,
                                    re.M | re.S):
        codes.setdefault(command, []).append(int(code))
    assert codes == {"homology": [0, 0], "scan": [3, 3], "chi": [3],
                     "oracle-compare": [0] * 7, "verify-paper": [0]}
