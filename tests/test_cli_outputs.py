"""tools/cli_outputs.py: the fixed list of CLI runs that two checkouts are
compared by."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# The sha256 of the tool's output.  Every line of it is an answer of the
# CLI, so a change that means to alter one re-pins this on purpose.
OUTPUTS_DIGEST = "492e40f9014825be2994c70d8618ec8fc7a3291986c4bbc781696f7421a5b657"


def _outputs() -> str:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "cli_outputs.py"),
                           str(ROOT / "src")], capture_output=True, text=True,
                          check=True).stdout


def test_every_subcommand_runs_with_its_exit_code():
    codes: dict[str, list[int]] = {}
    for command, code in re.findall(r"^\$ twisthom (\S+).*?^exit (\d+)$", _outputs(),
                                    re.M | re.S):
        codes.setdefault(command, []).append(int(code))
    assert codes == {"homology": [0, 0], "scan": [3, 3], "chi": [3],
                     "oracle-compare": [0] * 7, "verify-paper": [0]}


def test_outputs_match_the_pinned_digest():
    assert hashlib.sha256(_outputs().encode()).hexdigest() == OUTPUTS_DIGEST
