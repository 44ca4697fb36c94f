"""``tools/opcount.py``: exact work counts that do not move with the hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "opcount.py"


def test_find_counts_are_equal_under_two_hash_seeds():
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        runs.append(subprocess.Popen([sys.executable, str(SCRIPT), "find", "--seed", "7"],
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     env=env, text=True))
    records = []
    for run in runs:
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, err
        [line] = out.splitlines()
        records.append(json.loads(line))
    first, second = records
    assert first == second
    assert first["workload"] == "find" and first["seed"] == 7
    assert len(first["ops"]) == 13 and all(n > 0 for n in first["ops"])
    assert first["total"] == sum(first["ops"])
