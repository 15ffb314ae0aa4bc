"""The benchmark harness in bench/, run end to end on a short round."""

import json
import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).parents[1] / "bench" / "run.py"


def test_traced_bisim_round_is_correct_and_counts_compose_batch():
    # --trace 1 wraps gapmc's functions from outside (bench/spans.py): the
    # compose_batch hook counts the len(rules) entries of each result list
    # and the ones that are not None, so a change to that shape shows here
    out = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--workload", "bisim", "--seed", "1",
         "--seconds", "0.3", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert 0 < result["metrics"]["mg.compose_batch.kept_ratio"]["value"] <= 1
