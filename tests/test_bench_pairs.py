"""tools/bench_pairs.py against two stub checkouts whose perfbench/run.py
prints preset values, so the pairing order, the report and the claim rule
are checked without running the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

STUB = '''
import json, sys
from pathlib import Path
checkout = Path(__file__).resolve().parents[1]
log = checkout.parent / "runs.log"
with log.open("a") as fh:
    fh.write(json.dumps([checkout.name, sys.argv[1:]]) + "\\n")
runs = [json.loads(line)[0] for line in log.read_text().splitlines()]
value = json.loads((checkout / "values.json").read_text())[runs.count(checkout.name) - 1]
print("workload stub")
print(json.dumps({"environment": {"nproc": 2}, "runs": []}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "fast_s": {"value": value, "unit": "s"}, "fast_loss": {"value": 1.5, "unit": "ratio"}}}))
'''


def stub_checkout(root, name, values):
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB)
    (checkout / "values.json").write_text(json.dumps(values))
    return checkout


@pytest.mark.parametrize("parent, change, passes", [
    ([0.030, 0.031, 0.029, 0.030], [0.020, 0.021, 0.022, 0.020], True),
    # lower in only 3 of 4 pairs
    ([0.030, 0.031, 0.029, 0.030], [0.020, 0.021, 0.035, 0.020], False),
    # lower in every pair, but by less than the parent's quartile spread
    ([0.020, 0.040, 0.021, 0.041], [0.019, 0.039, 0.020, 0.040], False),
])
def test_pairs_report_and_rule(tmp_path, parent, change, passes):
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), str(stub_checkout(tmp_path, "parent", parent)),
         str(stub_checkout(tmp_path, "change", change)), "--workload", "small",
         "--seed", "7", "--pairs", "4", "--claim", "fast_s", "--out", str(out)],
        capture_output=True, text=True)
    assert done.returncode == (0 if passes else 1), done.stderr
    runs = [json.loads(line) for line in (tmp_path / "runs.log").read_text().splitlines()]
    assert [name for name, _ in runs] == ["parent", "change", "change", "parent"] * 2
    assert all(argv == ["--workload", "small", "--seed", "7", "--trace", "0"]
               for _, argv in runs)

    report = json.loads(out.read_text())
    verdict = report["result"]["small.fast_s"]
    assert verdict["passes"] is passes
    assert verdict["parent_q1_median_q3"][1] == round(sorted(parent)[1] / 2
                                                      + sorted(parent)[2] / 2, 4)
    workload = report["workloads"]["small"]
    assert [pair["first"] for pair in workload["pairs"]] == ["parent", "change"] * 2
    assert [pair["parent"]["fast_s"] for pair in workload["pairs"]] == parent
    assert [pair["change"]["fast_s"] for pair in workload["pairs"]] == change
    assert all(pair["parent_failed"] == [0, 4] for pair in workload["pairs"])
    assert workload["summary"]["fast_loss"]["change_lower_in"] == "0/4"
    assert report["failed_calls"] == 0
