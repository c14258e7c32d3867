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
correct = not (checkout / "incorrect").exists()
loss = float((checkout / "loss").read_text())
metrics = {"fast_s": {"value": value, "unit": "s"}, "fast_loss": {"value": loss, "unit": "ratio"}}
sph = checkout / "sph.json"
if sph.exists():
    metrics["sph_s"] = {"value": json.loads(sph.read_text())[runs.count(checkout.name) - 1],
                        "unit": "s"}
print(json.dumps({"correct": correct, "attempted": 4, "failed": 0, "metrics": metrics}))
'''

BENCHMARK = {"end_to_end": [
    {"name": "fast_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "fast_loss", "unit": "ratio", "better": "lower", "bound": 0.25},
]}


def stub_checkout(root, name, values, correct=True, loss=1.5, sph=None):
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB)
    (checkout / "values.json").write_text(json.dumps(values))
    if sph is not None:
        (checkout / "sph.json").write_text(json.dumps(sph))
    (checkout / "loss").write_text(str(loss))
    (checkout / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    if not correct:
        (checkout / "incorrect").touch()
    return checkout


def run_tool(tmp_path, parent, change, out, claim=("--claim", "fast_s")):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "small",
         "--seed", "7", "--pairs", "4", *claim, "--out", str(out)],
        capture_output=True, text=True)


@pytest.mark.parametrize("parent, change, passes", [
    ([0.030, 0.031, 0.029, 0.030], [0.020, 0.021, 0.022, 0.020], True),
    # lower in only 3 of 4 pairs
    ([0.030, 0.031, 0.029, 0.030], [0.020, 0.021, 0.035, 0.020], False),
    # lower in every pair, but by less than the parent's quartile spread
    ([0.020, 0.040, 0.021, 0.041], [0.019, 0.039, 0.020, 0.040], False),
])
def test_pairs_report_and_rule(tmp_path, parent, change, passes):
    out = tmp_path / "report.json"
    done = run_tool(tmp_path, stub_checkout(tmp_path, "parent", parent),
                    stub_checkout(tmp_path, "change", change), out)
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
    assert all(pair["change_correct"] is True for pair in workload["pairs"])
    assert report["incorrect_runs"] == 0
    # the stub reports no sph_s, so there is no sph_s / fast_s ratio
    assert workload["sph_s_per_fast_s"] is None and "sph_s / fast_s" not in done.stdout


def test_incorrect_run_fails_with_no_failed_call(tmp_path):
    # the change wins every pair, but its runs report correct: false (as a
    # run that stops producing a metric does) with 0 failed calls
    out = tmp_path / "report.json"
    done = run_tool(tmp_path, stub_checkout(tmp_path, "parent", [0.030, 0.031, 0.029, 0.030]),
                    stub_checkout(tmp_path, "change", [0.020, 0.021, 0.022, 0.020],
                                  correct=False), out)
    assert done.returncode == 1, done.stderr
    report = json.loads(out.read_text())
    assert report["result"]["small.fast_s"]["passes"] is True
    assert report["failed_calls"] == 0
    assert report["incorrect_runs"] == 4
    pairs = report["workloads"]["small"]["pairs"]
    assert all(p["parent_correct"] is True and p["change_correct"] is False for p in pairs)


@pytest.mark.parametrize("claim", [("--claim", "fast_s"), ()], ids=["claim", "no-claim"])
@pytest.mark.parametrize("change_loss, regressed", [(1.8, False), (1.9, True)])
def test_regression_beyond_bound_fails(tmp_path, claim, change_loss, regressed):
    # fast_s falls in every pair, so a claim on it passes; fast_loss rises
    # from 1.5 to 1.8 (within its 25% bound) or to 1.9 (beyond it)
    out = tmp_path / "report.json"
    done = run_tool(tmp_path, stub_checkout(tmp_path, "parent", [0.030, 0.031, 0.029, 0.030]),
                    stub_checkout(tmp_path, "change", [0.020, 0.021, 0.022, 0.020],
                                  loss=change_loss), out, claim)
    assert done.returncode == (1 if regressed else 0), done.stderr
    report = json.loads(out.read_text())
    assert report["result"] == ({"small.fast_s": report["result"]["small.fast_s"]}
                                if claim else {})
    assert all(verdict["passes"] for verdict in report["result"].values())
    check = report["bounds"]["small.fast_loss"]
    assert (check["parent_median"], check["change_median"]) == (1.5, change_loss)
    assert check["limit"] == 1.875 and check["regressed"] is regressed
    assert report["bounds"]["small.fast_s"]["regressed"] is False
    assert report["regressed"] == (["small.fast_loss"] if regressed else [])


def test_sph_per_fast_ratio_per_side(tmp_path):
    # sph_s / fast_s per run: parent 3, 2, 4, 3 (median 3), change 2, 1,
    # 1.5, 2.5 (median 1.75)
    out = tmp_path / "report.json"
    done = run_tool(tmp_path, stub_checkout(tmp_path, "parent", [0.01, 0.02, 0.01, 0.02],
                                            sph=[0.03, 0.04, 0.04, 0.06]),
                    stub_checkout(tmp_path, "change", [0.01, 0.02, 0.01, 0.02],
                                  sph=[0.02, 0.02, 0.015, 0.05]), out, ())
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["workloads"]["small"]["sph_s_per_fast_s"] == {"parent": 3.0, "change": 1.75}
    assert "small: median sph_s / fast_s: parent 3, change 1.75" in done.stdout.splitlines()
