"""The behaviour gate: the ``tools/trace_digest.py`` subset (small seeds
0-7, dense seed 0 and the config-file group) is regenerated with the
tool's own functions and compared with the committed manifest under its
``--compare`` rule: every ``.cells``, ``.notes``, ``.csv`` and ``cli`` file
byte-identical (by sha256), every loss within 1e-12 relative.

A change that means to alter the traces regenerates the manifest with
``PYTHONPATH=src python3 tools/trace_digest.py --manifest
tests/data/digest_manifest.json`` and says why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "digest_manifest.json"


def load_trace_digest():
    path = ROOT / "tools" / "trace_digest.py"
    spec = importlib.util.spec_from_file_location("trace_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_subset_matches_manifest(tmp_path):
    digest = load_trace_digest()
    digest.gate_subset(tmp_path)
    groups, failures = digest.compare_manifests(
        json.loads(MANIFEST.read_text()), digest.manifest(tmp_path), ("manifest", "regenerated"))
    assert failures == []
    assert {name: group["files"] for name, group in groups.items()} == \
        {"cli": 10, "dense": 20, "small": 160}


def test_compare_rule_on_manifests():
    digest = load_trace_digest()
    base = {"small/a.csv": "00", "small/a.losses": ["1.0", "0.5"]}
    assert digest.compare_manifests(base, dict(base), ("x", "y"))[1] == []
    near = dict(base, **{"small/a.losses": ["1.0", repr(0.5 * (1 + 1e-13))]})
    assert digest.compare_manifests(base, near, ("x", "y"))[1] == []
    far = dict(base, **{"small/a.losses": ["1.0", repr(0.5 * (1 + 1e-11))]})
    assert len(digest.compare_manifests(base, far, ("x", "y"))[1]) == 1
    assert digest.compare_manifests(base, dict(base, **{"small/a.csv": "01"}),
                                    ("x", "y"))[1] == ["small/a.csv: differs"]
    assert digest.compare_manifests(base, {"small/a.csv": "00"},
                                    ("x", "y"))[1] == ["small/a.losses: only in x"]


def test_compare_names_the_columns_a_csv_differs_in(tmp_path, capsys):
    digest = load_trace_digest()
    header = ("iteration,cells_total,loss,cumulative_seconds,cumulative_solver_calls,"
              "cumulative_solver_iterations")
    for side, iterations, extra in (("a", 10, ""), ("b", 12, "1,1,2.0,0,2,20\n")):
        directory = tmp_path / side / "dense"
        directory.mkdir(parents=True)
        (directory / "sph_seed0.csv").write_text(f"{header}\n0,0,2.5,0,1,{iterations}\n")
        (directory / "sph_seed0.losses").write_text("2.5\n")
        (directory / "random_seed0.csv").write_text(f"{header}\n0,0,2.5,0,1,10\n{extra}")
    assert digest.compare(tmp_path / "a", tmp_path / "b") == 1
    out = capsys.readouterr().out
    assert "dense: 3 files, 2 differ" in out
    assert "FAIL dense/sph_seed0.csv: differs in cumulative_solver_iterations\n" in out
    assert "FAIL dense/random_seed0.csv: differs\n" in out


def test_an_option_is_not_taken_for_an_out_dir(tmp_path, monkeypatch):
    digest = load_trace_digest()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        digest.main(["--help"])
    assert stop.value.code not in (0, None)
    assert str(stop.value).startswith("usage: trace_digest.py OUT_DIR")
    assert list(tmp_path.iterdir()) == []


def test_compare_counts_the_differing_files_of_each_run(tmp_path, capsys):
    digest = load_trace_digest()
    for side in ("a", "b"):
        for group in ("dense", "cli"):
            (tmp_path / side / group).mkdir(parents=True)
        for name in ("fast", "exact", "sph"):
            for seed in range(3):
                changed = side == "b" and (name == "exact" or (name == "fast" and seed < 2))
                text = f"{name} {seed}{' changed' if changed else ''}\n"
                (tmp_path / side / "dense" / f"{name}_seed{seed}.cells").write_text(text)
        (tmp_path / side / "cli" / "eval.loss").write_text("1.0\n")
    assert digest.compare(tmp_path / "a", tmp_path / "b") == 1
    out = capsys.readouterr().out
    assert "dense: 9 files, 5 differ (exact 3, fast 2), largest" in out
    assert "cli: 1 files, 0 differ, largest" in out


def test_compare_warns_when_only_the_environment_differs(tmp_path, capsys):
    digest = load_trace_digest()
    for side, threads in (("a", 1), ("b", 2)):
        (tmp_path / side / "small").mkdir(parents=True)
        (tmp_path / side / "small" / "fast_seed0.losses").write_text("2.5\n")
        (tmp_path / side / "environment.txt").write_text(
            f"blas = scipy-openblas\nblas_version = 0.3.27\nblas_threads = {threads}\n")
    assert digest.compare(tmp_path / "a", tmp_path / "b") == 0
    out = capsys.readouterr().out
    assert f"environment {tmp_path / 'a'}: blas = scipy-openblas, blas_version = 0.3.27, " \
        "blas_threads = 1\n" in out
    assert "blas_threads = 2\n" in out
    assert "\nWARN the environments differ" in out
    assert "small: 1 files, 0 differ" in out
