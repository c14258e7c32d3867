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
