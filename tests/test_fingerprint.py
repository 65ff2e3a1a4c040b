"""tools/fingerprint.py prints the same lines for the same code.

Its hashes back byte-identity claims made between two trees, so two runs
in one process must agree; no hash is stored, since BLAS builds differ
across hosts.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def _tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_fingerprints_repeat_in_one_process():
    fingerprint = _tool()
    first = fingerprint.fingerprints(quick=True)
    assert first == fingerprint.fingerprints(quick=True)
    names = [name for name, _ in first]
    assert len(names) == len(set(names))
    assert all(len(value) == 16 and int(value, 16) >= 0 for _, value in first)
    # every fit, and each artifact of cdl train and cdl eval
    for fit in ("fit", "fit_two_step", "fit_encoder_only", "fit_mf_baseline"):
        assert f"small/{fit}/report" in names
    for artifact in ("network.npz", "factors.npz", "report.tsv", "manifest.json"):
        assert f"cli/cdl/{artifact}" in names
    assert "cli/eval-cdl/metrics.tsv" in names
    # and of cdl predict (top-N and cold start), sample and grid
    for artifact in ("predict-top/predictions.tsv", "predict-cold/predictions.tsv",
                     "sample/chain.tsv", "sample/chain_summary.json", "grid/grid_runs.tsv",
                     "grid/grid_results.tsv", "grid/best_config.txt", "grid/manifest.json"):
        assert f"cli/{artifact}" in names
    # and the factor sweeps, solves and draws, on both row paths at each K
    for K in (1, 3, 8, 50):
        for call in ("sweep_users", "sweep_users-draw", "sweep_items", "sweep_items-draw"):
            assert f"factors/K{K}/{call}" in names
        for call in ("update_user", "sample_u"):
            assert {f"factors/K{K}/{call}/c{K - 1}", f"factors/K{K}/{call}/c{K}"} <= set(names)


def test_volatile_manifest_fields_and_run_directory_left_out(tmp_path):
    fingerprint = _tool()
    manifest = ('{"args": {"out": "%s/model"}, "seed": 0, "version": "%s", '
                '"wall_seconds": %s, "peak_rss_mb": %s}')
    hashes = set()
    for run, (version, wall, rss) in enumerate([("cdl 0.1.0", 1.5, 80.0),
                                                ("cdl 0.1.0 (abc)", 2.5, 90.0)]):
        root = tmp_path / f"run{run}"
        root.mkdir()
        path = root / "manifest.json"
        path.write_text(manifest % (root, version, wall, rss), encoding="utf-8")
        hashes.add(fingerprint.digest(fingerprint.file_bytes(path, root)))
    assert len(hashes) == 1
