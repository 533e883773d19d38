"""API-surface gate: the snapshot must match the importable package."""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro import deprecations

pytestmark = pytest.mark.telemetry

ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "check_api_surface.py")
SNAPSHOT = os.path.join(ROOT, "scripts", "api_surface.json")


def run_checker(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT)


def test_public_api_matches_declared_snapshot():
    proc = run_checker()
    assert proc.returncode == 0, \
        "undeclared API break:\n" + proc.stdout + proc.stderr


def test_snapshot_covers_the_telemetry_package():
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        surface = json.load(handle)
    assert "repro.telemetry" in surface
    assert "TelemetryHub" in surface["repro.telemetry"]
    assert "chrome_trace_json" in surface["repro.telemetry"]
    assert surface["repro.cli"]["main"]["kind"] == "function"


def test_removed_name_is_reported_as_break(tmp_path):
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        surface = json.load(handle)
    surface["repro.telemetry"]["definitely_not_real"] = {
        "kind": "function", "parameters": ["x"]}
    doctored = tmp_path / "surface.json"
    doctored.write_text(json.dumps(surface))
    proc = run_checker("--snapshot", str(doctored))
    assert proc.returncode == 1
    assert "repro.telemetry.definitely_not_real removed" in proc.stdout


def test_signature_change_is_reported_as_break(tmp_path):
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        surface = json.load(handle)
    entry = surface["repro.telemetry"]["counter_dict"]
    entry["parameters"] = ["registry", "name", "gone"]
    doctored = tmp_path / "surface.json"
    doctored.write_text(json.dumps(surface))
    proc = run_checker("--snapshot", str(doctored))
    assert proc.returncode == 1
    assert "counter_dict parameters changed" in proc.stdout


def test_additions_do_not_break(tmp_path):
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        surface = json.load(handle)
    # Dropping a module from the snapshot = the code *adds* it: fine.
    del surface["repro.telemetry"]
    doctored = tmp_path / "surface.json"
    doctored.write_text(json.dumps(surface))
    proc = run_checker("--snapshot", str(doctored))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _checker_module():
    spec = importlib.util.spec_from_file_location("check_api_surface",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deprecation_gate_reports_an_undocumented_entry(monkeypatch):
    checker = _checker_module()
    assert deprecations.DEPRECATIONS == {}
    assert checker.find_undocumented_deprecations() == []
    monkeypatch.setitem(deprecations.DEPRECATIONS, "gate-probe",
                        ("Warehouse.gate_probe()", "Warehouse.probe()"))
    problems = checker.find_undocumented_deprecations()
    assert len(problems) == 2
    assert all(problem.startswith("gate-probe: ") for problem in problems)
    assert checker.main(["--deprecations"]) == 1


def test_cached_property_is_recorded_as_property():
    """Memoising a property must not read as removing it."""
    checker = _checker_module()

    class Plain:
        @property
        def size(self):
            return 1

    class Memoised:
        @functools.cached_property
        def size(self):
            return 1

    assert checker._class_surface(Plain) == checker._class_surface(Memoised)
    assert checker._class_surface(Memoised)["methods"] == {
        "size": "property"}
    surface = checker.collect_surface()
    assert surface["repro.cloud.dynamodb"]["DynamoItem"]["methods"][
        "size_bytes"] == "property"
