"""Smoke tests: every example runs end-to-end.

Each takes a few seconds at most; these guard against API drift
breaking the documented entry points, and reach the modules only the
examples use (``md/trajectory.py``, ``md/analysis.py``).
"""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, capsys):
    runpy.run_path(os.path.join(EXAMPLES, name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "simulation rate" in out
    assert "paper: ~2" in out


def test_straggler_resilience(capsys):
    out = run_example("straggler_resilience.py", capsys)
    assert "chained sync" in out
    assert "makespan" in out


def test_custom_cluster_design(capsys):
    out = run_example("custom_cluster_design.py", capsys)
    assert "chosen design" in out
    assert "OK" in out


def test_crystal_melting(capsys):
    out = run_example("crystal_melting.py", capsys)
    assert "trajectory frames written: 4" in out


def test_distributed_execution(capsys):
    out = run_example("distributed_execution.py", capsys)
    assert "accounting predicts 2240" in out


def test_drug_screening_throughput(capsys):
    out = run_example("drug_screening_throughput.py", capsys)
    assert "FASDA speedup over the best GPU" in out


def test_electrostatics_salt(capsys):
    out = run_example("electrostatics_salt.py", capsys)
    assert "max force error" in out


def test_physics_validation(capsys):
    out = run_example("physics_validation.py", capsys)
    assert "g(r) RMS difference" in out


def test_strong_scaling_study(capsys):
    out = run_example("strong_scaling_study.py", capsys)
    assert "2-SPE 3-PE" in out
