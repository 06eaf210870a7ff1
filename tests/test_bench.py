"""The perf gate of ``repro bench``: interleaved repeats and the gate rules.

Every metric here is a fake callable returning scripted samples, so
no test depends on timing.
"""

import copy
import json

import pytest

import repro.harness.bench as bench
from repro.harness.bench import (
    METRICS,
    REPEATS,
    Metric,
    check_gate,
    format_bench,
    run_bench,
)

#: Returned by each fake metric's warm-up call, which must not be kept.
WARM_UP = 1e9


def _metric(name, samples, backend="numpy", config=None, calls=None):
    """A fake metric: the warm-up sample, then ``samples`` in order."""
    values = iter([WARM_UP, *samples])

    def run(b, **cfg):
        assert b == backend and cfg == (config or {"steps": 10})
        if calls is not None:
            calls.append(name)
        return next(values)

    return Metric(name, backend, config or {"steps": 10}, run)


def _doc(samples_by_name, **kwargs):
    return run_bench(
        [_metric(n, s, **kwargs) for n, s in samples_by_name.items()]
    )


def _steady(value):
    return [value] * REPEATS


class TestMeasurement:
    def test_document_keeps_every_timed_sample(self):
        samples = [float(v) for v in range(100, 100 + REPEATS)]
        doc = _doc({"a": samples})
        m = doc["metrics"]["a"]
        assert m["samples"] == samples  # warm-up dropped
        assert m["median"] == samples[REPEATS // 2]
        assert m["iqr"] > 0
        assert m["backend"] == "numpy" and m["config"] == {"steps": 10}
        assert doc["repeats"] == REPEATS and doc["cpu_count"] >= 1
        assert doc["unavailable"] == {}

    def test_rounds_interleave_the_metrics(self):
        calls = []
        run_bench([
            _metric("a", _steady(1.0), calls=calls),
            _metric("b", _steady(2.0), calls=calls),
        ])
        assert calls == ["a", "b"] * (REPEATS + 1)

    def test_config_is_stored_as_loaded_from_json(self):
        doc = _doc({"a": _steady(5.0)}, config={"dims": (3, 3, 3)})
        loaded = json.loads(json.dumps(doc))
        assert doc["metrics"]["a"]["config"] == {"dims": [3, 3, 3]}
        assert check_gate(loaded, doc) == []

    def test_unavailable_backend_is_not_timed(self, monkeypatch):
        monkeypatch.setattr(
            bench, "backend_status",
            lambda: {"numpy": "available", "cext": "unavailable: no cffi"},
        )

        def never(backend, **config):
            raise AssertionError("timed a metric whose backend is missing")

        doc = run_bench([
            _metric("a", _steady(1.0)),
            Metric("a-cext", "cext", {}, never),
        ])
        assert list(doc["metrics"]) == ["a"]
        assert doc["unavailable"]["a-cext"] == {
            "backend": "cext", "status": "unavailable: no cffi",
        }
        assert "a-cext: not timed" in format_bench(doc)


class TestGate:
    def test_identical_documents_pass(self):
        doc = _doc({"a": _steady(100.0), "b": _steady(7.0)})
        assert check_gate(doc, copy.deepcopy(doc)) == []

    def test_median_drop_beyond_threshold_fails(self):
        base = _doc({"a": _steady(100.0)})
        fresh = _doc({"a": _steady(65.0)})
        (failure,) = check_gate(base, fresh)
        assert "a: median 65 is 35.0% below baseline 100" in failure

    def test_drop_within_threshold_passes(self):
        base = _doc({"a": _steady(100.0)})
        assert check_gate(base, _doc({"a": _steady(75.0)})) == []

    def test_single_slow_sample_passes(self):
        base = _doc({"a": _steady(100.0)})
        slow = _steady(100.0)
        slow[REPEATS // 2] = 10.0
        assert check_gate(base, _doc({"a": slow})) == []

    def test_backend_mismatch_is_refused(self):
        # A baseline recorded on cext against a run timed on numpy.
        fresh = _doc({"machine_1728p": _steady(100.0)})
        base = copy.deepcopy(fresh)
        base["metrics"]["machine_1728p"]["backend"] = "cext"
        (failure,) = check_gate(base, fresh)
        assert "backend 'numpy' differs from the baseline's 'cext'" in failure

    def test_config_mismatch_is_refused(self):
        base = _doc({"a": _steady(100.0)})
        fresh = _doc({"a": _steady(100.0)}, config={"steps": 20})
        (failure,) = check_gate(base, fresh)
        assert "config" in failure

    def test_unavailable_backend_is_refused(self, monkeypatch):
        base = _doc({"a": _steady(1.0)}, backend="cext")
        monkeypatch.setattr(
            bench, "backend_status",
            lambda: {"numpy": "available", "cext": "unavailable: no cffi"},
        )
        fresh = _doc({"a": _steady(1.0)}, backend="cext")
        (failure,) = check_gate(base, fresh)
        assert "refusing to time a fallback" in failure

    def test_disjoint_metrics_are_refused(self):
        # The batch gate's labels: k64_ppc2 fresh vs a k256 baseline.
        base = _doc({"k256_ppc2": _steady(1.0), "k256_ppc4": _steady(1.0)})
        fresh = _doc({"k64_ppc2": _steady(1.0)})
        failures = check_gate(base, fresh)
        assert failures == [
            "k256_ppc2: missing from the fresh run",
            "k256_ppc4: missing from the fresh run",
            "k64_ppc2: not in the baseline",
        ]

    def test_missing_metric_is_refused(self):
        base = _doc({"a": _steady(1.0), "b": _steady(1.0)})
        fresh = _doc({"a": _steady(1.0)})
        assert check_gate(base, fresh) == ["b: missing from the fresh run"]

    def test_empty_baseline_is_refused(self):
        fresh = _doc({"a": _steady(1.0)})
        assert check_gate({}, fresh) == ["the baseline holds no metrics"]


class TestMetricSet:
    def test_names_backends_and_configs(self):
        by_name = {m.name: m for m in METRICS}
        assert len(by_name) == len(METRICS)
        assert {n: m.backend for n, m in by_name.items()} == {
            "engine/reuse": "numpy",
            "engine/reuse-cext": "cext",
            "machine/reuse": "numpy",
            "machine/reuse-cext": "cext",
            "machine/reuse-eval": "numpy",
            "batch/k64_ppc2": "numpy",
            "batch/k64_ppc2-cext": "cext",
            "machine_1728p": "cext",
            "distributed_1728p": "numpy",
            "distributed_1728p-cext": "cext",
        }
        for m in METRICS:
            json.dumps(m.config)


class TestCLI:
    def _patched(self, monkeypatch, doc):
        monkeypatch.setattr(bench, "run_bench", lambda: copy.deepcopy(doc))

    def test_writes_json_then_passes_against_it(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        self._patched(monkeypatch, _doc({"a": _steady(100.0)}))
        out = tmp_path / "gate.json"
        assert main(["bench", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["metrics"]["a"]["median"] == 100.0
        assert main(["bench", "--baseline", str(out)]) == 0
        assert "perf gate vs" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        base = tmp_path / "gate.json"
        base.write_text(json.dumps(_doc({"a": _steady(1000.0)})))
        self._patched(monkeypatch, _doc({"a": _steady(100.0)}))
        assert main(["bench", "--baseline", str(base)]) == 1
        assert "PERF GATE FAILED" in capsys.readouterr().out

    def test_missing_baseline_exits_nonzero(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        def never():
            raise AssertionError("measured without a baseline to gate")

        monkeypatch.setattr(bench, "run_bench", never)
        assert main(["bench", "--baseline", str(tmp_path / "none")]) == 1
        assert "no baseline" in capsys.readouterr().out

    def test_baseline_is_refused_by_other_commands(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["batch", "--smoke", "--baseline", "gate.json"])
        assert exc.value.code == 2
        assert "--baseline is for `bench`" in capsys.readouterr().err
