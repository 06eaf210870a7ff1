"""The parallel campaign runner, its document and its CLI."""

import copy

import pytest

from repro.harness.campaign import (
    CampaignPoint,
    build_default_campaign,
    format_campaign,
    point,
    run_campaign,
    worker_names,
)
from repro.util.errors import ValidationError


def _small_points():
    """Cheap heterogeneous points: analytic model workers only."""
    return [
        point("fpga_scaling", label="scaling/1", n_fpgas=1),
        point("sensitivity", label="sens/lo", pf=0.9, pb=1.0),
        point("sensitivity", label="sens/hi", pf=1.1, pb=1.0),
        point("filter_ablation", label="filt/6", filters=6),
    ]


class TestRunner:
    def test_serial_matches_parallel_bitwise(self):
        """The determinism contract: merged deterministic payloads are
        identical whether points run inline or across processes."""
        pts = _small_points()
        ser = run_campaign(pts, parallel=False)
        par = run_campaign(pts, parallel=True, max_workers=2)
        assert ser.deterministic() == par.deterministic()
        assert ser.mode == "serial" and par.mode == "parallel"
        assert [p["label"] for p in par.results] == [
            p.label for p in pts
        ]  # submission order, not completion order

    def test_reruns_are_reproducible(self):
        pts = _small_points()
        a = run_campaign(pts)
        b = run_campaign(pts)
        assert a.deterministic() == b.deterministic()

    def test_duplicate_labels_rejected(self):
        pts = [
            point("sensitivity", label="x", pf=0.9),
            point("sensitivity", label="x", pf=1.1),
        ]
        with pytest.raises(ValidationError, match="unique"):
            run_campaign(pts)

    def test_unknown_worker_rejected(self):
        with pytest.raises(ValidationError, match="unknown campaign worker"):
            run_campaign([CampaignPoint("no-such-worker")])

    def test_registry_has_the_standard_workers(self):
        names = worker_names()
        for expected in (
            "engine_rate", "machine_rate", "fpga_scaling",
            "sensitivity", "filter_ablation",
        ):
            assert expected in names

    def test_default_campaign_points_have_unique_labels(self):
        pts = build_default_campaign()
        labels = [p.label for p in pts]
        assert len(labels) == len(set(labels))
        assert len(pts) >= 10


def _fake_doc():
    """A campaign-shaped document for the format and CLI tests."""
    return {
        "n_points": 2,
        "cpu_count": 4,
        "parallel_wall_s": 1.0,
        "parallel_workers": 2,
        "points": {
            "engine/fresh": {
                "label": "engine/fresh",
                "result": {
                    "rebuild_rate": 1.0,
                    "timing": {"steps_per_s": 100.0},
                },
            },
            "scaling/8": {
                "label": "scaling/8",
                "result": {"rate_us_per_day": 12.0},
            },
        },
    }


class TestFormat:
    def test_format_campaign_renders(self):
        text = format_campaign(_fake_doc())
        assert "engine/fresh" in text and "rate_us_per_day" in text
        assert "cpu_count=4" in text


class TestCLI:
    def _patched(self, monkeypatch, doc):
        import repro.harness.campaign as campaign_mod

        monkeypatch.setattr(
            campaign_mod, "run_default_campaign",
            lambda **kwargs: copy.deepcopy(doc),
        )

    def test_campaign_writes_json(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main
        from repro.harness.campaign import load_campaign_json

        self._patched(monkeypatch, _fake_doc())
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--json", str(out)])
        assert code == 0
        assert load_campaign_json(str(out))["n_points"] == 2
        assert "engine/fresh" in capsys.readouterr().out


class TestSweepWiring:
    def test_fpga_scaling_parallel_identical(self):
        from repro.harness.sweeps import run_fpga_scaling

        ser = run_fpga_scaling(node_counts=(1, 8))
        par = run_fpga_scaling(node_counts=(1, 8), parallel=True)
        assert [
            (r.n_fpgas, r.config, r.rate_us_per_day, r.speedup, r.efficiency)
            for r in ser.rows
        ] == [
            (r.n_fpgas, r.config, r.rate_us_per_day, r.speedup, r.efficiency)
            for r in par.rows
        ]

    def test_filter_sweep_parallel_identical(self):
        from repro.harness.ablations import run_filter_sweep

        ser = run_filter_sweep(filter_counts=(2, 6))
        par = run_filter_sweep(filter_counts=(2, 6), parallel=True)
        assert ser == par
