"""Campaign journaling, kill-and-resume, and per-point retries.

The crashing/flaky workers communicate through filesystem side channels
whose paths travel via environment variables — *not* via point params —
so the journaled payloads stay byte-identical between the killed run and
the resumed run (the identity the resume contract is about).
"""

import json
import os
import signal

import pytest

from repro.harness.campaign import (
    CampaignPoint,
    load_journal,
    point,
    point_fingerprint,
    run_campaign,
    run_default_campaign,
)
from repro.util.errors import CampaignError, ValidationError

from repro.harness.campaign import register_worker


@register_worker("resume_marker")
def _marker_worker(seed, x=0):
    path = os.environ.get("RESUME_MARKER_DIR")
    if path:
        open(os.path.join(path, f"executed-{x}-{os.getpid()}"), "w").write("")
    return {"val": seed + x}


@register_worker("resume_kaboom")
def _kaboom_worker(seed):
    sentinel = os.environ["RESUME_KABOOM_SENTINEL"]
    if not os.path.exists(sentinel):
        open(sentinel, "w").write("armed")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"val": seed * 2}


@register_worker("resume_flaky")
def _flaky_worker(seed):
    sentinel = os.environ["RESUME_FLAKY_SENTINEL"]
    if not os.path.exists(sentinel):
        open(sentinel, "w").write("armed")
        raise RuntimeError("transient worker failure")
    return {"val": seed + 100}


def _points(n=4):
    return [
        point("resume_marker", seed=1, label=f"m{i}", x=i) for i in range(n)
    ]


class TestJournal:
    def test_journal_records_every_point(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        result = run_campaign(_points(), journal=journal)
        entries = load_journal(journal)
        assert len(entries) == 4
        keys = {point_fingerprint(p) for p in result.points}
        assert set(entries) == keys
        for entry in entries.values():
            assert entry["payload"]["result"]["val"] == 1 + entry["payload"]["params"]["x"]

    def test_fingerprint_changes_with_params(self):
        a = point("resume_marker", seed=1, label="a", x=1)
        b = point("resume_marker", seed=1, label="a", x=2)
        c = point("resume_marker", seed=2, label="a", x=1)
        assert len({point_fingerprint(p) for p in (a, b, c)}) == 3

    def test_torn_tail_tolerated(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_campaign(_points(), journal=journal)
        with open(journal, "a") as fh:
            fh.write('{"key": "torn, never flu')
        assert len(load_journal(journal)) == 4


class TestResume:
    def test_full_resume_executes_nothing(self, tmp_path, monkeypatch):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        journal = str(tmp_path / "run.jsonl")
        first = run_campaign(_points(), journal=journal)
        monkeypatch.setenv("RESUME_MARKER_DIR", str(marker_dir))
        resumed = run_campaign(_points(), resume=journal)
        assert resumed.n_resumed == 4
        assert list(marker_dir.iterdir()) == []  # no point executed twice
        assert resumed.deterministic() == first.deterministic()

    def test_partial_resume_executes_only_remainder(self, tmp_path, monkeypatch):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        full = str(tmp_path / "full.jsonl")
        first = run_campaign(_points(), journal=full)
        # Simulate a run killed after two completions.
        partial = str(tmp_path / "partial.jsonl")
        lines = open(full).read().splitlines()
        open(partial, "w").write("\n".join(lines[:2]) + "\n")
        monkeypatch.setenv("RESUME_MARKER_DIR", str(marker_dir))
        resumed = run_campaign(_points(), resume=partial, journal=partial)
        assert resumed.n_resumed == 2
        assert len(list(marker_dir.iterdir())) == 2
        assert resumed.deterministic() == first.deterministic()
        # The journal is now complete: a second resume executes nothing.
        for f in marker_dir.iterdir():
            f.unlink()
        again = run_campaign(_points(), resume=partial)
        assert again.n_resumed == 4
        assert list(marker_dir.iterdir()) == []

    def test_resume_into_fresh_journal_carries_entries(self, tmp_path):
        old = str(tmp_path / "old.jsonl")
        run_campaign(_points(), journal=old)
        new = str(tmp_path / "new.jsonl")
        run_campaign(_points(), resume=old, journal=new)
        assert set(load_journal(new)) == set(load_journal(old))

    def test_edited_point_reruns(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_campaign(_points(), journal=journal)
        edited = _points()
        edited[0] = point("resume_marker", seed=99, label="m0", x=0)
        resumed = run_campaign(edited, resume=journal)
        assert resumed.n_resumed == 3
        assert resumed.merged()["m0"]["result"]["val"] == 99


class TestRetries:
    def test_serial_failure_without_retries_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "RESUME_FLAKY_SENTINEL", str(tmp_path / "flaky.sentinel")
        )
        with pytest.raises(CampaignError, match="failed after 1 attempt"):
            run_campaign([point("resume_flaky", seed=3, label="fl")])

    def test_serial_retry_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "RESUME_FLAKY_SENTINEL", str(tmp_path / "flaky.sentinel")
        )
        result = run_campaign(
            [point("resume_flaky", seed=3, label="fl")],
            retries=1, retry_backoff_s=0.001,
        )
        assert result.results[0]["result"]["val"] == 103

    def test_negative_retries_rejected(self):
        with pytest.raises(ValidationError):
            run_campaign(_points(1), retries=-1)


class TestParallelKillAndResume:
    def test_sigkilled_child_retried_and_identical_to_serial(
        self, tmp_path, monkeypatch
    ):
        """A SIGKILLed pool child breaks the pool; retry must rebuild it."""
        monkeypatch.setenv(
            "RESUME_KABOOM_SENTINEL", str(tmp_path / "kaboom.sentinel")
        )
        pts = [point("resume_kaboom", seed=5, label="kb")] + _points()
        journal = str(tmp_path / "run.jsonl")
        par = run_campaign(
            pts, parallel=True, max_workers=2, journal=journal,
            retries=2, retry_backoff_s=0.001,
        )
        assert par.merged()["kb"]["result"]["val"] == 10
        ser = run_campaign(pts)  # sentinel now armed: serial is clean
        assert par.deterministic() == ser.deterministic()
        assert len(load_journal(journal)) == len(pts)

    def test_killed_run_resumes_to_identical_result(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "RESUME_KABOOM_SENTINEL", str(tmp_path / "kaboom.sentinel")
        )
        pts = [point("resume_kaboom", seed=5, label="kb")] + _points()
        full = str(tmp_path / "full.jsonl")
        uninterrupted = run_campaign(
            pts, parallel=True, max_workers=2, journal=full,
            retries=2, retry_backoff_s=0.001,
        )
        # A journal truncated mid-run stands in for the killed process.
        partial = str(tmp_path / "partial.jsonl")
        lines = open(full).read().splitlines()
        open(partial, "w").write("\n".join(lines[:3]) + "\n")
        resumed = run_campaign(
            pts, parallel=True, max_workers=2, resume=partial,
            retries=2, retry_backoff_s=0.001,
        )
        assert resumed.n_resumed == 3
        assert resumed.deterministic() == uninterrupted.deterministic()

    def test_kill_without_retries_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "RESUME_KABOOM_SENTINEL", str(tmp_path / "kaboom.sentinel")
        )
        pts = [point("resume_kaboom", seed=5, label="kb"),
               point("resume_marker", seed=1, label="m0", x=0)]
        with pytest.raises(CampaignError, match="failed after"):
            run_campaign(pts, parallel=True, max_workers=2,
                         retry_backoff_s=0.001)


class TestDefaultCampaignResume:
    def test_resumed_default_campaign_matches(self, tmp_path):
        """Default-campaign kill-and-resume smoke at tiny scale."""
        journal = str(tmp_path / "bench.jsonl")
        kwargs = dict(
            seed=3, steps=2, dims=(3, 3, 3), compare_serial=False,
            max_workers=2,
        )
        fresh = run_default_campaign(journal=journal, **kwargs)
        partial = str(tmp_path / "partial.jsonl")
        lines = open(journal).read().splitlines()
        open(partial, "w").write("\n".join(lines[: len(lines) // 2]) + "\n")
        resumed = run_default_campaign(resume=partial, **kwargs)
        assert resumed["n_resumed"] == len(lines) // 2

        def strip(doc):
            """The deterministic campaign document content, JSON-normalized.

            Resumed payloads have been through the JSONL journal (tuples
            become lists), so the identity that matters — byte-identical
            written documents — is over the JSON form.
            """
            pts = {}
            for label, payload in doc["points"].items():
                res = {
                    k: v for k, v in payload["result"].items() if k != "timing"
                }
                pts[label] = {**payload, "result": res}
            return json.loads(json.dumps(pts, sort_keys=True))

        assert strip(resumed) == strip(fresh)
