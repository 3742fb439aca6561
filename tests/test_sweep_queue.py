"""Work-queue runner: claims, reaping, failures, crash-resume, idempotence."""

import errno
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.campaign.cache import ResultCache
from repro.experiments.campaign.runner import execute_job
from repro.experiments.sweep import (
    CLAIM_SCHEMA,
    SweepAxis,
    SweepSpec,
    aggregate_sweep,
    read_claim,
    release_claim,
    run_sweep_worker,
    scan_claims,
    sweep_status,
    write_aggregate,
)
from repro.experiments.sweep import queue as sweep_queue
from repro.experiments.sweep.queue import reap_stale_claims

REPO = pathlib.Path(__file__).resolve().parent.parent

FAST = {"sim_time": 0.5, "warmup": 0.1}


def small_spec(**overrides):
    kwargs = dict(
        name="queue",
        axes=(
            SweepAxis("scheme", ("FIFO_NONE", "FIFO_THRESHOLD")),
            SweepAxis("seed", (1, 2)),
        ),
        base=FAST,
        metrics=("utilization", "loss"),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def claim_path(root, digest):
    return pathlib.Path(root) / f"{digest}.claim"


def try_claim(root, digest, owner):
    """Claim a cell as a worker does; its claim path, or None when held."""
    path = claim_path(root, digest)
    return path if sweep_queue._claim(str(path), digest, owner) else None


def age_claim(path, seconds=300.0):
    """Rewind a claim's mtime so it reads as orphaned (no wall clock)."""
    stat = os.stat(path)
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


def serial_aggregate_bytes(spec, root):
    cache = ResultCache(root)
    for _params, job in spec.jobs():
        if job.digest() not in cache:
            cache.put(execute_job(job))
    out = pathlib.Path(root) / "aggregate.json"
    write_aggregate(aggregate_sweep(spec, cache), out)
    return out.read_bytes()


# Module-level so ProcessPoolExecutor can pickle them by reference.


def _race_claim(payload):
    root, digest, owner = payload
    return owner if try_claim(root, digest, owner) else None


def _race_reap(payload):
    root, timeout = payload
    return len(reap_stale_claims(root, timeout))


class TestClaims:
    def test_try_claim_is_exclusive_and_carries_owner(self, tmp_path):
        path = try_claim(tmp_path, "a" * 64, "w1")
        assert path == claim_path(tmp_path, "a" * 64)
        assert try_claim(tmp_path, "a" * 64, "w2") is None
        payload = read_claim(path)
        assert payload["schema"] == CLAIM_SCHEMA
        assert payload["owner"] == "w1"
        assert payload["digest"] == "a" * 64
        assert payload["pid"] == os.getpid()

    def test_release_is_idempotent(self, tmp_path):
        path = try_claim(tmp_path, "a" * 64, "w1")
        release_claim(path)
        release_claim(path)  # second release: no error
        assert try_claim(tmp_path, "a" * 64, "w1") is not None

    def test_read_claim_rejects_corrupt_and_foreign(self, tmp_path):
        bad = tmp_path / "x.claim"
        bad.write_text("not json")
        assert read_claim(bad) is None
        bad.write_text('{"schema": "other-v1"}')
        assert read_claim(bad) is None
        assert read_claim(tmp_path / "missing.claim") is None

    def test_scan_classifies_fresh_vs_stale(self, tmp_path):
        fresh = try_claim(tmp_path, "a" * 64, "w1")
        stale = try_claim(tmp_path, "b" * 64, "w2")
        age_claim(stale)
        claims = {c.digest: c for c in scan_claims(tmp_path, 60.0)}
        assert not claims["a" * 64].stale
        assert claims["b" * 64].stale
        release_claim(fresh)

    def test_reap_removes_only_stale(self, tmp_path):
        try_claim(tmp_path, "a" * 64, "w1")
        stale = try_claim(tmp_path, "b" * 64, "w2")
        age_claim(stale)
        assert reap_stale_claims(tmp_path, 60.0) == ["b" * 64]
        assert claim_path(tmp_path, "a" * 64).exists()
        assert not stale.exists()
        assert reap_stale_claims(tmp_path, 60.0) == []

    def test_claim_race_has_exactly_one_winner(self, tmp_path):
        digest = "c" * 64
        payloads = [(str(tmp_path), digest, f"w{i}") for i in range(8)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            winners = [w for w in pool.map(_race_claim, payloads) if w]
        assert len(winners) == 1

    def test_racing_reapers_count_each_claim_exactly_once(self, tmp_path):
        stale_count = 6
        for i in range(stale_count):
            path = try_claim(tmp_path, f"{i:064d}", f"w{i}")
            age_claim(path)
        payloads = [(str(tmp_path), 60.0)] * 4
        with ProcessPoolExecutor(max_workers=4) as pool:
            counts = list(pool.map(_race_reap, payloads))
        assert sum(counts) == stale_count
        assert scan_claims(tmp_path, 60.0) == []


class TestWorker:
    def test_single_worker_completes_the_grid(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        summary = run_sweep_worker(spec, cache, "w1")
        assert summary.executed == 4
        assert summary.outstanding == 0
        assert summary.reaped == 0
        status = sweep_status(spec, cache)
        assert status.complete
        assert (status.completed, status.pending) == (4, 0)
        assert scan_claims(tmp_path) == []  # all claims released

    def test_warm_rerun_is_pure_cache_replay(self, tmp_path):
        spec = small_spec()
        run_sweep_worker(spec, ResultCache(tmp_path), "w1")
        cache = ResultCache(tmp_path)
        summary = run_sweep_worker(spec, cache, "w2")
        assert summary.executed == 0
        assert summary.passes == 1
        # Lifetime stats record the replay: every cell was a cache hit
        # (the worker folds its counters into stats.meta on exit).
        assert cache.persisted_stats()["hits"] == 4

    def test_live_peer_claim_is_respected(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        _params, first_job = next(iter(spec.jobs()))
        peer = try_claim(tmp_path, first_job.digest(), "peer")
        summary = run_sweep_worker(spec, cache, "w1")
        assert summary.executed == 3
        assert summary.outstanding == 1
        assert peer.exists()  # fresh claims are never reaped
        release_claim(peer)

    def test_stale_claim_is_reaped_and_cell_executed(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        _params, first_job = next(iter(spec.jobs()))
        corpse = try_claim(tmp_path, first_job.digest(), "dead")
        age_claim(corpse)
        summary = run_sweep_worker(spec, cache, "w1")
        assert summary.reaped == 1
        assert summary.executed == 4
        assert sweep_status(spec, cache).complete

    def test_rejects_nonpositive_timeout(self, tmp_path):
        with pytest.raises(ConfigurationError, match="must be positive"):
            run_sweep_worker(
                small_spec(), ResultCache(tmp_path), heartbeat_timeout=0.0
            )

    def test_preflight_rejection_names_the_job_and_releases_its_claim(self, tmp_path):
        import dataclasses

        from repro.experiments.campaign import ScenarioJob
        from repro.experiments.fabric.demo import demo_tandem

        scenario = demo_tandem(hops=2, sim_time=0.5)
        starved = ScenarioJob(
            dataclasses.replace(
                scenario,
                nodes=tuple(
                    node
                    if node.buffer_size is None
                    else dataclasses.replace(node, buffer_size=2000.0)
                    for node in scenario.nodes
                ),
            )
        )

        class OneStarvedCell:
            def digest(self):
                return "0" * 64

            def jobs(self):
                yield {}, starved

        with pytest.raises(ConfigurationError) as excinfo:
            run_sweep_worker(
                OneStarvedCell(), ResultCache(tmp_path), owner="w", preflight=True
            )
        assert str(excinfo.value).startswith(
            f"sweep pre-flight rejected job {starved.digest()[:12]}: "
        )
        assert not list(tmp_path.glob("*.claim"))

    def test_negative_seed_fails_before_its_cell_is_claimed(self, tmp_path):
        # Used to be claimed, pass pre-flight and raise inside the run,
        # leaving its claim behind for the next worker to run into.
        spec = small_spec(axes=(SweepAxis("seed", (1, -1)),))
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            run_sweep_worker(spec, ResultCache(tmp_path), owner="w", preflight=True)
        assert not list(tmp_path.glob("*.claim"))

    def test_two_concurrent_workers_partition_the_grid(self, tmp_path):
        spec = small_spec(axes=(SweepAxis("seed", (1, 2, 3, 4, 5, 6)),))
        summaries = {}

        def work(name):
            summaries[name] = run_sweep_worker(
                spec, ResultCache(tmp_path), name, wait=True, poll_interval=0.05
            )

        threads = [
            threading.Thread(target=work, args=(name,))
            for name in ("w1", "w2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        executed = sum(s.executed for s in summaries.values())
        assert executed == 6  # six cells, so none executed twice
        assert sweep_status(spec, ResultCache(tmp_path)).complete

    def test_later_passes_revisit_only_cells_claimed_elsewhere(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec()
        _params, job = next(iter(spec.jobs()))
        peer_record = execute_job(job)
        peer = try_claim(tmp_path, job.digest(), "peer")
        built = []
        job_for_cell = SweepSpec.job_for_cell
        monkeypatch.setattr(
            SweepSpec,
            "job_for_cell",
            lambda self, params: built.append(params) or job_for_cell(self, params),
        )
        passes = []
        reap = sweep_queue.reap_stale_claims

        def reap_at_the_top_of_a_pass(root, timeout):
            passes.append(root)
            if len(passes) == 4:  # the peer finishes while w1 polls
                ResultCache(tmp_path).put(peer_record)
                release_claim(peer)
            return reap(root, timeout)

        monkeypatch.setattr(sweep_queue, "reap_stale_claims", reap_at_the_top_of_a_pass)
        summary = run_sweep_worker(
            spec, ResultCache(tmp_path), "w1", wait=True, poll_interval=0.01
        )
        assert (summary.executed, summary.passes, summary.outstanding) == (3, 4, 0)
        # The grid was expanded once; passes 2-4 looked at the peer's cell.
        assert len(built) == 4


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


class TestHeartbeat:
    def test_one_thread_serves_every_cell_of_a_call(self, tmp_path, started_threads):
        spec = small_spec()
        assert run_sweep_worker(spec, ResultCache(tmp_path), "w1").executed == 4
        assert len(started_threads) == 1
        # A warm pass executes nothing, so it has no claim to keep fresh.
        assert run_sweep_worker(spec, ResultCache(tmp_path), "w2").executed == 0
        assert len(started_threads) == 1
        assert not started_threads[0].is_alive()

    def test_long_cell_keeps_its_claim_fresh(self, tmp_path, monkeypatch):
        fresher = []

        def slow_execute(job):
            [claim] = tmp_path.glob("*.claim")
            age_claim(claim, seconds=10.0)
            before = os.stat(claim).st_mtime
            time.sleep(0.3)
            fresher.append(os.stat(claim).st_mtime > before)
            return execute_job(job)

        monkeypatch.setattr(sweep_queue, "execute_job", slow_execute)
        spec = small_spec(axes=(SweepAxis("seed", (1, 2)),))
        run_sweep_worker(spec, ResultCache(tmp_path), "w1", heartbeat_interval=0.05)
        assert fresher == [True, True]  # the one thread followed the second claim

    def test_no_thread_outlives_a_call_whose_cell_raises(
        self, tmp_path, monkeypatch, started_threads
    ):
        def failing_execute(job):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(sweep_queue, "execute_job", failing_execute)
        with pytest.raises(RuntimeError, match="exploded"):
            run_sweep_worker(small_spec(), ResultCache(tmp_path), "w1")
        assert len(started_threads) == 1
        assert not started_threads[0].is_alive()


class TestCrashResume:
    """Satellite (e): kill after k jobs, resume, byte-identical output."""

    def test_simulated_crash_after_k_jobs_resumes_cleanly(self, tmp_path):
        spec = small_spec()
        root = tmp_path / "shared"
        cache = ResultCache(root)
        jobs = list(spec.jobs())

        # Worker A completes k=2 cells by hand, claims a third, and
        # vanishes without releasing the claim.
        for _params, job in jobs[:2]:
            claim = try_claim(root, job.digest(), "victim")
            cache.put(execute_job(job))
            release_claim(claim)
        _params, third = jobs[2]
        corpse = try_claim(root, third.digest(), "victim")
        age_claim(corpse)

        # Worker B resumes: reaps the corpse exactly once, executes only
        # the unfinished cells, and the aggregate matches a fresh serial
        # run byte for byte.
        resume_cache = ResultCache(root)
        summary = run_sweep_worker(spec, resume_cache, "rescuer")
        assert summary.reaped == 1
        assert summary.executed == 2  # cells 3 and 4 only — no re-runs
        assert sweep_status(spec, resume_cache).complete

        out = root / "resumed.json"
        write_aggregate(aggregate_sweep(spec, resume_cache), out)
        assert out.read_bytes() == serial_aggregate_bytes(
            spec, tmp_path / "serial"
        )

    def test_sigkilled_cli_worker_resumes_byte_identical(self, tmp_path):
        spec = small_spec(
            axes=(SweepAxis("seed", (1, 2, 3, 4, 5, 6)),),
            base={"sim_time": 4.0, "warmup": 0.5},
        )
        root = tmp_path / "shared"
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "sweep", "run",
                "--spec", str(spec_file), "--cache-dir", str(root),
                "--owner", "victim",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill as soon as the first cell lands in the cache, while
            # later cells are still running.
            cache = ResultCache(root)
            for _ in range(3000):
                if len(list(cache.entries())) >= 1:
                    break
                time.sleep(0.01)
            worker.send_signal(signal.SIGKILL)
            worker.wait(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=30)

        # Whatever claim the victim held goes stale; pre-age it rather
        # than sleeping out the heartbeat timeout.
        for claim in root.glob("*.claim"):
            age_claim(claim)

        resume_cache = ResultCache(root)
        summary = run_sweep_worker(spec, resume_cache, "rescuer")
        assert summary.outstanding == 0
        assert sweep_status(spec, resume_cache).complete

        out = root / "resumed.json"
        write_aggregate(aggregate_sweep(spec, resume_cache), out)
        assert out.read_bytes() == serial_aggregate_bytes(
            spec, tmp_path / "serial"
        )


def poison_spec():
    """Two good cells and two whose engine exceeds its event budget."""
    return small_spec(
        name="poison",
        axes=(SweepAxis("max_events", (None, 50)), SweepAxis("seed", (1, 2))),
        metrics=("utilization",),
    )


class TestFailureClaims:
    def test_poison_cells_fail_once_and_never_run_again(self, tmp_path):
        spec = poison_spec()
        with pytest.raises(SimulationError, match="max_events=50"):
            run_sweep_worker(spec, ResultCache(tmp_path), "w1")
        cache = ResultCache(tmp_path)
        assert len(cache.entries()) == 2
        claims = scan_claims(tmp_path, 60.0)
        assert len(claims) == 2
        assert all(claim.failed and not claim.stale for claim in claims)
        for claim in claims:
            failed = read_claim(claim_path(tmp_path, claim.digest))["failed"]
            assert failed["type"] == "SimulationError"
            assert failed["message"] == "exceeded max_events=50"
            assert len(failed["traceback_sha256"]) == 64
        status = sweep_status(spec, cache)
        assert (status.completed, status.failed, status.pending) == (2, 2, 0)
        assert (status.claimed, status.orphaned) == (0, 0)
        assert not status.complete

        # A second worker, even a waiting one, runs nothing and returns
        # (in a daemon thread, so that a worker polling forever fails
        # the test instead of hanging it).
        summaries = []
        waiting = threading.Thread(
            target=lambda: summaries.append(run_sweep_worker(
                spec, ResultCache(tmp_path), "w2", wait=True, poll_interval=0.01
            )),
            daemon=True,
        )
        waiting.start()
        waiting.join(timeout=60)
        assert not waiting.is_alive(), "a waiting worker polls failed cells forever"
        [summary] = summaries
        assert (summary.executed, summary.outstanding, summary.passes) == (0, 0, 1)

    def test_failure_claims_are_never_reaped(self, tmp_path):
        spec = poison_spec()
        with pytest.raises(SimulationError):
            run_sweep_worker(spec, ResultCache(tmp_path), "w1")
        for path in tmp_path.glob("*.claim"):
            age_claim(path)
        assert reap_stale_claims(tmp_path, 60.0) == []
        assert len(list(tmp_path.glob("*.claim"))) == 2

    def test_every_cell_runs_before_the_first_error_is_raised(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def failing_execute(job):
            calls.append(job.digest())
            raise RuntimeError(f"cell {len(calls)} exploded")

        monkeypatch.setattr(sweep_queue, "execute_job", failing_execute)
        with pytest.raises(RuntimeError, match="cell 1 exploded"):
            run_sweep_worker(small_spec(), ResultCache(tmp_path), "w1")
        assert len(calls) == 4
        assert sweep_status(small_spec(), ResultCache(tmp_path)).failed == 4

    def test_aggregate_names_failed_cells_apart_from_missing(self, tmp_path):
        spec = poison_spec()
        with pytest.raises(SimulationError):
            run_sweep_worker(spec, ResultCache(tmp_path), "w1")
        with pytest.raises(ConfigurationError) as excinfo:
            aggregate_sweep(spec, ResultCache(tmp_path))
        message = str(excinfo.value)
        assert "2 of 4 cells failed" in message
        assert "no cached record" not in message

    def test_full_disk_is_an_ordinary_failure(self, tmp_path):
        class FullDisk(ResultCache):
            def put(self, record):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with pytest.raises(OSError) as excinfo:
            run_sweep_worker(small_spec(), FullDisk(tmp_path), "w1")
        assert excinfo.value.errno == errno.ENOSPC
        claims = scan_claims(tmp_path, 60.0)
        assert len(claims) == 4 and all(claim.failed for claim in claims)
        for claim in claims:
            failed = read_claim(claim_path(tmp_path, claim.digest))["failed"]
            assert failed["type"] == "OSError"
        assert ResultCache(tmp_path).entries() == []


class TestTornEntry:
    def test_torn_entry_is_redone_not_reported_complete(self, tmp_path):
        spec = small_spec(axes=(SweepAxis("seed", (1, 2)),))
        root = tmp_path / "shared"
        run_sweep_worker(spec, ResultCache(root), "w1")
        torn = ResultCache(root).entries()[0]
        torn.write_bytes(torn.read_bytes()[:100])

        with pytest.raises(ConfigurationError, match=r"1 unreadable, now deleted"):
            aggregate_sweep(spec, ResultCache(root))
        status = sweep_status(spec, ResultCache(root))
        assert (status.completed, status.pending) == (1, 1)
        assert run_sweep_worker(spec, ResultCache(root), "w2").executed == 1
        out = root / "aggregate.json"
        write_aggregate(aggregate_sweep(spec, ResultCache(root)), out)
        assert out.read_bytes() == serial_aggregate_bytes(spec, tmp_path / "serial")


class Kill(BaseException):
    """Stands in for a SIGKILL: no ``except Exception`` catches it."""


def kill_on_second_call(real, runs_first):
    """A queue step that dies on the second cell: after running ``real``
    when ``runs_first``, else in its place."""
    calls = []

    def step(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2 and not runs_first:
            raise Kill
        result = real(*args, **kwargs)
        if len(calls) == 2:
            raise Kill
        return result

    return step


#: Each step around the store step -> (module attribute, whether the
#: step itself completes before the kill).
CRASH_POINTS = {
    "after claim": ("_claim", True),
    "after pre-flight": ("preflight_jobs", True),
    "inside execute": ("execute_job", False),
    "after put": ("store", True),
    "before release": ("release_claim", False),
}


class TestCrashPoints:
    @pytest.mark.parametrize("point", list(CRASH_POINTS))
    def test_a_kill_at_any_step_resumes_byte_identical(
        self, point, tmp_path, monkeypatch
    ):
        spec = small_spec()
        root = tmp_path / "shared"
        name, runs_first = CRASH_POINTS[point]
        step = kill_on_second_call(getattr(sweep_queue, name), runs_first)
        with monkeypatch.context() as patch:
            patch.setattr(sweep_queue, name, step)
            with pytest.raises(Kill):
                run_sweep_worker(spec, ResultCache(root), "victim", preflight=True)
        claims = scan_claims(root, 60.0)
        assert not any(claim.failed for claim in claims)  # a kill is no failure
        for path in root.glob("*.claim"):
            age_claim(path)
        stored = len(ResultCache(root).entries())

        summary = run_sweep_worker(spec, ResultCache(root), "rescuer", preflight=True)
        assert summary.outstanding == 0
        assert summary.executed == 4 - stored  # no stored cell runs again
        status = sweep_status(spec, ResultCache(root))
        assert status.complete and status.completed == 4  # no cell lost
        out = root / "resumed.json"
        write_aggregate(aggregate_sweep(spec, ResultCache(root)), out)
        assert out.read_bytes() == serial_aggregate_bytes(spec, tmp_path / "serial")
