"""Orphan regression tests: a SIGKILLed parent must take its forked
workers with it.

Each test kills a real subprocess mid-run and then asserts two things:
``subprocess.run`` returns (an orphan would keep the captured stdout open
and stall it), and no worker process is left alive.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.chaos import KILL_ENV

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="parent-death signals are Linux-only")

#: runs the scheduler on analyses that record their worker PID and then
#: sleep; a watcher thread SIGKILLs the process once every worker started
SCHEDULER_SCRIPT = r"""
import os, signal, sys, threading, time
from pathlib import Path

from repro.parallel.scheduler import SupervisorPolicy, run_parallel

pid_dir, jobs, names = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]


class Sleepers:
    degraded_inputs = False

    def analysis_fn(self, name):
        def run():
            (pid_dir / f"{os.getpid()}.pid").touch()
            time.sleep(60)
        return run

    def warm_shared_caches(self):
        pass


def kill_once_all_started():
    while len(list(pid_dir.glob("*.pid"))) < len(names):
        time.sleep(0.02)
    os.kill(os.getpid(), signal.SIGKILL)


threading.Thread(target=kill_once_all_started, daemon=True).start()
run_parallel(Sleepers(), analyses=names, jobs=jobs, policy=SupervisorPolicy())
"""


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k != KILL_ENV}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper counts as dead)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _survivors(pids, within: float = 5.0):
    deadline = time.monotonic() + within
    while True:
        alive = [pid for pid in pids if _alive(pid)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


@pytest.mark.parametrize("jobs,names", [(1, ["a"]), (2, ["a", "b"])],
                         ids=["supervised-jobs1", "jobs2"])
def test_killed_scheduler_leaves_no_workers(tmp_path, jobs, names):
    proc = subprocess.run(
        [sys.executable, "-c", SCHEDULER_SCRIPT, str(tmp_path), str(jobs),
         *names],
        capture_output=True, text=True, env=_env(), timeout=30)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    pids = [int(path.stem) for path in tmp_path.glob("*.pid")]
    assert len(pids) == len(names)
    assert _survivors(pids) == []


def test_killed_parallel_generate_leaves_no_workers(tmp_path):
    out = tmp_path / "corpus"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "generate", "--scale", "0.005",
         "--days", "3", "--seed", "3", "--out", str(out), "--jobs", "2"],
        capture_output=True, text=True, timeout=120,
        env=_env(**{KILL_ENV: "commit:segment:control:000"}))
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # forked workers keep the parent's argv, which names the output dir
    workers = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if str(out).encode() in cmdline.read_bytes():
                workers.append(int(cmdline.parent.name))
        except OSError:
            continue
    assert _survivors(workers) == []
