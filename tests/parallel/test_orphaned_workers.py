"""A SIGKILLed pool owner leaves no supervised workers behind.

A forked worker inherits its parent's end of its own pipe, so the owner
dying never shows up as EOF on the worker's ``recv_bytes``.  The
heartbeat thread notices the worker was reparented and exits it.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

HEARTBEAT_INTERVAL = 0.05

OWNER = textwrap.dedent(
    f"""
    import time

    from repro.parallel import SupervisedWorkerPool, SupervisorPolicy

    pool = SupervisedWorkerPool(
        policy=SupervisorPolicy(
            workers=2, heartbeat_interval={HEARTBEAT_INTERVAL}
        )
    ).start()
    print(*(slot.process.pid for slot in pool._slots), flush=True)
    time.sleep(120)
    """
)


def _running(pid):
    """Whether *pid* still runs; a zombie awaiting its reaper has exited."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs procfs"
)
def test_workers_exit_when_their_owner_is_sigkilled():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    owner = subprocess.Popen(
        [sys.executable, "-c", OWNER],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    workers = []
    try:
        workers = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(workers) == 2
        assert all(_running(pid) for pid in workers)
        owner.send_signal(signal.SIGKILL)
        owner.wait(timeout=10)
        # A few heartbeat intervals, plus slack for a loaded machine.
        deadline = time.monotonic() + 20 * HEARTBEAT_INTERVAL + 2.0
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(HEARTBEAT_INTERVAL)
        assert not any(map(_running, workers)), workers
    finally:
        owner.kill()
        owner.wait(timeout=10)
        owner.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
