"""Child-process helpers: timed runs with their own peak RSS.

Every timed command runs in a fresh process, so no in-process cache
(the module-level user-agent memo, imported modules, pool workers)
survives from one run to the next.  Peak RSS comes from the rusage
``os.wait4`` returns for that child: the kernel folds in the peak of
every descendant the child reaped, so pool workers count, while the
benchmark's own set-up work — done in other children — does not.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Union

#: Repository root: the directory above this package.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent


def child_env() -> Mapping[str, str]:
    """The environment every child gets: the checkout's ``src`` first
    on the import path, and this package's directory after it."""
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def cli_argv(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


#: A command still running after this long is killed, so one hang
#: cannot hold a run past its time limit (normal commands take < 10 s).
COMMAND_TIMEOUT_S = 60.0


@dataclass
class Timed:
    seconds: float
    peak_rss_mb: float
    returncode: int
    #: User plus system CPU seconds of the process and the children it
    #: reaped (pool workers included).
    cpu_s: float = 0.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclass
class Child:
    """A started command: its own session, and a watchdog that kills
    the whole process group after ``COMMAND_TIMEOUT_S``."""

    proc: subprocess.Popen
    watchdog: threading.Timer


def spawn(argv: List[str], **popen_kwargs) -> Child:
    proc = subprocess.Popen(argv, start_new_session=True, env=child_env(),
                            **popen_kwargs)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
    watchdog.daemon = True
    watchdog.start()
    return Child(proc, watchdog)


def reap(child: Child) -> Timed:
    """Wait for ``child`` with ``wait4``; returns its exit and peak RSS.

    Kills whatever is left of its process group afterwards, so no pool
    worker outlives the run.  ``seconds`` is left 0; callers time the
    interval they mean.
    """
    proc = child.proc
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        child.watchdog.cancel()
        _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(0.0, usage.ru_maxrss / 1024.0, proc.returncode,
                 usage.ru_utime + usage.ru_stime)


def run_timed(
    argv: List[str],
    stdout: Union[str, Path],
    stderr: Union[str, Path],
) -> Timed:
    """Run ``argv`` to completion; stdout and stderr go to files."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        child = spawn(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timed = reap(child)
        timed.seconds = time.perf_counter() - started
    return timed


def blocked_on_pipe_read(pid: int) -> bool:
    """True when some thread of ``pid`` sleeps in a pipe read.

    A service reading ``--stdin`` reaches that state only once its
    imports and set-up are done, so the live generator can start
    without charging process start-up to the first windows.
    """
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return False
    for tid in tasks:
        try:
            wchan = Path(f"/proc/{pid}/task/{tid}/wchan").read_text()
        except OSError:
            continue
        if "pipe_read" in wchan:
            return True
    return False


def wait_until_reading(child: Child, timeout_s: float) -> bool:
    """Poll until ``child`` blocks reading its stdin; False on timeout
    (the kernel may hide ``wchan``) or if the process exited."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        # WNOWAIT: look without reaping, so ``reap`` still gets rusage.
        if os.waitid(os.P_PID, child.proc.pid,
                     os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None:
            return False
        if blocked_on_pipe_read(child.proc.pid):
            return True
        time.sleep(0.01)
    return False
