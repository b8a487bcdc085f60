"""Scratch space for one run, and the check that nothing outlives it.

Everything a run writes lives under ``.perfbench-run/<pid>/`` in the
checkout: stores, span dumps, and the temporary directory that the fleet
and the experiment make their Unix-socket directories in (``tempfile`` is
pointed there, by a path relative to the working directory so socket
paths stay under the ``AF_UNIX`` length limit).

:meth:`RunSpace.finish` stops multiprocessing's resource tracker (a child
that the ``spawn`` start method leaves running until its parent exits),
reaps every child, and fails the run if any process that inherited the
run's token is still alive, or if any ``preserv-*`` directory is left in
the run's temporary directory.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from typing import List

TOKEN_VAR = "PERFBENCH_RUN_TOKEN"
REAP_DEADLINE_S = 30.0


class RunSpace:
    def __init__(self, checkout: str) -> None:
        self.base = os.path.join(checkout, ".perfbench-run")
        self.dir = os.path.join(self.base, str(os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        self.tmp = os.path.join(self.dir, "tmp")
        os.makedirs(self.tmp)
        relative_tmp = os.path.relpath(self.tmp)
        tempfile.tempdir = relative_tmp
        os.environ["TMPDIR"] = relative_tmp
        self.token = f"{os.getpid()}-{time.time_ns()}"
        # Inherited by every descendant (workers and the resource tracker).
        os.environ[TOKEN_VAR] = self.token

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def finish(self) -> List[str]:
        """Wait for every descendant; return what outlived the run."""
        problems: List[str] = []
        _stop_resource_tracker()
        problems += _reap_children()
        problems += self._token_holders()
        leaked = sorted(n for n in os.listdir(self.tmp) if n.startswith("preserv-"))
        if leaked:
            problems.append(f"temporary directories left behind: {leaked}")
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(self.base)
        except OSError:
            pass  # another run's space, or already gone
        return problems

    def _token_holders(self) -> List[str]:
        """Processes other than this one carrying the run's token."""
        if not os.path.isdir("/proc"):
            return []
        needle = f"{TOKEN_VAR}={self.token}".encode()
        deadline = time.monotonic() + REAP_DEADLINE_S
        while True:
            holders = []
            for name in os.listdir("/proc"):
                if not name.isdigit() or int(name) == os.getpid():
                    continue
                try:
                    with open(f"/proc/{name}/environ", "rb") as fh:
                        if needle in fh.read().split(b"\0"):
                            holders.append(int(name))
                except OSError:
                    continue  # exited meanwhile, or not ours to read
            if not holders:
                return []
            if time.monotonic() >= deadline:
                for pid in holders:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                return [f"descendant processes outlived the run: {holders}"]
            time.sleep(0.05)


def _stop_resource_tracker() -> None:
    """Close the tracker's pipe and wait for it to exit."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _reap_children() -> List[str]:
    """Reap every child; SIGKILL and report those still alive at the deadline."""
    import multiprocessing

    multiprocessing.active_children()  # joins finished multiprocessing children
    deadline = time.monotonic() + REAP_DEADLINE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return []
        if pid:
            continue
        if time.monotonic() >= deadline:
            alive = [p.pid for p in multiprocessing.active_children()]
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5.0)
            return [f"child processes still running at exit: {alive or 'unknown'}"]
        time.sleep(0.05)
