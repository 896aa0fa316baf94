"""A ``repro serve`` daemon in its own process, for the serve workload."""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import time

from inputs import ROOT

RUN_DIR = ".perfbench_run"
"""Scratch directory (relative to the checkout) for sockets and traces;
relative so the socket path stays under the ``AF_UNIX`` length limit."""

_names = itertools.count()


class Daemon:
    """Spawns ``repro serve --jobs 2`` (the default configuration) on a
    Unix socket and connects one client.

    ``setup_s`` is the wall time from the daemon's interpreter start-up
    to its first ``stats`` reply (both clocks are the system-wide
    monotonic clock).
    Use as a context manager: leaving it drains the daemon with SIGTERM
    and waits for it to exit.
    """

    def __init__(self, trace: bool = False) -> None:
        from repro.robustness.serveclient import ServeClient

        os.makedirs(ROOT / RUN_DIR, exist_ok=True)
        stem = f"{RUN_DIR}/d{os.getpid()}-{next(_names)}"
        self.socket = f"{stem}.sock"
        self.trace_path = f"{stem}.jsonl" if trace else None
        command = [sys.executable, "perfbench/serve_entry.py", "--socket", self.socket, "--jobs", "2"]
        if self.trace_path:
            command += ["--trace", self.trace_path]
        self.process = subprocess.Popen(
            command, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.client = None
        try:
            started = float(self._stderr_line("perfbench-start").split()[1])
            self._stderr_line("listening")
            self.client = ServeClient(socket_path=self.socket)
            self.client.connect(retry_for=10.0)
            self.stats()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _stderr_line(self, marker: str) -> str:
        """The daemon's next stderr line containing ``marker``."""
        seen = []
        for line in self.process.stderr:
            if marker in line:
                return line
            seen.append(line)
        raise RuntimeError(f"serve daemon exited before {marker!r}: {''.join(seen)[-2000:]}")

    def stats(self) -> dict:
        return self.client.request("stats")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """Drain the daemon and wait for it; kill it if the drain hangs."""
        if self.client is not None:
            self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        if os.path.exists(ROOT / self.socket):
            os.unlink(ROOT / self.socket)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
