"""Run commands in fresh processes, one at a time, timed from spawn to exit.

Jobs are started by a small launcher process, not by the benchmark
itself. On Linux a child's peak RSS (``ru_maxrss``) starts from the
resident size of the process that forked it, so a benchmark holding its
references in memory would pass that size on to every job. The launcher
stays small, and ``os.wait4`` there gives the peak of each job alone;
``RUSAGE_CHILDREN`` would instead give one maximum over all children.

A job's stdout and stderr are pipes owned by the benchmark, which drains
both together through a selector, so a child that fills one pipe while
the other is being read cannot stall.

Run as a script, this file is the launcher: ``jobs.py FD`` serves
requests on the socket FD until it is closed.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass
class Completed:
    code: int  # exit code, negative when ended by a signal
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_kb: int
    timed_out: bool


class Launcher:
    """Client side: starts the launcher and runs jobs through it."""

    def __init__(self):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(theirs.fileno())],
                pass_fds=[theirs.fileno()],
                stdin=subprocess.DEVNULL,
            )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _reply(self) -> dict:
        msg = self.sock.recv(1 << 16)
        if not msg:
            raise RuntimeError("job launcher exited")
        return json.loads(msg)

    def run(self, argv: list[str], env: dict, cwd: str, timeout_s: float) -> Completed:
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        try:
            request = json.dumps({"argv": argv, "env": env, "cwd": cwd}).encode()
            socket.send_fds(self.sock, [request], [out_w, err_w])
        finally:
            os.close(out_w)
            os.close(err_w)
        pid = self._reply()["pid"]
        chunks = {out_r: [], err_r: []}
        deadline = time.perf_counter() + timeout_s
        timed_out = False
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(out_r, selectors.EVENT_READ)
                sel.register(err_r, selectors.EVENT_READ)
                while sel.get_map():
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 and not timed_out:
                        timed_out = True
                        os.kill(pid, signal.SIGKILL)
                    for key, _ in sel.select(None if timed_out else remaining):
                        data = os.read(key.fd, 1 << 20)
                        if data:
                            chunks[key.fd].append(data)
                        else:
                            sel.unregister(key.fd)
        finally:
            os.close(out_r)
            os.close(err_r)
        done = self._reply()
        return Completed(
            done["code"],
            b"".join(chunks[out_r]),
            b"".join(chunks[err_r]),
            done["wall_s"],
            done["peak_rss_kb"],
            timed_out,
        )


def serve(fd: int) -> None:
    """Launcher side: one job per request, each waited for before the next."""
    with socket.socket(fileno=fd) as sock:
        while True:
            msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 2)
            if not msg:
                return
            req = json.loads(msg)
            start = time.perf_counter()
            try:
                proc = subprocess.Popen(
                    req["argv"],
                    stdin=subprocess.DEVNULL,
                    stdout=fds[0],
                    stderr=fds[1],
                    env=req["env"],
                    cwd=req["cwd"],
                )
            finally:
                for f in fds:
                    os.close(f)
            sock.send(json.dumps({"pid": proc.pid}).encode())
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            sock.send(json.dumps({
                "code": proc.returncode,
                "wall_s": wall,
                "peak_rss_kb": usage.ru_maxrss,
            }).encode())


if __name__ == "__main__":
    serve(int(sys.argv[1]))
