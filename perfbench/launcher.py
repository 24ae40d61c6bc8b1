"""Spawn CLI processes one at a time and report their resource usage.

Linux carries the memory peak of the process that spawns a child into the
child's ``ru_maxrss`` when the child calls exec.  The benchmark process
itself grows past the CLI's own peak, so it does not spawn the CLI directly:
it starts this small process once and sends it one request per line on
stdin, ``{"argv": [...], "out": path, "err": path, "timeout": seconds,
"sample": bool}``.  For each request this process runs
``python -m multiutility <argv>`` with stdout and stderr sent to the two
files, waits for it (killing it at the timeout), and answers with one line
on stdout: ``{"wall": s, "status": wait status, "utime": s, "stime": s,
"maxrss_kb": kB, "timed_out": bool, "ref": [[wall s, cpu s], ...]}``.  It
exits when stdin closes.

With ``"sample": true`` the child is stopped every SAMPLE_PERIOD seconds of
its run time while this process times one round of the reference
computation (``reference_round``), then continued; ``ref`` lists those
rounds and ``wall`` leaves the stopped time out.  The period runs on across
requests, so short invocations are sampled too.  On a shared host the
speed of a CPU changes from one second to the next; samples taken on the
child's CPU at a fixed period of its run time measure the speed it ran at,
and the benchmark reports times in units of the reference round.
"""
from __future__ import annotations

import contextlib
import json
import os
import random
import select
import signal
import sys
import time
from fractions import Fraction

# The reference round: REF_REPEATS exact Gaussian eliminations of a fixed
# 10 x 10 Fraction matrix, the arithmetic of the program's LP pivots.
_rng = random.Random(7)
REF_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 6)) for _ in range(10)] for _ in range(10)]
REF_DETERMINANT = Fraction(112644123529377412471, 18662400000000)
REF_REPEATS = 4
# seconds of child run time between two reference rounds
SAMPLE_PERIOD = 0.25
_EXITED = (os.CLD_EXITED, os.CLD_KILLED, os.CLD_DUMPED)


def determinant(matrix) -> Fraction:
    rows = [list(row) for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def reference_round() -> tuple[float, float]:
    """Wall and CPU seconds of one reference round, after one untimed
    elimination that brings the code and data back into the caches."""
    det = determinant(REF_MATRIX)
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(REF_REPEATS):
        det = determinant(REF_MATRIX)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if det != REF_DETERMINANT:
        raise SystemExit("launcher: the reference computation gave a wrong determinant")
    return wall, cpu


class Runner:
    def __init__(self):
        # child run time left until the next reference round
        self.due = SAMPLE_PERIOD

    def run_cli(self, argv: list[str], out: str, err: str, timeout: float, sample: bool) -> dict:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "multiutility", *argv], os.environ, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        paused = 0.0
        rounds = []
        timed_out = reaped = False
        try:
            while True:
                left = timeout - (time.perf_counter() - start - paused)
                wait = min(self.due, left) if sample else left
                t0 = time.perf_counter()
                exited = bool(select.select([pidfd], [], [], max(wait, 0.0))[0])
                if sample:
                    self.due -= time.perf_counter() - t0
                if exited:
                    break
                if wait >= left:
                    timed_out = True
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                    break
                t0 = time.perf_counter()
                try:
                    signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
                except ProcessLookupError:  # it has just exited
                    break
                state = os.waitid(os.P_PIDFD, pidfd, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if state.si_code in _EXITED:
                    break
                os.waitid(os.P_PIDFD, pidfd, os.WSTOPPED)
                rounds.append(reference_round())
                signal.pidfd_send_signal(pidfd, signal.SIGCONT)
                paused += time.perf_counter() - t0
                self.due = SAMPLE_PERIOD
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            if not reaped:  # never leave a child behind, stopped or running
                with contextlib.suppress(ProcessLookupError):
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(pid, 0)
            os.close(pidfd)
        return {
            "wall": time.perf_counter() - start - paused,
            "status": status,
            "utime": usage.ru_utime,
            "stime": usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "timed_out": timed_out,
            "ref": rounds,
        }


def main() -> int:
    # One CPU for this process and every child: each CPU of a shared host
    # slows down on its own, so the reference runs where the invocations run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner()
    for line in sys.stdin:
        req = json.loads(line)
        reply = runner.run_cli(req["argv"], req["out"], req["err"], req["timeout"], req["sample"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
