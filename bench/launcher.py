"""Small process that runs the benchmark's CLI jobs and times them.

Linux reports a child's max-RSS as at least the peak RSS of the process
that forked it, so jobs are forked from this process, which imports
nothing heavy, rather than from run.py, which holds sympy and parsed
multi-MB reports.  Protocol, one JSON object per line: read
``{"cmd": [...], "out": path}``, run the command with stdout to
``out``, and answer ``{"wall": s, "cpu": s, "rss_mb": MB, "code": n}``.
The process exits when its input closes.
"""

import json
import os
import signal
import subprocess
import sys
import time

JOB_TIMEOUT_S = 60

_child_pid = 0


def _kill_child(signum, frame):
    if _child_pid:
        os.kill(_child_pid, signal.SIGKILL)


def run(cmd, out_path) -> dict:
    global _child_pid
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        _child_pid = proc.pid
        signal.alarm(JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            _child_pid = 0
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
    }


def main() -> None:
    signal.signal(signal.SIGALRM, _kill_child)
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(request["cmd"], request["out"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
