"""Run one command; print its wall time and wait4 rusage as one JSON line.

run.py starts every timed child through this small process.  On Linux a
child's ru_maxrss also covers the peak RSS of the address space it was
exec'd from, so a child spawned straight from the benchmark process (numpy
loaded) would report the benchmark's memory instead of its own.  Spawned from
here, the floor is this process's own peak, about 12 MB, below any workload.

    python3 bench/spawn.py TIMEOUT_S ERRFILE ARGV...
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, errfile, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(errfile, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
                      "peak_rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
