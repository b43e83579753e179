"""Starts the benchmark's child processes from a small process.

A child's peak RSS from wait4 (ru_maxrss) also counts the memory of the
process it was forked from, so children started by the benchmark itself
would report the benchmark's own arrays.  This process imports no numpy
and holds no data; run.py sends it one JSON request per stdin line

    {"cmd": [...], "env": {...}, "cwd": "...", "stdout": "...", "stderr": "..."}

and it runs the command to completion and answers with one JSON line
{"wall": s, "cpu": s, "rss_mb": MB, "rc": exit code}.  It exits at the end
of its input.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}),
              flush=True)


if __name__ == "__main__":
    main()
