"""One benchmark pass in a fresh interpreter, so every in-process cache starts empty.

Usage: python3 perfbench/worker.py WORKLOAD SEED PASS_ID TRACE

The source tree's ``src`` directory must be on PYTHONPATH. Prints one JSON
object: set-up and wall time, the calibration-chunk times (see
measure.py), per-operation latencies and the chunks that ran during each, failures, counters, peak resident
memory and, when TRACE is 1, the spans of the pass. All times are raw.
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402  (imports cardeal, which set-up time must cover)


def peak_rss_kib() -> int:
    """This process's peak resident set size.

    ru_maxrss would also count the parent's memory: Linux carries the
    high-water mark of the forked copy across exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    workload, seed, pass_id, trace = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
    inputs = workloads.make_inputs(workload, seed)
    ready = time.perf_counter()
    rec = measure.Recorder(trace, pass_id)
    rec.start_calibration()
    workloads.RUNNERS[workload](rec, inputs)
    rec.stop_calibration()
    done = time.perf_counter()
    print(json.dumps({
        "setup_s": ready - _started,
        "wall_s": done - ready - rec.calibration_ns / 1e9,
        "chunks": rec.chunks,
        "op_chunks": rec.op_chunks,
        "rss_kib": peak_rss_kib(),
        "latencies": rec.latencies,
        "failures": rec.failures,
        "counters": rec.counters,
        "spans": rec.spans,
    }))


if __name__ == "__main__":
    main()
