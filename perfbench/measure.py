"""Operation timing, spans and machine-speed calibration for one benchmark pass.

The benchmark shares its machine with other work, and the speed that work
leaves to a single thread drifts by tens of percent over seconds and minutes.
A pass therefore runs a short, fixed calibration chunk of pure-Python work
(integer bit operations, dictionary stores, exact fractions: the mix cardeal
runs, but none of its code) on a wall-clock timer every ``CALIBRATE_EVERY_S``,
also in the middle of a long operation (a chunk due during a short one waits
for its end). run.py scales the pass's times by
``REFERENCE_CHUNK_S`` over the mean chunk time, so every reported time is the
time the pass would have taken at the reference speed. Because the speed
also changes within a pass, an operation's latency is scaled by the chunks
that ran during it and the two on each side. Chunk time is
taken out of every operation, span and wall time it falls into. A change to
cardeal cannot move the chunks, so a real speed-up or slow-down shows in
full.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Near the chunk time on a 2-core x86-64 VM with CPython 3.11. It fixes the
# level of every scaled time, so it must not change once figures are recorded.
REFERENCE_CHUNK_S = 0.0015
CALIBRATE_EVERY_S = 0.02
# A chunk due inside an operation younger than this waits for the operation
# to end, so that short operations are never interrupted.
DEFER_WITHIN_S = 0.05


def calibration_chunk() -> float:
    """Seconds taken by a fixed piece of pure-Python work (1 to 2 ms)."""
    start = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(4000):
        m = (i * 40503) & 0xFFFF
        acc += (m & ~(m >> 3)).bit_count()
        seen[m & 127] = (i, m)
    total = Fraction(0)
    for k in range(1, 100):
        total += Fraction(k % 7 + 1, k % 5 + 2)
    return time.perf_counter() - start


class Recorder:
    """Per-pass record of operation latencies, failures, counters and spans.

    ``op`` times one user-visible operation and counts it as failed when it
    raises or its check rejects the result; ``op_chunks`` holds, per
    operation, the slice of ``chunks`` that ran during it. ``call`` wraps one
    call into a layer; when ``trace`` is set it records a span
    ``(id, parent, pass_id, name, tag, start_ns, end_ns)``, whose end is
    moved earlier by the calibration time inside it. Spans stay in memory;
    the caller writes them out when the pass ends.
    """

    def __init__(self, trace: bool, pass_id: int = 0):
        self.trace = trace
        self.pass_id = pass_id
        self.latencies: list[float] = []
        self.op_chunks: list[tuple[int, int]] = []
        self.failures: list[str] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.chunks: list[float] = []
        self.calibration_ns = 0
        self._parent = -1
        self._in_chunk = False
        self._op_started: float | None = None
        self._chunk_due = False

    def _on_timer(self, *_signal_args) -> None:
        started = self._op_started
        if started is not None and time.perf_counter() - started < DEFER_WITHIN_S:
            self._chunk_due = True
        else:
            self._chunk()

    def _chunk(self) -> None:
        if self._in_chunk:
            return
        self._in_chunk = True
        self._chunk_due = False
        start = time.perf_counter_ns()
        self.chunks.append(calibration_chunk())
        self.calibration_ns += time.perf_counter_ns() - start
        self._in_chunk = False

    def start_calibration(self) -> None:
        """Run a chunk now and then every ``CALIBRATE_EVERY_S`` until stopped."""
        self._chunk()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop_calibration(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._chunk()

    def op(self, kind: str, call, check=None):
        """Time one operation; a raised error or a rejected result counts as failed.

        ``check`` runs outside the timed region and raises on a wrong result.
        Returns the result, or None when the operation failed.
        """
        span = len(self.spans)
        if self.trace:
            self.spans.append(None)
            self._parent = span
        calibration, first_chunk = self.calibration_ns, len(self.chunks)
        self._op_started = time.perf_counter()
        start = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a failed operation is data, not the end of the pass
            result, error = None, f"{kind}: {type(exc).__name__}: {exc}"
        else:
            error = None
        end = time.perf_counter_ns() - (self.calibration_ns - calibration)
        self._op_started = None
        self.latencies.append((end - start) / 1e9)
        self.op_chunks.append((first_chunk, len(self.chunks)))
        if self.trace:
            self.spans[span] = (span, -1, self.pass_id, f"op.{kind}", "", start, end)
            self._parent = -1
        if error is None and check is not None:
            try:
                check(result)
            except Exception as exc:
                error = f"{kind}: {type(exc).__name__}: {exc}"
        if self._chunk_due:
            self._chunk()
        if error is not None:
            self.failures.append(error)
            return None
        return result

    def call(self, name: str, tag: str, fn, *args, **kwargs):
        """Call into a layer; in a traced pass, record a span around the call."""
        if not self.trace:
            return fn(*args, **kwargs)
        calibration = self.calibration_ns
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns() - (self.calibration_ns - calibration)
            self.spans.append(
                (len(self.spans), self._parent, self.pass_id, name, tag, start, end)
            )

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
