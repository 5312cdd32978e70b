"""Benchmark of the cardeal toolkit: exhaustive verification, census and exact analysis.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload {verify,census,analyze} --seed N \
        --seconds S --trace {0,1}

Passes run one after another, each in a fresh single-threaded worker
process, so every in-process cache starts empty as it does for each CLI
call. Passes repeat for about S seconds; the figures are medians over passes
(latency percentiles pool every operation of every pass). With ``--trace 0``
every pass is untraced and the end-to-end metrics are reported. With
``--trace 1`` untraced and traced passes alternate: the traced ones record a
span around every call the benchmark makes into a layer, give the per-layer
metrics and the self-time table, and the difference between the two kinds
of pass is the tracing overhead. The spans are written to
``perfbench/out/trace-<workload>-seed<N>.json``. Every time is scaled to a
reference machine speed measured during the pass (see measure.py); the
unscaled wall time is printed beside the metrics.

Every pass checks its outputs; a raised error or a wrong answer counts as a
failed operation. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

WORKLOADS = ("verify", "census", "analyze")
LAYERS = ("model", "axioms", "designs", "cli", "enumeration", "protocols", "bias")
MIN_PASSES = 5  # per kind of pass
MIN_OP_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile
DEADLINE_S = 170  # the whole run, set-up included, ends within this


class PassFailed(RuntimeError):
    """A worker crashed, timed out or printed no result."""


def run_pass(workload: str, seed: int, pass_id: int, trace: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(pass_id), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {pass_id} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {pass_id} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["traced"] = trace
    # Scale every time of the pass to the reference machine speed (measure.py).
    chunks = result["chunks"]
    scale = result["scale"] = measure.REFERENCE_CHUNK_S * len(chunks) / sum(chunks)
    result["raw_wall_s"] = result["wall_s"]
    result["setup_s"] *= scale
    result["wall_s"] *= scale
    # An operation's own speed: the chunks during it and the two on each side,
    # as one chunk alone is too noisy.
    result["latencies"] = [
        x * measure.REFERENCE_CHUNK_S / statistics.fmean(chunks[max(i - 2, 0):j + 2])
        for x, (i, j) in zip(result["latencies"], result["op_chunks"])
    ]
    return result


def warm_up() -> None:
    """Compile the byte code once, so that no measured pass pays for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def run_passes(workload: str, seed: int, seconds: float, trace: bool, started: float) -> list[dict]:
    """Alternate untraced and (with ``trace``) traced passes for about ``seconds``."""
    passes: list[dict] = []
    pass_times: list[float] = []
    begin = time.monotonic()

    def minimums_met() -> bool:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        return (
            len(plain) >= MIN_PASSES
            and (not trace or len(traced) >= MIN_PASSES)
            and sum(len(p["latencies"]) for p in plain) >= MIN_OP_SAMPLES
        )

    while not minimums_met() or time.monotonic() - begin + statistics.median(pass_times) < seconds:
        t0 = time.monotonic()
        timeout = DEADLINE_S - (t0 - started)
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, len(passes), traced, timeout))
        pass_times.append(time.monotonic() - t0)
    return passes


# ---------------------------------------------------------------- statistics


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def durations(passes, name: str, tag: str | None = None) -> list[float]:
    """Scaled seconds spent in every span of ``name`` (and ``tag``) over the passes."""
    return [
        (span[6] - span[5]) / 1e9 * p["scale"]
        for p in passes
        for span in p["spans"]
        if span[3] == name and (tag is None or span[4] == tag)
    ]


def self_times(spans, scale: float = 1.0) -> dict[str, float]:
    """Self time per layer: each span's duration minus that of its child spans."""
    child_time = [0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[6] - span[5]
    out: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        layer = span[3].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (span[6] - span[5] - children) / 1e9 * scale
    return out


def counter(passes, name: str) -> float:
    return median(p["counters"].get(name, 0) for p in passes)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(plain: list[dict]) -> dict[str, tuple[float, str]]:
    latencies = [x for p in plain for x in p["latencies"]]
    return {
        "setup_s": (median(p["setup_s"] for p in plain), "s"),
        "wall_s": (median(p["wall_s"] for p in plain), "s"),
        "op_p50_ms": (median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90(latencies) * 1e3, "ms"),
        "peak_rss_mib": (median(p["rss_kib"] for p in plain) / 1024, "MiB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes; 0 where the workload skips the layer."""
    def p50(name, tag=None, scale=1.0):
        return median(durations(traced, name, tag)) * scale

    def per_pass(fn):
        return median(fn([p]) for p in traced)

    def cli_overhead(ps):
        # The CLI verifies the (8,7,1) binary row; pair it with that row's
        # library calls from the same pass, since passes differ more than
        # the overhead does.
        library = sum(sum(durations(ps, name, "binary-8-7-1")) for name in
                      ("model.parse_announcement", "axioms.check_axioms", "designs.design_profile"))
        return (sum(durations(ps, "cli.main", "verify")) - library) * 1e3

    builds = [
        [(s[6] - s[5]) / 1e9 * p["scale"] for s in p["spans"] if s[3] == "protocols.build_protocol"]
        for p in traced
    ]
    found = counter(traced, "enumeration.found")
    out = {
        "model.parse_us": (p50("model.parse_announcement", "small", 1e6), "us"),
        "axioms.check_small_us": (p50("axioms.check_axioms", "small", 1e6), "us"),
        "axioms.is_good_small_us": (p50("axioms.is_good", "small", 1e6), "us"),
        "axioms.check_binary_871_ms": (p50("axioms.check_axioms", "binary-8-7-1", 1e3), "ms"),
        "axioms.check_binary_862_ms": (p50("axioms.check_axioms", "binary-8-6-2", 1e3), "ms"),
        "axioms.check_binary_853_ms": (p50("axioms.check_axioms", "binary-8-5-3", 1e3), "ms"),
        "axioms.sets_quantified": (counter(traced, "axioms.sets_quantified"), "count"),
        "axioms.sets_per_s": (per_pass(lambda ps: ratio(
            counter(ps, "axioms.sets_quantified"), sum(durations(ps, "axioms.check_axioms")))),
            "1/s"),
        "designs.profile_ms": (p50("designs.design_profile", None, 1e3), "ms"),
        "designs.binary_design_ms": (p50("designs.binary_design", None, 1e3), "ms"),
        "designs.subsets_scanned": (counter(traced, "designs.subsets_scanned"), "count"),
        "cli.verify_ms": (p50("cli.main", "verify", 1e3), "ms"),
        "cli.overhead_ms": (
            per_pass(cli_overhead) if durations(traced, "cli.main") else 0.0, "ms"),
        "enumeration.hand_ms": (
            p50("enumeration.enumerate_good_announcements", "3-3-1", 1e3), "ms"),
        "enumeration.nonexistence_s": (
            p50("enumeration.enumerate_good_announcements", "4-3-1"), "s"),
        "enumeration.found": (found, "count"),
        "enumeration.nonexistence_found": (
            counter(traced, "enumeration.nonexistence_found"), "count"),
        "enumeration.raw_candidates": (counter(traced, "enumeration.raw_candidates"), "count"),
        "enumeration.yield": (ratio(found, counter(traced, "enumeration.raw_candidates")), "ratio"),
        "enumeration.cache_hit_share": (ratio(
            counter(traced, "enumeration.requests") - counter(traced, "enumeration.distinct_requests"),
            counter(traced, "enumeration.requests")), "ratio"),
        "protocols.build_cold_s": (median(b[0] for b in builds if b), "s"),
        "protocols.build_warm_ms": (median(x for b in builds for x in b[1:]) * 1e3, "ms"),
        "protocols.validate_ms": (p50("protocols.validate_protocol", None, 1e3), "ms"),
        "protocols.json_roundtrip_ms": (p50("op.protocols.json_roundtrip", None, 1e3), "ms"),
        "protocols.sample_draws_per_s": (per_pass(lambda ps: ratio(
            counter(ps, "protocols.draws"), sum(durations(ps, "protocols.sample_many")))), "1/s"),
        "protocols.table_entries": (counter(traced, "protocols.table_entries"), "count"),
        "protocols.draws": (counter(traced, "protocols.draws"), "count"),
        "bias.report_ms": (p50("bias.bias_report", None, 1e3), "ms"),
        "bias.posterior_us": (p50("bias.posterior_lines", None, 1e6), "us"),
        "bias.posteriors": (counter(traced, "bias.posteriors"), "count"),
    }
    selfs = [self_times(p["spans"], p["scale"]) for p in traced]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (median(s.get(layer, 0.0) for s in selfs), "s")
    out["trace.overhead_s"] = (
        median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in plain), "s")
    return out


# ---------------------------------------------------------------- report


def write_trace(workload: str, seed: int, passes: list[dict], env: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    traced = [p for p in passes if p["traced"]]
    payload = {
        **env,
        "span_fields": ["id", "parent", "pass", "name", "tag", "start_ns", "end_ns"],
        "reference_chunk_s": measure.REFERENCE_CHUNK_S,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "raw_wall_s", "scale")} for p in passes],
        "self_time_s": [self_times(p["spans"], p["scale"]) for p in traced],
        "spans": [span for p in traced for span in p["spans"]],
    }
    path.write_text(json.dumps(payload))
    return path


def workload_why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "cardeal" / "__init__.py").is_file():
        print(f"error: no cardeal source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        warm_up()
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), started)
    except (PassFailed, subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"why: {workload_why(args.workload)}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"op samples (untraced): {sum(len(p['latencies']) for p in plain)}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(f"error_rate {ratio(len(failures), attempted):.6f} ratio "
          f"({len(failures)} of {attempted} operations)")

    print(f"unscaled wall_s {median(p['raw_wall_s'] for p in plain):.6g} s; speed scale "
          f"(reference/measured) median {median(p['scale'] for p in passes):.4g}, "
          f"range {min(p['scale'] for p in passes):.4g}..{max(p['scale'] for p in passes):.4g}")
    e2e = end_to_end(plain)
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    metrics = e2e
    if traced:
        layers = per_layer(plain, traced)
        for name, (value, unit) in layers.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"trace written to {write_trace(args.workload, args.seed, passes, env)}")
        metrics = layers

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
