"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mesh16-transpose --seed 0 --seconds 30 --trace 0

Each sample is a fresh interpreter running ``worker.py`` (one workload
instance); samples are started back to back until ``--seconds`` is used
up (at least ``MIN_SAMPLES``).  The run then checks every sample's outputs
against the reference recorded for the seed in ``references.json`` (or,
for a seed without one, against the run's first sample), and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0`` — the end-to-end metrics: medians over samples of
  ``setup_s``, ``total_s``, ``sim_cycles_per_s`` and ``peak_rss_mb``;
* ``--trace 1`` — the per-layer metrics: traced samples alternate with
  untraced ones, self times are medians over traced samples, counts must
  repeat exactly across traced samples (and match the recorded counts),
  ``trace.overhead_s`` is the traced minus the untraced median
  ``total_s``, and ``op_ms_p50``/``op_ms_p95`` pool every op of the
  untraced samples (``op_samples`` of them).

Times are host-speed calibrated.  The host's execution speed drifts by
tens of percent within seconds, per core, and CPU time drifts with it, so
every sample interleaves a fixed slice of pure-Python work
(``worker.Calibrator``) with the program's ops in the processes doing the
work.  A sample's times exclude those slices and are divided by its
slowdown, the slices' mean CPU time over ``CALIBRATION_NOMINAL_S``; the
result line's preceding output shows the slowdowns and the uncalibrated
medians.

An op is one ``run_epoch`` (mesh16-*), one ``env.step``
(train-phased) or one subtrial (suite-smoke); ``attempted`` counts them,
and a failed output check fails every op of the run.  ``--record`` instead (re)writes the
seed's reference outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
SUITE_REFERENCES = HERE / "reference"

WORKLOADS = ("train-phased", "mesh16-transpose", "mesh16-sparse", "suite-smoke")
#: At least this many samples per run (a traced run: this many of each kind).
MIN_SAMPLES = {0: 3, 1: 2}
#: CPU time of one worker.Calibrator slice at the reference host speed
#: (typical on the 2-core host the bounds were tuned on).
CALIBRATION_NOMINAL_S = 0.006
#: A sample that runs longer than this is killed (and the run fails).
SAMPLE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Counts that must repeat exactly between traced samples of one seed.
EXACT_COUNTS = (
    "engine.idle_cycles",
    "engine.skipped_router_steps",
    "model.step_routers.calls",
    "model.movements",
    "traffic.packets",
    "rl.train_step.calls",
)

#: Per-layer span self times reported by a traced run.
SELF_TIME_SPANS = (
    "model.step_routers",
    "model.apply_movements",
    "model.inject_from_sources",
    "model.inject_packet",
    "model.record_cycle_overheads",
    "model.finish_epoch",
    "model.reconfigure",
    "engine.run",
    "power.accrue_leakage_increments",
    "traffic.generate",
    "env.step",
    "env.reset",
    "rl.act",
    "rl.observe",
    "rl.train_step",
    "checkpoint.save_dqn_checkpoint",
    "cli.main",
    "suites.expand_unit",
    "suites.train_controller",
    "suites.journal_append",
    "suites.run_suite",
)
CALL_COUNTS = (
    "model.step_routers",
    "model.reconfigure",
    "traffic.generate",
    "rl.train_step",
    "suites.journal_append",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIME_SPANS}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update(
        {
            "model.movements": "count",
            "model.movements_per_step": "ratio",
            "engine.cycles": "count",
            "engine.idle_cycles": "count",
            "engine.skipped_router_steps": "count",
            "engine.executed_cycle_ratio": "ratio",
            "traffic.next_injection_cycle.calls": "count",
            "traffic.packets": "count",
            "cli.import_s": "s",
            "import_s": "s",
            "suites.subtrial_compute_s": "s",
            "runner.worker_busy_ratio": "ratio",
            "runner.attempts": "count",
            "runner.retries": "count",
            "host.slowdown": "ratio",
            "trace.spans": "count",
            "trace.total_s": "s",
            "trace.overhead_s": "s",
            "op_ms_p50": "ms",
            "op_ms_p95": "ms",
            "op_samples": "count",
        }
    )
    return units


class SampleError(RuntimeError):
    pass


def run_sample(workload, seed, out: Path, trace: bool, reference: Path | None) -> dict:
    """Run one worker process to completion; return its result plus timings."""
    out.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out), "--trace", str(int(trace))]
    if reference is not None:
        argv += ["--reference", str(reference)]
    # One environment for every sample: fixed hash seed, single-threaded
    # BLAS, and bytecode caching on (as for an installed package), so only
    # the first sample in a checkout pays for compiling the sources.
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    with open(out / "worker.log", "wb") as log:
        spawned = time.monotonic()
        process = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                   stderr=subprocess.STDOUT, start_new_session=True)
        try:
            while True:
                pid, status, usage = os.wait4(process.pid, os.WNOHANG)
                if pid:
                    process.returncode = os.waitstatus_to_exitcode(status)
                    break
                if time.monotonic() - spawned > SAMPLE_TIMEOUT_S:
                    raise SampleError(f"{workload} sample exceeded {SAMPLE_TIMEOUT_S}s")
                time.sleep(0.005)
        finally:
            if process.returncode is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)  # pool workers it left behind
    if process.returncode != 0 or not (out / "result.json").exists():
        tail = (out / "worker.log").read_text(errors="replace")[-2000:]
        raise SampleError(f"{workload} sample exited {process.returncode}:\n{tail}")
    result = json.loads((out / "result.json").read_text())
    # Host-speed calibration: times exclude the calibration slices and are
    # divided by the slowdown those slices saw against their nominal time.
    slices = result["calibration_wall_s"]
    setup_slices = result["setup_calibration_s"]
    slowdown = statistics.mean(result["calibration_cpu_s"]) / CALIBRATION_NOMINAL_S
    raw = {
        "setup_s": result["t_setup"] - spawned - setup_slices,
        "total_s": result["t_done"] - spawned - sum(slices),
        "timed_s": result["t_done"] - result["t_timed"] - (sum(slices) - setup_slices),
    }
    result["raw"], result["host_slowdown"] = raw, slowdown
    result["setup_s"] = raw["setup_s"] / slowdown
    result["total_s"] = raw["total_s"] / slowdown
    result["sim_cycles_per_s"] = result["cycles"] * slowdown / raw["timed_s"]
    # wait4 reports the largest resident set of the sample and its children.
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def load_references() -> dict:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text())
    return {}


def end_to_end(samples: list[dict]) -> dict:
    raw = {name: round(statistics.median(sample["raw"][name] for sample in samples), 4)
           for name in samples[0]["raw"]}
    slowdowns = [round(sample["host_slowdown"], 3) for sample in samples]
    print(f"samples: {len(samples)}; host slowdown per sample: {slowdowns}; "
          f"uncalibrated medians: {raw}")
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in END_TO_END_UNITS
    }


def layer_values(trace: dict) -> dict:
    """Flatten one traced sample's summary into per-layer metric values."""
    spans, counts = trace["spans"], trace["counts"]
    values = {}
    for name in SELF_TIME_SPANS:
        values[f"{name}.self_s"] = spans.get(name, {}).get("self_s", 0.0)
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = spans.get(name, {}).get("calls", 0)
    for name in ("model.movements", "engine.cycles", "engine.idle_cycles",
                 "engine.skipped_router_steps", "traffic.next_injection_cycle.calls",
                 "traffic.packets"):
        values[name] = counts.get(name, 0)
    steps = values["model.step_routers.calls"]
    values["model.movements_per_step"] = values["model.movements"] / steps if steps else 0.0
    cycles = values["engine.cycles"]
    values["engine.executed_cycle_ratio"] = steps / cycles if cycles else 0.0
    values["trace.spans"] = trace["span_count"]
    values["runner.dispatch_s"] = spans.get("runner.run", {}).get("total_s", 0.0)
    return values


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool, dict]:
    """Median self times over traced samples; counts must repeat exactly."""
    layers = [layer_values(sample["trace"]) for sample in traced]
    exact = [{name: layer[name] for name in EXACT_COUNTS} for layer in layers]
    repeat_ok = all(counts == exact[0] for counts in exact)
    if not repeat_ok:
        print(f"exact counts differ between traced samples: {exact}")
    values = {}
    for name in per_layer_units():
        if name in layers[0]:
            numbers = [layer[name] for layer in layers]
            is_count = all(isinstance(number, int) for number in numbers)
            values[name] = numbers[0] if is_count else statistics.median(numbers)
    values["cli.import_s"] = statistics.median(s["cli_import_s"] for s in traced)
    values["import_s"] = statistics.median(s["import_s"] for s in traced)
    suite = [sample.get("suite") for sample in traced]
    if suite[0] is not None:
        values["suites.subtrial_compute_s"] = statistics.median(
            entry["subtrial_compute_s"] for entry in suite)
        values["runner.attempts"] = suite[0]["attempts"]
        values["runner.retries"] = max(entry["retries"] for entry in suite)
        values["runner.worker_busy_ratio"] = statistics.median(
            entry["subtrial_compute_s"] / (entry["jobs"] * layer["runner.dispatch_s"])
            for entry, layer in zip(suite, layers))
    else:
        for name in ("suites.subtrial_compute_s", "runner.attempts",
                     "runner.retries", "runner.worker_busy_ratio"):
            values[name] = 0
    ops = [value for sample in untraced for value in sample["op_ms"]]
    values["op_ms_p50"] = statistics.median(ops)
    values["op_ms_p95"] = statistics.quantiles(ops, n=20, method="inclusive")[18]
    values["op_samples"] = len(ops)
    traced_total = statistics.median(sample["total_s"] for sample in traced)
    values["host.slowdown"] = statistics.median(
        sample["host_slowdown"] for sample in traced + untraced)
    values["trace.total_s"] = traced_total
    values["trace.overhead_s"] = traced_total - statistics.median(
        sample["total_s"] for sample in untraced)
    return values, repeat_ok, exact[0]


def check_outputs(samples: list[dict], reference: dict) -> bool:
    """Every sample's outputs must match the seed's reference (or sample 0).

    suite-smoke samples carry no digest: their worker already ran
    ``suite diff`` against the reference artefacts (``invariants_ok``).
    """
    expected = reference.get("digest", samples[0]["digest"])
    return all(s["invariants_ok"] and s["digest"] == expected for s in samples)


def suite_reference_dir(seed: int) -> Path:
    return SUITE_REFERENCES / "suite-smoke" / f"seed-{seed}"


def measure(args, scratch: Path) -> int:
    references = load_references().get(args.workload, {}).get(str(args.seed), {})
    suite_ref = None
    if args.workload == "suite-smoke" and suite_reference_dir(args.seed).is_dir():
        suite_ref = suite_reference_dir(args.seed)
    recorded = bool(references) or suite_ref is not None
    untraced: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    durations: list[float] = []
    while True:
        done = len(untraced) + len(traced)
        elapsed = time.monotonic() - started
        expected = statistics.median(durations) if durations else 0.0
        least = MIN_SAMPLES[args.trace]
        enough = len(untraced) >= least and (not args.trace or len(traced) >= least)
        if enough and elapsed + expected > args.seconds:
            break
        trace = bool(args.trace) and done % 2 == 1
        begin = time.monotonic()
        sample = run_sample(args.workload, args.seed, scratch / f"sample-{done}",
                            trace, suite_ref)
        durations.append(time.monotonic() - begin)
        (traced if trace else untraced).append(sample)
        if args.workload == "suite-smoke" and suite_ref is None:
            suite_ref = Path(sample["artefacts"])  # later samples diff against it

    samples = untraced + traced
    correct = check_outputs(samples, references)
    if args.trace:
        values, repeat_ok, counts = per_layer(traced, untraced)
        expected_counts = references.get("counts")
        correct = correct and repeat_ok and expected_counts in (None, counts)
        units = per_layer_units()
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
    attempted = sum(len(sample["op_ms"]) for sample in samples)
    print(f"workload: {args.workload}; seed: {args.seed}; cpu_count: {os.cpu_count()}; "
          f"reference: {'recorded' if recorded else 'first sample'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def record(args, scratch: Path) -> int:
    """Write the seed's reference digest, exact counts and suite artefacts."""
    plain = run_sample(args.workload, args.seed, scratch / "plain", False, None)
    traced = run_sample(args.workload, args.seed, scratch / "traced", True, None)
    counts = {name: layer_values(traced["trace"])[name] for name in EXACT_COUNTS}
    entry = {"counts": counts}
    if args.workload == "suite-smoke":
        target = suite_reference_dir(args.seed)
        target.mkdir(parents=True, exist_ok=True)
        for artefact in sorted(Path(plain["artefacts"]).glob("*-smoke.json")):
            with open(artefact, "rb") as src, \
                    gzip.GzipFile(target / f"{artefact.name}.gz", "wb", mtime=0) as dst:
                shutil.copyfileobj(src, dst)
    else:
        if plain["digest"] != traced["digest"]:
            raise SampleError("traced and untraced samples disagree; not recording")
        entry["digest"] = plain["digest"]
    references = load_references()
    references.setdefault(args.workload, {})[str(args.seed)] = entry
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"recorded {args.workload} seed {args.seed}: {entry}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this seed's reference outputs instead of measuring")
    args = parser.parse_args()
    # A terminated run still kills and reaps its running sample (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        return (record if args.record else measure)(args, scratch)
    except SampleError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
