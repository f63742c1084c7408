"""One benchmark operation set, run in a fresh interpreter.

``run.py`` starts this script once per sample so that no import, memo
cache (``suites._TRAINING_CACHE``/``_EVAL_CACHE``) or warm state carries
over between samples.  It runs one workload instance for one seed, records
what the output check needs (a digest, or for suite-smoke the result of
``suite diff`` against ``--reference``), and writes ``result.json`` into
``--out``:

* ``t_setup`` / ``t_timed`` / ``t_done`` — ``time.monotonic()`` stamps
  (system-wide, so the parent can subtract its spawn time) for "inputs
  built", "timed phase starts" and "last output on disk";
* ``cycles`` simulated in the timed phase, ``op_ms`` (one sample per op),
  ``digest`` of the outputs, ``import_s`` / ``cli_import_s``;
* ``calibration_wall_s`` / ``calibration_cpu_s`` — the :class:`Calibrator`
  slices, the first ``SETUP_SLICES`` of them inside the set-up window;
* ``trace`` — the :class:`tracing.Recorder` summary when ``--trace 1``.

Run from the repository root:
``python3 perfbench/worker.py --workload mesh16-transpose --seed 0 --out DIR``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import hashlib
import json
import os
import random
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (the benchmark's own module, beside this file)

#: mesh16-*: a 16x16 mesh with transpose traffic, timed as 100-cycle
#: epochs after a warm-up; the sparse rate takes the idle/gated fast paths.
MESH_WIDTH = 16
MESH_RATES = {"mesh16-transpose": 0.02, "mesh16-sparse": 0.002}
MESH_WARMUP_CYCLES = 500
MESH_EPOCH_CYCLES = 100
MESH_EPOCHS = {"mesh16-transpose": 40, "mesh16-sparse": 300}

#: DQN training episodes per train-phased sample (the learner starts once
#: 64 transitions are buffered, i.e. during episode 3).
TRAIN_EPISODES = 3

#: Smoke suites run by suite-smoke (their train-eval kind is left out).
SMOKE_SUITES = ("fig1-smoke", "fig2-smoke", "table1-smoke")
SUITE_JOBS = 2


#: Calibration slices run at the start of a sample (inside its set-up window).
SETUP_SLICES = 5
CALIBRATION_ITERATIONS = 8000
#: mesh16-*: at most one slice per this much simulation (sparse epochs are short).
CALIBRATION_INTERVAL_S = 0.05


def _calibration_work(iterations: int) -> int:
    """Fixed interpreter-bound work (dicts, lists, sorting, a seeded RNG)."""
    rng = random.Random(1)
    table: dict[int, float] = {}
    items: list[tuple[float, int]] = []
    total = 0
    for index in range(iterations):
        key = (index * 7919) % 4093
        value = rng.random()
        table[key] = table.get(key, 0.0) + value
        items.append((value, key))
        if len(items) > 64:
            items.sort()
            total += items.pop()[1]
            items = items[32:]
    return total


class Calibrator:
    """Times a fixed slice of work between the program's own operations.

    The host's execution speed drifts by tens of percent within seconds,
    per core, so ``run.py`` divides each sample's times by the slowdown
    these interleaved slices saw.  Slices run in the process doing the
    work, never inside a timed op; ``wall_s`` (subtracted from the sample's
    times) and ``cpu_s`` (this thread's CPU time, which a pool worker
    preempting the slice does not inflate) are kept per slice.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []

    def run(self, count: int = 1) -> None:
        if os.getpid() != self.pid:
            return
        for _ in range(count):
            wall, cpu = time.perf_counter(), time.thread_time()
            _calibration_work(CALIBRATION_ITERATIONS)
            self.cpu_s.append(time.thread_time() - cpu)
            self.wall_s.append(time.perf_counter() - wall)


def _digest_update(digest, value) -> None:
    digest.update(repr(value).encode())
    digest.update(b"\0")


class _Probe:
    """Minimal untraced timing: simulated cycles and ``env.step`` latency.

    A calibration slice follows every ``env.step``.  Suite pool workers
    (forked, so they inherit these wrappers) run one slice ahead of every
    subtrial and append its CPU time to ``calibration-<pid>.txt`` in the
    sample directory; those slices overlap the pool's work and stay in its
    times.
    """

    def __init__(self, calibrator: Calibrator, out: Path) -> None:
        self.calibrator = calibrator
        self.out = out
        self.cycles = 0
        self.step_ms: list[float] = []

    def pool_calibration_s(self) -> list[float]:
        return [float(line) for path in sorted(self.out.glob("calibration-*.txt"))
                for line in path.read_text().split()]

    def install(self) -> None:
        from repro.core.environment import NoCConfigEnv
        from repro.engines.cycle import CycleEngine
        from repro.exp import suites

        pid, probe = os.getpid(), self
        run, step, subtrial = CycleEngine.run, NoCConfigEnv.step, suites.run_suite_subtrial

        def counted_run(engine, cycles, **kwargs):
            if os.getpid() == pid:
                probe.cycles += cycles
            return run(engine, cycles, **kwargs)

        def timed_step(env, action_index):
            start = time.perf_counter()
            result = step(env, action_index)
            if os.getpid() == pid:
                probe.step_ms.append((time.perf_counter() - start) * 1e3)
                probe.calibrator.run()
            return result

        @functools.wraps(subtrial)
        def calibrated_subtrial(task):
            if os.getpid() != pid:
                cpu = time.thread_time()
                _calibration_work(CALIBRATION_ITERATIONS)
                cpu = time.thread_time() - cpu
                with open(probe.out / f"calibration-{os.getpid()}.txt", "a") as log:
                    log.write(f"{cpu!r}\n")
            return subtrial(task)

        CycleEngine.run = counted_run
        NoCConfigEnv.step = timed_step
        suites.run_suite_subtrial = calibrated_subtrial


def _import_cli() -> float:
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    return time.perf_counter() - start


def run_mesh(args, result: dict, recorder, calibrator: Calibrator) -> None:
    start = time.perf_counter()
    from repro.engines.cycle import CycleEngine  # noqa: F401  (the default engine)
    from repro.noc import NoCSimulator, SimulatorConfig
    from repro.traffic.generator import TrafficGenerator

    result["import_s"] = time.perf_counter() - start
    config = SimulatorConfig(width=MESH_WIDTH, seed=args.seed)
    traffic = TrafficGenerator.from_names(
        config.build_topology(),
        "transpose",
        MESH_RATES[args.workload],
        packet_size=config.packet_size,
        seed=args.seed,
    )
    simulator = NoCSimulator(config, traffic)
    if recorder is not None:
        tracing.install(recorder)
    result["t_setup"] = time.monotonic()

    simulator.run(MESH_WARMUP_CYCLES)
    digest = hashlib.sha256()
    op_ms = []
    delivered = 0
    result["t_timed"] = time.monotonic()
    last_slice = 0.0
    for _ in range(MESH_EPOCHS[args.workload]):
        if time.perf_counter() - last_slice >= CALIBRATION_INTERVAL_S:
            calibrator.run()
            last_slice = time.perf_counter()
        begin = time.perf_counter()
        telemetry = simulator.run_epoch(MESH_EPOCH_CYCLES)
        op_ms.append((time.perf_counter() - begin) * 1e3)
        _digest_update(digest, telemetry)
        delivered += telemetry.packets_delivered
    result["t_done"] = time.monotonic()
    result.update(
        cycles=MESH_EPOCH_CYCLES * len(op_ms),
        op_ms=op_ms,
        digest=digest.hexdigest(),
        invariants_ok=delivered > 0,
    )


def run_train(args, result: dict, recorder, calibrator: Calibrator) -> None:
    import numpy as np

    result["cli_import_s"] = result["import_s"] = _import_cli()
    import repro.cli
    from repro.core import checkpoint

    if recorder is not None:
        tracing.install(recorder)
    probe = _Probe(calibrator, Path(args.out))
    probe.install()  # outermost, so calibration slices stay outside the spans
    ckpt = Path(args.out) / "checkpoint"
    argv = ["train", "--preset", "default", "--episodes", str(TRAIN_EPISODES),
            "--seed", str(args.seed), "--checkpoint", str(ckpt)]
    result["t_setup"] = result["t_timed"] = time.monotonic()
    with open(Path(args.out) / "cli.log", "w") as log, contextlib.redirect_stdout(log):
        status = repro.cli.main(argv)
    result["t_done"] = time.monotonic()

    restored = checkpoint.load_dqn_checkpoint(ckpt)
    digest = hashlib.sha256()
    _digest_update(digest, list(restored.episode_returns))
    with np.load(ckpt / "parameters.npz") as arrays:
        for name in sorted(arrays.files):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    returns = restored.episode_returns
    result.update(
        cycles=probe.cycles,
        op_ms=probe.step_ms,
        digest=digest.hexdigest(),
        invariants_ok=(
            status == 0
            and len(returns) == TRAIN_EPISODES
            and all(np.isfinite(returns))
        ),
    )


def reseed_smoke_suites(seed: int) -> None:
    """Offset every seed a smoke suite's inputs carry by ``seed`` (0 = as registered)."""
    from repro.exp.suites import get_suite, register_suite

    for name in SMOKE_SUITES:
        spec = get_suite(name)
        units = tuple(
            replace(unit, params={**unit.params, "seed": int(unit.params["seed"]) + seed})
            if "seed" in unit.params
            else unit
            for unit in spec.units
        )
        training = spec.training
        if training is not None:
            training = {**training, "seed": int(training.get("seed", 0)) + seed}
        register_suite(replace(spec, units=units, training=training), replace_existing=True)


def run_suite_smoke(args, result: dict, recorder, calibrator: Calibrator) -> None:
    result["cli_import_s"] = result["import_s"] = _import_cli()
    import repro.cli

    reseed_smoke_suites(args.seed)
    if recorder is not None:
        tracing.install(recorder)
    probe = _Probe(calibrator, Path(args.out))
    probe.install()  # outermost, so calibration slices stay outside the spans
    out = Path(args.out) / "artefacts"
    argv = ["suite", "run", *SMOKE_SUITES, "--jobs", str(SUITE_JOBS), "--out", str(out)]
    log_path = Path(args.out) / "cli.log"
    result["t_setup"] = result["t_timed"] = time.monotonic()
    with open(log_path, "w") as log, contextlib.redirect_stdout(log):
        status = repro.cli.main(argv)
    result["t_done"] = time.monotonic()

    # Subtrials as the journals recorded them (wall time, cycles, attempts).
    op_ms, attempts, subtrial_cycles = [], [], 0
    for name in SMOKE_SUITES:
        with open(out / f"{name}.journal.jsonl") as journal:
            for line in journal:
                row = json.loads(line)
                if "payload" not in row:
                    continue  # the journal's header row
                op_ms.append(row["payload"]["wall_s"] * 1e3)
                subtrial_cycles += int(row["payload"]["cycles"])
                attempts.append(int(row["attempts"]))

    # Output check: `suite diff` of every artefact against the reference.
    diffs_ok = status == 0
    if args.reference:
        reference = Path(args.reference)
        with open(log_path, "a") as log, contextlib.redirect_stdout(log):
            for name in SMOKE_SUITES:
                expected = reference / f"{name}.json"
                if not expected.exists():
                    packed = reference / f"{name}.json.gz"
                    expected = Path(args.out) / f"reference-{name}.json"
                    with gzip.open(packed, "rb") as src, open(expected, "wb") as dst:
                        shutil.copyfileobj(src, dst)
                diff_argv = ["suite", "diff", str(expected), str(out / f"{name}.json")]
                diffs_ok = repro.cli.main(diff_argv) == 0 and diffs_ok
    calibrator.cpu_s.extend(probe.pool_calibration_s())
    result.update(
        cycles=probe.cycles + subtrial_cycles,
        op_ms=op_ms,
        digest=None,
        artefacts=str(out),
        invariants_ok=diffs_ok and all(count >= 1 for count in attempts),
        suite={
            "subtrial_compute_s": sum(op_ms) / 1e3,
            "attempts": sum(attempts),
            "retries": sum(max(count - 1, 0) for count in attempts),
            "jobs": SUITE_JOBS,
        },
    )


WORKLOADS = {
    "train-phased": run_train,
    "mesh16-transpose": run_mesh,
    "mesh16-sparse": run_mesh,
    "suite-smoke": run_suite_smoke,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for this sample's files")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", help="suite-smoke: directory of reference artefacts")
    args = parser.parse_args()
    calibrator = Calibrator()
    calibrator.run(SETUP_SLICES)
    recorder = tracing.Recorder() if args.trace else None
    result: dict = {"cli_import_s": 0.0}
    WORKLOADS[args.workload](args, result, recorder, calibrator)
    # Slices run before t_done; the first SETUP_SLICES fall in the set-up window.
    result["calibration_wall_s"] = calibrator.wall_s
    result["calibration_cpu_s"] = calibrator.cpu_s
    result["setup_calibration_s"] = sum(calibrator.wall_s[:SETUP_SLICES])
    if recorder is not None:
        result["trace"] = recorder.summary()
    with open(Path(args.out) / "result.json", "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
