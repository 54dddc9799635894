"""The nearhex benchmark.

    python3 perfbench/run.py --workload {report,verify,iso,canon} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree.  Imports ``nearhex`` from ``src/`` of
that tree, sets the workload up from the seed, then runs whole cycles of
operations -- one process, one thread, a closed loop with one client -- until
``--seconds`` have passed, checking every output against ``oracle``.

The last line of standard output is the result: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run whose
cycles alternate untraced and traced.  The line before it is the run record
(machine, source, seed, sample counts, raw timings, p90, fail ratio).  Exit
code 2, with no result, when ``src/nearhex`` is missing.

Speed normalisation: the CPU speed of a shared host drifts by tens of
percent within seconds.  So a fixed pure-Python reference loop is timed
just before and after every op and every set-up probe, and every 20 ms
during an op, and each reported time is the measured wall time scaled by
``REF_S`` over the mean time per iteration of the reference loop around
and during it: seconds at the speed at which one iteration takes ``REF_S``.
The raw wall times are in the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
SAMPLE_EVERY = 0.02
# seconds per iteration of the reference loop on a 2-core Intel Xeon,
# Python 3.11.7 (the median of many runs)
REF_S = 5.5e-7



def _loop(n: int = 1000) -> float:
    """Seconds per iteration of a fixed CPU-bound loop (integer, bit and dict
    work, as in nearhex) that does not depend on the program under test."""
    t0 = time.perf_counter()
    acc: dict = {}
    m = 0
    for i in range(n):
        m ^= (i * 2654435761) & 0xFFFFFFFF
        key = (i & 255, m & 1023)
        acc[key] = acc.get(key, 0) + m.bit_count()
    return (time.perf_counter() - t0) / n


def reference() -> float:
    return statistics.median(_loop() for _ in range(5))


class Sampler:
    """Samples the CPU speed while an op runs: an interval timer interrupts
    the op every ``SAMPLE_EVERY`` seconds to time a short reference loop.
    ``busy`` is the time spent in those interruptions."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(_loop())
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._old)

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_nearhex():
    sys.path.insert(0, str(SRC))
    import nearhex
    import nearhex.cli  # noqa: F401  (loads acceptance and jsonio as well)

    if Path(nearhex.__file__).resolve().parent != SRC / "nearhex":
        raise SystemExit(f"imported nearhex from {nearhex.__file__}, not from {SRC}")
    return nearhex


def make_workload(nh, name: str, seed: int, workdir: Path):
    import workloads

    guard = workloads.ColdGuard(nh)
    return workloads.WORKLOADS[name](nh, random.Random(seed), workdir, guard), guard


def setup_probe(args) -> int:
    """Set the workload up in this fresh interpreter, sampling the CPU speed
    meanwhile, then print "ready", the sampler's busy time and its samples."""
    with Sampler() as sampler:
        sampler.start()
        nh = import_nearhex()
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True)
        make_workload(nh, args.workload, args.seed, workdir)
    print("ready", sampler.busy, *sampler.samples, flush=True)
    return 0


def measure_setup(args, workdir: Path) -> list[tuple[float, float]]:
    """(wall time, reference time) per probe: the time from starting a fresh
    interpreter until its set-up is done, the probe's sampling taken out."""
    probes = []
    for i in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir / f"probe{i}"),
        ]
        ref = reference()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().split()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line[:1] != ["ready"]:
                raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        busy, *samples = map(float, line[1:])
        probes.append((elapsed - busy, statistics.fmean([ref, *samples, reference()])))
    return probes


def run_loop(workload, guard, seconds: float, tracer=None):
    """Whole cycles until ``seconds`` have passed.  With a tracer, cycles
    alternate untraced and traced, starting untraced.  Returns one
    ``(traced, op time, op time with input making, reference time)`` per op
    that returned, the interruptions of the sampler taken out."""
    ops: list[tuple[bool, float, float, float]] = []
    cycles = {False: 0, True: 0}
    errors: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    with Sampler() as sampler:
        while True:
            traced = tracer is not None and cycles[False] > cycles[True]
            if traced:
                tracer.install()
            try:
                for label, prepare, run in workload.cycle():
                    if tracer is not None:
                        tracer.op = attempted
                    attempted += 1
                    try:
                        ref = reference()
                        t0 = time.perf_counter()
                        arg = prepare()
                        hits = guard.cache_hits()
                        first, busy = len(sampler.samples), sampler.busy
                        sampler.start()
                        t1 = time.perf_counter()
                        try:
                            bad = run(arg)
                        finally:
                            sampler.stop()
                        t2 = time.perf_counter()
                        pause = sampler.busy - busy
                        speed = statistics.fmean(sampler.samples[first:] + [ref, reference()])
                        ops.append((traced, t2 - t1 - pause, t2 - t0 - pause, speed))
                        if guard.cache_hits() != hits:
                            bad.append("cold-state guard: a nearhex.iso cache served a hit")
                    except Exception as exc:  # a failed op is counted, the run goes on
                        bad = [f"{type(exc).__name__}: {exc}"]
                    if bad:
                        failed += 1
                        errors.extend(f"{label}: {b}" for b in bad[:3])
            finally:
                if traced:
                    tracer.uninstall()
            cycles[traced] += 1
            if time.perf_counter() - start >= seconds and (tracer is None or cycles[True] > 0):
                return ops, cycles, attempted, failed, errors


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine() -> dict:
    uname = os.uname()
    cpu = uname.machine
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "kernel": f"{uname.sysname} {uname.release}",
    }


def source() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_hash = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            git_hash = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_hash": git_hash, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("report", "verify", "iso", "canon"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nearhex" / "__init__.py").is_file():
        print(f"error: no nearhex sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probes = measure_setup(args, workdir / "probes")
        nh = import_nearhex()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(nh)
            tracer.install()
        try:
            workload, guard = make_workload(nh, args.workload, args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        ops, cycles, attempted, failed, errors = run_loop(workload, guard, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def scaled(traced: bool) -> list[float]:
        return [op * REF_S / ref for t, op, _, ref in ops if t == traced]

    untraced = scaled(False)
    raw = [op for t, op, _, _ in ops if not t]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "source": source(),
        "samples": {
            "ops": attempted,
            "failed": failed,
            "untraced_ops": len(untraced),
            "traced_ops": len(ops) - len(untraced),
            "cycles": cycles[False] + cycles[True],
            "setup_probes": len(probes),
        },
        "fail_ratio": failed / attempted,
        "errors": errors[:10],
        "raw": {
            "setup_s": statistics.median(p for p, _ in probes),
            "verdict_s.p50": statistics.median(raw) if raw else None,
            "reference_s_per_iteration.p50": statistics.median(ref for *_, ref in ops) if ops else None,
        },
    }
    if len(untraced) >= 100:
        record["verdict_s.p90"] = percentile(untraced, 90)
        record["raw"]["verdict_s.p90"] = percentile(raw, 90)
    if not untraced or (args.trace and len(untraced) == len(ops)):
        print(json.dumps({"record": record}))
        print("error: no op returned", file=sys.stderr)
        return 1

    if args.trace:
        values, unknown = tracer.layer_metrics(cycles[True])
        values["trace.verdict_s.p50"] = statistics.median(scaled(True))
        values["trace.untraced_verdict_s.p50"] = statistics.median(untraced)
        values["trace.overhead_ratio"] = values["trace.verdict_s.p50"] / values["trace.untraced_verdict_s.p50"]
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_file)
        record.update(
            spans_file=str(spans_file.relative_to(ROOT)),
            untraced_functions=tracer.missing,
            iso_path_unknown=unknown,
        )
    else:
        values = {
            "setup_s": statistics.median(p * REF_S / ref for p, ref in probes),
            "verdict_s.p50": statistics.median(untraced),
            "verdicts_per_s": len(ops) / sum(loop * REF_S / ref for _, _, loop, ref in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
