"""Offline benchmark of the claimdecomp pipeline.

Runs the CLI stages ``index build``, ``decompose``, ``decompscore`` and
``factscore`` as child processes, the way a user runs them, against a stub
completions endpoint on localhost, on inputs generated from ``--seed``.
Stages repeat in rounds until ``--seconds`` have passed; every round's
outputs are checked. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload endpoint-bound --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it builds nothing and writes only under
``.perfbench_work/`` there, which it removes when done.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import logging
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS = 3
INDEX_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for the ``end_to_end`` or ``per_layer`` metrics
    that BENCHMARK.json declares."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class Stub:
    """The stub endpoint process (see stub.py)."""

    def __init__(self, python: str, latency_ms: float, retry_every: int, window_chars: int,
                 log: Path):
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [python, str(HERE / "stub.py"), "--latency-ms", str(latency_ms),
             "--retry-every", str(retry_every), "--window-chars", str(window_chars)],
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError("stub endpoint did not start")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}/v1/completions"

    def stats(self) -> dict:
        """The stub's counters since the last call."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def run_child(cmd: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class Round:
    traced: bool
    wall: dict[str, float] = field(default_factory=dict)
    rss: dict[str, float] = field(default_factory=dict)
    stub: dict[str, dict] = field(default_factory=dict)  # stage -> stub counters
    errors: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    def __init__(self, workload, seed: int, work: Path, src: Path):
        import inputs

        # The output audit runs in this process; its per-passage warnings are
        # expected on the degraded inputs and would only clutter the report.
        logging.getLogger("claimdecomp").setLevel(logging.ERROR)
        self.inputs_mod = inputs
        self.workload = workload
        self.seed = seed
        self.work = work
        self.python = sys.executable
        self.max_inflight = len(os.sched_getaffinity(0))
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CLAIMDECOMP_")}
        self.env["PYTHONPATH"] = str(src)
        self.stub: Stub | None = None
        self.setup_times: list[float] = []
        self.run_errors: list[str] = []

    # --- set-up ---------------------------------------------------------------------

    def setup(self) -> None:
        """Generate inputs, start the stub and, on warm-replay, warm the
        cache, SETUPS times; the last set-up is the one measured."""
        for i in range(SETUPS):
            if self.stub is not None:
                self.stub.stop()
                self.stub = None
            directory = self.work / f"setup{i}"
            start = time.perf_counter()
            self.data = self.inputs_mod.generate(self.workload, self.seed)
            self.files = self.inputs_mod.write_inputs(self.data, directory / "inputs")
            self.stub = Stub(self.python, self.workload.latency_ms, self.workload.retry_every,
                             self.data.window_chars, directory / "stub.log")
            if self.workload.cache == "warm":
                self.warm_cache = directory / "cache"
                self._warm(directory / "warm")
            self.setup_times.append(time.perf_counter() - start)
        self.expectation = self.inputs_mod.expect(self.workload, self.data)

    def _warm(self, directory: Path) -> None:
        (directory / "out").mkdir(parents=True)
        for stage in self.inputs_mod.STAGES:
            args = self.stage_args(stage, directory, cache_only=False)
            _, _, code = run_child([self.python, "-m", "claimdecomp.cli", *args], self.env,
                                   directory / f"{stage}.log")
            if code != 0:
                raise RuntimeError(f"cache warm-up: {stage} exited {code}")

    def stage_args(self, stage: str, directory: Path, cache_only: bool = True) -> list[str]:
        out = directory / "out"
        index = out / "index.json"
        if stage == "index_build":
            return ["index", "build", "--knowledge", str(self.files["knowledge"]),
                    "--out", str(index), "--chunk-words", str(self.workload.chunk_words)]
        args = [stage, "--generations", str(self.files["generations"]), "--output-dir", str(out),
                "--endpoint", self.stub.url, "--max-inflight", str(self.max_inflight)]
        for method in self.workload.methods:
            args += ["--method", method]
        if "bank" in self.files and stage == "decompose":
            args += ["--bank", f"{self.workload.methods[0]}={self.files['bank']}"]
        if self.workload.cache == "cold":
            args += ["--cache-dir", str(directory / "cache")]
        elif self.workload.cache == "warm":
            args += ["--cache-dir", str(self.warm_cache)] + (["--cache-only"] if cache_only else [])
        if stage == "factscore":
            args += ["--index", str(index)]
        return args

    # --- measurement ------------------------------------------------------------------

    def round(self, number: int, traced: bool) -> Round:
        directory = self.work / f"round{number}"
        result = self.run_stages(directory, traced, f"{self.workload.name}/{self.seed}/{number}")
        shutil.rmtree(directory)
        return result

    def run_stages(self, directory: Path, traced: bool, trace_id: str) -> Round:
        """Run and check every stage once, with outputs under ``directory``."""
        from tracer import layer_metrics, stub_dominance

        (directory / "out").mkdir(parents=True)
        result = Round(traced)
        traces, hashed = {}, set()
        self.stub.stats()
        for stage in self.inputs_mod.STAGES:
            args = self.stage_args(stage, directory)
            trace_path = directory / f"{stage}.trace.json"
            if traced:
                cmd = [self.python, str(HERE / "tracer.py"), str(trace_path),
                       f"{trace_id}/{stage}", "--", *args]
            else:
                cmd = [self.python, "-m", "claimdecomp.cli", *args]
            log = directory / f"{stage}.log"
            # The index build only rewrites its file, so untraced rounds repeat
            # it for a steadier median of this short, start-up dominated stage.
            repeats = INDEX_REPEATS if stage == "index_build" and not traced else 1
            runs = [run_child(cmd, self.env, log) for _ in range(repeats)]
            stats = result.stub[stage] = self.stub.stats()
            result.wall[stage] = statistics.median(wall for wall, _, _ in runs)
            result.rss[stage] = max(rss for _, rss, _ in runs)
            result.digests[stage] = self._digest(directory / "out", hashed)
            code = next((c for _, _, c in runs if c != 0), 0)
            errors = [] if code == 0 else [
                f"{stage} exited {code}: {log.read_text(errors='replace')[-500:]}"]
            errors += self.inputs_mod.stage_errors(stage, directory / "out", self.expectation,
                                                   stats)
            if traced and trace_path.exists():
                traces[stage] = json.loads(trace_path.read_text(encoding="utf-8"))
            elif traced:
                errors.append(f"{stage} wrote no trace")
            result.errors[stage] = errors
        if traced and len(traces) == len(self.inputs_mod.STAGES):
            result.layers = layer_metrics(traces, result.wall, result.stub,
                                          self.workload.latency_ms, self.max_inflight)
            service = [ms for s in result.stub.values() for ms in s["service_ms"]]
            if service:
                why = stub_dominance(result.layers["llm.overhead_ms"],
                                     statistics.median(service) - self.workload.latency_ms)
                if why:
                    self.run_errors.append(f"stub dominates a call: {why}")
        return result

    @staticmethod
    def _digest(out: Path, hashed: set[str]) -> str:
        """Digest of the files in ``out`` not in ``hashed``, that is, the
        files the stage just run added; their names join ``hashed``."""
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            if path.name not in hashed:
                hashed.add(path.name)
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    def measure(self, seconds: float, trace: bool) -> list[Round]:
        rounds: list[Round] = []
        deadline = time.perf_counter() + seconds
        while len(rounds) < (2 if trace else 1) or time.perf_counter() < deadline:
            rounds.append(self.round(len(rounds), traced=trace and len(rounds) % 2 == 1))
        # Output bytes must not change between repeats of one workload and seed.
        for r in rounds[1:]:
            for stage, digest in r.digests.items():
                if digest != rounds[0].digests.get(stage):
                    r.errors[stage].append(f"{stage} outputs differ from the first round")
        return rounds

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None


def summarize(bench: Bench, rounds: list[Round], trace: bool) -> tuple[dict, dict]:
    """(result object for the last output line, extra figures for the report)."""
    claims = bench.expectation.subclaim_count
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.layers]

    def median(rs, f):
        return statistics.median(f(r) for r in rs)

    def claims_per_s(r: Round) -> float:
        return claims / (r.wall["decompose"] + r.wall["decompscore"] + r.wall["factscore"])

    def stub_total(r: Round, counter: str) -> int:
        return sum(stats[counter] for stats in r.stub.values())

    attempted = sum(len(r.errors) for r in rounds)
    failed = sum(1 for r in rounds for errs in r.errors.values() if errs)
    e2e = {
        "setup_s": statistics.median(bench.setup_times),
        "index_build_s": median(untraced, lambda r: r.wall["index_build"]),
        "decompose_s": median(untraced, lambda r: r.wall["decompose"]),
        "decompscore_s": median(untraced, lambda r: r.wall["decompscore"]),
        "factscore_s": median(untraced, lambda r: r.wall["factscore"]),
        "claims_per_s": median(untraced, claims_per_s),
        "peak_rss_mb": median(untraced, lambda r: max(r.rss.values())),
        "ok_ratio": 1.0 - failed / attempted,
    }
    # Printed, not in the result object: endpoint_calls is 0 on warm-replay and
    # failed_ratio on any healthy run, and result metrics must never read 0.
    extra = {"endpoint_calls": (median(rounds, lambda r: stub_total(r, "answered")), "count"),
             "window_rejections": (median(rounds, lambda r: stub_total(r, "window_rejections")),
                                   "count"),
             "failed_ratio": (failed / attempted, "ratio")}
    e2e_units = declared_units("end_to_end")
    if trace:
        values = {}
        if traced:  # none when every traced round failed, which the errors report
            values = {name: median(traced, lambda r: r.layers[name]) for name in traced[0].layers}
            values["trace.overhead_claims_per_s"] = (median(traced, claims_per_s)
                                                     - e2e["claims_per_s"])
        units = declared_units("per_layer")
        extra.update((name, (e2e[name], unit)) for name, unit in e2e_units.items())
    else:
        values, units = e2e, e2e_units
    result = {"correct": failed == 0 and not bench.run_errors, "attempted": attempted,
              "failed": failed, "metrics": {name: {"value": values[name], "unit": unit}
                                            for name, unit in units.items() if name in values}}
    return result, extra


def report(bench: Bench, rounds: list[Round], result: dict, extra: dict) -> None:
    print(f"workload {bench.workload.name}  seed {bench.seed}  rounds {len(rounds)} "
          f"({sum(r.traced for r in rounds)} traced)  max_inflight {bench.max_inflight}")
    print("inputs " + json.dumps(bench.data.dimensions, sort_keys=True))
    print("predicted endpoint calls " + json.dumps(bench.expectation.calls))
    print("predicted window rejections " + json.dumps(bench.expectation.rejections))
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows += [(name, value, unit) for name, (value, unit) in extra.items()]
    for name, value, unit in rows:
        print(f"  {name:<42} {value:>14.6g} {unit}")
    tail_pct = result["metrics"].get("llm.complete.tail_pct", {}).get("value")
    if tail_pct:
        print(f"  (llm.complete.tail_ms is the p{tail_pct:g} call time)")
    for number, r in enumerate(rounds):
        for stage, errors in r.errors.items():
            for error in errors:
                print(f"FAILED round {number} {stage}: {error}")
    for error in bench.run_errors:
        print(f"FAILED {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Offline claimdecomp pipeline benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the stub and any running stage are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "claimdecomp" / "cli.py").is_file():
        print("error: no src/claimdecomp here; run from the root of a claimdecomp checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(WORKLOADS[args.workload], args.seed, work, src)
    try:
        bench.setup()
        rounds = bench.measure(args.seconds, bool(args.trace))
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    result, extra = summarize(bench, rounds, bool(args.trace))
    report(bench, rounds, result, extra)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
