"""Run one benchmark workload of the cvtrust CLI and print its metrics.

    python3 perfbench/run.py --workload analytic-grid --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/ directory.  With --trace 0 the run repeats rounds of
one set-up measurement (a fresh interpreter importing cvtrust.cli) and one
whole pass of the workload through cvtrust.cli.main for --seconds (at
least three rounds) and reports the medians.  With --trace 1 a round is an
untraced and a traced pass, and the run reports per-layer metrics from the
traced ones.
Every report is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Results and
span traces are written under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_ROUNDS = 3

sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench.tracing import COUNT_NAMES, SPAN_NAMES, Recorder, traced  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def time_setup() -> float:
    """Wall time for a fresh interpreter to import cvtrust.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cvtrust.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Pass:
    """One pass of a workload: the CLI calls are timed, then every report is checked."""

    def __init__(self, cli, ops, seed: int, index: int, recorder: Recorder | None):
        self.exit_failures: list[str] = []
        self.check_failures: list[str] = []
        self.failed_ops = 0
        outdir = Path(tempfile.mkdtemp(dir=OUT, prefix="pass-"))
        try:
            codes = []
            self.wall_s = 0.0
            cpu = _cpu_seconds()
            for op in ops:
                if recorder is not None:
                    recorder.op = f"{index}:{op.name}"
                codes.append(self._invoke(cli, op, outdir))
            self.cpu_s = _cpu_seconds() - cpu
            self.report_bytes = sum(p.stat().st_size for p in outdir.iterdir())
            for k, (op, (code, stderr)) in enumerate(zip(ops, codes)):
                if code != op.expected_exit:
                    self.exit_failures.append(
                        f"{op.name}: exit code {code}, expected {op.expected_exit}: {stderr.strip()[-300:]}"
                    )
                    self.failed_ops += 1
                    continue
                rng = np.random.default_rng((seed, index, k))
                errors = self._check(op, outdir, rng)
                self.check_failures += [f"{op.name}: {e}" for e in errors]
                self.failed_ops += bool(errors)
        finally:
            shutil.rmtree(outdir)

    def _invoke(self, cli, op, outdir: Path):
        argv = [*op.argv, "--out", str(outdir / op.name)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                code = f"exception {exc!r}"
            self.wall_s += time.perf_counter() - start
        return code, err.getvalue()

    @staticmethod
    def _check(op, outdir: Path, rng) -> list[str]:
        prefix = outdir / op.name
        try:
            report = json.loads(prefix.with_suffix(".json").read_text())
            csv_text = prefix.with_suffix(".csv").read_text()
            return op.check(report, csv_text, rng)
        except Exception as exc:  # a malformed report fails its checks
            return [f"report could not be checked: {exc!r}"]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvtrust" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'cvtrust'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**63
    ops = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)

    sys.path.insert(0, str(SRC))
    import cvtrust.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"perfbench: imported cvtrust from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    recorder = Recorder() if args.trace else None
    setup: list[float] = []
    plain: list[Pass] = []
    layered: list[tuple[Pass, dict]] = []
    absent: list[str] = []
    start = time.perf_counter()
    index = 0
    # Whole rounds only: a set-up measurement and a pass, or an untraced and
    # a traced pass.  Spreading the set-up samples over the run exposes both
    # metrics to the same stretch of machine load.
    while len(plain) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        if recorder is None:
            setup.append(time_setup())
        plain.append(Pass(cli, ops, seed, index, None))
        index += 1
        if recorder is not None:
            recorder.reset_totals()
            with traced(recorder) as absent:
                run = Pass(cli, ops, seed, index, recorder)
            layer = {f"{n}.calls": (recorder.calls[n], "count") for n in SPAN_NAMES}
            layer |= {f"{n}.self_s": (recorder.self_s[n], "s") for n in SPAN_NAMES}
            layer |= {n: (recorder.counts[n], "count") for n in COUNT_NAMES}
            layer["cli.report_bytes"] = (run.report_bytes, "B")
            layered.append((run, layer))
            index += 1

    passes = plain + [run for run, _ in layered]
    if recorder is None:
        # A child's peak includes the pages it shared with this process when
        # it started, so the two peaks cannot be added.
        usage = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.median(p.wall_s for p in plain), "s"),
            "peak_rss_mib": _metric(usage / 1024.0, "MiB"),
        }
    else:
        metrics = {
            name: _metric(statistics.median(layer[name][0] for _, layer in layered), unit)
            for name, (_, unit) in layered[0][1].items()
        }
        metrics["process.cpu_s"] = _metric(statistics.median(p.cpu_s for p in plain), "s")
        overhead = statistics.median(run.wall_s for run, _ in layered) - statistics.median(
            p.wall_s for p in plain
        )
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        if absent:
            print(f"perfbench: absent from the program: {', '.join(absent)}", file=sys.stderr)
        write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", recorder, absent)

    for p in passes:
        for failure in p.exit_failures + p.check_failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not any(p.check_failures for p in passes),
        "attempted": len(passes) * len(ops),
        "failed": sum(p.failed_ops for p in passes),
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def write_spans(path: Path, recorder: Recorder, absent: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"absent": absent}) + "\n")
        for op, span_id, parent, name, start, end in recorder.spans:
            fh.write(
                json.dumps(
                    {"op": op, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                )
                + "\n"
            )


if __name__ == "__main__":
    sys.exit(main())
