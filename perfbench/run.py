"""The repository benchmark: end-to-end and per-layer numbers for GI.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 8 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``corpus`` — Figure 2, ``tests/corpus`` and a seeded conformance draw,
  each item parsed and inferred with default options;
* ``chains`` — the ``evalsuite.workloads`` generators at solver-bound
  sizes;
* ``modules_cold`` / ``modules_warm`` / ``modules_edit`` — the 102-binding
  synthetic module and the seed's Section 5 packages through
  ``ModuleEngine``: cold checks, fully cached re-checks, and re-checks
  after a leaf edit;
* ``serve`` — one client in a closed loop against a ``repro serve``
  daemon (default ``--jobs 2``), sending the corpus items.

Every timing is calibrated (see :mod:`calib`).  ``--trace 0`` prints the
end-to-end metrics with tracing off; ``--trace 1`` runs untraced and
traced passes of a fixed item list in turn and prints the per-layer
metrics, including the tracing overhead.  The last line of output is one
JSON object; every answer the program gives is checked (:mod:`checks`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from functools import partial
from itertools import cycle

import calib
import inputs
from checks import Judge
from layers import first_infer_self_ms, split_by_root, summarize

WORKLOADS = ("corpus", "chains", "modules_cold", "modules_warm", "modules_edit", "serve")
SETUP_STARTS = 7
"""Fresh starts per run; ``setup_s`` is their median."""
BATCH_S = 0.1
"""Wall time of work between two calibration samples."""
TAIL_PERCENTILE = {
    "corpus": 90, "chains": 90, "modules_cold": 90,
    "modules_warm": 90, "modules_edit": 75, "serve": 90,
}
"""The percentile ``item_tail_ms`` reports, fixed per workload so runs
stay comparable (notes: "Tail percentiles")."""



def layer_units() -> dict[str, str]:
    """Every per-layer row and its unit, as ``BENCHMARK.json`` declares
    them.  Times are ms per item over one pass; counts are totals over
    one pass of ``bench.pass_items`` items.  A layer a workload never
    enters reads 0."""
    with open(inputs.ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return {row["name"]: row["unit"] for row in json.load(spec)["per_layer"]}


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# runtimes: the program objects a workload drives, and its timed units


class InferRuntime:
    """One long-lived ``Inferencer`` over the figure 2 prelude."""

    setup_kind = "infer"

    def __init__(self, items, judge: Judge) -> None:
        from repro.core.infer import Inferencer
        from repro.evalsuite.figure2 import figure2_env

        self.items = items
        self.judge = judge
        self.env = figure2_env()
        self.inferencer = Inferencer(self.env)
        self.tracer = None
        self.stats: dict[str, int] = {}

    def set_tracer(self, tracer) -> None:
        self.tracer = self.inferencer.tracer = tracer

    def units(self):
        return [partial(self.infer, item) for item in self.items]

    def infer(self, item) -> tuple[float, int]:
        from repro.core.errors import GIError
        from repro.syntax import parse_term

        started = time.perf_counter()
        with span(self.tracer, "bench.parse"):
            term = parse_term(item.source)
        with span(self.tracer, "bench.infer"):
            try:
                outcome = ("ok", str(self.inferencer.infer(term).type_))
            except GIError as error:
                outcome = ("error", type(error).__name__)
        elapsed = time.perf_counter() - started
        self.judge.expression(item, outcome)
        return elapsed, 1

    def finish(self) -> None:
        """Checks that run after timing."""
        if any(item.fuzz for item in self.items):
            self.judge.systemf(self.judge.accepted_fuzz_sources(self.items), self.env)
            self.judge.policy_flips(inputs.policy_flips(), self.env)


class ModulesRuntime:
    """``ModuleEngine`` over ``study_env``: fresh engines per cold check,
    pre-filled engines for warm re-checks, and one engine whose synthetic
    module gets its chain leaves flipped between ``Int`` and ``Bool``."""

    setup_kind = "modules"

    def __init__(self, mode: str, seed: int, judge: Judge) -> None:
        from repro.evalsuite.stackage import study_env
        from repro.modules import ModuleEngine

        self.mode = mode
        self.judge = judge
        self.env = study_env()
        self.tracer = None
        self.stats = {"modules.cache_hits": 0, "modules.cache_misses": 0, "modules.groups_checked": 0}
        self.modules = [inputs.synthetic_module()]
        if mode != "edit":
            self.modules += inputs.package_modules(seed)
        self.engines = []
        if mode != "cold":
            for module in self.modules:
                engine = ModuleEngine(self.env)
                judge.module(module, engine.check_source(module.source))
                self.engines.append(engine)
        self.leaves: frozenset[int] = frozenset()
        self.schedule = inputs.edit_schedule(seed)

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        for engine in self.engines:
            engine.tracer = tracer

    def units(self):
        if self.mode == "cold":
            return [partial(self.cold, module) for module in self.modules]
        if self.mode == "warm":
            return [partial(self.warm, *pair) for pair in zip(self.modules, self.engines)]
        return [partial(self.edit, chain) for chain in self.schedule]

    def _check(self, engine, source: str):
        started = time.perf_counter()
        with span(self.tracer, "bench.check_source"):
            result = engine.check_source(source)
        elapsed = time.perf_counter() - started
        self.stats["modules.cache_hits"] += result.stats.cache_hits
        self.stats["modules.cache_misses"] += result.stats.cache_misses
        self.stats["modules.groups_checked"] += result.stats.groups_checked
        return result, elapsed

    def cold(self, module) -> tuple[float, int]:
        from repro.modules import ModuleEngine

        result, elapsed = self._check(ModuleEngine(self.env, tracer=self.tracer), module.source)
        self.judge.module(module, result, hits=0)
        return elapsed, len(result.reports)

    def warm(self, module, engine) -> tuple[float, int]:
        result, elapsed = self._check(engine, module.source)
        accepted = sum(1 for expected in module.expected.values() if expected is not None)
        self.judge.module(module, result, hits=accepted)
        return elapsed, len(result.reports)

    def edit(self, chain: int) -> tuple[float, int]:
        self.leaves = self.leaves ^ {chain}
        module = inputs.synthetic_module(self.leaves)
        result, elapsed = self._check(self.engines[0], module.source)
        self.judge.module(module, result, hits=len(module.expected) - inputs.SYNTHETIC["depth"])
        return elapsed, len(result.reports)

    def finish(self) -> None:
        pass


class ServeRuntime:
    """One client connection to a daemon, sending corpus items as
    ``infer`` requests in a closed loop."""

    setup_kind = "serve"

    def __init__(self, items, judge: Judge, trace: bool = False) -> None:
        from daemon import Daemon

        self.items = items
        self.judge = judge
        self.daemon = Daemon(trace=trace)
        self.tracer = None
        self.stats: dict[str, int] = {}
        self.replies: list[tuple[float, float]] = []
        """``(round trip ms, service ms)`` per request."""

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer

    def units(self):
        return [partial(self.request, item) for item in self.items]

    def request(self, item) -> tuple[float, int]:
        started = time.perf_counter()
        with span(self.tracer, "bench.request"):
            reply = self.daemon.client.request("infer", expr=item.source)
        elapsed = time.perf_counter() - started
        self.replies.append((elapsed * 1000.0, reply.get("ms", 0.0)))
        if reply.get("ok"):
            self.judge.expression(item, ("ok", reply["type"]))
        else:
            error = reply["error"]
            if error["severity"] != "error":
                error = dict(error, **{"class": "InternalError"})
            self.judge.expression(item, ("error", error["class"]))
        return elapsed, 1

    def finish(self) -> None:
        self.daemon.close()


def make_runtime(workload: str, seed: int, judge: Judge, trace: bool = False):
    if workload == "corpus":
        return InferRuntime(inputs.corpus_items(seed), judge)
    if workload == "chains":
        return InferRuntime(inputs.chain_items(seed), judge)
    if workload == "serve":
        # Client and daemon share one CPU, so the kernel samples the
        # speed of the CPU the daemon runs on (notes: "Calibration").
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return ServeRuntime(inputs.corpus_items(seed), judge, trace=trace)
    return ModulesRuntime(workload.removeprefix("modules_"), seed, judge)


# ----------------------------------------------------------------------
# measurement


class Recorder:
    """Calibrated busy time and per-item latencies of timed units."""

    def __init__(self, calibrator: calib.Calibrator) -> None:
        self.calibrator = calibrator
        self.pending: list[tuple[float, int]] = []
        self.batches: list[tuple[int, list[tuple[float, int]]]] = []

    def add(self, sample: tuple[float, int]) -> None:
        self.pending.append(sample)

    def flush(self) -> None:
        self.batches.append((self.calibrator.tick(), self.pending))
        self.pending = []

    def finish(self) -> None:
        """Apply each batch's speed correction, once all samples exist."""
        self.latencies_ms: list[float] = []
        self.busy_s = self.raw_busy_s = 0.0
        self.items = 0
        for batch, samples in self.batches:
            factor = self.calibrator.factor(batch)
            for seconds, items in samples:
                self.busy_s += seconds * factor
                self.raw_busy_s += seconds
                self.items += items
                self.latencies_ms.append(seconds * factor * 1000.0 / items)


def drive(units, seconds: float, recorder: Recorder) -> None:
    """Run units round-robin for ``seconds``, calibrating every batch."""
    deadline = time.perf_counter() + seconds
    batch_end = time.perf_counter() + BATCH_S
    for unit in cycle(units):
        recorder.add(unit())
        now = time.perf_counter()
        if now >= batch_end or now >= deadline:
            recorder.flush()
            batch_end = time.perf_counter() + BATCH_S
            if now >= deadline:
                recorder.finish()
                return


def warm_up(units) -> None:
    """Run the first units once, untimed, so lazy set-up finishes."""
    started = time.perf_counter()
    for unit in units:
        unit()
        if time.perf_counter() - started > 0.3:
            return


def measure_setup(kind: str, calibrator: calib.Calibrator) -> float:
    """Median calibrated set-up time of ``SETUP_STARTS`` fresh starts,
    after one discarded start that fills the bytecode cache.

    A fresh process times its own imports and set-up and calibrates them
    with kernel samples taken in that process (:mod:`probe`); the serve
    daemon is timed from its interpreter start-up to its first ``stats``
    reply (:mod:`daemon`)."""
    samples = []
    for index in range(SETUP_STARTS + 1):
        if kind == "serve":
            from daemon import Daemon

            with Daemon() as daemon:
                elapsed = daemon.setup_s
            factor = calibrator.factor(calibrator.tick())
        else:
            completed = subprocess.run(
                [sys.executable, os.path.join("perfbench", "probe.py"), kind],
                cwd=inputs.ROOT, check=True, capture_output=True, text=True,
            )
            probe = json.loads(completed.stdout.splitlines()[-1])
            elapsed = probe["setup_s"]
            factor = calib.factor(probe["calib_ms"])
        if index:
            samples.append(elapsed * factor)
    return statistics.median(samples)


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """``(value, percentile)`` at the nearest rank of ``percentile``, or,
    if that leaves fewer than ten samples beyond it, at the highest rank
    that leaves ten."""
    ordered = sorted(latencies)
    rank = min(math.ceil(percentile / 100.0 * len(ordered)) - 1, len(ordered) - 11)
    if rank < 0:
        raise RuntimeError(f"only {len(ordered)} latency samples; need 11")
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def peak_rss_mb(runtime) -> float:
    if isinstance(runtime, ServeRuntime):
        return runtime.daemon.peak_rss_mb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: float, judge: Judge, calib_pre: float):
    calibrator = calib.Calibrator()
    runtime = make_runtime(workload, seed, judge)
    try:
        setup_s = measure_setup(runtime.setup_kind, calibrator)
        units = runtime.units()
        warm_up(units)
        recorder = Recorder(calibrator)
        drive(units, seconds, recorder)
        rss = peak_rss_mb(runtime)
    finally:
        runtime.finish()
    value, percentile = tail(recorder.latencies_ms, TAIL_PERCENTILE[workload])
    samples = len(recorder.latencies_ms)
    print(
        f"{workload} seed {seed}: {recorder.items} items in {recorder.busy_s:.2f} "
        f"calibrated s ({recorder.raw_busy_s:.2f} raw); item_tail_ms is "
        f"p{percentile:.2f} of {samples} samples; calib {statistics.median(calibrator.samples):.4f} ms "
        f"interleaved, {calib_pre:.4f} ms alone"
    )
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (recorder.items / recorder.busy_s, "1/s"),
        "item_p50_ms": (statistics.median(recorder.latencies_ms), "ms"),
        "item_tail_ms": (value, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


# ----------------------------------------------------------------------
# traced run


class InternCounter:
    """Counts ``InternTable`` hits and misses over a block by registering
    every table created in it (each unifier makes its own)."""

    def __enter__(self) -> "InternCounter":
        from repro.core.types import InternTable

        self.tables = []
        self._original = original = InternTable.__init__
        tables = self.tables

        def init(table, *args, **kwargs):
            original(table, *args, **kwargs)
            tables.append(table)

        InternTable.__init__ = init
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.core.types import InternTable

        InternTable.__init__ = self._original

    def totals(self) -> tuple[int, int]:
        return sum(t.hits for t in self.tables), sum(t.misses for t in self.tables)


def run_pass(units, calibrator: calib.Calibrator) -> tuple[int, float, int]:
    """One pass over the units: ``(calibration batch, raw s, items)``."""
    raw, items = 0.0, 0
    for unit in units:
        seconds, count = unit()
        raw += seconds
        items += count
    return calibrator.tick(), raw, items


def layer_rows(summary: dict, client: dict, items: int) -> dict[str, float]:
    """Per-item times and per-pass counts from the program's events
    (``summary``) and the benchmark's own spans (``client``)."""
    ms = {name: total / items for name, total in summary["ms"].items()}
    counts = summary["counts"]
    bench_ms = {name: total / items for name, total in client["ms"].items() if name.startswith("bench.")}
    return {
        "syntax.parse_ms": bench_ms.get("bench.parse", 0.0),
        "modules.parse_ms": ms.get("parse", 0.0),
        "modules.graph_ms": ms.get("graph", 0.0),
        "core.generate.ms": ms.get("generate", 0.0),
        "core.generate.constraints": counts["constraints"],
        "core.infer.self_ms": summary["infer_self_ms"] / items,
        "core.infer.generalize_ms": ms.get("generalize", 0.0),
        "core.solver.ms": ms.get("solve", 0.0),
        "core.solver.steps": counts["steps"],
        "core.solver.wakeups": counts["wakeups"],
        "core.unify.bindings": counts["bindings"],
        "bench.call_ms": sum(bench_ms.values()),
    }


def traced(workload: str, seed: int, seconds: float, judge: Judge, calib_pre: float):
    """Untraced and traced passes in turn; per-layer rows of the first
    traced pass, tracing overhead over all of them."""
    from repro.core.infer import Inferencer
    from repro.evalsuite.figure2 import figure2_env
    from repro.observability import Tracer
    from repro.syntax import parse_term

    calibrator = calib.Calibrator()
    units = layer_units()
    rows = dict.fromkeys(units, 0.0)
    serve = workload == "serve"
    if serve:
        plain = make_runtime(workload, seed, judge)
        runtime = make_runtime(workload, seed, judge, trace=True)
    else:
        # The process's first inference, traced on its own: its self time
        # carries whatever set-up the engine defers to the first call.
        first = Tracer()
        Inferencer(figure2_env(), tracer=first).infer(parse_term("id"))
        rows["core.infer.first_call_self_ms"] = first_infer_self_ms(first.events)
        plain = runtime = make_runtime(workload, seed, judge)
    plain_passes, traced_passes, passes = [], [], []
    try:
        for each in (plain, runtime):
            each.units()[0]()  # warm-up; for serve, each daemon's first request
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            plain.set_tracer(None)
            runtime.set_tracer(None)
            plain_passes.append(run_pass(plain.units(), calibrator))
            tracer = Tracer()
            runtime.set_tracer(tracer)
            runtime.stats = dict.fromkeys(runtime.stats, 0)
            if serve:
                before = runtime.daemon.stats()["intern"]
                traced_passes.append(run_pass(runtime.units(), calibrator))
                after = runtime.daemon.stats()["intern"]
                intern = (after["hits"] - before["hits"], after["misses"] - before["misses"])
            else:
                with InternCounter() as counter:
                    traced_passes.append(run_pass(runtime.units(), calibrator))
                intern = counter.totals()
            # Summarise now: keeping the events would grow the heap that
            # the next untraced pass runs in.
            passes.append((summarize(tracer.events), intern, dict(runtime.stats)))
            del tracer
    finally:
        plain.finish()
        if runtime is not plain:
            runtime.finish()

    items = plain_passes[0][2]
    client, intern, module_stats = passes[0]
    if serve:
        # The daemon traced one span tree per request: request 0 is the
        # warm-up, then each pass's ``items`` requests in order.
        trace_path = inputs.ROOT / runtime.daemon.trace_path
        with open(trace_path, encoding="utf-8") as trace:
            requests = split_by_root([json.loads(line) for line in trace], "serve.request")
        os.unlink(trace_path)
        rows["core.infer.first_call_self_ms"] = first_infer_self_ms(requests[0])
        summaries = [
            summarize([event for group in requests[1 + p * items: 1 + (p + 1) * items] for event in group])
            for p in range(len(passes))
        ]
        # Service and wire time from the untraced daemon (its first reply
        # is the warm-up); queue time exists only in the daemon's trace.
        untraced = plain.replies[1:]
        rows["robustness.server.service_ms"] = statistics.fmean(ms for _rtt, ms in untraced)
        rows["robustness.server.wire_ms"] = statistics.fmean(rtt - ms for rtt, ms in untraced)
        rows["robustness.server.queue_ms"] = statistics.fmean(summaries[0]["queue_ms"])
    else:
        summaries = [summary for summary, _intern, _stats in passes]
    rows.update(module_stats)
    rows.update(layer_rows(summaries[0], client, items))
    for other in summaries[1:]:
        if other["counts"] != summaries[0]["counts"]:
            judge.fail(f"layer counts differ between passes: {summaries[0]['counts']} vs {other['counts']}")
    hits, misses = intern
    rows["core.types.intern_hits"] = hits
    rows["core.types.intern_misses"] = misses
    rows["core.types.intern_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    rows["bench.calib_ms"] = statistics.median(calibrator.samples)
    rows["bench.calib_pre_ms"] = calib_pre
    quartiles = statistics.quantiles(calibrator.samples, n=4)
    rows["bench.calib_spread"] = (quartiles[2] - quartiles[0]) / rows["bench.calib_ms"]
    plain_s = sum(raw * calibrator.factor(batch) for batch, raw, _items in plain_passes)
    traced_s = sum(raw * calibrator.factor(batch) for batch, raw, _items in traced_passes)
    done = items * len(passes)
    rows["bench.raw_items_per_s"] = done / sum(raw for _batch, raw, _items in plain_passes)
    rows["bench.trace_overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    rows["bench.pass_items"] = items
    print(
        f"{workload} seed {seed}: {len(passes)} untraced + {len(passes)} traced passes "
        f"of {items} items; tracing overhead {rows['bench.trace_overhead_pct']:.1f}% "
        f"(traced {done / traced_s:.1f} vs untraced {done / plain_s:.1f} calibrated items/s)"
    )
    return {name: (value, units[name]) for name, value in rows.items()}


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    # The kernel alone, before the program is even imported: the guard
    # that program state does not slow the kernel compares against this.
    calib_pre = statistics.median(calib.sample() for _ in range(15))
    inputs.require_program()
    os.chdir(inputs.ROOT)
    judge = Judge()
    if arguments.trace:
        metrics = traced(arguments.workload, arguments.seed, arguments.seconds, judge, calib_pre)
    else:
        metrics = end_to_end(arguments.workload, arguments.seed, arguments.seconds, judge, calib_pre)
    for message in judge.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
