"""Benchmark of the conormal library: one seeded, single-threaded, closed-loop caller.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``decide``   -- ``is_conormal`` / ``is_tangential`` on many forms and fields
  per germ: the warm, cached use of ``groebner`` (``reduce``, ``wedge``).
* ``trivial``  -- ``is_trivial_form`` on five (germ, k) classes: the module
  path (``module_buchberger``).
* ``sections`` -- ``bertini_check`` with seeded random hyperplanes: the cold
  use of ``groebner`` (fresh bases, Rabinowitsch, Krull dimension).

``perfbench/gen.py`` makes the inputs from the seed in a child process, so
this process receives only germ-file text, field strings and hyperplane
strings plus the answer each op must get.  Set-up imports the library and
parses every input; it is repeated and its median reported as ``setup_s``.
The op list is fixed by (workload, seed, seconds) and always runs to
completion; one op is one library decision and a wrong or raising op counts
as failed.  Times are scaled to a reference machine speed measured by
``reference_loop`` between ops (see ``Speed``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of ``perfbench/tracer.py``,
measured on the first quarter of the op list, run untraced and traced in
alternating chunks so that ``trace.overhead_frac`` compares like with like.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up is repeated and its median reported.  A decide set-up parses as
# much text as its ops decide (about 4 s), the others take about 60 ms.
SETUP_REPEATS = {"decide": 3, "trivial": 11, "sections": 11}
TRACE_CHUNKS = 4
# Machine speed: calls per second of reference_loop on the machine the
# times are expressed for, and how often the loop is sampled.
REFERENCE_RATE = 400.0
SPEED_EVERY_S, SPEED_CALLS = 0.5, 20

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
    "op_ms.p99": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}
# Per-layer metrics: (metric, span name, kind).  "calls" is a count over the
# traced ops, "self_ms"/"ms" are self/inclusive milliseconds per traced op,
# "setup_ms" is inclusive milliseconds per set-up.
LAYER_METRICS = [
    ("groebner.buchberger.calls", "groebner.buchberger", "calls"),
    ("groebner.buchberger.self_ms", "groebner.buchberger", "self_ms"),
    ("groebner.s_polynomial.calls", "groebner.s_polynomial", "calls"),
    ("groebner.reduce.calls", "groebner.reduce", "calls"),
    ("groebner.reduce.self_ms", "groebner.reduce", "self_ms"),
    ("groebner.radical_membership.calls", "groebner.radical_membership", "calls"),
    ("groebner.radical_membership.ms", "groebner.radical_membership", "ms"),
    ("groebner.module_buchberger.calls", "groebner.module_buchberger", "calls"),
    ("groebner.module_buchberger.self_ms", "groebner.module_buchberger", "self_ms"),
    ("groebner.module_reduce.calls", "groebner.module_reduce", "calls"),
    ("groebner.module_reduce.self_ms", "groebner.module_reduce", "self_ms"),
    ("groebner.krull_dimension.calls", "groebner.krull_dimension", "calls"),
    ("groebner.krull_dimension.self_ms", "groebner.krull_dimension", "self_ms"),
    ("geometry.jacobian_ideal.calls", "geometry.jacobian_ideal", "calls"),
    ("geometry.hyperplane_section.self_ms", "geometry.hyperplane_section", "self_ms"),
    ("geometry.bertini_check.ms", "geometry.bertini_check", "ms"),
    ("forms.wedge.calls", "forms.wedge", "calls"),
    ("forms.wedge.self_ms", "forms.wedge", "self_ms"),
    ("forms.exterior_derivative.self_ms", "forms.exterior_derivative", "self_ms"),
    ("germs.is_conormal.ms", "germs.is_conormal", "ms"),
    ("germs.is_tangential.ms", "germs.is_tangential", "ms"),
    ("germs.is_trivial_form.ms", "germs.is_trivial_form", "ms"),
    ("germs.trivial_form_generators.self_ms", "germs.trivial_form_generators", "self_ms"),
    ("poly.mul.calls", "poly.mul", "calls"),
    ("poly.mul.self_ms", "poly.mul", "self_ms"),
    ("poly.substitute.self_ms", "poly.substitute", "self_ms"),
    ("cli.parse_germ_text.ms", "cli.parse_germ_text", "setup_ms"),
    ("germs.Germ.init_ms", "germs.Germ.init", "setup_ms"),
]
LAYER_UNITS = {"calls": "count", "self_ms": "ms/op", "ms": "ms/op", "setup_ms": "ms"}


def reference_loop():
    """Fixed pure-Python work (a dict-of-tuples product over Fractions, the
    library's own kind of arithmetic) that never calls the library."""
    a = {(i, j, 0): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
    b = {(0, j, k): Fraction(k + 3, j + 1) for j in range(4) for k in range(5)}
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = out.get(m, 0) + ca * cb
    return out


class Speed:
    """Samples reference_loop between ops to follow the machine's speed.

    The shared sandbox drifts between speed states that last minutes (runs
    of identical code differ by up to 25%), and reference_loop follows them:
    across 18-s runs its rate correlated 0.93 with the ops' rate.  Each time
    is reported at REFERENCE_RATE, scaled by (local rate / REFERENCE_RATE),
    where the local rate is the mean of the samples just before and after
    it, so a brief slow spell scales only the ops it slowed.  A sample is
    taken before a timed piece of work (an op, a piece of set-up) once
    SPEED_EVERY_S of timed work has passed since the last one.
    """

    def __init__(self):
        self.rates = []  # reference_loop calls per second, one per sample
        self.cpu_seconds = 0.0  # process CPU time spent in the samples
        self.marks = []  # per timed piece: number of samples taken before it
        self.since_sample = SPEED_EVERY_S

    def sample(self):
        gc.disable()  # keep the library's heap size out of the sample
        try:
            cpu0, start = time.process_time(), time.perf_counter()
            for _ in range(SPEED_CALLS):
                reference_loop()
            elapsed = time.perf_counter() - start
            self.cpu_seconds += time.process_time() - cpu0
        finally:
            gc.enable()
        self.rates.append(SPEED_CALLS / elapsed)
        self.since_sample = 0.0

    def before(self):
        """Call before each timed piece of work; samples if one is due."""
        if self.since_sample >= SPEED_EVERY_S:
            self.sample()
        self.marks.append(len(self.rates))

    def after(self, seconds):
        """Call after each timed piece of work with its wall time."""
        self.since_sample += seconds

    def scale(self, times, width=2):
        """The timed pieces' times at the reference speed, each scaled by
        the `width` samples on each side of it."""
        rates = self.rates
        return [t * statistics.fmean(rates[max(0, m - width) : m + width]) / REFERENCE_RATE
                for t, m in zip(times, self.marks)]


def generate(workload, seed, seconds):
    """Run the generator in a child process and return its inputs."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"input generation failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)


def import_library(fresh):
    if fresh:
        for key in [k for k in sys.modules if k == "conormal" or k.startswith("conormal.")]:
            del sys.modules[key]
    importlib.import_module("conormal.cli")
    return {name: sys.modules[f"conormal.{name}"] for name in ("cli", "forms", "geometry", "germs", "poly")}


def set_up(inputs, fresh_import=True, speed=None):
    """Import the library and parse every input.

    Returns ([(call, expected, class)], seconds of each piece).  Set-up is
    timed in pieces: the import, each germ text and the binding of the ops.
    With `speed`, the machine's speed is sampled between pieces as between
    ops.  Each call looks its library function up at call time, so a tracer
    that patches the module namespaces sees it.
    """
    times = []

    def timed(fn, *args, **kwargs):
        if speed is not None:
            speed.before()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
        if speed is not None:
            speed.after(times[-1])
        return result

    lib = timed(import_library, fresh_import)
    files = {gid: timed(lib["cli"].parse_germ_text, text, source=gid) for gid, text in inputs["germs"].items()}
    ops = timed(lambda: [(_bind(op, files[op["germ"]], lib), op["expect"], op["class"]) for op in inputs["ops"]])
    return ops, times


def _bind(op, gf, lib):
    germs, geometry, poly = lib["germs"], lib["geometry"], lib["poly"]
    germ, ring = gf.germ, gf.germ.ring
    kind = op["kind"]
    if kind == "conormal":
        [form] = gf.forms[op["input"]]
        return lambda: germs.is_conormal(form, germ).status.value
    if kind == "tangent":
        comps = [poly.parse_polynomial(c, ring) for c in op["input"].split(",")]
        field = lib["forms"].VectorField(ring, comps)
        return lambda: germs.is_tangential(field, germ).status.value
    if kind == "trivial":
        [form] = gf.forms[op["input"]]
        return lambda: germs.is_trivial_form(form, germ)
    if kind == "section":
        linear = poly.parse_polynomial(op["input"], ring)
        normal = [linear.terms.get(tuple(int(i == j) for j in range(ring.nvars)), 0)
                  for i in range(ring.nvars)]
        hyperplane = lib["forms"].Hyperplane(ring, normal)
        par = gf.parametrization if op["param"] else None
        return lambda: geometry.bertini_check(germ, hyperplane, par).verdict.value
    raise ValueError(f"unknown op kind {kind!r}")


def run_ops(ops, tracer=None, speed=None):
    """Run ops in order; return (per-op seconds, failed count)."""
    times, failed = [], 0
    clock = time.perf_counter
    for call, expected, _ in ops:
        if speed is not None:
            speed.before()
        start = clock()
        try:
            answer = call()
        except Exception:  # a raising op is a failed op; keep measuring the rest
            traceback.print_exc(file=sys.stderr)
            answer = None
        times.append(clock() - start)
        if speed is not None:
            speed.after(times[-1])
        if tracer is not None:
            tracer.fold()
        if answer != expected:
            failed += 1
    if speed is not None:
        speed.sample()
    return times, failed


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report_classes(ops, times):
    by_class = defaultdict(list)
    for (_, _, cls), t in zip(ops, times):
        by_class[cls].append(t * 1000)
    for cls in sorted(by_class):
        ts = by_class[cls]
        print(f"class {cls}: ops={len(ts)} p50_ms={statistics.median(ts):.3f}")


def measure(workload, inputs):
    setups, setup_speed, ops = [], Speed(), None
    for _ in range(SETUP_REPEATS[workload]):
        ops = None  # so the peak RSS holds one set-up's objects, not two
        gc.collect()
        setup_speed.sample()
        ops, pieces = set_up(inputs, speed=setup_speed)
        setups.append(pieces)
    setup_speed.sample()
    scaled_pieces = iter(setup_speed.scale([t for pieces in setups for t in pieces], width=1))
    scaled_setups = [sum(next(scaled_pieces) for _ in pieces) for pieces in setups]
    gc.collect()
    op_speed = Speed()
    cpu0 = time.process_time()
    times, failed = run_ops(ops, speed=op_speed)
    cpu = time.process_time() - cpu0 - op_speed.cpu_seconds
    report_classes(ops, times)
    scaled = op_speed.scale(times)
    f = sum(scaled) / sum(times)
    print(f"speed: ops {f:.4f} x reference; as measured: setup_s={statistics.median(map(sum, setups)):.4f} "
          f"ops_per_s={len(ops) / sum(times):.4f}")
    ms = [t * 1000 for t in scaled]
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "ops_per_s": len(ops) / sum(scaled),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": quantile(ms, 90),
        # Only decide has >= 10 ops beyond p99; the output format still
        # needs the metric on every workload.
        "op_ms.p99": quantile(ms, 99),
        "cpu_ms_per_op": cpu * 1000 * f / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return len(ops), failed, True, out


def measure_traced(workload, inputs):
    from tracer import Tracer

    set_up(inputs)
    setup_tracer = Tracer()
    with setup_tracer:
        ops, _ = set_up(inputs, fresh_import=False)
    setup_tracer.fold()
    ops = ops[: max(1, len(ops) // 4)]
    # Cross-check: the library's own hook fires once per Groebner basis.
    groebner = sys.modules["conormal.groebner"]
    has_observer = hasattr(groebner, "_basis_observer")
    bases = [0]

    def observer(*_):
        bases[0] += 1

    tracer = Tracer()
    chunk = -(-len(ops) // TRACE_CHUNKS)
    # Both modes are scaled to the reference speed, like the op times of
    # measure, so that a change of machine speed between chunks does not
    # show as tracing cost.
    speeds = {False: Speed(), True: Speed()}
    times = {False: [], True: []}
    failed = 0
    gc.collect()
    for c, lo in enumerate(range(0, len(ops), chunk)):
        part = ops[lo : lo + chunk]
        for traced in ((False, True) if c % 2 == 0 else (True, False)):
            if not traced:
                part_times, bad = run_ops(part, speed=speeds[False])
            else:
                if has_observer:
                    saved, groebner._basis_observer = groebner._basis_observer, observer
                try:
                    with tracer:
                        part_times, bad = run_ops(part, tracer, speeds[True])
                finally:
                    if has_observer:
                        groebner._basis_observer = saved
            times[traced] += part_times
            failed += bad
    consistent = not has_observer or bases[0] == tracer.calls["groebner.buchberger"]
    if not consistent:
        print(f"trace check failed: {tracer.calls['groebner.buchberger']} buchberger spans, "
              f"{bases[0]} bases seen by groebner._basis_observer", file=sys.stderr)
    metrics = {}
    for metric, span, kind in LAYER_METRICS:
        if kind == "calls":
            value = tracer.calls[span]
        elif kind == "self_ms":
            value = tracer.self_time[span] * 1000 / len(ops)
        elif kind == "ms":
            value = tracer.total[span] * 1000 / len(ops)
        else:
            value = setup_tracer.total[span] * 1000
        metrics[metric] = {"value": value, "unit": LAYER_UNITS[kind]}
    metrics["groebner.reduce.zero_frac"] = {
        "value": tracer.s_reduce_zero / max(1, tracer.s_reduce), "unit": "ratio"}
    metrics["groebner.ideal_basis.hit_frac"] = {
        "value": tracer.basis_hits / max(1, tracer.basis_requests), "unit": "ratio"}
    plain_s, traced_s = (sum(speeds[mode].scale(times[mode])) for mode in (False, True))
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1, "unit": "ratio"}
    return 2 * len(ops), failed, consistent, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="conormal benchmark")
    parser.add_argument("--workload", required=True, choices=["decide", "trivial", "sections"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conormal" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inputs = generate(args.workload, args.seed, args.seconds)
    measure_fn = measure_traced if args.trace else measure
    attempted, failed, consistent, metrics = measure_fn(args.workload, inputs)
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
