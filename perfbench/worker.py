"""One measuring process of the pan benchmark.

Sets the workload up (import pan, read the inputs through ``pan.io``,
init parameters, one warm-up op) and reports how long that took. Unless
``--setup-only``, it then runs the timed closed loop: one caller, the next
op starts when the previous one returns, for ``--seconds`` and at least
``MIN_OPS`` ops, ending on a whole cycle of inputs. After the loop
it checks the first cycle's outputs and the last op's against the
references in ``oracles.py``. With ``--trace`` a traced phase follows (see tracing.py).

Prints one JSON object as the last line of stdout. ``run.py`` starts this
script with the BLAS thread count fixed; run that instead.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, so it covers importing pan

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# the traced phase needs fewer ops: per-layer numbers have no bound, and
# fusion records ~17k spans per op
TRACED_MIN_OPS = 10
TRACED_SHARE = 1 / 3  # of --seconds


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True, help="directory holding the inputs")
    ap.add_argument("--size", choices=sorted(workloads.MIN_OPS), default="full")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", type=Path,
                    help="run the traced phase and write its files with this prefix")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb the first checked output (self-test of the checks)")
    return ap.parse_args(argv)


def run_loop(wl, state, seconds: float, min_ops: int, on_op=None) -> dict:
    """Closed loop over ops until ``seconds`` and ``min_ops`` are reached on a cycle end."""
    cycle = wl.cycle(state)
    latencies, kept, errors = [], {}, []
    start = time.perf_counter()
    i = 0
    while True:
        t = time.perf_counter()
        try:
            out = wl.op(state, i) if on_op is None else on_op(i)
        except Exception:  # an op that raises is counted as failed, the loop goes on
            errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
            out = None
        now = time.perf_counter()
        latencies.append(now - t)
        if out is not None and i < cycle:
            kept[i] = out
        last = (i, out)
        i += 1
        if i >= min_ops and i % cycle == 0 and now - start >= seconds:
            break
    if last[1] is not None:
        kept[last[0]] = last[1]
    return {"latencies": latencies, "wall": time.perf_counter() - start,
            "kept": kept, "errors": errors}


def latency_summary(latencies: list, wall: float) -> dict:
    ms = [1e3 * t for t in latencies]
    return {"ops": len(ms), "latencies_ms": ms, "latency_ms_p50": statistics.median(ms),
            "latency_ms_p90": statistics.quantiles(ms, n=10)[8],
            "ops_per_s": len(ms) / wall}


def blas_record() -> dict:
    """BLAS library and the thread count it runs with, read back from the library."""
    import ctypes

    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"numpy": np.__version__, "blas": info.get("name"),
              "blas_version": info.get("version"), "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_threads"] = fn()
                return record
    return record


# ---------------------------------------------------------------------------
# traced phase
# ---------------------------------------------------------------------------

def probes() -> dict:
    """Counts taken from the wrapped calls' arguments and results."""
    from os.path import getsize
    arg = tracing.arg

    def pillarize(args, kwargs, grid):
        return {"pillars.points_in": len(arg(args, kwargs, 0, "pc")),
                "pillars.pillar_count": grid.pillar_count}

    def enhance(args, kwargs, _):
        ec, tb = arg(args, kwargs, 2, "cfg"), arg(args, kwargs, 0, "tb")
        return {"backbone.token_macs": oracles.token_macs(
            len(tb), tb.tokens.shape[1], ec.embed_dim, ec.use_attn_out)}

    def conv_refine(args, kwargs, _):
        grid, params = arg(args, kwargs, 0, "grid"), arg(args, kwargs, 1, "params")
        h, w, c = grid.data.shape
        k = params.conv1.kernel.shape[0]
        return {"backbone.conv_macs": oracles.conv_macs(h, w, c, k),
                "backbone.conv_useful_share": oracles.conv_useful_share(grid.mask, k)}

    def match_frame(args, kwargs, _):
        gt, pred = arg(args, kwargs, 0, "gt"), arg(args, kwargs, 1, "pred")
        return {"metrics.distance_evals": len(gt) * len(pred)}

    def mdca(args, kwargs, _):
        queries, params = arg(args, kwargs, 0, "query_feats"), arg(args, kwargs, 3, "params")
        return {"fusion.samples": len(queries) * params.heads * params.modalities
                * params.points_per_head}

    def reader(records):
        def probe(args, kwargs, result):
            return {"io.records_read": records(result),
                    "io.bytes_read": getsize(arg(args, kwargs, 0, "path"))}
        return probe

    return {
        "pillars.pillarize": pillarize, "backbone.enhance": enhance,
        "backbone.conv_refine": conv_refine, "metrics.match_frame": match_frame,
        "fusion.mdca": mdca,
        "io.read_points_jsonl": reader(lambda clouds: sum(len(c) for c in clouds)),
        "io.read_boxes_jsonl": reader(lambda frames: sum(len(f.gt) + len(f.pred)
                                                         for f in frames)),
        "io.read_feature_map": reader(lambda _: 1),
    }


# per-op inclusive and self times of these spans become per-layer metrics
TIMED_SPANS = (
    "pillars.pillarize", "pillars.gather", "pillars.scatter",
    "backbone.conv_refine", "backbone.enhance", "backbone.self_attention",
    "layers.conv2d", "layers.gelu", "layers.linear", "layers.layer_norm",
    "layers.softmax_rows", "layers.batch_norm2d", "layers.max_pool2d",
    "fusion.mdca", "fusion.bilinear_sample", "fusion.occupancy_head",
    "metrics.evaluate", "metrics.match_frame", "metrics.average_precision",
    "metrics.tp_errors",
)
SELF_SPANS = ("pillars.pillarize", "fusion.mdca", "metrics.evaluate")
CALL_SPANS = {"layers.conv2d.calls": "layers.conv2d",
              "fusion.bilinear_sample.calls": "fusion.bilinear_sample",
              "fusion.linear.calls": "layers.linear@fusion",
              "metrics.match_frame.calls": "metrics.match_frame"}
PER_CALL_SPANS = ("io.read_boxes_jsonl", "io.read_points_jsonl")
PROBE_COUNTS = ("pillars.points_in", "pillars.pillar_count", "backbone.token_macs",
                "backbone.conv_macs", "backbone.conv_useful_share",
                "metrics.distance_evals", "fusion.samples")
INPUT_COUNTS = {"pillars.points_out_of_range": "points_out_of_range",
                "pillars.points_truncated": "points_truncated",
                "backbone.dense_token_macs": "dense_token_macs"}
DERIVED_UNITS = {
    "pillars.points_out_of_range": "count", "pillars.points_truncated": "count",
    "backbone.token_macs": "MAC", "backbone.dense_token_macs": "MAC",
    "backbone.conv_macs": "MAC", "backbone.conv_useful_share": "share",
    "metrics.match_redundancy": "ratio", "fusion.samples_per_s": "1/s",
    "io.records_read": "count", "io.bytes_read": "B", "trace.overhead_ms": "ms",
}
PER_LAYER_UNITS = {
    **{f"{s}.ms": "ms" for s in TIMED_SPANS + PER_CALL_SPANS},
    **{f"{s}.self_ms": "ms" for s in SELF_SPANS},
    **{m: "count" for m in (*CALL_SPANS, *PROBE_COUNTS)},
    **DERIVED_UNITS,
}
# counts taken both from the wrapped calls and from the generated inputs
CROSS_CHECKED = {"pillars.points_in": "points_in", "pillars.pillar_count": "pillar_count",
                 "backbone.token_macs": "token_macs", "backbone.conv_macs": "conv_macs",
                 "backbone.conv_useful_share": "conv_useful_share",
                 "fusion.samples": "samples"}


def _cycle_median(values: list, cycle: int) -> float:
    """Median over whole cycles of inputs of the per-op mean in each cycle."""
    means = [statistics.fmean(values[c:c + cycle]) for c in range(0, len(values), cycle)]
    return statistics.median(means)


def traced_phase(wl, state, args, cycle: int, untraced: dict) -> dict:
    import numpy as np
    rec = tracing.Recorder()
    problems = []
    refs = wl.reference_inputs(state, args.work)
    try:
        expected = wl.input_counts(state, refs)
    except AssertionError as exc:
        problems.append(str(exc))
        expected = [{} for _ in range(cycle)]
    min_ops = max(2 * cycle, TRACED_MIN_OPS)
    min_ops += -min_ops % cycle
    with tracing.install(rec, probes()):
        rec.op = -1  # the set-up's read of the inputs, traced
        wl.read_inputs(state.mods, args.work)

        def traced_op(i):
            rec.op = i
            with rec.span(tracing.OP_SPAN):
                return wl.op(state, i)

        loop = run_loop(wl, state, args.seconds * TRACED_SHARE, min_ops, on_op=traced_op)
    rollup = rec.rollup()
    n_ops = len(loop["latencies"])
    ops = range(n_ops)
    problems += loop["errors"]

    def per_op(span: str, key: str) -> list:
        return [sum(v[key] for name, v in rollup.get(op, {}).items()
                    if name == span or name.startswith(span + "@")) for op in ops]

    metrics = {}
    for span in TIMED_SPANS:
        metrics[f"{span}.ms"] = _cycle_median(per_op(span, "ms"), cycle)
    for span in SELF_SPANS:
        metrics[f"{span}.self_ms"] = _cycle_median(per_op(span, "self_ms"), cycle)
    for metric, span in CALL_SPANS.items():
        metrics[metric] = statistics.fmean(per_op(span, "calls"))
    cols = rec.arrays()
    for span in PER_CALL_SPANS:
        ids = [i for i, name in enumerate(rec.names) if name.split("@")[0] == span]
        durs = cols["dur"][np.isin(cols["name"], ids)]
        metrics[f"{span}.ms"] = 1e3 * float(np.median(durs)) if durs.size else 0.0
    counts = [rec.counts.get(op, {}) for op in ops]
    for key in PROBE_COUNTS:
        metrics[key] = statistics.fmean(c.get(key, 0) for c in counts)
    for metric, key in INPUT_COUNTS.items():
        metrics[metric] = statistics.fmean(e.get(key, 0) for e in expected)
    setup_read = rec.counts.get(-1, {})
    metrics["io.records_read"] = setup_read.get("io.records_read", 0)
    metrics["io.bytes_read"] = setup_read.get("io.bytes_read", 0)
    calls = per_op("metrics.match_frame", "calls")
    triples = sum(e.get("match_triples", 0) for e in expected)
    metrics["metrics.match_redundancy"] = (
        sum(calls[:cycle]) / triples if triples else 0.0)
    samples = metrics["fusion.samples"]
    metrics["fusion.samples_per_s"] = samples / (untraced["latency_ms_p50"] / 1e3)

    op_ms = 1e3 * cols["dur"][cols["name"] == rec.names.index(tracing.OP_SPAN)]
    traced_p50 = float(np.median(op_ms))
    metrics["trace.overhead_ms"] = traced_p50 - untraced["latency_ms_p50"]

    # counts repeat exactly: every cycle against the first, and against the inputs
    for op in ops:
        ref = op % cycle
        same = ({k: v["calls"] for k, v in rollup.get(op, {}).items() if k != tracing.OP_SPAN},
                counts[op])
        first = ({k: v["calls"] for k, v in rollup.get(ref, {}).items()
                  if k != tracing.OP_SPAN}, counts[ref])
        if same != first:
            problems.append(f"op {op}: counts differ from op {ref}")
        for key, input_key in CROSS_CHECKED.items():
            if input_key in expected[ref] and counts[op].get(key) != expected[ref][input_key]:
                problems.append(f"op {op}: {key} {counts[op].get(key)} from the wrapped "
                                f"calls != {expected[ref][input_key]} from the inputs")

    prefix = args.trace_out
    prefix.parent.mkdir(parents=True, exist_ok=True)
    np.savez(f"{prefix}-spans.npz", names=np.array(rec.names),
             **{k: cols[k] for k in ("name", "start", "end", "parent", "op")})
    with open(f"{prefix}-trace.json", "w", encoding="utf-8") as fh:
        json.dump({"per_layer": metrics, "traced_latency_ms_p50": traced_p50,
                   "untraced_latency_ms_p50": untraced["latency_ms_p50"],
                   "tracing_overhead_share": traced_p50 / untraced["latency_ms_p50"] - 1.0,
                   "traced_ops": n_ops, "cycle": cycle, "input_counts": expected,
                   "problems": problems,
                   "per_op": {str(op): {"spans": rollup.get(op, {}), "counts": counts[op]}
                              for op in ops},
                   "setup_read": {"spans": rollup.get(-1, {}), "counts": setup_read}},
                  fh, indent=1)
    if set(metrics) != set(PER_LAYER_UNITS):
        raise AssertionError(f"metrics without a unit: {set(metrics) ^ set(PER_LAYER_UNITS)}")
    return {"per_layer": {name: {"value": metrics[name], "unit": PER_LAYER_UNITS[name]}
                          for name in PER_LAYER_UNITS},
            "problems": problems}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.work, args.seed, args.size)
    wl.op(state, 0)  # warm-up, not a latency sample
    result = {"setup_s": time.perf_counter() - T0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    loop = run_loop(wl, state, args.seconds, workloads.MIN_OPS[args.size])
    # peak before the checks, so the references' memory is not counted
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(latency_summary(loop["latencies"], loop["wall"]))
    problems = list(loop["errors"])
    refs = wl.reference_inputs(state, args.work)
    for n, (i, out) in enumerate(sorted(loop["kept"].items())):
        if args.corrupt and n == 0:
            out = wl.corrupt(out)
        try:
            problem = wl.check(state, refs, i, out)
        except Exception:  # a check that cannot run counts the op as failed
            problem = f"op {i}: check raised {traceback.format_exc(limit=3)}"
        if problem:
            problems.append(problem)
    result["failed"] = len(problems)
    result["checked"] = len(loop["kept"])
    result["problems"] = problems
    result["env"] = blas_record()
    if args.trace_out is not None:
        traced = traced_phase(wl, state, args, wl.cycle(state), result)
        result["per_layer"] = traced["per_layer"]
        result["trace_problems"] = traced["problems"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
