"""One pass of an in-process workload (formulas or graphs), in a fresh interpreter.

    python3 perfbench/inproc.py WORKLOAD OPS_JSON OUT_JSON TRACE

Runs every op of OPS_JSON in order, each followed by a calibration sample
(see calib.py), then checks each output against its reference and writes
latencies, calibration samples, failures and, with TRACE=1, the spans to
OUT_JSON.
"""

from __future__ import annotations

import json
import sys
import time

import calib


def formulas_op(op: dict):
    from splitspecies import counting

    n = op["n"]
    return counting.split_labeled_bp(n), counting.split_labeled(n)


def formulas_check(op: dict, out) -> str | None:
    want = int(op["ref"], 16)
    bp, direct = out
    if bp != want:
        return "split_labeled_bp differs from b_n - n*b_{n-1}"
    if direct != want:
        return "split_labeled differs from b_n - n*b_{n-1}"
    return None


def graphs_op(op: dict) -> dict:
    from splitspecies import bijections, graphs, structure
    from splitspecies.errors import NotSplit
    from splitspecies.structure import SplitClass

    n, p = op["n"], op["perm"]
    g = graphs.make_graph(n, [tuple(e) for e in op["edges"]])
    out = {"is_split": graphs.is_split(g), "is_split_complement": graphs.is_split(graphs.complement(g))}
    try:
        cls = structure.classify(g)
    except NotSplit:
        out["class"] = "not-split"
        return out
    rep = structure.swing_report(g)
    out.update({"class": cls.value, "swings": list(rep.swings)})
    h = graphs.relabel(g, p)
    checks = {}
    if cls is SplitClass.AMBIGUOUS:
        a, rest = bijections.amb_decompose(g)
        checks["amb_round_trip"] = bijections.amb_compose(a, rest).core == g
        a2, rest2 = bijections.amb_decompose(h)
        checks["amb_equivariant"] = a2 == p[a] and rest2 == rest.relabeled(p)
    elif cls is SplitClass.K_CANONICAL:
        a, rest = bijections.uk_decompose(g)
        checks["uk_round_trip"] = bijections.uk_compose(a, rest).core == g
        a2, rest2 = bijections.uk_decompose(h)
        checks["uk_equivariant"] = a2 == tuple(sorted(p[v] for v in a)) and rest2 == rest.relabeled(p)
    elif cls is SplitClass.BALANCED and n < graphs.MAX_VERTICES:
        # attach a new swing vertex n, then take it off again
        amb = bijections.amb_compose(n, g)
        v, back = bijections.amb_decompose(amb.core)
        checks["amb_round_trip"] = v == n and back.core == g
        checks["amb_equivariant"] = (bijections.amb_compose(n, h).core
                                     == graphs.relabel(amb.core, p + [n]))
    else:  # s-canonical, or balanced at the 16-vertex cap: no map applies
        checks["swing_equivariant"] = (list(structure.swing_report(h).swings)
                                       == sorted(p[v] for v in rep.swings))
    colorings = structure.all_colorings(g)
    out["colorings"] = len(colorings)
    checks["bicolored_round_trip"] = all(
        bijections.bicolored_to_split(bijections.split_to_bicolored(c)) == c for c in colorings)
    if cls is SplitClass.K_CANONICAL:
        ps, crest = bijections.cuk_decompose(colorings[0])
        checks["cuk_round_trip"] = bijections.cuk_compose(ps, crest).core == colorings[0]
    out["checks"] = checks
    return out


def graphs_check(op: dict, out: dict) -> str | None:
    for key, want in op["ref"].items():
        if out.get(key) != want:
            return f"{key}: got {out.get(key)!r}, want {want!r}"
    failed = [name for name, ok in out.get("checks", {}).items() if not ok]
    return f"failed {', '.join(failed)}" if failed else None


OPS = {"formulas": (formulas_op, formulas_check), "graphs": (graphs_op, graphs_check)}


def main(argv: list[str]) -> int:
    workload, ops_path, out_path, trace = argv[0], argv[1], argv[2], argv[3] == "1"
    import splitspecies  # noqa: F401
    with open(ops_path) as f:
        ops = json.load(f)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run_op, check = OPS[workload]
    latencies, outputs, samples = [], [], [calib.bigint_sample()]
    for i, op in enumerate(ops):
        t = time.perf_counter()
        if tracer:
            tracer.op = i
            idx = tracer.open("bench.op")
        try:
            out = run_op(op)
        except Exception as exc:  # an unexpected exception fails the op
            out = exc
        finally:
            if tracer:
                tracer.close(idx)
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
        samples.append(calib.bigint_sample())
    failures = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        reason = f"raised {out!r}" if isinstance(out, Exception) else check(op, out)
        if reason:
            inputs = {k: v for k, v in op.items() if k != "ref"}
            failures.append(f"op {i} {json.dumps(inputs)}: {reason}")
    result = {"latencies": latencies, "samples": samples, "failures": failures}
    if tracer:
        result.update(tracer.dump())
    with open(out_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
