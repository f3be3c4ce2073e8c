"""Command-line front end: counting, enumeration, classification, bijections,
verification suites, and asymptotic reports, all with machine-readable output.

Exit codes: 0 success, 1 a verification suite found a discrepancy, 2 usage
error, 3 invalid input (too large, not a split graph, wrong class, malformed
file, negative size, ...), 4 a failed internal invariant (a bug), 74 stdout
cannot take the output (a full disk, ...: ``EX_IOERR``), 141 the reader of
stdout closed it early (128 + SIGPIPE, as for ``| head``).

Counts are printed as decimal strings, since they overflow 64-bit integers
almost immediately.  Identical invocations produce byte-identical output on
stdout; the one timing, that of ``verify --suite formulas``, goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

from . import checks
from .asymptotics import ratio_report
from .bijections import (amb_decompose, bicolored_to_split, cuk_decompose, split_to_bicolored,
                         uk_decompose)
from .enumeration import ClassTag, enumerate_labeled
from .errors import InternalError, SplitSpeciesError, check_size
from .graphs import BicoloredGraph, TwoColoredGraph, _json_values, load_file, load_graph
from .series import decimal
from .structure import ColoredSplitGraph, classify_report, swing_report

_ENUMERATE_BLOCK = 4096  # lines per write of ``enumerate``
_VERIFY_MAX_N = {"identities": 6, "formulas": 318, "random": 8}  # default --max-n per suite


def _emit_json(data) -> None:
    """Print data with the sorted compact encoding of every JSON report;
    json loads only here and where JSON is read."""
    import json

    print(json.dumps(data, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    tag = ClassTag(args.klass)
    if args.n is None:  # checked here, as an empty range would print nothing
        flag, ns = "--max-n", range(check_size(args.max_n, what="--max-n") + 1)
    else:
        flag, ns = "--n", [args.n]
    values = checks.counts(tag, args.unlabeled, ns, what=flag)  # checks the route's cap
    kind = "unlabeled" if args.unlabeled else "labeled"
    if args.format == "json":
        _emit_json({"class": tag.value, "kind": kind,
                    "counts": {str(n): decimal(v) for n, v in values.items()}})
    elif args.format == "csv":
        print("n,class,kind,count")
        for n, v in values.items():
            print(f"{n},{tag.value},{kind},{decimal(v)}")
    else:
        for n, v in values.items():
            print(f"{tag.value} {kind} n={n}: {decimal(v)}")
    return 0


def _cmd_enumerate(args) -> int:
    lines = enumerate_labeled(args.n, ClassTag(args.klass), lines=True, what="--n")
    while block := list(itertools.islice(lines, _ENUMERATE_BLOCK)):
        sys.stdout.write("\n".join(block) + "\n")
    return 0


def _cmd_classify(args) -> int:
    g = load_graph(args.graph)
    rep = swing_report(g)  # raises NotSplit -> exit 3
    _emit_json({"class": classify_report(rep).value, "swing_report": rep.to_json()})
    return 0


def _load_colored(path: str, carrier: type[TwoColoredGraph]) -> TwoColoredGraph:
    import json

    return load_file(path, lambda text: carrier.from_json(json.loads(text)))


def _cmd_biject(args) -> int:
    name = args.map
    if name in ("uk-decompose", "amb-decompose"):
        if not args.graph:
            args.usage_error(f"--graph is required for --map {name}")
        g = load_graph(args.graph)
        if name == "uk-decompose":
            a, rest = uk_decompose(g)
            _emit_json({"map": name, "swing_set": list(a), "rest": rest.to_json()})
        else:
            a, rest = amb_decompose(g)
            _emit_json({"map": name, "swing_vertex": a, "rest": rest.to_json()})
    elif not args.input:
        args.usage_error(f"--input is required for --map {name}")
    elif name == "cuk-decompose":
        c = _load_colored(args.input, ColoredSplitGraph)
        ps, rest = cuk_decompose(c)
        _emit_json({"map": name, "pointed_set": ps.to_json(), "rest": rest.to_json()})
    elif name == "split-to-bicolored":
        c = _load_colored(args.input, ColoredSplitGraph)
        _emit_json({"map": name, "result": split_to_bicolored(c).to_json()})
    elif name == "bicolored-to-split":
        b = _load_colored(args.input, BicoloredGraph)
        _emit_json({"map": name, "result": bicolored_to_split(b).to_json()})
    else:  # pragma: no cover - argparse choices prevent this
        raise SystemExit(f"unknown map {name}")
    return 0


# -- verify suites ----------------------------------------------------------

def _print_discrepancies(discrepancies: list[dict]) -> None:
    for d in discrepancies:
        print(f"FAIL {d['check']} n={d['n']}: expected {d['expected']}, got {d['got']}")


def _cmd_verify(args) -> int:
    extra = [flag for flag, value in (("--seed", args.seed), ("--cases", args.cases))
             if value is not None]
    if extra and args.suite != "random":
        args.usage_error(f"not allowed with --suite {args.suite}: {' '.join(extra)}")
    max_n = _VERIFY_MAX_N[args.suite] if args.max_n is None else args.max_n
    if args.suite == "identities":
        results = checks.identity_checks(max_n, what="--max-n")
        bad = checks.discrepancies(results)
        report = {"suite": "identities", "max_n": max_n,
                  "checks_run": len(results), "discrepancies": bad}
        if args.format == "json":
            _emit_json(report)
        else:
            _print_discrepancies(bad)
            print(f"identities: {len(results) - len(bad)}/{len(results)} checks passed")
        return 0 if not bad else 1

    if args.suite == "formulas":
        start = time.monotonic()
        bad = checks.cross_check(max_n, what="--max-n")
        elapsed_ms = int((time.monotonic() - start) * 1000)
        print(f"formulas: {elapsed_ms} ms", file=sys.stderr)  # keeps stdout stable
        if args.format == "json":
            _emit_json({"checked_to": max_n, "discrepancies": bad})
        else:
            print(f"formulas: checked to n={max_n}, {len(bad)} discrepancies")
            _print_discrepancies(bad)
        return 0 if not bad else 1

    # random: random_checks checks the cap of --max-n, and its floor is checked
    # here too, so that a bad --max-n is named before a bad --cases
    check_size(max_n, what="--max-n")
    seed = 0 if args.seed is None else args.seed
    cases = 1000 if args.cases is None else check_size(args.cases, what="--cases")
    failures, skipped = checks.random_checks(max_n, seed, cases, what="--max-n")
    report = {"suite": "random", "seed": seed, "cases": cases, "failures": failures}
    if skipped:
        report["skipped"] = skipped
    if args.format == "json":
        _emit_json(report)
    else:
        print(f"random: seed={seed} cases={cases} failures={len(failures)}")
        for skip in skipped:
            print(f"skipped {skip['class']} round trips: no such graphs at n={skip['n']}")
    return 0 if not failures else 1


def _base_values(text: str) -> list:
    import json

    return _json_values(json.loads(text), "values")[0]  # ratio_report checks them


def _cmd_asym(args) -> int:
    path = args.unlabeled_base  # read by ratio_report once --max-n has passed its check
    base = (lambda: load_file(path, _base_values)) if path else None
    report = ratio_report(args.max_n, unlabeled_base=base, what="--max-n")
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        sys.stdout.write(report.to_csv())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitspecies",
        description="Exact counting, enumeration, and structure maps for split "
                    "and bicolored graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tags = [t.value for t in ClassTag]

    p = sub.add_parser("count", help="count structures of a class")
    p.add_argument("--class", dest="klass", choices=tags, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--labeled", action="store_true")
    mode.add_argument("--unlabeled", action="store_true")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int)
    size.add_argument("--max-n", type=int)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list every labeled structure of a class")
    p.add_argument("--class", dest="klass", choices=tags, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="classify a split graph and report its swing structure")
    p.add_argument("--graph", required=True, help="graph file (.g text or .json)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("biject", help="apply one of the structural bijections")
    p.add_argument("--map", required=True,
                   choices=["uk-decompose", "amb-decompose", "cuk-decompose",
                            "split-to-bicolored", "bicolored-to-split"])
    p.add_argument("--graph", help="graph file, for the graph-input maps")
    p.add_argument("--input", help="colored/bicolored JSON file, for the colored maps")
    p.set_defaults(func=_cmd_biject, usage_error=p.error)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=["identities", "formulas", "random"])
    p.add_argument("--max-n", type=int, default=None, help="largest size (default: " + ", ".join(
        f"{suite} {n}" for suite, n in _VERIFY_MAX_N.items()) + ")")
    p.add_argument("--seed", type=int, help="random suite only (default: 0)")
    p.add_argument("--cases", type=int, help="random suite only (default: 1000)")
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.set_defaults(func=_cmd_verify, usage_error=p.error)

    p = sub.add_parser("asym", help="emit the asymptotic ratio report")
    p.add_argument("--max-n", type=int, default=200)
    p.add_argument("--unlabeled-base", help="JSON file with unlabeled split counts")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_asym)
    return parser


def _drop_stdout() -> None:
    """Point stdout at the null device: whatever is still buffered goes there,
    so the interpreter's final flush is silent."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a failed write shows here, not at interpreter exit
        return status
    except BrokenPipeError:  # the reader closed the pipe (``| head``)
        _drop_stdout()
        return 141  # 128 + SIGPIPE
    except OSError as exc:  # unreadable input is MalformedInput, so this is stdout
        _drop_stdout()
        print(f"error: cannot write output ({exc.strerror or exc})", file=sys.stderr)
        return 74  # EX_IOERR
    except SplitSpeciesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
