"""Command-line surface.

Subcommands: construct, analyze, aut, check-ldt, check-arc, verify-table,
moore.  Exit codes are a stable contract:

    0  success / verdict yes
    1  verification failure / verdict no
    2  bad graph (disconnected where a connected one is needed) or bad
       parameters (constructor parameters, a depth below 1, an unknown
       --recipe)
    3  size limit exceeded
    4  bad group (degree mismatch, non-automorphism generator, malformed
       generator file)

Reports carry no timestamps; a single timing line goes to stderr so output
files stay byte-identical across runs.  The vertex limit for automorphism
solves can be overridden with the LOCDT_VERTEX_LIMIT environment variable.
"""

import argparse
import json
import os
import sys
import time

from .autgrp import DEFAULT_VERTEX_LIMIT, LimitError, automorphism_group
from .checks import check_arc_transitive, check_local_sdt
from .graphs import (
    GraphError,
    analyze,
    lift_group,
    read_edge_list,
    subdivision,
    write_edge_list,
    write_labels,
)
from .harness import (
    CONSTRUCTORS,
    build_constructor,
    chamber_groups_on_w32,
    compare_with_golden,
    report_to_json,
    verify_table,
)
from .graphs import moore_bound
from .perms import GroupError, read_generators, write_generators

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_GRAPH = 2
EXIT_LIMIT = 3
EXIT_BAD_GROUP = 4

# --recipe name -> group transported by chamber_groups_on_w32
RECIPES = {"m10": "m10", "pgl29": "pgl", "psl29": "psl",
           "psigmal29": "psigmal", "pgammal29": "pgammal"}


def _vertex_limit():
    env = os.environ.get("LOCDT_VERTEX_LIMIT")
    if env:
        return int(env)
    return DEFAULT_VERTEX_LIMIT


def _constructor_params(args):
    params = list(args.params)
    if args.q is not None:
        params.append(args.q)
    if args.n is not None:
        params.append(args.n)
    return tuple(params)


def _load_graph(args):
    if args.graph and args.constructor:
        raise GraphError("constructor name and --graph FILE are mutually exclusive")
    if args.graph:
        return read_edge_list(args.graph)
    if not args.constructor:
        raise GraphError("either a constructor name or --graph FILE is required")
    return build_constructor(args.constructor, _constructor_params(args))


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_report(args, data):
    if getattr(args, "format", "json") == "tsv":
        lines = []

        def flatten(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    flatten(f"{prefix}.{k}" if prefix else str(k), v)
            else:
                lines.append((prefix, json.dumps(value)))

        flatten("", data)
        return "".join(f"{k}\t{v}\n" for k, v in lines)
    return report_to_json(data)


def cmd_construct(args):
    g = _load_graph(args)
    if args.output:
        write_edge_list(g, args.output)
    else:
        sys.stdout.write(f"{g.n} {g.m}\n")
        for u, v in g.edges:
            sys.stdout.write(f"{u} {v}\n")
    if args.labels:
        write_labels(g, args.labels)
    return EXIT_OK


def cmd_analyze(args):
    g = _load_graph(args)
    report = analyze(g).to_dict()
    _emit(args, _format_report(args, report))
    return EXIT_OK


def cmd_aut(args):
    g = _load_graph(args)
    G = automorphism_group(g, limit=_vertex_limit())
    if args.output:
        write_generators(G, args.output)
    sys.stdout.write(f"{G.order()}\n")
    return EXIT_OK


def _group_for(args, g):
    if args.gens:
        return read_generators(args.gens)
    if args.recipe in RECIPES:
        return chamber_groups_on_w32()[RECIPES[args.recipe]]
    return automorphism_group(g, limit=_vertex_limit())


def cmd_check_ldt(args):
    g = _load_graph(args)
    G = _group_for(args, g)
    if args.subdivide:
        sub, smap = subdivision(g)
        g, G = sub, lift_group(G, smap)
    result = check_local_sdt(g, G, args.s)
    _emit(args, _format_report(args, result.to_dict()))
    return EXIT_OK if result.verdict else EXIT_VERIFY_FAIL


def cmd_check_arc(args):
    g = _load_graph(args)
    G = _group_for(args, g)
    result = check_arc_transitive(g, G, args.s, cap=args.arc_cap)
    _emit(args, _format_report(args, result.to_dict()))
    return EXIT_OK if result.transitive else EXIT_VERIFY_FAIL


def cmd_verify_table(args):
    t0 = time.time()
    report = verify_table(include_hexagon=args.include_hexagon, jobs=args.jobs)
    _emit(args, _format_report(args, report))
    print(f"verify-table wall clock: {time.time() - t0:.1f}s", file=sys.stderr)
    if args.golden:
        with open(args.golden) as fh:
            golden_text = fh.read()
        diffs = compare_with_golden(report, golden_text)
        if diffs:
            print("golden mismatch in: " + ", ".join(diffs), file=sys.stderr)
            return EXIT_VERIFY_FAIL
    return EXIT_OK if report["verdict"] else EXIT_VERIFY_FAIL


def cmd_moore(args):
    sys.stdout.write(f"{moore_bound(args.k, args.g)}\n")
    return EXIT_OK


def _add_graph_source(p):
    p.add_argument("constructor", nargs="?", choices=sorted(CONSTRUCTORS),
                   help="named constructor")
    p.add_argument("params", nargs="*", type=int, help="constructor parameters")
    p.add_argument("--q", type=int, default=None, help="field order parameter")
    p.add_argument("--n", type=int, default=None, help="size parameter")
    p.add_argument("--graph", help="edge-list file instead of a constructor")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locdt",
        description="constructions and symmetry checks for subdivision graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit an edge list")
    _add_graph_source(p)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--labels", help="write a vertex-label sidecar file")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("analyze", help="invariant report")
    _add_graph_source(p)
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("aut", help="automorphism generators and order")
    _add_graph_source(p)
    p.add_argument("-o", "--output", help="generator file")
    p.set_defaults(fn=cmd_aut)

    p = sub.add_parser("check-ldt", help="local distance-transitivity check")
    _add_graph_source(p)
    p.add_argument("--gens", help="generator file")
    p.add_argument("--recipe", choices=("full", *RECIPES), default="full")
    p.add_argument("--s", type=int, required=True, help="depth")
    p.add_argument("--subdivide", action="store_true",
                   help="check the subdivision graph with the lifted group")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(fn=cmd_check_ldt)

    p = sub.add_parser("check-arc", help="s-arc transitivity check")
    _add_graph_source(p)
    p.add_argument("--gens", help="generator file")
    p.add_argument("--recipe", choices=("full", *RECIPES), default="full")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--arc-cap", type=int, default=10**7)
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(fn=cmd_check_arc)

    p = sub.add_parser("verify-table", help="run the full verification harness")
    p.add_argument("--include-hexagon", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--golden", help="compare against a stored report")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(fn=cmd_verify_table)

    p = sub.add_parser("moore", help="Moore bound n0(k, g)")
    p.add_argument("k", type=int)
    p.add_argument("g", type=int)
    p.set_defaults(fn=cmd_moore)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except GroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_GROUP
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_GRAPH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_GRAPH


if __name__ == "__main__":
    sys.exit(main())
