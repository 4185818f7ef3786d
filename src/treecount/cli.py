"""Command-line entry point.

Subcommands: count, construct, transform, enumerate, verify, profile.
Data goes to stdout, diagnostics to stderr; output is byte-identical for a
fixed argv (and seed).  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 internal error (such as a shard that ended with no result),
141 (128 + SIGPIPE) when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Iterable

from . import __version__
from .counting import count_report, subtree_totals
from .enumeration import TreeConstraint, map_shards, trees_matching
from .families import FAMILIES, FORMULA_DISPLAY, FamilySpec, closed_form, construct
from .invariants import invariant_profile
from .transforms import TransformSpec, apply_transform
from .tree import parse_tree, serialize_tree, tree_from_level_sequence
from .verify import (LEMMA_TAGS, THEOREM_TAGS, run_lemma_suite, theorem_orders,
                     verify_theorem)


def _read_tree(path: str, fmt: str):
    # "-" is descriptor 0, read as a file is (ASCII, universal newlines) and left open
    with open(0 if path == "-" else path, encoding="ascii", closefd=path != "-") as fh:
        return parse_tree(fh.read(), fmt)


def _add_io_args(p: argparse.ArgumentParser):
    """--input, --format and --json; returns --json's exclusive group, for --csv."""
    p.add_argument("--input", required=True, help="tree file, or - for stdin")
    p.add_argument("--format", choices=("edgelist", "levelseq"), default="edgelist",
                   help="tree text format (default edgelist)")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", help="emit JSON instead of text")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecount",
        description="Count subtrees, build extremal tree families, and verify "
                    "their extremal properties exhaustively.")
    parser.add_argument("--version", action="version", version=f"treecount {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="subtree counts and Wiener index of one tree")
    p.set_defaults(run=_cmd_count)
    _add_io_args(p).add_argument("--csv", action="store_true", help="emit CSV instead of text")

    p = sub.add_parser("construct", help="build a named extremal family member")
    p.set_defaults(run=_cmd_construct)
    p.add_argument("--family", required=True, choices=FAMILIES)
    for field in FamilySpec._fields[1:]:
        p.add_argument(f"--{field}", type=int)
    p.add_argument("--closed-form", choices=("F", "Fstar"),
                   help="print the closed-form count instead of the tree")
    p.add_argument("--format", choices=("edgelist", "levelseq"), default="edgelist")

    p = sub.add_parser("transform", help="apply one tree rewrite")
    p.set_defaults(run=_cmd_transform)
    _add_io_args(p)
    p.add_argument("--kind", required=True, choices=("A", "B", "C", "Cprime"))
    p.add_argument("--u", type=int, help="A: cut vertex; B: kept endpoint")
    p.add_argument("--v", type=int, help="B: removed endpoint; C/Cprime: anchor")
    p.add_argument("--component-root", type=int, help="A: vertex naming the branch")

    p = sub.add_parser("enumerate", help="all non-isomorphic trees of one order")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("--n", type=int, required=True)
    for field in TreeConstraint._fields:
        flag = "--" + field.replace("_", "-")
        if field == "perfect_matching":
            p.add_argument(flag, action="store_true", default=None)
        else:
            p.add_argument(flag, type=int)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--count-only", action="store_true")
    out.add_argument("--csv", action="store_true")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("verify", help="check a theorem exhaustively or run a lemma suite")
    p.set_defaults(run=_cmd_verify)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--theorem", choices=THEOREM_TAGS)
    mode.add_argument("--lemma", choices=LEMMA_TAGS)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--jobs", type=int, help="theorem only (default 1)")
    p.add_argument("--samples", type=int, help="lemma only (default 300)")
    p.add_argument("--seed", type=int, help="lemma only (default 0)")
    p.add_argument("--formula-variant", choices=("sum", "product"),
                   help="theorem only: T4.8 binomial-tail reading (default sum; "
                        "product reproduces the flawed literal display)")
    p.add_argument("--json", metavar="PATH", help="also write the JSON report here")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("profile", help="matching/domination/diameter/leaf profile")
    p.set_defaults(run=_cmd_profile)
    _add_io_args(p).add_argument("--csv", action="store_true", help="emit CSV instead of text")

    return parser


def _write_csv(header: list[str], rows: Iterable[list]) -> None:
    import csv  # only --csv output needs it; keeps it out of every start-up
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_count(args) -> int:
    d = count_report(_read_tree(args.input, args.format)).to_json_dict()
    if args.json:
        print(json.dumps(d))
    elif args.csv:   # the scalar entries; the per-vertex maps are text and JSON only
        totals = {k: v for k, v in d.items() if not isinstance(v, dict)}
        _write_csv(list(totals), [list(totals.values())])
    else:
        for k, v in d.items():
            if isinstance(v, dict):
                v = " ".join(f"{vertex}:{count}" for vertex, count in v.items())
            print(f"{k:<7}= {v}")
    return 0


def _cmd_construct(args) -> int:
    spec = FamilySpec(*(getattr(args, field) for field in FamilySpec._fields))
    if args.closed_form:
        form = closed_form(spec, args.closed_form)
        print(f"{form.value} ({FORMULA_DISPLAY[form.formula_id]})")
        return 0
    print(serialize_tree(construct(spec), args.format), end="")
    return 0


def _cmd_transform(args) -> int:
    t = _read_tree(args.input, args.format)
    spec = TransformSpec(kind=args.kind, u=args.u, v=args.v,
                         component_root=args.component_root)
    out, _ = apply_transform(t, spec)
    f_before, fstar_before = subtree_totals(t)
    f_after, fstar_after = subtree_totals(out)
    delta = {
        "tree": serialize_tree(out),
        "F_before": str(f_before),
        "F_after": str(f_after),
        "Fstar_before": str(fstar_before),
        "Fstar_after": str(fstar_after),
    }
    if args.json:
        print(json.dumps(delta))
    else:
        tree = delta.pop("tree")
        print(tree + json.dumps(delta))
    return 0


def _cmd_enumerate(args) -> int:
    constraint = TreeConstraint(*(getattr(args, field) for field in TreeConstraint._fields))
    if args.count_only:
        counts, = map_shards(lambda seqs: sum(1 for _ in constraint.select(seqs)),
                             [args.n], args.jobs)
        print(sum(counts))
        return 0
    if args.jobs == 1:
        trees = trees_matching(args.n, constraint)
    else:
        import heapq  # only a sharded listing needs it; keeps it out of every start-up
        # each shard sends back its admitted level sequences, strictly
        # decreasing as the generator emits them, so merging restores its order
        parts, = map_shards(lambda seqs: list(constraint.select(seqs)), [args.n], args.jobs)
        trees = map(tree_from_level_sequence, heapq.merge(*parts, reverse=True))
    if args.csv:
        _write_csv(["n", "edges"], ([args.n, " ".join(f"{u}-{v}" for u, v in t.edges)]
                                    for t in trees))
        return 0
    for i, t in enumerate(trees):   # a blank line between trees
        print(("\n" if i else "") + serialize_tree(t), end="")
    return 0


# verify flags that only one mode reads, with their defaults
_THEOREM_FLAGS = {"jobs": 1, "n_min": None, "n_max": None, "formula_variant": "sum"}
_LEMMA_FLAGS = {"samples": 300, "seed": 0}


def _cmd_verify(args) -> int:
    mode, own, other = (("--theorem", _THEOREM_FLAGS, _LEMMA_FLAGS) if args.theorem
                        else ("--lemma", _LEMMA_FLAGS, _THEOREM_FLAGS))
    stray = ["--" + k.replace("_", "-") for k in other if getattr(args, k) is not None]
    if stray:
        raise ValueError(f"{' '.join(stray)} cannot be used with {mode}")
    for k, default in own.items():
        if getattr(args, k) is None:
            setattr(args, k, default)
    if args.theorem:
        orders = theorem_orders(args.theorem, args.n_min, args.n_max)
        scan = partial(verify_theorem, args.theorem, n_min=args.n_min, n_max=args.n_max,
                       jobs=args.jobs, formula_variant=args.formula_variant)
        header = (f"# theorem={args.theorem} n={orders[0]}..{orders[-1]} "
                  f"jobs={args.jobs} formula={args.formula_variant}")
    else:
        scan = partial(run_lemma_suite, args.lemma, samples=args.samples, seed=args.seed)
        header = f"# lemma={args.lemma} samples={args.samples} seed={args.seed}"
    part = None
    if args.json:
        # the report is written beside PATH's target and replaces it once whole, so a
        # failed run leaves PATH as it was; a PATH that cannot take one fails first
        path = os.path.realpath(args.json)
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path)):
            raise OSError(f"{args.json} is not a file in an existing directory")
        part = open(f"{path}.{os.getpid()}.part", "w", encoding="ascii")
    try:
        results = scan()
        if part is not None:
            with part:
                part.write(json.dumps([r.to_json_dict() for r in results], indent=2) + "\n")
            os.replace(part.name, path)
    finally:
        if part is not None and os.path.exists(part.name):
            part.close()
            os.remove(part.name)
    print(header)
    if args.csv:
        # csv.writer writes None as an empty field
        rows = [[r.theorem, r.n, json.dumps(r.constraint), r.claimed, r.achieved,
                 "pass" if r.passed else "FAIL"] for r in results]
        _write_csv(["theorem", "n", "constraint", "claimed", "achieved", "result"], rows)
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            parts = [status, r.theorem]
            if r.n is not None:
                parts.append(f"n={r.n}")
            parts.append(json.dumps(r.constraint))
            if r.claimed is not None:
                parts.append(f"claimed={r.claimed} achieved={r.achieved}")
            if r.class_size is not None:
                parts.append(f"class={r.class_size}")
            if r.notes:
                parts.append(f"[{r.notes}]")
            print(" ".join(parts))
    failed = [r for r in results if not r.passed]
    print(f"# {len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_profile(args) -> int:
    profile = invariant_profile(_read_tree(args.input, args.format))
    d = profile.to_json_dict()
    if args.json:
        print(json.dumps(d))
    elif args.csv:
        _write_csv(list(d), [[d[k] if k != "centers" else " ".join(map(str, d[k]))
                              for k in d]])
    else:
        for k, v in d.items():
            print(f"{k} = {v}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact counts such as 2^(n-1) on a star outgrow the default 4300-digit
    # int-to-str limit; it is process-wide, so it is put back on return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        status = args.run(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): end quietly with 141, the
        # status of a filter killed by SIGPIPE (128 + 13), and point stdout at
        # the null device so that the interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, LookupError, OSError) as exc:
        print(f"treecount {args.command}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:   # not a failed claim: the check itself broke
        print(f"treecount {args.command}: internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
