"""Spans around the calls into each treecount layer, recorded from outside.

``Tracer.install`` replaces public functions at the module attributes their
callers resolve at call time, so no file under ``src/`` changes.  Each call
becomes a span; nested spans are subtracted from their parent, giving self
times.  Spans are folded in memory into one row per (parent, name) edge, so
memory stays flat however many calls a pass makes, and the table is written
out once, at the end of the run.  ``uninstall`` puts every original back
before any untraced pass.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name, wraps a generator).  A function that several
# modules import by name is wrapped at each importer under one span name.
TARGETS = (
    ("enumeration", "all_level_sequences", "enumeration.all_level_sequences", True),
    ("enumeration", "tree_from_level_sequence", "tree.tree_from_level_sequence", False),
    ("verify", "tree_from_level_sequence", "tree.tree_from_level_sequence", False),
    ("tree", "canonical_form", "tree.canonical_form", False),
    ("verify", "canonical_form", "tree.canonical_form", False),
    ("cli", "parse_tree", "tree.parse_tree", False),
    ("counting", "count_subtrees", "counting.count_subtrees", False),
    ("counting", "count_leaf_subtrees", "counting.count_leaf_subtrees", False),
    ("counting", "count_subtrees_at", "counting.count_subtrees_at", False),
    ("counting", "count_leaf_subtrees_at", "counting.count_leaf_subtrees_at", False),
    ("counting", "wiener_index", "counting.wiener_index", False),
    ("counting", "count_report", "counting.count_report", False),
    ("cli", "count_report", "counting.count_report", False),
    ("invariants", "matching_number", "invariants.matching_number", False),
    ("invariants", "domination_number", "invariants.domination_number", False),
    ("invariants", "diameter", "invariants.diameter", False),
    ("invariants", "invariant_profile", "invariants.invariant_profile", False),
    ("verify", "a_transform", "transforms.a_transform", False),
    ("verify", "b_transform", "transforms.b_transform", False),
    ("verify", "c_transform", "transforms.c_transform", False),
    ("families", "construct", "families.construct", False),
    ("verify", "construct", "families.construct", False),
    ("cli", "construct", "families.construct", False),
    ("verify", "closed_form", "families.closed_form", False),
    ("cli", "closed_form", "families.closed_form", False),
    ("verify", "verify_theorem", "verify.verify_theorem", False),
    ("cli", "verify_theorem", "verify.verify_theorem", False),
    ("verify", "run_lemma_suite", "verify.run_lemma_suite", False),
    ("cli", "run_lemma_suite", "verify.run_lemma_suite", False),
    ("cli", "main", "cli.main", False),
)


class Tracer:
    """Folds spans into per-edge totals: edge -> [calls, total s, self s]."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.yields: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [["<benchmark>", 0.0]]
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                row = edges[(parent[0], name)]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]

        return traced

    def _gen_span(self, name: str, fn):
        """One span per item a generator yields; the consumer's time between
        items is outside the span."""
        step = self._span(name, next)
        yields = self.yields

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yields[name] += 1
                yield item

        return traced

    def install(self, package) -> None:
        import importlib
        for mod_name, attr, name, is_gen in TARGETS:
            module = importlib.import_module(f"{package}.{mod_name}")
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, (self._gen_span if is_gen else self._span)(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def by_name(self) -> dict[str, list]:
        """name -> [calls, total s, self s], summed over parents; zeros for a
        name never called.  Totals would double count a name that nests in
        itself; none of the targets does."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, own) in self.edges.items():
            row = out[name]
            row[0] += calls
            row[1] += total
            row[2] += own
        return out

    def table(self) -> list[str]:
        lines = [f"{'parent -> span':<66} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for (parent, name), (calls, total, own) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{parent + ' -> ' + name:<66} {calls:>9} {total:>10.4f} {own:>10.4f}")
        return lines
