"""Per-layer spans and counters, recorded from outside the engine.

`Tracer.install()` replaces chosen `nwfs` functions by wrappers in every
`nwfs` module that holds a reference to them: engine modules import each
other by name (`from .core import enumerate_maps`), so patching only the
defining module would miss most calls. Each wrapped call records a span
(id, parent id, traced function, start, end) in memory. A span's self time is
its duration minus the time its child spans cover; time inside an operation
that no traced function covers is reported as `other.self_s`.

Counters (squares found, elements merged, ...) are taken by hooks that look
at a call's arguments and result after the call. A hook's own time is kept
out of every span's self time.
"""

from __future__ import annotations

import inspect
import itertools
import math
import statistics
import sys
import time

# (metric group, module, function). Several functions may feed one group.
TRACED = (
    ("core.enumerate_maps", "core", "enumerate_maps"),
    ("arrows.enumerate_squares", "arrows", "enumerate_squares"),
    ("algebras.enumerate_algebra_structures", "algebras", "enumerate_algebra_structures"),
    ("algebras.enumerate_lifting_tables", "algebras", "enumerate_lifting_tables"),
    ("algebras.square_filler_sets", "algebras", "square_filler_sets"),
    ("algebras.round_trip", "algebras", "fillers_from_algebra"),
    ("algebras.round_trip", "algebras", "algebra_from_fillers"),
    ("colimits.coproduct", "colimits", "coproduct"),
    ("colimits.quotient", "colimits", "quotient"),
    ("colimits.coequalizer", "colimits", "coequalizer"),
    ("colimits.pushout", "colimits", "pushout"),
    ("colimits.chain_colimit", "colimits", "chain_colimit"),
    ("colimits.induce", "colimits", "induce"),
    ("onestep.build_onestep", "onestep", "build_onestep"),
    ("onestep.onestep_on_square", "onestep", "onestep_on_square"),
    ("core.compose_maps", "core", "compose_maps"),
    ("sequence.run", "sequence", "run_free"),
    ("sequence.run", "sequence", "run_plain"),
    ("sequence.build_comparison", "sequence", "build_comparison"),
    ("rules.product_presheaf", "rules", "product_presheaf"),
    ("rules.interchange", "rules", "interchange"),
    ("laws.evaluate_rule", "laws", "evaluate_rule"),
    ("laws.check_laws", "laws", "check_laws"),
    ("jsonio.certificate", "jsonio", "sequence_certificate"),
    ("jsonio.certificate", "jsonio", "compare_certificate"),
    ("jsonio.certificate", "jsonio", "laws_certificate"),
    ("jsonio.certificate", "jsonio", "enumeration_certificate"),
    ("jsonio.certificate", "jsonio", "filler_certificate"),
    ("jsonio.pretty_json", "jsonio", "pretty_json"),
    ("jsonio.load", "jsonio", "load_category"),
    ("jsonio.load", "jsonio", "load_presheaf"),
    ("jsonio.load", "jsonio", "load_map"),
    ("jsonio.load", "jsonio", "load_gens"),
    ("jsonio.validate_certificate", "jsonio", "validate_certificate"),
    ("core.validate", "core", "validate"),
    ("cli.main", "cli", "main"),
)

GROUPS = tuple(dict.fromkeys(group for group, _, _ in TRACED))

# Groups whose call count is reported; every group reports its self time.
COUNTED_CALLS = (
    "core.enumerate_maps",
    "arrows.enumerate_squares",
    "algebras.enumerate_algebra_structures",
    "colimits.coproduct",
    "colimits.quotient",
    "colimits.coequalizer",
    "colimits.pushout",
    "colimits.chain_colimit",
    "colimits.induce",
    "onestep.build_onestep",
    "onestep.onestep_on_square",
    "core.compose_maps",
    "rules.product_presheaf",
    "rules.interchange",
    "laws.evaluate_rule",
    "core.validate",
)

# Counters filled by hooks and by the operation's own output counts.
COUNTERS = (
    "core.enumerate_maps.maps",
    "core.enumerate_maps.pinned_calls",
    "core.enumerate_maps.pinned_self_s",
    "arrows.enumerate_squares.squares",
    "arrows.enumerate_squares.pairs_tried",
    "algebras.enumerate_algebra_structures.found",
    "algebras.enumerate_lifting_tables.found",
    "colimits.coproduct.summands",
    "colimits.coproduct.elements_out",
    "colimits.quotient.elements_in",
    "colimits.quotient.merged",
    "onestep.build_onestep.squares",
    "sequence.stages",
    "sequence.limit_stages",
    "rules.product_presheaf.distinct",
    "rules.product_presheaf.elements",
    "laws.checks",
    "laws.counterexamples",
    "jsonio.cert_bytes",
    "op.elements",
    "op.squares",
    "op.checks",
    "op.algebras",
)


def _presheaf_key(P) -> tuple:
    """Value of a presheaf, for counting distinct product operands."""
    return (
        tuple((a, P.carrier[a]) for a in P.base.objects),
        tuple((m, tuple(sorted(P.action[m].items()))) for m in sorted(P.action)),
    )


class Tracer:
    """Spans and counters for one process; install once, then trace ops."""

    def __init__(self):
        self.groups = list(GROUPS)
        self._group_index = {g: i for i, g in enumerate(self.groups)}
        self.calls = [0] * len(self.groups)
        self.self_s = [0.0] * len(self.groups)
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []  # (span id, parent id, group index, start, end)
        self.op_spans: dict[int, list[tuple]] = {}
        self._ids = itertools.count(1)
        # frames are [span id, child time, group index, extras]; the bottom
        # frame collects calls made outside any operation and is discarded
        self._stack: list[list] = [[0, 0.0, -1, None]]
        self._originals: dict[int, str] = {}
        self._product_keys: set | None = None
        # called after each call of the group, with (args, kwargs, result,
        # frame, parent frame)
        self._hooks = {
            "core.enumerate_maps": self._hook_enumerate_maps,
            "arrows.enumerate_squares": self._hook_enumerate_squares,
            "algebras.enumerate_algebra_structures": self._hook_found,
            "algebras.enumerate_lifting_tables": self._hook_found,
            "colimits.coproduct": self._hook_coproduct,
            "colimits.quotient": self._hook_quotient,
            "onestep.build_onestep": self._hook_build_onestep,
            "sequence.run": self._hook_sequence,
            "rules.product_presheaf": self._hook_product,
            "laws.evaluate_rule": self._hook_evaluate_rule,
            "laws.check_laws": self._hook_check_laws,
            "jsonio.pretty_json": self._hook_pretty_json,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an `nwfs` module refers to it."""
        modules = nwfs_modules()
        for group, mod_name, fn_name in TRACED:
            module = sys.modules[f"nwfs.{mod_name}"]
            original = getattr(module, fn_name)
            if not inspect.isfunction(original):
                raise TypeError(f"nwfs.{mod_name}.{fn_name} is not a plain function")
            self._originals[id(original)] = f"nwfs.{mod_name}.{fn_name}"
            enter = self._open_product_keys if group == "laws.evaluate_rule" else None
            wrapper = self._wrap(original, self._group_index[group], enter, self._hooks.get(group))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def unwrapped_references(self) -> list[str]:
        """Globals that still hold an original traced function; [] when covered.

        The originals stay alive inside their wrappers, so an id match is an
        identity match.
        """
        left = []
        for mod in nwfs_modules():
            for key, value in vars(mod).items():
                name = self._originals.get(id(value))
                if name is not None:
                    left.append(f"{mod.__name__}.{key} -> {name}")
        return left

    def _wrap(self, fn, index: int, enter, hook):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if enter is not None:
                enter()
            parent = stack[-1]
            frame = [next(ids), 0.0, index, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_s[index] += duration - frame[1]
                spans.append((frame[0], parent[0], index, start, end))
            if hook is not None:
                hook(args, kwargs, result, frame, parent)
            # the parent's covered time includes this call's hook, so hook
            # time shows in no span's self time
            parent[1] += clock() - start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- operations --------------------------------------------------------

    def run_op(self, fn, *args, keep_spans: bool = False):
        """Run fn(*args) as the root span of one operation.

        Returns (result, wall seconds, per-layer metrics of this operation).
        With `keep_spans` the operation's spans are kept for `write_spans`.
        """
        op_id = next(self._ids)
        for i in range(len(self.groups)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
        self.counts = {}
        del self.spans[:]
        root = [op_id, 0.0, -1, None]
        self._stack.append(root)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            self._stack.pop()
        if keep_spans:
            self.op_spans[op_id] = list(self.spans)
        return result, wall, self._layer_metrics(wall, wall - root[1])

    def _layer_metrics(self, wall: float, root_self: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for group, calls, self_s in zip(self.groups, self.calls, self.self_s):
            if group in COUNTED_CALLS:
                out[f"{group}.calls"] = calls
            out[f"{group}.self_s"] = self_s
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        tried = out["arrows.enumerate_squares.pairs_tried"]
        out["arrows.enumerate_squares.yield"] = (
            out["arrows.enumerate_squares.squares"] / tried if tried else 0.0
        )
        found = out["algebras.enumerate_algebra_structures.found"]
        out["algebras.enumerate_algebra_structures.ms_per_found"] = (
            1000.0 * out["algebras.enumerate_algebra_structures.self_s"] / found if found else 0.0
        )
        out["other.self_s"] = root_self
        out["trace.op_wall_s"] = wall
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """Write the kept operations' spans, one per line, after a header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# op span parent group start end; groups: " + " ".join(self.groups) + "\n")
            for op_id, spans in self.op_spans.items():
                for sid, parent, index, start, end in spans:
                    fh.write(f"{op_id} {sid} {parent} {index} {start:.9f} {end:.9f}\n")

    # -- hooks -------------------------------------------------------------

    def _count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _hook_enumerate_maps(self, args, kwargs, result, frame, parent):
        self._count("core.enumerate_maps.maps", len(result))
        if kwargs.get("pinned") or kwargs.get("allowed"):
            # the lift searches of `algebras`; enumerate_maps has no traced
            # callees, so its last span's duration is its self time
            _, _, _, start, end = self.spans[-1]
            self._count("core.enumerate_maps.pinned_calls", 1)
            self._count("core.enumerate_maps.pinned_self_s", end - start)
        if parent[2] == self._group_index["arrows.enumerate_squares"]:
            if parent[3] is None:
                parent[3] = []
            parent[3].append(len(result))

    def _hook_enumerate_squares(self, args, kwargs, result, frame, parent):
        self._count("arrows.enumerate_squares.squares", len(result))
        # enumerate_squares lists every bottom, then every top, and tries
        # each pair
        self._count("arrows.enumerate_squares.pairs_tried", math.prod(frame[3] or [0]))

    def _hook_found(self, args, kwargs, result, frame, parent):
        self._count(f"{self.groups[frame[2]]}.found", len(result))

    def _hook_coproduct(self, args, kwargs, result, frame, parent):
        parts = args[0] if args else kwargs["parts"]
        self._count("colimits.coproduct.summands", len(parts))
        self._count("colimits.coproduct.elements_out", result.apex.total_size)

    def _hook_quotient(self, args, kwargs, result, frame, parent):
        size_in = args[0].total_size
        self._count("colimits.quotient.elements_in", size_in)
        self._count("colimits.quotient.merged", size_in - result.apex.total_size)

    def _hook_build_onestep(self, args, kwargs, result, frame, parent):
        self._count("onestep.build_onestep.squares", len(result.squares))

    def _hook_sequence(self, args, kwargs, result, frame, parent):
        self._count("sequence.stages", len(result.stages))
        self._count("sequence.limit_stages", sum(1 for s in result.stages if s.kind == "limit"))

    def _hook_product(self, args, kwargs, result, frame, parent):
        self._count("rules.product_presheaf.elements", result.apex.total_size)
        if self._product_keys is not None:
            self._product_keys.add((_presheaf_key(args[0]), _presheaf_key(args[1])))

    def _open_product_keys(self) -> None:
        self._product_keys = set()

    def _hook_evaluate_rule(self, args, kwargs, result, frame, parent):
        # distinct operand pairs of one rule evaluation: what a per-evaluation
        # product memo could save
        self._count("rules.product_presheaf.distinct", len(self._product_keys))
        self._product_keys = None

    def _hook_check_laws(self, args, kwargs, result, frame, parent):
        self._count("laws.checks", len(result.checks))
        self._count("laws.counterexamples", len(result.counterexamples))

    def _hook_pretty_json(self, args, kwargs, result, frame, parent):
        self._count("jsonio.cert_bytes", len(result.encode("utf-8")))


def nwfs_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "nwfs" or name.startswith("nwfs.")]


def summarize(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over the traced operations."""
    return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
