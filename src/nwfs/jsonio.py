"""JSON documents: inputs, certificates and their re-validation.

Input documents are plain JSON. Categories list objects, morphisms, the
identity assignment and the full composition table as [after, before,
composite] triples. Presheaves list carriers under "sets" and actions per
morphism; maps carry their endpoint presheaves plus components. A generating
set is a list of arrows, each either a map document or a catalog key.

Certificates are self-contained: they embed the normalised inputs, their
digests, and the full run. `validate_certificate` checks a certificate as
one document. Everything but its run bodies must equal, key for key, the
document the engine's own builder writes from the reloaded inputs, the
replayed runs and the recorded seed, so a missing, changed or unknown key
anywhere is a problem. The run bodies are compared entry by entry during
the replay: `sequence.stage_schedule` runs in the recorded mode and budget
for as many stages as the record holds, and the first recorded stage, link,
step, fold, pair or cardinality that differs from the replayed one is
reported. The validator also rechecks the equations any run must satisfy,
whoever built it. Values are compared as JSON, so `1`, `1.0` and `true`
differ. All serialization is deterministic (sorted keys, fixed list orders,
no clocks), which is what makes byte-identical reruns possible.
Certificates are written by `pretty_json` as the stdlib's indented dump,
byte for byte, with json's C encoder doing the work of every flat container.

A run document is built with one memo, so an engine object it holds twice
(a plain step's mid is the next stage's) is one sub-document, built and
written once; a certificate dict may share sub-dicts, so edit a reloaded copy.
"""

from __future__ import annotations

import functools
import hashlib
import json
from json.encoder import encode_basestring
from typing import Any, Mapping

from . import catalog, laws, rules
from .algebras import check_bijection, extract_algebra, fillers_from_algebra
from .arrows import ArrowObj, GeneratingSet, Square, filler_triangles, square_commutes
from .core import (
    EngineError,
    FinCategory,
    Morphism,
    Presheaf,
    PresheafMap,
    compose_maps,
    composite_equals,
    is_iso,
    is_surjective,
    presheaf,
    validate,
)
from .onestep import OneStepFactorization
from .sequence import FREE, PLAIN, OrdinalBudget, SequenceState, Stage, build_comparison, stage_schedule

SCHEMA_SEQUENCE = "nwfs.sequence/1"
SCHEMA_COMPARE = "nwfs.compare/1"
SCHEMA_LAWS = "nwfs.laws/1"
SCHEMA_ENUMERATION = "nwfs.enumeration/1"
SCHEMA_FILLER = "nwfs.filler/1"

TOOL = {"name": "nwfs", "version": "0.1.0"}


class InputError(EngineError):
    """A malformed or inconsistent input document, with a document path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _expect(doc: Any, key: str, kind: type | tuple, path: str) -> Any:
    if not isinstance(doc, dict):
        raise InputError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise InputError(f"{path}/{key}", "missing")
    value = doc[key]
    if not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise InputError(f"{path}/{key}", f"expected {names}, got {type(value).__name__}")
    return value


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints to Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_keyed(doc: Any, path: str) -> dict[int, int]:
    if not isinstance(doc, dict):
        raise InputError(path, f"expected an object, got {type(doc).__name__}")
    out = {}
    for k, v in doc.items():
        try:
            ik = int(k)
        except (TypeError, ValueError):
            ik = None
        # only the decimal form: int() reads "00" and " 0" as 0 too
        if ik is None or str(ik) != k:
            raise InputError(f"{path}/{k}", "key is not an integer element id in decimal form")
        if not _is_int(v):
            raise InputError(f"{path}/{k}", "value is not an integer element id")
        out[ik] = v
    return out


def parse_components(doc: Any, path: str) -> dict[str, dict[int, int]]:
    if not isinstance(doc, dict):
        raise InputError(path, f"expected an object, got {type(doc).__name__}")
    return {obj: _int_keyed(val, f"{path}/{obj}") for obj, val in doc.items()}


# ---------------------------------------------------------------------------
# loading


def load_category(doc: Any, path: str = "$") -> FinCategory:
    if isinstance(doc, str):
        try:
            return catalog.get_category(doc)
        except catalog.UnknownCatalogKey as err:
            raise InputError(path, str(err)) from None
    objects = _expect(doc, "objects", list, path)
    for i, obj in enumerate(objects):
        if not isinstance(obj, str):
            raise InputError(f"{path}/objects/{i}", "object ids must be strings")
    raw_mors = _expect(doc, "morphisms", list, path)
    mors = []
    for i, m in enumerate(raw_mors):
        mp = f"{path}/morphisms/{i}"
        mors.append(
            Morphism(
                _expect(m, "id", str, mp),
                _expect(m, "dom", str, mp),
                _expect(m, "cod", str, mp),
            )
        )
    identities = _expect(doc, "identities", dict, path)
    for obj, mid in identities.items():
        if not isinstance(mid, str):
            raise InputError(f"{path}/identities/{obj}", "identity must be a morphism id")
    raw_table = _expect(doc, "compose", list, path)
    table = {}
    for i, row in enumerate(raw_table):
        rp = f"{path}/compose/{i}"
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise InputError(rp, "expected a [after, before, composite] triple of morphism ids")
        table[(row[0], row[1])] = row[2]
    cat = FinCategory(
        name=doc.get("name", "custom") if isinstance(doc.get("name", "custom"), str) else "custom",
        objects=tuple(objects),
        morphisms=tuple(mors),
        identity=dict(identities),
        table=table,
    )
    problems = validate(cat)
    if problems:
        raise InputError(path, f"invalid category: {problems[0]}")
    return cat


def load_presheaf(doc: Any, path: str, ambient: FinCategory | None) -> Presheaf:
    if not isinstance(doc, dict):
        raise InputError(path, f"expected an object, got {type(doc).__name__}")
    if "category" in doc:
        base = load_category(doc["category"], f"{path}/category")
    elif ambient is not None:
        base = ambient
    else:
        raise InputError(f"{path}/category", "missing and no ambient category given")
    raw_sets = _expect(doc, "sets", dict, path)
    carrier: dict[str, list[int]] = {}
    for obj, elems in raw_sets.items():
        op = f"{path}/sets/{obj}"
        if obj not in base.objects:
            raise InputError(op, f"unknown object {obj!r}")
        if not isinstance(elems, list) or not all(_is_int(e) for e in elems):
            raise InputError(op, "expected a list of integer element ids")
        if len(set(elems)) != len(elems):
            i = next(i for i, e in enumerate(elems) if e in elems[:i])
            raise InputError(f"{op}/{i}", f"element id {elems[i]} repeated")
        carrier[obj] = elems
    actions = {
        mor: _int_keyed(act, f"{path}/actions/{mor}")
        for mor, act in _expect(doc, "actions", dict, path).items()
    }
    for mor in actions:
        if mor not in {m.name for m in base.morphisms}:
            raise InputError(f"{path}/actions/{mor}", "unknown morphism id")
    try:
        X = presheaf(base, carrier, actions)
    except EngineError as err:
        raise InputError(path, str(err)) from None
    problems = validate(X)
    if problems:
        raise InputError(path, f"invalid presheaf: {problems[0]}")
    return X


def load_map(doc: Any, path: str, ambient: FinCategory | None) -> PresheafMap:
    source = load_presheaf(_expect(doc, "source", dict, path), f"{path}/source", ambient)
    target = load_presheaf(_expect(doc, "target", dict, path), f"{path}/target", ambient)
    comps = parse_components(_expect(doc, "components", dict, path), f"{path}/components")
    for obj in comps:
        if obj not in source.base.objects:
            raise InputError(f"{path}/components/{obj}", f"unknown object {obj!r}")
    for obj in source.base.objects:
        comps.setdefault(obj, {})
    f = PresheafMap(source, target, comps)
    problems = validate(f)
    if problems:
        raise InputError(path, f"invalid map: {problems[0]}")
    return f


def load_gens(doc: Any, path: str, ambient: FinCategory) -> GeneratingSet:
    if isinstance(doc, str):
        try:
            gens = catalog.get_gens(doc)
        except catalog.UnknownCatalogKey as err:
            raise InputError(path, str(err)) from None
        if gens.members and gens.members[0].f.source.base != ambient:
            raise InputError(path, f"generating set {doc!r} lives over a different category")
        return gens
    arrows = _expect(doc, "arrows", list, path)
    members: list[ArrowObj] = []
    for i, entry in enumerate(arrows):
        ep = f"{path}/arrows/{i}"
        if isinstance(entry, str):
            members.extend(load_gens(entry, ep, ambient).members)
        else:
            label = entry.get("label") if isinstance(entry, dict) else None
            members.append(
                ArrowObj(
                    load_map(entry, ep, ambient),
                    label=label if isinstance(label, str) else f"gen{i}",
                )
            )
    if not members:
        raise InputError(f"{path}/arrows", "generating set is empty")
    return GeneratingSet(members=tuple(members), name=doc.get("name") if isinstance(doc, dict) else None)


# ---------------------------------------------------------------------------
# dumping


def _memoized(memo: dict | None, obj: Any, build) -> Any:
    """`build(obj)`, once per object in `memo`; an entry holds its object, so its id is not reused."""
    if memo is None:
        return build(obj)
    hit = memo.get(id(obj))
    if hit is None:
        hit = memo[id(obj)] = (obj, build(obj))
    return hit[1]


def components_doc(f: PresheafMap | Mapping[str, Mapping[int, int]], memo: dict | None = None) -> dict:
    comps = f.components if isinstance(f, PresheafMap) else f
    return _memoized(memo, comps, lambda c: {a: {str(x): y for x, y in sorted(c[a].items())} for a in sorted(c)})


def presheaf_doc(X: Presheaf, memo: dict | None = None) -> dict:
    return _memoized(memo, X, lambda X: {
        "sets": {a: list(X.carrier[a]) for a in sorted(X.base.objects)},
        "actions": {
            m.name: {str(x): y for x, y in sorted(X.action[m.name].items())}
            for m in sorted(X.base.morphisms, key=lambda m: m.name)
        },
    })


def map_doc(f: PresheafMap, label: str | None = None) -> dict:
    doc = {
        "source": presheaf_doc(f.source),
        "target": presheaf_doc(f.target),
        "components": components_doc(f),
    }
    if label is not None:
        doc["label"] = label
    return doc


def category_doc(cat: FinCategory) -> dict:
    return {
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [
            {"id": m.name, "dom": m.dom, "cod": m.cod}
            for m in sorted(cat.morphisms, key=lambda m: m.name)
        ],
        "identities": {a: cat.identity[a] for a in sorted(cat.objects)},
        "compose": [[g, f, gf] for (g, f), gf in sorted(cat.table.items())],
    }


def gens_doc(gens: GeneratingSet) -> dict:
    return {
        "name": gens.name or "custom",
        "arrows": [
            map_doc(m.f, label=m.label or f"gen{i}") for i, m in enumerate(gens.members)
        ],
    }


def canonical_bytes(doc: Any) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def pretty_json(doc: Any) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)` and a newline.

    An indent makes json fall back to its pure-Python encoder, so the layout
    is written here instead. A flat container, one whose values are all
    plain scalars, is written by one call to the C encoder of its depth,
    whose item separator holds the newline and indent of that depth. Only
    the nested containers are walked in Python, and all the text is joined
    once at the end. A nested container met again at the same depth (a
    shared sub-document) is walked once, then written as that walk's text.
    """
    parts: list[str] = []
    _write(doc, 0, parts, {})
    parts.append("\n")
    return "".join(parts)


# exact types, so that the flat test runs in C; a container holding a
# subclass (an IntEnum, say) is walked instead, and written the same
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _layout(depth: int) -> tuple[json.JSONEncoder, str, str, str]:
    """How containers at `depth` are written.

    The encoder of its flat containers, the newline that closes a container
    there, the one that opens its first item and the separator before each
    later item.
    """
    newline = "\n" + "  " * depth
    inner = newline + "  "
    # a flat container holds no container, so it cannot hold itself
    encoder = json.JSONEncoder(
        sort_keys=True, ensure_ascii=False, check_circular=False, separators=("," + inner, ": ")
    )
    return encoder, newline, inner, "," + inner


def _write(doc: Any, depth: int, parts: list[str], written: dict) -> None:
    """Append `doc`'s text, laid out as `pretty_json` does at `depth`, to `parts`.

    `written` holds each nested container written so far, by id and depth, and its slice of `parts`.
    """
    encoder, newline, inner, sep = _layout(depth)
    if isinstance(doc, dict):
        flat = _SCALAR_TYPES.issuperset(map(type, doc.values()))
    elif isinstance(doc, (list, tuple)):
        flat = _SCALAR_TYPES.issuperset(map(type, doc))
    else:
        parts.append(encoder.encode(doc))
        return
    if flat:
        # one C call, then its brackets on lines of their own
        text = encoder.encode(doc)
        if doc:
            parts.append(text[0] + inner)
            parts.append(text[1:-1])
            parts.append(newline + text[-1])
        else:
            parts.append(text)
        return
    start = len(parts)
    hit = written.get((id(doc), depth))
    if hit is not None:
        parts.append("".join(parts[hit[1] : hit[2]]))
    elif isinstance(doc, dict):
        # json sorts the items before it turns their keys into strings
        lead = "{" + inner
        for key, value in sorted(doc.items()):
            parts.append(lead + _json_key(key) + ": ")
            _write(value, depth + 1, parts, written)
            lead = sep
        parts.append(newline + "}")
    else:
        lead = "[" + inner
        for value in doc:
            parts.append(lead)
            _write(value, depth + 1, parts, written)
            lead = sep
        parts.append(newline + "]")
    written[id(doc), depth] = (doc, start, len(parts))


def _json_key(key: Any) -> str:
    """An object key as json writes it; a one-entry object shows how json converts a non-string key."""
    if isinstance(key, str):
        return encode_basestring(key)
    return json.dumps({key: 0}, ensure_ascii=False)[1:-4]


def digest(doc: Any) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


# ---------------------------------------------------------------------------
# certificates


def cells_doc(cell_legs, objects) -> dict:
    """A step's cell legs side by side: square order, then carrier order."""
    cells = {a: [leg.components[a][x] for leg in cell_legs for x in leg.source.carrier[a]] for a in objects}
    return components_doc({a: dict(enumerate(values)) for a, values in cells.items()})


# One builder per entry of a run document; the validator compares each
# recorded entry with the same builder applied to the replayed run.


def stage_doc(s: Stage, memo: dict) -> dict:
    return {
        "index": s.index,
        "ordinal": s.ordinal,
        "kind": s.kind,
        "mid": presheaf_doc(s.mid, memo),
        "left": components_doc(s.left, memo),
        "right": components_doc(s.right, memo),
    }


def fold_doc(fold: PresheafMap | None, memo: dict) -> dict | None:
    return None if fold is None else components_doc(fold, memo)


def pair_doc(pair: tuple[PresheafMap, PresheafMap] | None, memo: dict) -> dict | None:
    return None if pair is None else {"first": components_doc(pair[0], memo), "second": components_doc(pair[1], memo)}


def step_doc(st: OneStepFactorization | None, memo: dict) -> dict | None:
    if st is None:
        return None
    return {
        "mid": presheaf_doc(st.mid, memo),
        "left": components_doc(st.left, memo),
        "right": components_doc(st.right, memo),
        "cells": cells_doc(st.cocone.legs[1:], st.mid.base.objects),
        "squares": [
            {
                "gen": i,
                "top": components_doc(sq.top, memo),
                "bottom": components_doc(sq.bottom, memo),
                "cell_leg": components_doc(st.cell_leg(n), memo),
            }
            for n, (i, sq) in enumerate(st.squares)
        ],
    }


def budget_doc(budget: OrdinalBudget) -> dict:
    return {"successors_per_block": budget.successors_per_block, "omega_blocks": budget.omega_blocks}


def sequence_body(state: SequenceState) -> dict:
    memo: dict = {}
    return {
        "mode": state.mode,
        "budget": budget_doc(state.budget),
        "converged_at": state.converged_at,
        "exhausted": state.exhausted,
        "stages": [stage_doc(s, memo) for s in state.stages],
        "links": [components_doc(m, memo) for m in state.links],
        "folds": [fold_doc(m, memo) for m in state.folds],
        "pairs": [pair_doc(p, memo) for p in state.pairs],
        "steps": [step_doc(st, memo) for st in state.steps],
        "cardinalities": [dict(sorted(c.items())) for c in state.cardinalities],
    }


def certificate_header(schema: str, cat: FinCategory, gens: GeneratingSet, arrow: PresheafMap, seed: int | None) -> dict:
    """The head of a certificate that embeds its inputs: schema, tool, inputs, their digests and the seed."""
    docs = {
        "category": category_doc(cat),
        "gens": gens_doc(gens),
        "arrow": map_doc(arrow),
    }
    return {
        "schema": schema,
        "tool": TOOL,
        "inputs": docs,
        "digests": {k: digest(v) for k, v in docs.items()},
        "seed": seed,
    }


# A sequence or compare certificate is a frame around its run bodies; the
# validator compares the frame as one document and replays the bodies.


def sequence_frame(state, algebra=None, table=None, seed: int | None = None) -> dict:
    """A sequence certificate without its run body."""
    return {
        **certificate_header(SCHEMA_SEQUENCE, state.arrow.f.source.base, state.gens, state.arrow.f, seed),
        "algebra": None if algebra is None else {"structure": components_doc(algebra.structure)},
        "lifting_table": None
        if table is None
        else {"fillers": [components_doc(f) for f in table.fillers]},
        "timing": {"elapsed_s": None, "work": state.work},
    }


def sequence_certificate(state, algebra=None, table=None, seed: int | None = None) -> dict:
    return {**sequence_frame(state, algebra, table, seed), "run": sequence_body(state)}


def compare_frame(free, plain, report, seed: int | None = None) -> dict:
    """A compare certificate without its two run bodies."""
    return {
        **certificate_header(SCHEMA_COMPARE, free.arrow.f.source.base, free.gens, free.arrow.f, seed),
        "comparison": {
            "maps": [components_doc(m) for m in report.maps],
            "left_commutes": list(report.left_commutes),
            "right_commutes": list(report.right_commutes),
            "surjective": list(report.surjective),
            "ok": report.ok,
        },
        "timing": {
            "elapsed_s": None,
            "work": {"free": free.work, "plain": plain.work},
        },
    }


def compare_certificate(free, plain, report, seed: int | None = None) -> dict:
    return {**compare_frame(free, plain, report, seed), "free": sequence_body(free), "plain": sequence_body(plain)}


def laws_certificate(report, rule_tokens, sample_spec, seed: int | None = None) -> dict:
    return {
        "schema": SCHEMA_LAWS,
        "tool": TOOL,
        "rules": list(rule_tokens),
        "sample": sample_spec,
        "seed": seed,
        "checks": [
            {"rule": c.rule, "law": c.law, "arrow": c.arrow, "ok": c.ok, "detail": c.detail}
            for c in report.checks
        ],
        "ok": report.ok,
        "timing": {"elapsed_s": None, "work": {"checks": len(report.checks)}},
    }


def enumeration_certificate(report, cat, gens, arrow, seed=None) -> dict:
    small = report.algebra_count <= 64 and report.table_count <= 64
    return {
        **certificate_header(SCHEMA_ENUMERATION, cat, gens, arrow, seed),
        "algebra_count": report.algebra_count,
        "table_count": report.table_count,
        "product_count": report.product_count,
        "problems": list(report.problems),
        "ok": report.ok,
        "algebras": [components_doc(a.structure) for a in report.algebras] if small else None,
        "tables": [[components_doc(f) for f in t.fillers] for t in report.tables] if small else None,
        "timing": {"elapsed_s": None, "work": {"algebras": report.algebra_count}},
    }


def filler_certificate(cat, gen_arrow, target, top, bottom, filler) -> dict:
    return {
        "schema": SCHEMA_FILLER,
        "tool": TOOL,
        "category": category_doc(cat),
        "gen_arrow": map_doc(gen_arrow.f, label=gen_arrow.label),
        "target": map_doc(target),
        "top": components_doc(top),
        "bottom": components_doc(bottom),
        "filler": components_doc(filler),
    }


# ---------------------------------------------------------------------------
# re-validation


def _check(problems: list[str], cond: bool, path: str, message: str) -> None:
    if not cond:
        problems.append(f"{path}: {message}")


def _load_components(doc: Any, path: str, source: Presheaf, target: Presheaf) -> PresheafMap:
    """A components document as a checked map between known presheaves."""
    f = PresheafMap(source, target, parse_components(doc, path))
    problems = validate(f)
    if problems:
        raise InputError(path, problems[0])
    return f


def _load_inputs(doc: dict) -> tuple[FinCategory, GeneratingSet, PresheafMap]:
    inputs = _expect(doc, "inputs", dict, "")
    cat = load_category(inputs.get("category"), "/inputs/category")
    return cat, load_gens(inputs.get("gens"), "/inputs/gens", cat), load_map(inputs.get("arrow"), "/inputs/arrow", cat)


def _recorded_seed(doc: dict) -> int | None:
    """The recorded seed, which the engine copies from its command line: an integer or null."""
    seed = doc.get("seed")
    if seed is not None and not _is_int(seed):
        raise InputError("/seed", f"expected an integer or null, got {type(seed).__name__}")
    return seed


_NESTED = (dict, list, tuple)


def _plain(doc: Any) -> bool:
    """Whether a JSON value holds no float and no boolean anywhere."""
    values = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else (doc,)
    kinds = set(map(type, values))
    if float in kinds or bool in kinds:
        return False
    return not (dict in kinds or list in kinds) or all(_plain(v) for v in values if isinstance(v, _NESTED))


def _first_difference(recorded: Any, expected: Any, path: str, plain_expected: bool = False) -> str | None:
    """The first place where a recorded JSON value differs from the expected one, or None.

    Objects are walked in the expected key order and lists in order; a
    differing leaf reads `{path}: recorded {r!r}, expected {e!r}`, a key
    only one side has `{path}: missing` or `{path}: not expected`. Values
    are compared as JSON, so `1`, `1.0` and `true` differ. A caller whose
    `expected` holds no float and no boolean says so with `plain_expected`,
    and then only the recorded side's types are checked.
    """
    # Python's `==` takes 1.0 and true for 1, so it decides only where
    # neither side holds a float or a boolean
    if recorded == expected and (plain_expected or _plain(expected)) and _plain(recorded):
        return None
    if isinstance(expected, (dict, list)) and type(recorded) is not type(expected):
        return f"{path}: expected {'an object' if isinstance(expected, dict) else 'a list'}, got {type(recorded).__name__}"
    if isinstance(expected, dict):
        for key, want in expected.items():
            if key not in recorded:
                return f"{path}/{key}: missing"
            found = _first_difference(recorded[key], want, f"{path}/{key}", plain_expected)
            if found:
                return found
        extra = next((key for key in recorded if key not in expected), None)
        return None if extra is None else f"{path}/{extra}: not expected"
    if isinstance(expected, list):
        for i, (got, want) in enumerate(zip(recorded, expected)):
            found = _first_difference(got, want, f"{path}/{i}", plain_expected)
            if found:
                return found
        return None if len(recorded) == len(expected) else f"{path}: recorded {len(recorded)} entries, expected {len(expected)}"
    if type(recorded) is type(expected) and recorded == expected:
        return None
    return f"{path}: recorded {recorded!r}, expected {expected!r}"


def _check_document(doc: dict, expected: dict, problems: list[str], bodies: tuple[str, ...] = ()) -> None:
    """Compare a certificate, apart from its replayed run `bodies`, with the document the engine writes."""
    found = _first_difference({k: v for k, v in doc.items() if k not in bodies}, expected, "")
    if found:
        problems.append(found)


def _entries(state: SequenceState, i: int, last: bool) -> list[tuple[str, int, Any]]:
    """The entries stage i adds to a run document, in the order the engine builds them.

    Stage i comes with the step, pair, fold and link of the stage below it;
    the last stage also with its own step, pair and fold, which are null.
    """
    memo: dict = {}
    below = [] if i == 0 else [
        ("steps", i - 1, step_doc(state.steps[i - 1], memo)),
        ("pairs", i - 1, pair_doc(state.pairs[i - 1], memo)),
        ("folds", i - 1, fold_doc(state.folds[i - 1], memo)),
        ("links", i - 1, components_doc(state.links[i - 1], memo)),
    ]
    here = [("stages", i, stage_doc(state.stages[i], memo)), ("cardinalities", i, state.stages[i].mid.sizes)]
    return below + here + [(key, i, None) for key in ("steps", "pairs", "folds") if last]


def _check_in_place(state: SequenceState, i: int, path: str, problems: list[str]) -> None:
    """The equations stage i and the maps into it must satisfy, whoever built them."""
    stage, below, link = state.stages[i], state.stages[i - 1], state.links[i - 1]
    lp = f"{path}/links/{i - 1}"
    _check(problems, composite_equals(link, below.left, stage.left), lp, "link does not extend the left half")
    _check(problems, composite_equals(stage.right, link, below.right), lp, "link does not cover the right half")
    if stage.kind == "limit":
        # a finite chain's colimit is its last stage
        _check(problems, is_iso(link), lp, "link into a limit stage is not an isomorphism")
    fold, step, pair = state.folds[i - 1], state.steps[i - 1], state.pairs[i - 1]
    if fold is None:
        return
    fp = f"{path}/folds/{i - 1}"
    _check(problems, is_surjective(fold), fp, "fold is not surjective")
    _check(problems, composite_equals(fold, step.left, link), fp, "fold does not reproduce the link")
    _check(problems, composite_equals(stage.right, fold, step.right), fp, "fold does not cover the step's right half")
    if pair is not None:
        _check(problems, composite_equals(fold, pair[0], compose_maps(fold, pair[1])), fp, "fold does not coequalize its pair")


_RUN_KEYS = ("mode", "budget", "converged_at", "exhausted", "stages", "links", "folds", "pairs", "steps", "cardinalities")


def _validate_run(body, path, gens, arrow, problems, modes=(FREE, PLAIN), may_stop=True) -> SequenceState | None:
    """Replay one serialized run with the engine's stage schedule; return the replay if it holds.

    The recorded mode, one of `modes`, and the recorded budget drive
    `stage_schedule` for exactly as many stages as the record holds, and
    each recorded entry must equal the one the replay builds. The replay
    stops at the first difference. A run spends its whole budget, or, when
    it `may_stop`, ends right after it converges.
    """
    if not isinstance(body, dict):
        problems.append(f"{path}: missing or not an object")
        return None
    extra = next((key for key in body if key not in _RUN_KEYS), None)
    if extra is not None:
        problems.append(f"{path}/{extra}: not expected")
        return None
    mode = body.get("mode")
    if mode not in modes:
        problems.append(f"{path}/mode: expected {' or '.join(map(repr, modes))}, got {mode!r}")
        return None
    raw_stages = body.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        problems.append(f"{path}/stages: missing or empty")
        return None
    n = len(raw_stages)
    links_doc = body.get("links", [])
    steps_doc = body.get("steps", [])
    folds_doc = body.get("folds", [])
    pairs_doc = body.get("pairs", [])
    cards = body.get("cardinalities", [])
    # stages and links are always present; steps, folds and pairs are null where not taken
    for key, entries, nullable in (
        ("stages", raw_stages, False),
        ("links", links_doc, False),
        ("steps", steps_doc, True),
        ("folds", folds_doc, True),
        ("pairs", pairs_doc, True),
        ("cardinalities", cards, False),
    ):
        if not isinstance(entries, list):
            problems.append(f"{path}/{key}: expected a list, got {type(entries).__name__}")
            return None
        for i, entry in enumerate(entries):
            if not (isinstance(entry, dict) or (nullable and entry is None)):
                problems.append(f"{path}/{key}/{i}: expected an object, got {type(entry).__name__}")
                return None
    if not (len(links_doc) == n - 1 and len(steps_doc) == len(folds_doc) == len(pairs_doc) == len(cards) == n):
        problems.append(f"{path}: stage/link/step list lengths are inconsistent")
        return None
    budget = body.get("budget") if isinstance(body.get("budget"), dict) else {}
    per_block, blocks = budget.get("successors_per_block"), budget.get("omega_blocks")
    if not (_is_int(per_block) and _is_int(blocks) and per_block >= 1 and blocks >= 1):
        problems.append(f"{path}/budget: expected positive integers successors_per_block and omega_blocks")
        return None
    budget = OrdinalBudget(per_block, blocks)
    found = _first_difference(body["budget"], budget_doc(budget), f"{path}/budget")
    if found:
        problems.append(found)
        return None

    before = len(problems)
    if mode == "free":
        kinds = [s.get("kind") for s in raw_stages]
        for i in range(n - 1):
            _check(problems, steps_doc[i] is not None, f"{path}/steps/{i}", "free mode stage is missing its step")
            _check(problems, folds_doc[i] is not None, f"{path}/folds/{i}", "free mode stage is missing its fold")
            if kinds[i + 1] == "successor":
                _check(problems, pairs_doc[i] is not None, f"{path}/pairs/{i}", "free mode successor stage is missing its pair")

    for i, run in zip(range(n), stage_schedule(mode, gens, arrow, budget)):
        for key, j, want in _entries(run, i, last=i == n - 1):
            # the run-entry builders write no float and no boolean
            found = _first_difference(body[key][j], want, f"{path}/{key}/{j}", plain_expected=True)
            if found:
                problems.append(found)
                return None
        if i:
            _check_in_place(run, i, path, problems)
    if len(run.stages) < n:
        problems.append(f"{path}/budget: the stages do not match the budget")
        return None

    gamma, exhausted = body.get("converged_at"), body.get("exhausted")
    # a run recorded as exhausted must have spent its budget
    stopped = may_stop and run.converged_at is not None and n == run.converged_at + 2 and exhausted is not True
    _check(problems, n == blocks * (per_block + 1) or stopped, f"{path}/budget", "the stages do not match the budget")
    if gamma is not None and not (_is_int(gamma) and 0 <= gamma < n - 1):
        problems.append(f"{path}/converged_at: index {gamma!r} out of range")
    else:
        _check(problems, gamma == run.converged_at, f"{path}/converged_at", f"recorded {gamma!r}, recomputed {run.converged_at!r}")
        _check(problems, exhausted is run.exhausted, f"{path}/exhausted", f"recorded {exhausted!r}, expected {run.exhausted}")
    return run if len(problems) == before else None


def _validate_sequence_cert(doc, problems) -> SequenceState | None:
    """Recheck a sequence certificate; return its replayed run once the run holds."""
    _, gens, arrow = _load_inputs(doc)
    seed = _recorded_seed(doc)
    run = _validate_run(doc.get("run"), "/run", gens, arrow, problems)
    if run is None:
        return None
    # `nwfs factorize` records the algebra of every converged run
    algebra = table = None
    if run.converged_at is not None:
        algebra = extract_algebra(run)
        table = fillers_from_algebra(algebra)
    _check_document(doc, sequence_frame(run, algebra, table, seed), problems, bodies=("run",))
    return run


def _validate_compare_cert(doc, problems) -> None:
    _, gens, arrow = _load_inputs(doc)
    seed = _recorded_seed(doc)
    # `nwfs compare` runs both sequences to the end of the same budget
    free = _validate_run(doc.get("free"), "/free", gens, arrow, problems, modes=(FREE,), may_stop=False)
    plain = _validate_run(doc.get("plain"), "/plain", gens, arrow, problems, modes=(PLAIN,), may_stop=False)
    if free is None or plain is None:
        return
    report = build_comparison(free, plain)
    _check(problems, plain.budget == free.budget, "/plain/budget", "differs from the free run's budget")
    _check_document(doc, compare_frame(free, plain, report, seed), problems, bodies=("free", "plain"))
    _check(problems, report.ok, "/comparison/ok", "the comparison does not hold")


def rule_from_token(token: str):
    builders = {
        "graph": rules.graph_rule,
        "cograph": rules.cograph_rule,
        "trivial-left": rules.trivial_left_rule,
        "trivial-right": rules.trivial_right_rule,
    }
    if token in builders:
        return builders[token]()
    if token.startswith("mutant"):
        try:
            return rules.mutant_rule(int(token[len("mutant") :]))
        except (ValueError, EngineError):
            pass
    for i in range(rules.MUTANT_COUNT):
        rule = rules.mutant_rule(i)
        if rule.name == token:
            return rule
    raise InputError("/rules", f"unknown rule token {token!r}")


def rules_from_tokens(tokens: list[str]) -> list:
    """The rules a law check names; a check of no rules would hold vacuously."""
    if not tokens:
        raise InputError("/rules", "expected at least one rule")
    return [rule_from_token(t) for t in tokens]


def sample_from_spec(spec, most: int) -> tuple[list, dict]:
    """The sample a laws spec names, and the spec the engine writes for it.

    `nwfs laws` builds its spec from its flags and reads it here, so it
    writes only specs the validator accepts. A sample of more than `most`
    arrows is reported at /sample without being built, so the validator's
    work stays bounded by the certificate.
    """
    if not isinstance(spec, dict):
        raise InputError("/sample", "missing or not an object")
    kind = spec.get("kind")
    if kind == "exhaustive":
        max_total = spec.get("max_total")
        if not _is_int(max_total) or max_total < 0:
            raise InputError("/sample/max_total", "expected a non-negative integer")
        size = laws.exhaustive_size(max_total, most)
        build = lambda: laws.exhaustive_arrows(max_total)
        written = {"kind": kind, "max_total": max_total}
    elif kind == "seeded":
        category = spec.get("category")
        base = load_category(category, "/sample/category")
        count, seed = spec.get("count"), spec.get("seed")
        if not _is_int(count) or not _is_int(seed):
            raise InputError("/sample", "seeded samples need integer count and seed")
        if count < 1:
            raise InputError("/sample/count", "expected a positive integer")
        size = count
        build = lambda: laws.sample_arrows(base, count, seed)
        # `nwfs laws` names a catalog category by its key
        written = {
            "kind": kind,
            "category": category if isinstance(category, str) else category_doc(base),
            "count": count,
            "seed": seed,
        }
    else:
        raise InputError("/sample/kind", f"unknown kind {kind!r}")
    if size > most:
        raise InputError("/sample", f"names more than {most} arrows, too many for the recorded checks")
    return build(), written


def _validate_laws_cert(doc, problems) -> None:
    tokens = doc.get("rules")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise InputError("/rules", "expected a list of rule tokens")
    rules_ = rules_from_tokens(tokens)
    seed = _recorded_seed(doc)
    recorded = doc.get("checks")
    # every rule records at least `factors` and `functor-id` on every arrow
    listed = len(recorded) if isinstance(recorded, list) else 0
    sample, spec = sample_from_spec(doc.get("sample"), listed // (2 * len(rules_)))
    report = laws.check_laws(rules_, sample)
    _check_document(doc, laws_certificate(report, tokens, spec, seed), problems)


def _validate_enumeration_cert(doc, problems) -> None:
    cat, gens, arrow = _load_inputs(doc)
    seed = _recorded_seed(doc)
    report = check_bijection(gens, arrow)
    _check_document(doc, enumeration_certificate(report, cat, gens, arrow, seed), problems)


def _validate_filler_cert(doc, problems) -> None:
    cat = load_category(doc.get("category"), "/category")
    gen = load_map(doc.get("gen_arrow"), "/gen_arrow", cat)
    target = load_map(doc.get("target"), "/target", cat)
    top = _load_components(doc.get("top"), "/top", gen.source, target.source)
    bottom = _load_components(doc.get("bottom"), "/bottom", gen.target, target.target)
    filler = _load_components(doc.get("filler"), "/filler", gen.target, target.source)
    label = doc["gen_arrow"].get("label")
    gen_arrow = ArrowObj(gen, label=label if isinstance(label, str) else None)
    _check_document(doc, filler_certificate(cat, gen_arrow, target, top, bottom, filler), problems)
    square = Square(ArrowObj(gen), ArrowObj(target), top, bottom)
    _check(problems, square_commutes(square), "/top", "the problem square does not commute")
    # the maps were loaded between the presheaves each triangle names
    upper, lower = filler_triangles(square, filler)
    _check(problems, upper, "/filler", "upper triangle fails")
    _check(problems, lower, "/filler", "lower triangle fails")


_VALIDATORS = {
    SCHEMA_SEQUENCE: _validate_sequence_cert,
    SCHEMA_COMPARE: _validate_compare_cert,
    SCHEMA_LAWS: _validate_laws_cert,
    SCHEMA_ENUMERATION: _validate_enumeration_cert,
    SCHEMA_FILLER: _validate_filler_cert,
}


def replay_certificate(doc: Any) -> tuple[list[str], SequenceState | None]:
    """Recheck a certificate document; return the problems found, or [], and the replay.

    The replay is the run a sequence certificate's inputs and budget give,
    and None for the other schemas or when the run does not hold.
    """
    if not isinstance(doc, dict):
        return ["/: certificate must be a JSON object"], None
    schema = doc.get("schema")
    validator = _VALIDATORS.get(schema) if isinstance(schema, str) else None
    if validator is None:
        return [f"/schema: unknown schema {schema!r}"], None
    problems: list[str] = []
    try:
        return problems, validator(doc, problems)
    except InputError as err:
        problems.append(str(err))
    except EngineError as err:
        problems.append(f"/: recomputation failed: {err}")
    except RecursionError:
        # json can read a document too deep for the validator to encode again
        problems.append("/: nested too deeply to check")
    return problems, None


def validate_certificate(doc: Any) -> list[str]:
    """Recheck a certificate document; returns all problems found, or []."""
    return replay_certificate(doc)[0]
