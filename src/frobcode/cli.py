"""Command-line front end.

Subcommands: ring, weights, verify, analyze, graph, dual, search.
Reports are deterministic for fixed inputs and seed; rationals are
printed as exact "p/q" strings.  Exit codes: 0 all checks pass, 1 a
verification check failed, 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii

import numpy as np

from .codes import (
    build_code,
    parse_code_file,
    sweep_code_identities,
)
from .duality import dual_pipeline
from .errors import (
    CapExceededError,
    CharacterError,
    FrobcodeError,
    IdentityCheckError,
    PreconditionError,
    SpecParseError,
    ZeroColumnError,
)
from .graphs import (
    build_coset_graph,
    coset_graph_srg,
    predicted_srg,
)
from .homweight import RING_CHECKS, SAMPLE_COUNT, identity_suite, weight_table
from .rings import ring_from_text
from .search import SearchRecord, search_modular_codes
from .spans import enum_cap

USAGE_ERRORS = (SpecParseError, ZeroColumnError, CapExceededError,
                PreconditionError)
CHECK_ERRORS = (CharacterError, IdentityCheckError)


def _rat(x):
    if x is None:
        return None
    return str(Fraction(x))


# the text of each scalar type a report holds, by exact type
_SCALARS = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    str: encode_basestring_ascii,
}


def _write_json(value, write, newline="\n", render=None):
    """Write value through write(chunk) exactly as json.dumps(value,
    indent=2, sort_keys=True) renders it, when the value starts on a
    line whose indentation newline ends with.  Only dict with str keys,
    list, str, int, bool and None are written; a value of any other
    type goes to render(value, write, newline), and without render
    raises TypeError, so no float or numpy scalar reaches a report."""
    kind = type(value)
    if kind in _SCALARS:
        write(_SCALARS[kind](value))
    elif (kind is dict or kind is list) and value:
        inner = newline + "  "
        if kind is dict:
            # encode_basestring_ascii raises TypeError on a key not str
            items = [(f"{encode_basestring_ascii(key)}: ", value[key])
                     for key in sorted(value)]
            separator, closing = "{" + inner, newline + "}"
        else:
            items = [("", item) for item in value]
            separator, closing = "[" + inner, newline + "]"
        for label, item in items:
            write(separator + label)
            _write_json(item, write, inner, render)
            separator = "," + inner
        write(closing)
    elif kind is dict or kind is list:
        write("{}" if kind is dict else "[]")
    elif render is not None:
        render(value, write, newline)
    else:
        raise TypeError(f"Object of type {kind.__name__} "
                        "is not JSON serializable")


def _emit_json(payload, path, render=None):
    """Write the report payload, as _write_json renders it plus a
    newline, to the file at path or to stdout when path is empty."""
    with open(path, "w") if path else nullcontext(sys.stdout) as handle:
        _write_json(payload, handle.write, render=render)
        handle.write("\n")


def _check_sampling(args):
    if args.sample < 1:
        raise PreconditionError(
            f"--sample must be a positive integer, got {args.sample}")
    if args.seed < 0:
        raise PreconditionError(
            f"--seed must be a nonnegative integer, got {args.seed}")


def _load_code(path, cap):
    with open(path) as handle:
        data = parse_code_file(handle.read())
    ring = ring_from_text(data.ring_text)
    return ring, build_code(ring, data.rows, cap)


# --------------------------------------------------------- ring, weights


def cmd_ring(args):
    ring = ring_from_text(args.spec)
    table = weight_table(ring)
    zero_set = np.flatnonzero(table.numerators == 0)
    print(f"ring: {ring.spec.text()}")
    print(f"order: {ring.order}")
    print(f"units: {len(ring.units)}")
    print(f"character exponent: {ring.exponent}")
    print("weights:")
    for i in range(ring.order):
        print(f"  {ring.labels[i]}: {table.value(i)}")
    print("zero-weight elements: "
          + " ".join(ring.labels[i] for i in zero_set))
    checks = {}
    for name, fn in RING_CHECKS:
        fn(ring, table)
        checks[name] = True
        print(f"check {name}: pass")
    if args.json is not None:
        _emit_json({
            "ring": ring.spec.text(),
            "order": ring.order,
            "units": len(ring.units),
            "character_exponent": ring.exponent,
            "weights": {ring.labels[i]: _rat(table.value(i))
                        for i in range(ring.order)},
            "zero_weight_elements": [ring.labels[int(i)] for i in zero_set],
            "checks": checks,
        }, args.json)
    return 0


def cmd_weights(args):
    ring = ring_from_text(args.spec)
    table = weight_table(ring)
    for i in range(ring.order):
        print(f"{ring.labels[i]}: {table.value(i)}")
    return 0


# ------------------------------------------------------------- verify


def cmd_verify(args):
    _check_sampling(args)
    ring = ring_from_text(args.spec)
    table = weight_table(ring)
    if args.inject_fault:
        for u in ring.units_array:
            table = table.with_bumped_numerator(int(u), 1)
    results = {}
    for name, status in identity_suite(ring, table, cap=args.cap,
                                       full=args.full, sample=args.sample,
                                       seed=args.seed):
        results[name] = status
        print(f"check {name}: {status}")
    if args.json is not None:
        _emit_json({"ring": ring.spec.text(), "checks": results}, args.json)
    return 0


# ------------------------------------------------------------- analyze


def _profile_payload(profile):
    if profile is None:
        return None
    return {
        "n": profile.n,
        "size": profile.size,
        "b0": profile.b0,
        "w1": _rat(profile.w1),
        "w2": _rat(profile.w2),
        "b1": profile.b1,
        "b2": profile.b2,
        "index": _rat(profile.index),
        "trivial": profile.trivial,
    }


def cmd_analyze(args):
    ring, code = _load_code(args.file, args.cap)
    checks = sweep_code_identities(code)
    histogram = {_rat(w): c for w, c in code.weight_distribution.items()}
    payload = {
        "ring": ring.spec.text(),
        "k": code.k,
        "n": code.n,
        "size": code.size,
        "b0": code.b0,
        "histogram": histogram,
        "modular_index": _rat(code.index),
        "profile": _profile_payload(code.profile),
        "lemma_checks": dict.fromkeys(checks, True),
    }
    _emit_json(payload, args.json)
    return 0


# ---------------------------------------------------------- graph, dual


def _dot_text(graph, adjacency):
    ring = graph.code.ring
    words = graph.least_words()
    order = np.lexsort(words.T[::-1])
    adjacency = adjacency[np.ix_(order, order)]
    lines = ["graph coset_graph {"]
    for i, rep in enumerate(words[order]):
        label = " ".join(ring.labels[int(v)] for v in rep)
        lines.append(f'  v{i} [label="{label}"];')
    for i in range(len(adjacency)):
        for j in range(i + 1, len(adjacency)):
            if adjacency[i, j]:
                lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args):
    ring, code = _load_code(args.file, args.cap)
    profile = code.modular_two_weight("graph construction")
    graph = build_coset_graph(code)
    measured = coset_graph_srg(graph)
    predicted = predicted_srg(profile)
    if args.dot is not None:
        adjacency = graph.adjacency(args.cap)
        with open(args.dot, "w") as handle:
            handle.write(_dot_text(graph, adjacency))
        print(f"wrote {args.dot}: {len(graph.messages)} vertices, "
              f"{int(adjacency.sum()) // 2} edges")
    if args.cert or args.dot is None:
        print(f"measured:  N={measured.vertices} K={measured.degree} "
              f"lambda={measured.common_adjacent} "
              f"mu={measured.common_nonadjacent} "
              f"trivial={str(measured.trivial).lower()}")
        print(f"predicted: N={predicted.vertices} K={predicted.degree} "
              f"lambda={predicted.common_adjacent} "
              f"mu={predicted.common_nonadjacent} "
              f"trivial={str(predicted.trivial).lower()}")
    if measured != predicted:
        raise IdentityCheckError(
            "measured graph parameters disagree with the closed forms",
            witness={"measured": measured.as_tuple(),
                     "predicted": predicted.as_tuple()})
    print("graph parameters: pass")
    return 0


def cmd_dual(args):
    ring, code = _load_code(args.file, args.cap)
    # dual_pipeline certifies the measured graph against the closed
    # forms, so the measured parameters are the predicted ones
    report = dual_pipeline(code, args.cap)
    payload = {
        "ring": ring.spec.text(),
        "w1_dual": _rat(report.w1_dual),
        "w2_dual": _rat(report.w2_dual),
        "b1_dual": report.b1_dual,
        "b2_dual": report.b2_dual,
        "dual_modular_index": "1",
        "srg_measured": list(report.srg.as_tuple()),
        "srg_predicted": list(report.srg.as_tuple()),
        "trivial": report.trivial,
        "checks": {
            "size-preserved": True,
            "histogram-support": True,
            "zero-subcode-trivial": True,
            "modular-index-one": True,
            "graph-parameters": True,
            "triviality-transfer": True,
            "message-classification": True,
            "smaller-class-spans": True,
        },
    }
    _emit_json(payload, args.json)
    return 0


# -------------------------------------------------------------- search


def _record_line(rec, tails):
    """A search record's stdout line.  The text from its index on, but
    for n, |C| and b0, is made once per distinct index, weights, srg,
    dual and equivalence report objects and kept in tails by their
    ids, with the objects, so that no id is reused while tails lives."""
    parts = rec.index, rec.weights, rec.srg, rec.dual, rec.equivalence
    key = tuple(map(id, parts))
    found = tails.get(key)
    if found is None:
        found = tails[key] = parts, f"r={rec.index}", _line_tail(*parts[1:])
    return (f"[{rec.classification}] "
            f"points={','.join(map(int.__repr__, rec.point_ids))} "
            f"{found[1]} n={rec.n} |C|={rec.size} b0={rec.b0} {found[2]}")


def _line_tail(weights, srg, dual, equivalence):
    bits = ["w=(" + ",".join(str(w) for w in weights) + ")"]
    if srg is not None:
        bits.append("srg=" + str(srg.as_tuple()).replace(" ", ""))
        bits.append(f"trivial={str(srg.trivial).lower()}")
    if dual is not None:
        bits.append(f"dual_w=({dual.w1_dual},{dual.w2_dual})")
    if equivalence is not None:
        cert = equivalence.pds
        bits.append("pds=" + (
            "none" if cert is None else str(cert.srg_params().as_tuple())
            .replace(" ", "")))
    return " ".join(bits)


def _srg_payload(srg):
    return list(srg.as_tuple())


def _weights_payload(weights):
    return [_rat(w) for w in weights]


def _dual_payload(dual):
    return {
        "w1_dual": _rat(dual.w1_dual),
        "w2_dual": _rat(dual.w2_dual),
        "srg": _srg_payload(dual.srg),
    }


def _equivalence_payload(report):
    cert = report.pds
    return {
        "two_weight": report.two_weight,
        "pds": None if cert is None else {
            "group_size": cert.group_size,
            "set_size": cert.set_size,
            "lam": cert.lam,
            "mu": cert.mu,
        },
        "omega_with_zero_submodule": report.omega_with_zero_submodule,
        "complement_submodule": report.complement_submodule,
    }


# the keys of a search record's report entry, sorted
_RECORD_KEYS = ("b0", "classification", "dual", "equivalence", "index", "k",
                "n", "point_ids", "profile", "ring", "size", "srg",
                "trivial", "weights")


class _RecordRenderer:
    """The render hook of the search report.  It writes each search
    record from one template over _RECORD_KEYS.  The text of each index,
    weight tuple, profile, srg, dual and equivalence report is rendered
    once per object and kept with it, so the parts a search's records
    share are rendered once per report."""

    def __init__(self):
        self._layouts = {}

    def __call__(self, rec, write, newline):
        if type(rec) is not SearchRecord:
            raise TypeError(f"Object of type {type(rec).__name__} "
                            "is not JSON serializable")
        layout = self._layouts.get(newline)
        if layout is None:
            inner = newline + "  "
            template = "{" + ",".join(
                f"{inner}{encode_basestring_ascii(key)}: %s"
                for key in _RECORD_KEYS) + newline + "}"
            layout = self._layouts[newline] = (template, inner, {})
        template, inner, texts = layout
        part = partial(_part_text, texts, inner)
        srg = rec.srg
        write(template % (
            int.__repr__(rec.b0), encode_basestring_ascii(rec.classification),
            part(rec.dual, _dual_payload),
            part(rec.equivalence, _equivalence_payload),
            part(rec.index, _rat), int.__repr__(rec.k), int.__repr__(rec.n),
            _int_list(rec.point_ids, inner),
            part(rec.profile, _profile_payload),
            encode_basestring_ascii(rec.ring_text), int.__repr__(rec.size),
            part(srg, _srg_payload),
            "null" if srg is None else "true" if srg.trivial else "false",
            part(rec.weights, _weights_payload)))


def _part_text(texts, newline, value, payload):
    """The text of a record's part, rendered from payload(value) at
    first sight and kept in texts by the part's id, with the part, so
    that the id is not reused while texts lives."""
    if value is None:
        return "null"
    found = texts.get(id(value))
    if found is None:
        chunks = []
        _write_json(payload(value), chunks.append, newline)
        found = texts[id(value)] = value, "".join(chunks)
    return found[1]


def _int_list(values, newline):
    """The text of a list of ints that starts on a line whose
    indentation newline ends with."""
    if not values:
        return "[]"
    inner = newline + "  "
    return ("[" + inner + ("," + inner).join(map(int.__repr__, values))
            + newline + "]")


SEARCH_DEFAULTS = {"k": 2, "n_max": 4, "mult_cap": None}


def _parse_search_params(tokens):
    params = dict(SEARCH_DEFAULTS)
    for token in tokens:
        if "=" not in token:
            raise SpecParseError(
                f"search parameter {token!r} is not of the form key=value")
        key, _, value = token.partition("=")
        if key not in params:
            raise SpecParseError(f"unknown search parameter {key!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise SpecParseError(
                f"search parameter {key!r} needs an integer, got {value!r}")
    return params


def cmd_search(args):
    ring = ring_from_text(args.spec)
    params = _parse_search_params(args.params)
    records = search_modular_codes(
        ring, params["k"], params["n_max"], index_one=args.index1,
        mult_cap=params["mult_cap"], cap=args.cap)
    counts = {"one-weight": 0, "two-weight": 0, "mixed": 0}
    tails = {}
    for rec in records:
        counts[rec.classification] += 1
        print(_record_line(rec, tails))
    print(f"candidates: {len(records)} "
          f"(one-weight: {counts['one-weight']}, "
          f"two-weight: {counts['two-weight']}, "
          f"mixed: {counts['mixed']})")
    if args.json is not None:
        _emit_json({
            "ring": ring.spec.text(),
            "k": params["k"],
            "n_max": params["n_max"],
            "index_one": bool(args.index1),
            "records": records,
        }, args.json, _RecordRenderer())
    return 0


# ------------------------------------------------------------- plumbing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frobcode",
        description="Finite Frobenius rings, homogeneous weights, "
                    "two-weight codes, and their graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap_flag=True, json_flag=True):
        if cap_flag:
            p.add_argument("--cap", type=int, default=None,
                           help="enumeration cap override (default: "
                                f"{enum_cap()}, env FROBCODE_CAP)")
        if json_flag:
            p.add_argument("--json", metavar="PATH", nargs="?", const="",
                           default=None,
                           help="emit a JSON report (to PATH, or stdout "
                                "when no path is given)")

    p = sub.add_parser("ring", help="inspect a ring and its weight table")
    p.add_argument("spec")
    common(p, cap_flag=False)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("weights", help="print the weight table")
    p.add_argument("spec")
    common(p, cap_flag=False, json_flag=False)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("verify", help="run the weight identity suite")
    p.add_argument("spec")
    p.add_argument("--full", action="store_true",
                   help="no sampled fallback past the cap: exit 2")
    p.add_argument("--sample", type=int, default=SAMPLE_COUNT,
                   help="sample count for oversized sweeps (default "
                        f"{SAMPLE_COUNT})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="report on a code file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="coset graph of a two-weight code")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH", default=None,
                   help="write the graph in DOT format")
    p.add_argument("--cert", action="store_true",
                   help="print measured vs predicted parameters")
    common(p, json_flag=False)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("dual", help="dual code certification")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("search", help="enumerate modular codes")
    p.add_argument("spec")
    p.add_argument("params", nargs="*", metavar="key=value",
                   help="k=K (default 2), n_max=N (default 4), mult_cap=M")
    p.add_argument("--index1", action="store_true",
                   help="restrict to modular index 1")
    common(p)
    p.set_defaults(func=cmd_search)

    return parser


def _parse_args(argv=None):
    """Parse the command line.  Search takes its key=value parameters
    anywhere after the spec, before or after its options; one right
    after --json is a parameter, not the report's path."""
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if args.command == "search":
        key, eq, _ = (args.json or "").partition("=")
        if eq and key in SEARCH_DEFAULTS:
            extras.insert(0, args.json)
            args.json = ""
        if not any(token.startswith("-") for token in extras):
            args.params += extras
            extras = []
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if getattr(args, "cap", None) is not None and args.cap < 1:
        raise PreconditionError(
            f"--cap must be a positive integer, got {args.cap}")
    return args


def main(argv=None):
    try:
        args = _parse_args(argv)
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CHECK_ERRORS as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        witness = getattr(exc, "witness", None)
        if witness:
            print(f"witness: {witness}", file=sys.stderr)
        return 1
    except FrobcodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
