"""Command-line front end.

One verb per engine pipeline; every invocation prints a single JSON report

    {"status": "ok"|"error", "verb": ..., "payload"|"error": ...,
     "provenance": {"input": ..., "engine": ..., "bounds": ...}}

with fixed key ordering, so identical inputs produce byte-identical output.
The human-readable table view (``--format table``) is rendered from that
same JSON payload.  Exit codes: 0 ok, 2 bad input/parse error, 3 engine
contract violation, 4 unsupported fibration, 5 missing action data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, em, fixtures, noetherian, steenrod, unstable
from .catalog import load_catalog
from .errors import InputError, PNoetherError
from .graded import expand
from .serre import connected_cover_cohomology
from .steenrod import adem_reduce, excess, format_word, parse_word_expr


# ---------------------------------------------------------------------------
# report plumbing


def _report(verb: str, status: str, body_key: str, body, input_echo: dict,
            bounds: dict) -> dict:
    return {
        "status": status,
        "verb": verb,
        body_key: body,
        "provenance": {
            "input": input_echo,
            "engine": f"pnoether {__version__}",
            "bounds": bounds,
        },
    }


def _emit(report: dict, fmt: str) -> None:
    text = _render_table(report) if fmt == "table" else _dumps(report)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the flush at exit cannot raise again, and exit 1 as
        # the Python docs advise for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


_encode = json.JSONEncoder(separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii
# JSON text of the exact scalar types reports are made of, without the
# encoder object ``_encode`` sets up on every call; floats and subclasses
# take ``_encode``
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
# item types whose compact JSON holds no comma but the separators
_FLAT = {int, bool, type(None)}


def _dumps(node) -> str:
    """The text of ``json.dumps(node, sort_keys=True, indent=2)``.

    On Python < 3.13, ``indent`` makes ``json.dumps`` run its pure-Python
    encoder.  Here only dicts and lists are walked in Python: scalars and
    flat lists go to C encoders, and the pieces are joined once.  A flat
    list object met again in this call (a cover's series, shared by every
    event that leaves it unchanged) appends the text made the first time."""
    out = []
    _write(node, "\n", out, {})
    return "".join(out)


def _write(node, indent: str, out: list, seen: dict) -> None:
    """Append node's text to out; seen maps (id, indent) of each flat list
    to its text, and no id is reused while the tree holds every node."""
    leaf = _LEAVES.get(type(node))
    if leaf is not None:
        out.append(leaf(node))
        return
    inner = indent + "  "
    sep = "," + inner
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        lead = "{" + inner
        for key, value in sorted(node.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {type(key).__name__}")
                key = _encode(key)
            out.append(lead + _encode_str(key) + ": ")
            leaf = _LEAVES.get(type(value))
            if leaf is None:
                _write(value, inner, out, seen)
            else:
                out.append(leaf(value))
            lead = sep
        out.append(indent + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        if (text := seen.get((id(node), indent))) is None:
            kinds = set(map(type, node))
            if kinds <= _FLAT:
                text = _encode(node)[1:-1].replace(",", sep)
            elif kinds == {str}:
                text = sep.join(map(_encode_str, node))
            else:
                lead = "[" + inner
                for item in node:
                    out.append(lead)
                    _write(item, inner, out, seen)
                    lead = sep
                out.append(indent + "]")
                return
            text = seen[id(node), indent] = "[" + inner + text + indent + "]"
        out.append(text)
    else:
        out.append(_encode(node))


def _render_table(node, indent: str = "") -> str:
    """Plain-text view derived from the JSON report structure."""
    lines = []
    if isinstance(node, dict):
        for key in sorted(node):
            value = node[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{indent}{key}:")
                lines.append(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_scalar(value)}")
    elif isinstance(node, list):
        if node and all(isinstance(x, dict) for x in node):
            cols = sorted({k for x in node for k in x})
            rows = [[_scalar(x.get(c)) for c in cols] for x in node]
            widths = [max(len(c), *(len(r[j]) for r in rows))
                      for j, c in enumerate(cols)]
            lines.append(indent + "  ".join(
                c.ljust(w) for c, w in zip(cols, widths)))
            for r in rows:
                lines.append(indent + "  ".join(
                    v.ljust(w) for v, w in zip(r, widths)))
        else:
            lines.append(indent + ", ".join(_scalar(x) for x in node))
    else:
        lines.append(indent + _scalar(node))
    return "\n".join(lines)


def _scalar(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


# ---------------------------------------------------------------------------
# catalog resolution: name in the built-ins, or a JSON file path


def _resolve_catalog(value: str, entry_name: str = None):
    """A built-in entry named value, unless --entry is given; else the entry
    of the catalog file at that path (its only one, or --entry's)."""
    builtin = load_catalog()
    if value in builtin and entry_name is None:
        return builtin[value]
    if not os.path.exists(value):
        if value in builtin:
            raise InputError(
                f"--entry picks an entry of a catalog file, and {value!r} "
                "is a built-in catalog entry, not a file")
        raise InputError(
            f"{value!r} is neither a built-in catalog entry "
            f"({', '.join(sorted(builtin))}) nor a catalog file path")
    cat = load_catalog(value)
    if entry_name is None:
        if len(cat) == 1:
            return next(iter(cat.values()))
        raise InputError(
            f"catalog file {value} has entries "
            f"{sorted(cat)}; pick one with --entry")
    if entry_name not in cat:
        raise InputError(
            f"catalog file {value} has no entry {entry_name!r} "
            f"(available: {sorted(cat)})")
    return cat[entry_name]


# ---------------------------------------------------------------------------
# verb handlers: each returns (payload, bounds)


def _run_adem(args):
    letters = parse_word_expr(args.p, args.word)
    total = adem_reduce(args.p, letters)
    terms = [{"word": list(w), "rendered": format_word(args.p, w),
              "coeff": total.terms[w], "excess": excess(args.p, w)}
             for w in total.words()]
    return {
        "input_word": args.word,
        "reduced": str(total),
        "degree": total.degree,
        "terms": terms,
    }, {"max_degree": None}


def _run_em(args):
    space = em.parse_space(args.space, args.p)
    pres = em.em_product_presentation(space, args.p, args.max_degree)
    gens = [{"name": g.name, "degree": g.degree, "kind": g.kind,
             "bockstein_partner": g.bockstein_link[1] if g.bockstein_link
             else None}
            for g in pres.generators]
    return {
        "space": str(space),
        "generators": gens,
        "polynomial_degrees": sorted(g.degree for g in pres.generators
                                     if g.kind == "polynomial"),
        "exterior_degrees": sorted(g.degree for g in pres.generators
                                   if g.kind == "exterior"),
        "count": len(gens),
    }, {"max_degree": args.max_degree}


def _run_fmod(args):
    expr = unstable.parse_expr(args.expression)
    dims = unstable.expr_dims(expr, args.max_degree, args.p)
    return {
        "expression": unstable.format_expr(expr),
        "dims": dims,
        "total": sum(dims),
    }, {"max_degree": args.max_degree}


def _run_krull(args):
    expr = unstable.parse_expr(args.expression)
    report = unstable.krull_degree(expr, p=args.p)
    return {
        "expression": unstable.format_expr(expr),
        "degree": report.degree,
        "determined": report.determined,
        "trace": report.trace_strings(),
    }, {"max_degree": None}


def _run_tq(args):
    group = noetherian.parse_group(args.group, args.p)
    pres = noetherian.PNoetherianPresentation(args.p, group)
    report = noetherian.tq_of_classifying_space(pres)
    payload = report.to_jsonable()
    payload["group"] = str(group)
    return payload, {"max_degree": None}


def _run_structure(args):
    group = noetherian.parse_group(args.group, args.p)
    base = None
    if args.base:
        base = _resolve_catalog(args.base, args.entry).presentation(args.p)
    pres = noetherian.PNoetherianPresentation(
        args.p, group, base, pi1_order=args.pi1)
    desc = noetherian.structure_fibration(pres)
    payload = desc.to_jsonable()
    payload["group"] = str(group)
    payload["hom_zp_rank"] = noetherian.hom_zp(group)
    return payload, {"max_degree": None}


def _run_cover(args):
    entry = _resolve_catalog(args.catalog, args.entry)
    result = connected_cover_cohomology(entry, args.p, args.max_degree)
    payload = result.to_jsonable()
    payload["catalog_entry"] = entry.name
    payload["surviving_degrees"] = sorted(
        s["degree"] for s in payload["surviving_fiber_generators"])
    return payload, {"max_degree": result.bound}


def _run_split(args):
    if args.list:
        return {
            "scenarios": [{"name": name, "description": desc}
                          for name, (desc, _, _)
                          in sorted(fixtures.SPLITTING_SCENARIOS.items())],
        }, {"max_degree": None}
    if args.scenario:
        verdict = fixtures.run_splitting_scenario(args.scenario)
        payload = verdict.to_jsonable()
        payload["scenario"] = args.scenario
        payload["description"] = \
            fixtures.SPLITTING_SCENARIOS[args.scenario][0]
        return payload, {"max_degree": None}
    if args.criterion is None or args.b_connectivity is None \
            or args.fiber_top is None or args.trivial is None:
        raise InputError(
            "split needs --scenario NAME (see --list), or the explicit "
            "flags --criterion, --b-connectivity, --fiber-top, --trivial")
    flag = args.trivial == "yes"
    if args.criterion == "connecting":
        verdict = noetherian.splitting_by_connecting(
            args.b_connectivity, args.fiber_top, flag)
    else:
        verdict = noetherian.splitting_with_section(
            args.b_connectivity, args.fiber_top, flag,
            section_exists=not args.no_section)
    return verdict.to_jsonable(), {"max_degree": None}


def _run_padic(args):
    if (args.square is None) == (args.sum is None):
        raise InputError("padic needs exactly one of --square U or --sum N M")
    if args.square is not None:
        report = noetherian.is_square_int(args.p, args.square, args.precision)
        return report.to_jsonable(), {"max_degree": None}
    n, m = args.sum
    cert = noetherian.padic_sum_of_squares_nonzero(
        args.p, n, m, args.precision)
    return cert.to_jsonable(), {"max_degree": None}


def _run_poincare(args):
    entry = _resolve_catalog(args.catalog, args.entry)
    pres = entry.presentation(args.p)
    return {
        "catalog_entry": entry.name,
        "generator_degrees": entry.degrees(),
        "coeffs": expand(pres, args.max_degree).dims(),
    }, {"max_degree": args.max_degree}


_APPENDIX_FIXTURES = {
    "compatible": (fixtures.appendix_compatible,
                   "one polynomial generator acting on itself; "
                   "all corrections vanish"),
    "tensor": (fixtures.appendix_tensor,
               "rank-two free module with a twisted unit line; "
               "nonzero corrections get rewritten"),
    "tensor-untwisted": (lambda bound=10: fixtures.appendix_tensor(bound, False),
                         "rank-two free module with the plain tensor action"),
    "broken": (fixtures.appendix_broken,
               "operation tables that violate the projection contract"),
}


def _run_appendix(args):
    if args.fixture not in _APPENDIX_FIXTURES:
        raise InputError(
            f"unknown appendix fixture {args.fixture!r} "
            f"(available: {', '.join(sorted(_APPENDIX_FIXTURES))})")
    build, description = _APPENDIX_FIXTURES[args.fixture]
    data = build() if args.max_degree is None else build(args.max_degree)
    from .graded import appendix_generators
    result = appendix_generators(data["G"], data["B"], data["module_gens"],
                                 data["proj"], data["embed"])
    payload = result.to_jsonable()
    payload["fixture"] = args.fixture
    payload["description"] = description
    return payload, {"max_degree": data["bound"]}


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first ``main`` call and reused after;
    each ``parse_args`` call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="pnoether",
        description="Symbolic computations for mod-p loop-space cohomology: "
                    "Steenrod words, Eilenberg-MacLane generator tables, "
                    "transgressive spectral sequences, unstable-module Krull "
                    "degrees, and p-adic square certificates.")
    parser.add_argument("--version", action="version",
                        version=f"pnoether {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, p_default=2):
        sp.add_argument("--p", type=int, default=p_default,
                        help=f"prime (default {p_default})")
        sp.add_argument("--format", choices=("json", "table"),
                        default="json", help="output rendering")

    sp = sub.add_parser("adem", help="reduce a Steenrod word to admissible form")
    sp.add_argument("word", help='e.g. "Sq[2]Sq[2]" at p=2, "bP[0;1,1]bP[0;1,0]" odd')
    common(sp)

    sp = sub.add_parser("em", help="generator table of an Eilenberg-MacLane space")
    sp.add_argument("--space", required=True,
                    help='e.g. "K(Z,3)", "K(Z/4,2)", "K(Zpinf,2)", products with *')
    sp.add_argument("--max-degree", type=int, default=20)
    common(sp)

    sp = sub.add_parser("fmod", help="graded dimensions of a module expression")
    sp.add_argument("expression", help='e.g. "F(2)", "Sigma(F(1)) + Q1^2"')
    sp.add_argument("--max-degree", type=int, default=12)
    common(sp)

    sp = sub.add_parser("krull", help="Krull filtration degree of a module expression")
    sp.add_argument("expression")
    common(sp)

    sp = sub.add_parser("tq", help="reduced-T of the classifying-space indecomposables")
    sp.add_argument("group", help='e.g. "Z/4+Zpinf^2"')
    common(sp)

    sp = sub.add_parser("structure", help="structure fibration of a p-Noetherian group")
    sp.add_argument("group")
    sp.add_argument("--base", default=None,
                    help="catalog entry (or file) for the p-compact base cohomology")
    sp.add_argument("--entry", default=None)
    sp.add_argument("--pi1", type=int, default=1, help="order of pi_1 (p-power)")
    common(sp)

    sp = sub.add_parser("cover", help="cohomology of the 3-connected cover")
    sp.add_argument("--catalog", required=True,
                    help="built-in entry name (S3, BS3, X2b_4, X23, X30) or a JSON file path")
    sp.add_argument("--entry", default=None,
                    help="entry name when --catalog is a file")
    sp.add_argument("--max-degree", type=int, default=None,
                    help="default: 2*(top base degree) + |c| - 1, c the "
                         "killed class (degree 4, else 3)")
    common(sp)

    sp = sub.add_parser("split", help="fibration splitting verdicts")
    sp.add_argument("--scenario", default=None, help="named scenario (see --list)")
    sp.add_argument("--list", action="store_true", help="list available scenarios")
    sp.add_argument("--criterion", choices=("connecting", "section"), default=None)
    sp.add_argument("--b-connectivity", type=int, default=None)
    sp.add_argument("--fiber-top", type=int, default=None)
    sp.add_argument("--trivial", choices=("yes", "no"), default=None,
                    help="is the criterion's morphism trivial?")
    sp.add_argument("--no-section", action="store_true")
    common(sp)

    sp = sub.add_parser("padic", help="p-adic square tests and two-square certificates")
    sp.add_argument("--square", type=int, default=None,
                    help="integer to test for being a p-adic square")
    sp.add_argument("--sum", type=int, nargs=2, default=None,
                    metavar=("N", "M"),
                    help="certify that N+M=0 would force N=M=0 (squares only)")
    sp.add_argument("--precision", type=int, default=3,
                    help="p-adic precision exponent (mod p^precision)")
    common(sp, p_default=7)

    sp = sub.add_parser("poincare", help="Poincaré series of a catalog ring")
    sp.add_argument("--catalog", required=True)
    sp.add_argument("--entry", default=None)
    sp.add_argument("--max-degree", type=int, default=20)
    common(sp)

    sp = sub.add_parser("appendix", help="finite-generation certificates on a fixture")
    sp.add_argument("--fixture", default="tensor",
                    help=", ".join(sorted(_APPENDIX_FIXTURES)))
    sp.add_argument("--max-degree", type=int, default=None)
    common(sp)

    return parser


_HANDLERS = {
    "adem": _run_adem,
    "em": _run_em,
    "fmod": _run_fmod,
    "krull": _run_krull,
    "tq": _run_tq,
    "structure": _run_structure,
    "cover": _run_cover,
    "split": _run_split,
    "padic": _run_padic,
    "poincare": _run_poincare,
    "appendix": _run_appendix,
}


def _input_echo(args) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "format"}
    echo["p"] = getattr(args, "p", None)
    return echo


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    echo = _input_echo(args)
    verb = args.verb
    try:
        if hasattr(args, "p"):
            steenrod.check_prime(args.p)
        payload, bounds = _HANDLERS[verb](args)
    except PNoetherError as exc:
        error = {
            "code": exc.exit_code,
            "type": type(exc).__name__,
            "message": str(exc),
        }
        if hasattr(exc, "offset"):
            error["offset"] = exc.offset
        if getattr(exc, "gaps", None):
            error["gaps"] = [str(g) for g in exc.gaps]
        _emit(_report(verb, "error", "error", error, echo,
                      {"max_degree": getattr(args, "max_degree", None)}),
              args.format)
        return exc.exit_code
    _emit(_report(verb, "ok", "payload", payload, echo, bounds), args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
