"""Command-line front end.

Subcommands:
  enumerate   list all valid structures on a spec, cross-checked against
              the regular-subgroup count in Hol(G) when feasible
  verify      run one of the exact verification suites
              (lattice | conjugation | elementary | primitive | cyclic)
  report      counting table: sub-Hopf avatars vs intermediate-field avatars

JSON output (the payload and the exit-4 witness) is the bytes of json.dumps(
indent=2, sort_keys=True), written by `_json_text`, not json's indenting encoder:
it matches exact types, joins a list of ints at once, and writes a tuple or dict it
meets again by identity (the search's shared rows, enumerate's one spec) once
per depth.

Every command but enumerate runs one loop, `_certify`: each structure that
`_resolve_structures` draws gets one Context, which the command's check reads;
a structure that fails the Context's validation is a violation (exit 4).

Exit codes: 0 success, 2 input/config error, 3 cap exceeded,
4 verified identity failed (witness on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import abelian, correspondence, holomorph, nilring
from .abelian import GroupSpec
from .correspondence import Context
from .errors import CapExceeded, InputError, TheoremViolation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VIOLATION = 4


# the options each command or verify check reads; --format and --out are
# read by all
_STRUCTURES = {"p", "exp", "n", "family", "d", "all_d", "all_structures", "cap_enum", "cap_search"}
_READS = {
    "enumerate": {"p", "exp", "n", "cap_search", "cap_hol"},
    "report": _STRUCTURES,
    "verify lattice": _STRUCTURES,
    "verify conjugation": _STRUCTURES,
    "verify elementary": {"p", "exp", "n", "cap_enum", "cap_search"},
    "verify primitive": {"p", "n", "family", "all_structures", "cap_enum"},
    "verify cyclic": _STRUCTURES - {"exp"},
}


class _Typed(argparse.Action):
    """store, or store_true with nargs=0, that also appends the option to the
    namespace's `typed`: an option counts as given when it is typed, even
    at its default value."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        namespace.typed = (*namespace.typed, self.dest)


def _add_common(parser):
    parser.set_defaults(typed=())
    parser.add_argument("--p", type=_int_option, action=_Typed, help="the prime")
    parser.add_argument("--exp", type=str, action=_Typed, help="comma-separated exponents, e.g. 2,1")
    parser.add_argument("--n", type=_int_option, action=_Typed, help="shorthand: n cyclic factors C_p (or the cyclic exponent for the cyclic family)")
    parser.add_argument("--family", type=str, action=_Typed, help="trivial | primitive | cyclic:d | enumerate | fixture:klein")
    parser.add_argument("--d", type=_int_option, action=_Typed, help="parameter of the cyclic family")
    parser.add_argument("--all-d", action=_Typed, nargs=0, default=False, help="scan every d in [0, p^(n-1))")
    parser.add_argument("--all-structures", action=_Typed, nargs=0, default=False, help="scan every enumerated structure on the spec")
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--out", type=str, help="output path (default: stdout)")
    parser.add_argument("--cap-enum", type=_int_option, action=_Typed, default=abelian.DEFAULT_ENUM_CAP)
    parser.add_argument("--cap-search", type=_int_option, action=_Typed, default=nilring.DEFAULT_SEARCH_CAP)
    parser.add_argument("--cap-hol", type=_int_option, action=_Typed, default=holomorph.DEFAULT_HOL_CAP)


def _reject_unread(args, reader, reads, options=None):
    """The first option typed (of `options`, if given) for a reader that does
    not read it is an input error, whatever its value."""
    for dest in args.typed:
        if dest not in reads and (options is None or dest in options):
            raise InputError(f"{reader} does not read --{dest.replace('_', '-')}")


_ECHO = 32  # characters of a rejected value that its error message repeats


def _parse_int(text, what) -> int:
    """int(text), else InputError, echoing at most _ECHO characters of text.
    Python's int-from-str digit limit raises the same ValueError as a
    malformed text, so a text longer than that limit is called too long."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= _ECHO else f"{text[:_ECHO]!r}... ({len(text)} characters)"
        limit = sys.get_int_max_str_digits()
        if limit and len(text) > limit:
            raise InputError(f"{what} is too long for an integer of at most {limit} digits, "
                             f"got {shown}") from None
        raise InputError(f"{what} must be an integer, got {shown}") from None


def _int_option(text) -> int:
    """`_parse_int` as an argparse type: argparse prints an ArgumentTypeError
    as it is, with its usage line and exit 2, but echoes a ValueError's text."""
    try:
        return _parse_int(text, "value")
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_spec(args, cyclic_n=False) -> GroupSpec:
    if args.p is None:
        raise InputError("--p is required")
    if args.exp is not None and args.n is not None:
        raise InputError("--exp conflicts with --n")
    if args.exp is not None:
        return GroupSpec(args.p, tuple(_parse_int(x, "--exp entry") for x in args.exp.split(",")))
    if args.n is not None:
        return GroupSpec(args.p, (args.n,)) if cyclic_n else abelian._elementary(args.p, args.n)
    raise InputError("one of --exp or --n is required")


def _resolve_structures(args, family, cyclic_n=False):
    """(label, structure) pairs selected by family / --all-structures; the
    cyclic family's are built one at a time, so a cap stops them at the first.
    An --all-structures beside another family, or a --family other than the
    one the caller asks for, is an input error, and so is a --p, --exp, --n,
    --d, --all-d or --cap-search that a known family does not read (with
    cyclic_n, the caller reads --p and --n itself, for Z/p^n)."""
    if args.all_structures:
        if family not in (None, "enumerate"):
            raise InputError(f"--all-structures conflicts with family {family}")
        family = "enumerate"
    if args.family is not None and args.family != family:
        raise InputError(f"--family {args.family} conflicts with family {family}")
    reads = {"fixture:klein": {"p", "n"} if cyclic_n else set(), "trivial": {"p", "exp", "n"},
             "enumerate": {"p", "exp", "n", "cap_search"}, "primitive": {"p", "n"}}
    if family is not None and family.partition(":")[0] == "cyclic":
        reads[family] = {"p", "n"} | (set() if ":" in family else {"all_d" if args.all_d else "d"})
    if family in reads:
        _reject_unread(args, f"family {family}", reads[family], ("p", "exp", "n", "d", "all_d", "cap_search"))
    if family == "fixture:klein":
        return [("fixture:klein", correspondence.klein_four_ring())]
    if family == "enumerate":
        spec = _parse_spec(args, cyclic_n)
        return [
            (f"enumerated[{i}]", A)
            for i, A in enumerate(nilring.enumerate_structures(spec, args.cap_search))
        ]
    if family == "trivial":
        return [("trivial", nilring.trivial_structure(_parse_spec(args, cyclic_n)))]
    if family == "primitive":
        if args.p is None or args.n is None:
            raise InputError("primitive family requires --p and --n")
        return [("primitive", nilring.primitive_structure(args.p, args.n))]
    if family is not None and family.partition(":")[0] == "cyclic":
        if args.p is None or args.n is None:
            raise InputError("cyclic family requires --p and --n")
        if args.n < 1:
            raise InputError("n must be >= 1")
        if ":" in family:
            ds = [_parse_int(family.split(":", 1)[1], "cyclic family parameter d")]
        elif args.all_d:
            # d = 0 runs the spec's range check before p^(n-1) = |G|/p
            ds = range(nilring.cyclic_structure(args.p, args.n, 0).spec.order // args.p)
        elif args.d is not None:
            ds = [args.d]
        else:
            raise InputError("cyclic family requires :d, --d, or --all-d")
        return ((f"cyclic:{d}", nilring.cyclic_structure(args.p, args.n, d)) for d in ds)
    raise InputError(f"cannot resolve structures from family={family!r}")


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, by joins, not
    json's pure-Python indenting encoder.  Types are matched exactly, so a
    subclass (an IntEnum, a namedtuple, an OrderedDict, a dict with a str
    subclass key), a float, a dict with a key that is not a str and any other
    type are left to json, indented to their depth (JSON text has no raw newline
    in a string).  A list or tuple of ints is one join.  A tuple's or dict's
    text is built once per depth and call, keyed by its identity and kept with
    it: by value, (True,) is (1,).  Each key's text is built once per call."""
    memo, key_text = {}, functools.cache(encode_basestring_ascii)

    def write(x, indent):
        kind = type(x)
        if (kind is tuple or kind is dict) and (id(x), indent) in memo:
            return memo[id(x), indent][1]
        if kind is int:
            return int.__repr__(x)
        if kind is str:
            return encode_basestring_ascii(x)
        if x is None or x is True or x is False:
            return "null" if x is None else "true" if x else "false"
        inner = indent + "  "
        if kind is list or kind is tuple:
            items = map(int.__repr__, x) if set(map(type, x)) == {int} else [write(v, inner) for v in x]
            text = f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]" if x else "[]"
            if kind is tuple:
                memo[id(x), indent] = x, text
            return text
        if kind is dict and set(map(type, x)) <= {str}:
            items = [f"{key_text(k)}: {write(v, inner)}" for k, v in sorted(x.items())]
            text = f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}" if x else "{}"
            memo[id(x), indent] = x, text
            return text
        return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + indent)

    return write(obj, "")


def _emit(args, payload, table_lines):
    if args.format == "json":
        text = _json_text(payload) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    spec = _parse_spec(args)
    structures = nilring.enumerate_structures(spec, args.cap_search)
    spec_json = spec.to_json()  # one object, which `_json_text` writes once per depth
    payload = {
        "spec": spec_json,
        "structure_count": len(structures),
        # `RingStructure.to_json`, each with the one spec
        "structures": [{"spec": spec_json, "constants": A.constants} for A in structures],
    }
    try:
        regular, abelian_regular = holomorph.regular_subgroup_counts(spec, args.cap_hol)
    except CapExceeded:  # |Hol(G)| above --cap-hol: no cross-check
        payload["regular_subgroup_count"] = None
        payload["abelian_regular_subgroup_count"] = None
        payload["counts_match"] = None
    else:
        payload["regular_subgroup_count"] = regular
        payload["abelian_regular_subgroup_count"] = abelian_regular
        payload["counts_match"] = abelian_regular == len(structures)
        if not payload["counts_match"]:
            raise TheoremViolation(
                "structure count differs from regular-subgroup count",
                witness=payload,
            )
    lines = [f"spec            {spec}", f"structures      {len(structures)}"]
    if payload["regular_subgroup_count"] is not None:
        lines.append(f"regular subgrps {payload['regular_subgroup_count']}")
        lines.append(f"abelian regular {payload['abelian_regular_subgroup_count']}")
        lines.append(f"counts match    {payload['counts_match']}")
    _emit(args, payload, lines)
    return EXIT_OK


def _certify(args, family, check, cyclic_n=False) -> list:
    """The rows of check(label, ctx) over the structures: it raises
    TheoremViolation when a prediction fails, and returns None to skip one."""
    rows = []
    for label, A in _resolve_structures(args, family, cyclic_n):
        try:  # the Context compares the cap first, so its InputError is its validation
            ctx = Context(A, args.cap_enum)
        except InputError:
            kind = (family or "enumerate").partition(":")[0]
            raise TheoremViolation(f"{kind}-family structure failed validation", witness=A.to_json()) from None
        rows.append(check(label, ctx))
    return [row for row in rows if row is not None]


def _verify_lattice(args) -> dict:
    def check(label, ctx):
        report = correspondence.lattice_report(ctx)
        ideal_count = len(report.ideals)
        # with A^2 = 0 every subgroup is an ideal: Butler's count shares no code with the walk
        if ctx.ring.is_trivial() and ideal_count != (butler := abelian.subgroup_count(ctx.spec.p, ctx.spec.exponents)):
            raise TheoremViolation("ideal count of A^2 = 0 differs from the subgroup count",
                                   witness={"structure": label, "ideal_count": ideal_count, "subgroup_count": butler})
        return {
            "structure": label,
            "ideal_count": ideal_count,
            "gamma_subgroup_count": report.gamma_subgroup_count,
            "strong_ftgt": report.strong_ftgt,
            "circle_type": list(report.circle_type),
        }

    rows = _certify(args, args.family, check)
    return {"check": "lattice", "structures_checked": len(rows), "rows": rows}


def _check_translation(ctx, g) -> None:
    """TheoremViolation, naming g, unless the Context's table of alpha(g) is
    x -> g + x, built here by `abelian._add`, sharing no code with
    `_translation_perm`.  The conjugation report reads alpha only through
    `Context.additive_translation_perm`, which keeps each table in
    `_alpha_cache`: a row's alpha(z), alpha(b) and alpha(h_b) (on its
    fallback, alpha(g) and alpha(h) for every g), and the Hol(G) row's
    alpha(beta.a) and alpha(beta^{-1}.a).  Once each equals its translation,
    the report's homomorphism in g is that of true translations, so its
    |G|^2 verdict stands; a table no verdict reads changes no output."""
    expected = tuple(map(ctx.index.__getitem__, map(functools.partial(abelian._add, ctx.spec, g), ctx.elements)))
    if ctx._alpha_cache[g] != expected:
        raise TheoremViolation("additive translation is not x -> g + x", witness={"g": list(g)})


def _verify_conjugation(args) -> dict:
    checked = {}  # the g checked per spec, keyed by the source's first spec object

    def check(label, ctx):
        report = correspondence.holomorph_conjugation_report(ctx)
        # every table the report read, before its failures are raised; each g
        # once per spec, as `_translation_perm` is a pure function of (spec, g)
        done = checked.setdefault(ctx.spec, set())
        for g in ctx._alpha_cache:
            if g not in done:
                done.add(g)
                _check_translation(ctx, g)
        if report["failures"]:
            raise TheoremViolation("conjugation identities failed", witness=report["failures"])
        return {"structure": label, "pairs_checked": report["pairs_checked"]}

    rows = _certify(args, args.family, check)
    return {"check": "conjugation", "structures_checked": len(rows), "rows": rows}


def _verify_elementary(args) -> dict:
    spec = _parse_spec(args)
    if any(e != 1 for e in spec.exponents):
        raise InputError("scan requires an elementary abelian spec")

    def check(label, ctx):
        if any(e != 1 for e in ctx.circle_type):
            return None
        report = correspondence.lattice_report(ctx)
        expected = ctx.ring.is_trivial()
        if report.strong_ftgt != expected:
            raise TheoremViolation(
                "strong correspondence verdict contradicts the A^2 = 0 criterion",
                witness={
                    "structure": ctx.ring.to_json(),
                    "strong_ftgt": report.strong_ftgt,
                },
            )
        return {
            "constants": ctx.ring.to_json()["constants"],
            "trivial": expected,
            "strong_ftgt": report.strong_ftgt,
            "ideal_count": len(report.ideals),
            "gamma_subgroup_count": report.gamma_subgroup_count,
        }

    rows = _certify(args, "enumerate", check)
    return {"check": "elementary", "spec": spec.to_json(), "structures_scanned": len(rows), "rows": rows}


def _verify_primitive(args) -> dict:
    def check(label, ctx):
        ideal_list = correspondence.ideals(ctx)
        sizes = [s.size for s in ideal_list]
        chain = all(
            set(a.elements) <= set(b.elements)
            for a, b in zip(ideal_list, ideal_list[1:])
        )
        if len(ideal_list) != args.n + 1 or not chain:
            raise TheoremViolation(
                "one-generator structure does not have a chain of n+1 ideals",
                witness={"ideal_sizes": sizes, "chain": chain},
            )
        return {"ideal_count": len(ideal_list), "ideal_sizes": sizes, "single_chain": chain}

    [row] = _certify(args, "primitive", check)
    return {"check": "primitive", "p": args.p, "n": args.n, **row}


def _verify_cyclic(args) -> dict:
    if args.p is None or args.n is None:
        raise InputError("cyclic verification requires --p and --n")
    if args.p == 2:
        raise InputError("cyclic verification requires an odd prime")
    spec = GroupSpec(args.p, (args.n,))
    if spec.order > args.cap_enum:
        raise CapExceeded(f"|G| = {spec.order} exceeds enumeration cap {args.cap_enum}")
    # the subgroups of Z/p^n, in closed form: the chain p^j Z/p^n, j = n, ..., 0
    sub_sets = [tuple((x,) for x in range(0, spec.order, args.p**j))
                for j in range(args.n, -1, -1)]

    def check(label, ctx):
        # before its lattice report; a family has one spec, so the first decides
        if ctx.spec != spec:
            raise InputError(f"cyclic verification requires structures on Z/p^n = {spec}")
        report = correspondence.lattice_report(ctx)
        if [s.elements for s in report.ideals] != sub_sets:
            raise TheoremViolation(
                "ideals of the cyclic-family structure are not all additive subgroups",
                witness={"structure": ctx.ring.to_json()},
            )
        if not report.strong_ftgt:
            raise TheoremViolation(
                "strong correspondence fails for a cyclic-family structure",
                witness={"structure": ctx.ring.to_json()},
            )
        return {
            "structure": label,
            "ideal_count": len(report.ideals),
            "strong_ftgt": report.strong_ftgt,
        }

    family = "cyclic" if args.family is None and not args.all_structures else args.family
    rows = _certify(args, family, check, cyclic_n=True)
    return {
        "check": "cyclic",
        "p": args.p,
        "n": args.n,
        "d_count": len(rows),
        "rows": rows,
    }


_VERIFY = {
    "lattice": _verify_lattice,
    "conjugation": _verify_conjugation,
    "elementary": _verify_elementary,
    "primitive": _verify_primitive,
    "cyclic": _verify_cyclic,
}


def cmd_verify(args) -> int:
    payload = _VERIFY[args.check](args)
    payload["status"] = "pass"
    lines = [f"check   {payload['check']}", "status  pass"]
    for key in sorted(payload):
        if key in ("check", "status", "rows"):
            continue
        lines.append(f"{key:<22} {payload[key]}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_report(args) -> int:
    def check(label, ctx):
        ideal_count = len(correspondence.ideals(ctx))
        subfields = correspondence.circle_subgroup_count(ctx)
        return {
            "family": label,
            "spec": ctx.spec.to_json(),
            "circle_type": list(ctx.circle_type),
            "subhopf_count": ideal_count,
            "subfield_count": subfields,
            # circle_subgroup_count counts every type in closed form
            "count_method": "formula",
            "strong_ftgt": ideal_count == subfields,
        }

    rows = _certify(args, args.family, check)
    payload = {"rows": rows}
    table = [["family", "spec", "circle type", "subHopf", "subfields", "strong", "method"]] + [
        [r["family"], f"p={r['spec']['p']} exp=" + "x".join(map(str, r["spec"]["exponents"])),
         *map(str, (r["circle_type"], r["subhopf_count"], r["subfield_count"], r["strong_ftgt"])),
         r["count_method"]] for r in rows]
    # each column as wide as its default or its longest cell plus one
    widths = [max(w, *(len(texts[i]) + 1 for texts in table)) for i, w in enumerate((16, 16, 14, 8, 10, 8))]
    formats = [align + str(w) for align, w in zip("<<<>>>", widths)]
    lines = ["".join(map(format, texts, formats)) + "  " + texts[-1] for texts in table]
    lines.insert(1, "-" * len(lines[0]))
    _emit(args, payload, lines)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser `main` reads, built once per process on first use (about
    a millisecond), not at import; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hopfgal",
        description="Exact verification of the ideal / invariant-subgroup correspondence for nilpotent structures on abelian p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate structures on a spec")
    _add_common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("check", choices=sorted(_VERIFY))
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="counting table for a family")
    _add_common(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command = f"verify {args.check}" if args.command == "verify" else args.command
        _reject_unread(args, command, _READS[command])
        for dest in ("cap_enum", "cap_search", "cap_hol"):
            if getattr(args, dest) < 0:
                raise InputError(f"--{dest.replace('_', '-')} must be >= 0")
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except TheoremViolation as exc:
        print(f"verified identity failed: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(_json_text(exc.witness), file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
