"""JSON-in, JSON-out command-line front end.

Every subcommand is a thin delegate to a library function; output is a
single JSON document on stdout.  Each handler imports only the modules
its function needs, so a request compiles no other part of the library.
Exit codes: 0 on success, 1 on a domain error (reported as an error JSON
on stdout), 2 on a usage or schema error (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .compositions import Composition


# largest degree the graded-algebra and series subcommands accept (a composition's weight,
# an element term's degree, a truncation degree); the work of antipode, convolve and series-inv
# grows exponentially with it, series-mul's with the pairs of input terms; coproduct has n + 1 terms
MAX_DEGREE = 12


class SchemaError(Exception):
    """Malformed payload; maps to exit code 2."""


def _check_degree_bound(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree bound exceeded: {degree} > {MAX_DEGREE}")


def _check_repeats(args) -> None:
    # every value flag is gathered into a list, so that a repeat is seen: each must be given as
    # often as its subcommand reads it, and a flag read once is then replaced by its one value
    for flag, count, noun, required, default in args.flags:
        dest = flag.replace("-", "_")
        values = getattr(args, dest) or []
        if len(values) > count or (required and len(values) < count):
            bound, number = ("exactly" if required else "at most"), ("one", "two")[count - 1]
            raise SchemaError(f"{args.command}: expected {bound} {number} --{flag} {noun}{'s' * (count > 1)}")
        if count == 1:
            setattr(args, dest, values[0] if values else default)


def _parse_json(text: str, what: str):
    def parse_int(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter converts
            count = len(digits.lstrip("-"))
            raise SchemaError(f"{what}: JSON integer of {count} digits, more than int() converts") from None

    def unique_keys(pairs: list) -> dict:
        # json.loads would keep the last of a repeated key
        data = dict(pairs)
        if len(data) != len(pairs):
            repeated = Counter(key for key, _ in pairs).most_common(1)[0][0]
            raise SchemaError(f"{what}: key {json.dumps(repeated)} is given twice")
        return data

    # RecursionError: nesting too deep
    try:
        return json.loads(text, parse_int=parse_int, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what}: invalid JSON ({exc})") from exc


def _payload(text: str, what: str, convert, **kwargs):
    # parse, then convert: a ValueError while reading the payload is a schema error on ``what``
    data = _parse_json(text, what)
    try:
        return convert(data, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _load(path: str, what: str, convert, **kwargs):
    # every error names the file; ValueError: a NUL in the path or bytes that are not UTF-8
    where = f"{what} {path}"
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise SchemaError(f"{where}: cannot read: {exc}") from exc
    return _payload(text, where, convert, **kwargs)


def _vertex_rows(ground, distinct, arrangements) -> list[dict]:
    # each distinct value is printed once; rank 0 is the largest value, so decreasing
    # rank tuples are the vertices in increasing lexicographic order of their values
    text = [str(v) for v in distinct]
    return [dict(zip(ground, map(text.__getitem__, r))) for r in sorted(arrangements, reverse=True)]


def cmd_classify(args) -> dict:
    from .geometry import Point, composition_of_point

    p = _payload(args.point, "point", Point.from_json)
    return {"composition": list(composition_of_point(p))}


def cmd_vertices(args) -> dict:
    from .geometry import Point, _orbit_ranks

    p = _payload(args.point, "point", Point.from_json)
    return {"vertices": _vertex_rows(p.ground, *_orbit_ranks(p))}


def cmd_maxface(args) -> dict:
    from .geometry import Point, _max_face_ranks

    # a functional has a point's shape
    p = _payload(args.point, "point", Point.from_json)
    y = _payload(args.functional, "functional", Point.from_json)
    if set(y.ground) != set(p.ground):
        raise SchemaError("functional: must be defined on exactly the point's labels")
    return {"vertices": _vertex_rows(p.ground, *_max_face_ranks(p, y))}


def cmd_normeq(args) -> dict:
    from .geometry import Point, normally_equivalent

    p, q = (_payload(text, "point", Point.from_json) for text in args.point)
    return {"normally_equivalent": normally_equivalent(p, q)}


def cmd_delta(args) -> dict:
    from .compositions import iterated_restrict, restrict_contract

    def integers(data) -> list:
        if not isinstance(data, list) or any(not isinstance(s, int) or isinstance(s, bool) for s in data):
            raise ValueError("expected a JSON array of integers")
        return data

    alpha = _payload(args.composition, "composition", Composition.from_json)
    if (args.size is None) == (args.sizes is None):
        raise SchemaError("delta: give exactly one of --size or --sizes")
    if args.size is not None:
        left, right = restrict_contract(alpha, args.size)
        return {"restricted": list(left), "contracted": list(right)}
    sizes = _payload(args.sizes, "sizes", integers)
    factors = iterated_restrict(alpha, sizes)
    return {"factors": [list(f) for f in factors]}


def cmd_coproduct(args) -> dict:
    from .hopf_algebra import coproduct, inject

    alpha = _payload(args.composition, "composition", Composition.from_json)
    _check_degree_bound(alpha.weight)
    terms = coproduct(inject(alpha))
    ordered = sorted(
        terms.coeffs.items(),
        key=lambda kv: (kv[0][0].degree, kv[0]),
    )
    return {
        "terms": [
            {
                "coeff": str(v),
                "left": [list(a) for a in left],
                "right": [list(a) for a in right],
            }
            for (left, right), v in ordered
        ]
    }


def cmd_antipode(args) -> dict:
    from .hopf_algebra import HopfElement, antipode

    x = _payload(args.element, "element", HopfElement.from_json)
    _check_degree_bound(max((gm.degree for gm in x.coeffs), default=0))
    return {"element": antipode(x).to_json()}


def cmd_chi(args) -> dict:
    from .invariants import chi

    alpha = _payload(args.composition, "composition", Composition.from_json)
    return chi(alpha).to_json(monomial=args.monomial)


def cmd_convolve(args) -> dict:
    from .characters import Character, char_to_series, convolve

    zeta, psi = (_load(path, "char", Character.from_json, degree=args.degree) for path in args.char)
    _check_degree_bound(min(zeta.degree, psi.degree))
    result = convolve(zeta, psi)
    return {"character": result.to_json(), "series": char_to_series(result).to_json()}


def _load_series(path: str):
    from .characters import NSymSeries

    f = _load(path, "series", NSymSeries.from_json)
    _check_degree_bound(f.degree)
    return f


def cmd_series_mul(args) -> dict:
    from .characters import series_mul

    f = _load_series(args.series[0])
    g = _load_series(args.series[1])
    return series_mul(f, g).to_json()


def cmd_series_inv(args) -> dict:
    from .characters import series_inverse

    f = _load_series(args.series)
    return series_inverse(f).to_json()


def cmd_count(args) -> dict:
    from .hopf_monoid import count_structures

    return {"count": count_structures(args.n)}


def cmd_selftest(args) -> dict:
    from .selftest import run_selftest

    return run_selftest(args.max_n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitopes",
        description="Exact calculations with orbit polytopes, compositions, and their Hopf structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn, flags=[])
        return p

    def flag(p, name, count=1, noun="argument", required=False, default=None, **kwargs):
        # a value flag read ``count`` times (at most once if optional), checked by _check_repeats
        p.add_argument(f"--{name}", action="append", required=required, **kwargs)
        p.get_default("flags").append((name, count, noun, required, default))

    p = add("classify", cmd_classify, help="composition of a point")
    flag(p, "point", required=True, help="JSON object label -> rational")

    p = add("vertices", cmd_vertices, help="orbit vertices of a point")
    flag(p, "point", required=True)

    p = add("maxface", cmd_maxface, help="vertices maximizing a functional")
    flag(p, "point", required=True)
    flag(p, "functional", required=True, help="JSON object label -> rational")

    p = add("normeq", cmd_normeq, help="normal equivalence of two points")
    flag(p, "point", 2, required=True, help="give twice")

    p = add("delta", cmd_delta, help="cut a composition by weight(s)")
    flag(p, "composition", required=True, help="JSON array of parts")
    flag(p, "size", type=int, help="single cut weight")
    flag(p, "sizes", help="JSON array of piece weights")

    p = add("coproduct", cmd_coproduct, help="coproduct of a composition class")
    flag(p, "composition", required=True)

    p = add("antipode", cmd_antipode, help="antipode of an algebra element")
    flag(p, "element", required=True, help="JSON array of {coeff, multiset} terms")

    p = add("chi", cmd_chi, help="polynomial invariant of a composition class")
    flag(p, "composition", required=True)
    p.add_argument("--monomial", action="store_true", help="also expand in the monomial basis")

    p = add("convolve", cmd_convolve, help="convolve two characters from files")
    flag(p, "char", 2, "file", required=True, help="path to a character JSON file; give twice")
    flag(p, "degree", type=int, help="overrides each file's degree")

    p = add("series-mul", cmd_series_mul, help="multiply two ribbon series from files")
    flag(p, "series", 2, "file", required=True, help="give twice")

    p = add("series-inv", cmd_series_inv, help="invert a ribbon series from a file")
    flag(p, "series", 1, "file", required=True)

    p = add("count", cmd_count, help="number of classes on n labels")
    flag(p, "n", type=int, required=True)

    p = add("selftest", cmd_selftest, help="run the oracle-equivalence suites")
    flag(p, "max-n", type=int, default=5)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_repeats(args)
        payload = args.fn(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    print(json.dumps(payload))
    if args.command == "selftest" and payload.get("failed"):
        return 1
    return 0


def main() -> None:
    sys.exit(run())
