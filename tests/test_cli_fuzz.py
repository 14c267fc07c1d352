"""Fuzz ``cli.run`` with argv drawn from the real subcommands.

Half of the examples are clean: every required flag is there and every
payload is well formed, with sizes inside and outside the documented
bounds.  The other half also draws junk text, malformed JSON, JSON of the
wrong type, missing or repeated flags and unreadable files.  Whatever
comes in, the run must end with exit 0, 1 or 2, raise nothing, and print
one JSON document on stdout when the exit code is 0 or 1.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from orbitopes.cli import run

JUNK = st.text(max_size=12)
HUGE = [10**6, 2**63, 10**30]
NESTED = "[" * 5000 + "]" * 5000  # deeper than the interpreter's recursion limit
BAD_PARTS = [0, -2, 1.5, "2", True, None, [1], {}]
BAD_RATIONALS = ["2/4", "1/0", "1.5", " 3 ", "1e2000000", "+3", "x", "9" * 5000, None, True, 1.5, [1]]


def wrong_json():
    """JSON that parses but has the wrong type or shape, or text that does not parse."""
    return st.one_of(
        st.sampled_from(['{"a": ', "[1, 2", "nan", "{}", "[]", "null", "true", "3", '"s"', "[[]]"]),
        st.just(NESTED),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        ).map(json.dumps),
        JUNK,
    )


class Payloads:
    """Strategies for flag values; a clean instance draws only well-formed ones."""

    def __init__(self, clean: bool):
        self.clean = clean

    def either(self, good, bad):
        return good if self.clean else st.one_of(good, bad)

    def size(self):
        """An integer flag: small, negative or huge; or, unclean, not an integer."""
        good = st.integers(-3, 12).map(str) | st.sampled_from(HUGE).map(str)
        return self.either(good, st.sampled_from(["1.5", "", "x", "0x10", "1e3", "true"]) | JUNK)

    def composition(self, top=5):
        """Parts up to ``top``, or compositions past the degree and chi bounds."""
        good = st.one_of(
            st.lists(st.integers(1, top), max_size=6),
            st.lists(st.integers(1, 60), min_size=1, max_size=6),
            st.lists(st.integers(1, 3) | st.sampled_from(HUGE), min_size=1, max_size=3),
        )
        return self.either(good, st.lists(st.integers(1, 3) | st.sampled_from(BAD_PARTS), min_size=1, max_size=4))

    def rational(self):
        good = st.one_of(
            st.integers(-9, 9),
            st.integers(-9, 9).map(str),
            st.fractions(-5, 5, max_denominator=6).map(str),
            st.sampled_from(HUGE),
        )
        return self.either(good, st.sampled_from(BAD_RATIONALS))

    def point(self):
        """label -> rational on up to 12 labels (the brute-force bound is 8)."""
        labels = st.sampled_from("abcdefghijkl")
        small = st.dictionaries(labels, st.integers(-3, 3).map(str), max_size=12)
        return small | st.dictionaries(labels, self.rational(), max_size=12)

    def functional(self, point):
        """On the point's labels, often with every label tied; or, unclean, any point."""
        if not isinstance(point, dict):
            return self.point()
        tied = st.sampled_from(["0", "1"]).map(lambda v: dict.fromkeys(point, v))
        levels = st.fixed_dictionaries({label: st.sampled_from(["0", "1", "2"]) for label in point})
        return self.either(tied | levels, self.point())

    def element(self):
        term = st.fixed_dictionaries({"coeff": self.rational(), "multiset": st.lists(self.composition(3), max_size=3)})
        loose = st.dictionaries(st.sampled_from(["coeff", "multiset", "x"]),
                                self.rational() | self.composition(), max_size=2)
        return st.lists(self.either(term, loose), max_size=3)

    def graded(self, key):
        """A series (key "coeff") or character (key "value") payload."""
        generator = st.lists(st.integers(1, 2), min_size=2, max_size=3)
        item = st.fixed_dictionaries({"composition": generator | self.composition(2), key: self.rational()})
        loose = st.dictionaries(st.sampled_from(["composition", key, "x"]),
                                self.rational() | self.composition(), max_size=2)
        degree = st.integers(0, 6) | st.sampled_from([13, 40, *HUGE])
        return st.fixed_dictionaries({
            "degree": self.either(degree, st.sampled_from([-1, True, "6", 2.0, None])),
            f"{key}s": self.either(st.lists(item, max_size=4), st.lists(loose, max_size=2) | self.rational()),
        })

    def inline(self, payload):
        return self.either(st.just(json.dumps(payload)), wrong_json())

    def file_contents(self, payload):
        return self.either(st.just(json.dumps(payload)), wrong_json() | st.just(b"\xff\xfe"))


# subcommand -> (flag, payload kind); "size" is an integer flag, "switch" takes no
# value, --char and --series payloads go through files.  selftest's --max-n is drawn
# from outside 3..8 only: each in-range run costs seconds, and test_cli.py covers it.
FLAGS = {
    "classify": [("--point", "point")],
    "vertices": [("--point", "point")],
    "maxface": [("--point", "point"), ("--functional", "functional")],
    "normeq": [("--point", "point"), ("--point", "point")],
    "delta": [("--composition", "composition"), ("--size", "size"), ("--sizes", "sizes")],
    "coproduct": [("--composition", "composition")],
    "antipode": [("--element", "element")],
    "chi": [("--composition", "composition"), ("--monomial", "switch")],
    "convolve": [("--char", "value"), ("--char", "value"), ("--degree", "size")],
    "series-mul": [("--series", "coeff"), ("--series", "coeff")],
    "series-inv": [("--series", "coeff")],
    "count": [("--n", "size")],
    "selftest": [("--max-n", "max_n")],
}
# flags given half of the time even in a clean draw; delta takes one of --size and --sizes
OPTIONAL = {"--size", "--sizes", "--degree", "--monomial"}


@st.composite
def argvs(draw, folder):
    clean = draw(st.booleans())
    p = Payloads(clean)
    command = draw(st.sampled_from(sorted(FLAGS)) if clean else st.sampled_from(sorted(FLAGS)) | JUNK)
    argv = [command]
    point = None
    for i, (flag, kind) in enumerate(FLAGS.get(command, [])):
        if (flag in OPTIONAL or not clean) and draw(st.booleans()):
            continue
        if kind == "switch":
            argv.append(flag)
        elif kind == "size":
            argv += [flag, draw(p.size())]
        elif kind == "max_n":
            argv += [flag, draw(p.either(st.sampled_from([-3, 0, 1, 2, 9, 12, *HUGE]).map(str), JUNK))]
        elif kind in ("value", "coeff"):
            path = folder / f"{flag[2:]}{i}.json"
            content = draw(p.file_contents(draw(p.graded(kind))))
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
            argv += [flag, str(draw(p.either(st.just(path), st.sampled_from([folder, folder / "missing.json"]))))]
        else:
            if kind == "sizes":
                payload = draw(st.lists(st.integers(-2, 6), max_size=4))
            elif kind == "functional":
                payload = draw(p.functional(point))
            else:
                payload = draw(getattr(p, kind)())
            point = payload
            argv += [flag, draw(p.inline(payload))]
    if not clean and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK | st.sampled_from(["--n", "--point", "-x"])))
    return argv


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_cli_run_never_crashes(data, tmp_path_factory):
    argv = data.draw(argvs(tmp_path_factory.mktemp("fuzz")), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        json.loads(out.getvalue())
