import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitopes import geometry
from orbitopes.cli import MAX_DEGREE, run
from orbitopes.characters import Character, NSymSeries, char_to_series, convolve, series_inverse, series_mul
from orbitopes.compositions import Composition
from orbitopes.geometry import GroundSet, Point
from orbitopes.hopf_algebra import HopfElement, antipode, inject
from orbitopes.hopf_monoid import COUNT_MAX_N
from orbitopes.invariants import CHI_MAX_WEIGHT, chi
from orbitopes.selftest import egf_counts, run_selftest
from oracles import naive_max_face, permutation_vertices, points_sorted

C = Composition

POINT = '{"a":"1","b":"3","c":"1","d":"6","e":"6","f":"0","g":"2","h":"1"}'


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_worked_example(capsys):
    code, out, _ = invoke(capsys, "classify", "--point", POINT)
    assert code == 0
    assert json.loads(out) == {"composition": [2, 1, 1, 3, 1]}


def test_vertices(capsys):
    code, out, _ = invoke(capsys, "vertices", "--point", '{"x":"1","y":"1","z":"0"}')
    assert code == 0
    got = json.loads(out)["vertices"]
    assert len(got) == 3
    assert {"x": "1", "y": "1", "z": "0"} in got


def test_vertices_size_bound(capsys, monkeypatch):
    point = json.dumps({str(i): "1" if i else "0" for i in range(9)})
    code, out, _ = invoke(capsys, "vertices", "--point", point)
    assert code == 1 and "bound" in json.loads(out)["error"]

    monkeypatch.setattr(geometry, "BRUTE_FORCE_BOUND", 9)
    code, out, _ = invoke(capsys, "vertices", "--point", point)
    assert code == 0 and len(json.loads(out)["vertices"]) == 9


def test_maxface(capsys):
    code, out, _ = invoke(
        capsys, "maxface",
        "--point", '{"a":"2","b":"2","c":"1","d":"0"}',
        "--functional", '{"a":"1","b":"0","c":"1","d":"1"}',
    )
    assert code == 0
    got = json.loads(out)["vertices"]
    assert got == [
        {"a": "1", "b": "0", "c": "2", "d": "2"},
        {"a": "2", "b": "0", "c": "1", "d": "2"},
        {"a": "2", "b": "0", "c": "2", "d": "1"},
    ]


def cli_stdout(capsys, *argv) -> str:
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, ""), err
    return out


def test_vertices_and_maxface_print_the_sorted_oracle(capsys):
    # few distinct values per point, so ties are common; labels out of lexicographic order
    rng = random.Random(2020)
    for _ in range(60):
        n = rng.randint(0, 7)
        pool = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, n or 1))]
        labels = rng.sample("zyxwvutsrq", n)
        p = Point.from_values(GroundSet(labels), [rng.choice(pool) for _ in labels])
        y = {l: Fraction(rng.randint(-2, 2)) for l in labels}
        point, functional = json.dumps(p.to_json()), json.dumps({l: str(v) for l, v in y.items()})
        expected = json.dumps({"vertices": points_sorted(permutation_vertices(p))}) + "\n"
        assert cli_stdout(capsys, "vertices", "--point", point) == expected, point
        expected = json.dumps({"vertices": points_sorted(naive_max_face(p, y))}) + "\n"
        assert cli_stdout(capsys, "maxface", "--point", point, "--functional", functional) == expected


def test_vertices_and_maxface_at_the_bound_print_the_sorted_oracle(capsys):
    # 8 distinct coordinates: every vertex is on the face of the zero functional
    values = ["7", "-1/2", "3", "0", "5/3", "-4", "2", "11/7"]
    labels = "hgfedcba"
    p = Point.from_values(GroundSet(labels), map(Fraction, values))
    point = json.dumps(dict(zip(labels, values)))
    expected = json.dumps({"vertices": points_sorted(permutation_vertices(p))}) + "\n"
    assert cli_stdout(capsys, "vertices", "--point", point) == expected
    # a constant functional has one level set: its face is the whole orbit, byte for byte
    for constant in ("0", "-5/2"):
        functional = json.dumps(dict.fromkeys(labels, constant))
        assert cli_stdout(capsys, "maxface", "--point", point, "--functional", functional) == expected


def test_normeq(capsys):
    code, out, _ = invoke(
        capsys, "normeq",
        "--point", '{"a":"1","b":"1","c":"0"}',
        "--point", '{"a":"7","b":"7","c":"-2"}',
    )
    assert code == 0 and json.loads(out) == {"normally_equivalent": True}

    code, out, _ = invoke(
        capsys, "normeq",
        "--point", '{"a":"1","b":"0","c":"0"}',
        "--point", '{"a":"1","b":"1","c":"0"}',
    )
    assert code == 0 and json.loads(out) == {"normally_equivalent": False}


def test_normeq_needs_two_points(capsys):
    code, _, err = invoke(capsys, "normeq", "--point", '{"a":"1"}')
    assert code == 2 and "two" in err


def data_files(tmp_path) -> dict:
    """Paths of a valid character and series file, and of three malformed ones."""
    files = {
        "CHAR": Character.basic(2).to_json(),
        "SERIES": char_to_series(Character.basic(2)).to_json(),
        "CHAR_VALUE_5": {"degree": 4, "values": [5]},
        "SERIES_COEFF_5": {"degree": 4, "coeffs": [5]},
        "CHAR_NO_DEGREE": {"values": [{"composition": [1], "value": "1"}]},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    return {name: str(tmp_path / name) for name in files}


P1, P2 = '{"a":"1","b":"0"}', '{"a":"2","b":"0"}'


@pytest.mark.parametrize("argv, message", [
    (["classify", "--point", '{"a":"1"}', "--point", "garbage"], "classify: expected exactly one --point argument"),
    (["vertices", "--point", P1, "--point", P2], "vertices: expected exactly one --point argument"),
    (["maxface", "--point", P1, "--point", P2, "--functional", P1], "maxface: expected exactly one --point argument"),
    (["normeq", "--point", P1, "--point", P2, "--point", P1], "normeq: expected exactly two --point arguments"),
    (["convolve", "--char", "CHAR", "--char", "CHAR", "--char", "CHAR"], "convolve: expected exactly two --char files"),
    (["series-mul", "--series", "SERIES"], "series-mul: expected exactly two --series files"),
    (["series-inv", "--series", "SERIES", "--series", "MISSING"], "series-inv: expected exactly one --series file"),
    # every value flag, not only the ones read more than once: a repeat is refused, not overwritten
    (["maxface", "--point", P1, "--functional", P1, "--functional", P2], "maxface: expected exactly one --functional argument"),
    (["delta", "--composition", "[1]", "--composition", "[2]", "--size", "1"], "delta: expected exactly one --composition argument"),
    (["delta", "--composition", "[2]", "--size", "1", "--size", "2"], "delta: expected at most one --size argument"),
    (["delta", "--composition", "[2]", "--sizes", "[2]", "--sizes", "[1,1]"], "delta: expected at most one --sizes argument"),
    (["coproduct", "--composition", "[1]", "--composition", "[2]"], "coproduct: expected exactly one --composition argument"),
    (["antipode", "--element", "[]", "--element", "[]"], "antipode: expected exactly one --element argument"),
    (["chi", "--composition", "[1]", "--composition", "[2,1]"], "chi: expected exactly one --composition argument"),
    (["convolve", "--char", "CHAR", "--char", "CHAR", "--degree", "2", "--degree", "3"], "convolve: expected at most one --degree argument"),
    (["count", "--n", "3", "--n", "4"], "count: expected exactly one --n argument"),
    (["selftest", "--max-n", "2", "--max-n", "3"], "selftest: expected at most one --max-n argument"),
])
def test_repeated_flag_count(tmp_path, capsys, argv, message):
    paths = dict(data_files(tmp_path), MISSING=str(tmp_path / "missing.json"))
    code, out, err = invoke(capsys, *[paths.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# a payload that is not a JSON object gets the one shape-neutral message of the point reader
NOT_AN_OBJECT = {
    "[1]": "error: functional: expected a JSON object of label -> rational, got [1]\n",
    "[1,2]": "error: point: expected a JSON object of label -> rational, got [1, 2]\n",
}


@pytest.mark.parametrize("argv, field", [
    (["maxface", "--point", P1, "--functional", "[1]"], "functional"),
    (["maxface", "--point", P1, "--functional", '{"a":"x","b":"1"}'], "functional"),
    (["maxface", "--point", P1, "--functional", '{"a":"1"}'], "functional"),
    (["delta", "--composition", "[1,2]", "--sizes", "[1, true]"], "sizes"),
    (["convolve", "--char", "CHAR"], "convolve"),
    (["convolve", "--char", "CHAR_VALUE_5", "--char", "CHAR_VALUE_5"], "char"),
    (["series-inv", "--series", "SERIES_COEFF_5"], "series"),
    (["antipode", "--element", "{}"], "element"),
    (["classify", "--point", "[1,2]"], "point"),
    (["classify", "--point", '{"a": 1.5}'], "point"),
    (["classify", "--point", '{"a": null}'], "point"),
    # "degree" is required, also where --degree overrides it
    (["convolve", "--char", "CHAR_NO_DEGREE", "--char", "CHAR_NO_DEGREE"], "char"),
    (["convolve", "--char", "CHAR_NO_DEGREE", "--char", "CHAR_NO_DEGREE", "--degree", "2"], "char"),
    # so does a file that cannot be read
    (["convolve", "--char", "MISSING", "--char", "CHAR"], "char"),
    (["series-inv", "--series", "MISSING"], "series"),
])
def test_schema_error_names_its_field(tmp_path, capsys, argv, field):
    paths = dict(data_files(tmp_path), MISSING=str(tmp_path / "missing.json"))
    code, out, err = invoke(capsys, *[paths.get(a, a) for a in argv])
    # a file's field is named with the file's path
    if field in ("char", "series"):
        field = f"{field} {paths[argv[2]]}"
    assert code == 2 and out == "" and err.startswith(f"error: {field}:"), err
    if argv[-1] in NOT_AN_OBJECT:
        assert err == NOT_AN_OBJECT[argv[-1]]


def test_delta_single_and_iterated(capsys):
    code, out, _ = invoke(capsys, "delta", "--composition", "[2,1,1,3,1]", "--size", "4")
    assert code == 0
    assert json.loads(out) == {"restricted": [2, 1, 1], "contracted": [3, 1]}

    code, out, _ = invoke(capsys, "delta", "--composition", "[1,2,1]", "--sizes", "[2,2]")
    assert code == 0
    assert json.loads(out) == {"factors": [[1, 1], [1, 1]]}


def test_delta_on_a_huge_part_builds_one_cut(capsys):
    # delta has no weight bound: a single cut must cost O(number of parts)
    code, out, _ = invoke(capsys, "delta", "--composition", "[1000000000]", "--size", "1")
    assert code == 0
    assert json.loads(out) == {"restricted": [1], "contracted": [999999999]}

    code, out, _ = invoke(capsys, "delta", "--composition", "[1000000000]", "--sizes", "[1, 999999999]")
    assert code == 0
    assert json.loads(out) == {"factors": [[1], [999999999]]}


def test_delta_domain_error_is_exit_1(capsys):
    code, out, _ = invoke(capsys, "delta", "--composition", "[1,2,1]", "--size", "9")
    assert code == 1
    assert "error" in json.loads(out)


def test_delta_flag_schema(capsys):
    code, _, err = invoke(capsys, "delta", "--composition", "[1,2,1]")
    assert code == 2 and "exactly one" in err


def test_coproduct_matches_library(capsys):
    code, out, _ = invoke(capsys, "coproduct", "--composition", "[1,2,1]")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert [t["coeff"] for t in terms] == ["1", "4", "6", "4", "1"]
    assert terms[1] == {"coeff": "4", "left": [[1]], "right": [[2, 1]]}
    assert len(terms) == 5


def test_antipode_cli_equals_library(capsys):
    x = inject(C((1, 1)))
    code, out, _ = invoke(capsys, "antipode", "--element", json.dumps(x.to_json()))
    assert code == 0
    got = HopfElement.from_json(json.loads(out)["element"])
    assert got == antipode(x)


def test_chi_cli(capsys):
    code, out, _ = invoke(capsys, "chi", "--composition", "[1,2,1]", "--monomial")
    assert code == 0
    data = json.loads(out)
    assert data["binomial"] == {"3": "12", "4": "24"}
    assert data == chi(C((1, 2, 1))).to_json(monomial=True)


def test_convolve_cli(tmp_path, capsys):
    basic = Character.basic(4).to_json()
    f1 = tmp_path / "basic.json"
    f1.write_text(json.dumps(basic))
    code, out, _ = invoke(capsys, "convolve", "--char", str(f1), "--char", str(f1), "--degree", "4")
    assert code == 0
    data = json.loads(out)
    expected = convolve(Character.basic(4), Character.basic(4))
    assert data["character"] == expected.to_json()
    assert data["series"] == char_to_series(expected).to_json()


def test_convolve_reads_the_files_degree(tmp_path, capsys):
    f1 = tmp_path / "basic.json"
    f1.write_text(json.dumps(Character.basic(4).to_json()))
    code, out, _ = invoke(capsys, "convolve", "--char", str(f1), "--char", str(f1))
    assert code == 0
    data = json.loads(out)
    assert data["character"]["degree"] == 4
    assert data["character"] == convolve(Character.basic(4), Character.basic(4)).to_json()


def test_series_mul_and_inv_cli(tmp_path, capsys):
    f = char_to_series(Character.basic(3))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))

    code, out, _ = invoke(capsys, "series-mul", "--series", str(path), "--series", str(path))
    assert code == 0
    assert json.loads(out) == series_mul(f, f).to_json()

    code, out, _ = invoke(capsys, "series-inv", "--series", str(path))
    assert code == 0
    assert json.loads(out) == series_inverse(f).to_json()


def test_series_inv_domain_error(tmp_path, capsys):
    bad = NSymSeries(3, {C((1,)): 1})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, _ = invoke(capsys, "series-inv", "--series", str(path))
    assert code == 1
    assert "non-invertible" in json.loads(out)["error"]


def test_count_cli(capsys):
    code, out, _ = invoke(capsys, "count", "--n", "4")
    assert code == 0 and json.loads(out) == {"count": 29}


def test_count_bound(capsys):
    code, out, _ = invoke(capsys, "count", "--n", str(COUNT_MAX_N))
    assert code == 0 and json.loads(out)["count"] > 0

    code, out, err = invoke(capsys, "count", "--n", str(COUNT_MAX_N + 1))
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": f"count bound exceeded: n = {COUNT_MAX_N + 1} > {COUNT_MAX_N}"}


def test_chi_bound(capsys):
    code, out, _ = invoke(capsys, "chi", "--composition", json.dumps([CHI_MAX_WEIGHT]), "--monomial")
    assert code == 0
    assert json.loads(out)["monomial"] == ["0"] * CHI_MAX_WEIGHT + ["1"]

    code, out, err = invoke(capsys, "chi", "--composition", json.dumps([1, CHI_MAX_WEIGHT]))
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "error": f"chi bound exceeded: weight {CHI_MAX_WEIGHT + 1} > {CHI_MAX_WEIGHT}"}


def test_degree_bound(tmp_path, capsys):
    message = {"error": f"degree bound exceeded: {MAX_DEGREE + 1} > {MAX_DEGREE}"}
    code, out, _ = invoke(capsys, "coproduct", "--composition", json.dumps([1] * MAX_DEGREE))
    assert code == 0 and len(json.loads(out)["terms"]) == MAX_DEGREE + 1
    code, out, _ = invoke(capsys, "coproduct", "--composition", json.dumps([1] * (MAX_DEGREE + 1)))
    assert code == 1 and json.loads(out) == message

    element = [{"coeff": "1", "multiset": [[1, 1]] * (MAX_DEGREE // 2)}]
    code, out, _ = invoke(capsys, "antipode", "--element", json.dumps(element))
    assert code == 0
    element[0]["multiset"].append([1])
    code, out, _ = invoke(capsys, "antipode", "--element", json.dumps(element))
    assert code == 1 and json.loads(out) == message

    series = tmp_path / "series.json"
    series.write_text(json.dumps({"degree": MAX_DEGREE + 1, "coeffs": [{"composition": [], "coeff": "1"}]}))
    code, out, _ = invoke(capsys, "series-inv", "--series", str(series))
    assert code == 1 and json.loads(out) == message
    char = tmp_path / "char.json"
    char.write_text(json.dumps({"degree": MAX_DEGREE + 1, "values": []}))
    code, out, _ = invoke(capsys, "convolve", "--char", str(char), "--char", str(char))
    assert code == 1 and json.loads(out) == message
    code, out, _ = invoke(capsys, "convolve", "--char", str(char), "--char", str(char), "--degree", "4")
    assert code == 0 and json.loads(out)["character"]["degree"] == 4


def test_maxface_size_bound(capsys):
    point = json.dumps({str(i): str(i) for i in range(12)})
    levels = [0] * 4 + [1] * 4 + [2, 3, 4, 5]  # two tied fours, eight tied labels
    ranked = json.dumps({str(i): str(v) for i, v in enumerate(levels)})
    code, out, _ = invoke(capsys, "maxface", "--point", point, "--functional", ranked)
    assert code == 0 and len(json.loads(out)["vertices"]) == 24 ** 2

    tied = json.dumps({str(i): str(max(i - 8, 0)) for i in range(12)})  # nine labels tied at 0
    code, out, _ = invoke(capsys, "maxface", "--point", point, "--functional", tied)
    assert code == 1
    assert json.loads(out) == {"error": "brute-force bound exceeded: 9 labels in tied level sets > 8"}


def test_deep_nesting_is_exit_2(tmp_path, capsys):
    nested = "[" * 5000 + "]" * 5000
    code, out, err = invoke(capsys, "chi", "--composition", nested)
    assert code == 2 and out == "" and "invalid JSON" in err
    path = tmp_path / "nested.json"
    path.write_text(nested)
    code, out, err = invoke(capsys, "series-inv", "--series", str(path))
    assert code == 2 and out == "" and "invalid JSON" in err
    path.write_bytes(b"\xff\xfe")
    code, out, err = invoke(capsys, "series-inv", "--series", str(path))
    assert code == 2 and out == "" and err.startswith(f"error: series {path}: cannot read: ")


def python_dash_m(*argv):
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "orbitopes", *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
    )


def test_python_dash_m_runs_the_cli():
    proc = python_dash_m("count", "--n", "4")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"count": 29}


def test_count_600_in_a_fresh_process():
    proc = python_dash_m("count", "--n", "600")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stdout) == {"count": egf_counts(600)[600]}


def test_malformed_json_is_exit_2(tmp_path, capsys):
    code, _, err = invoke(capsys, "classify", "--point", "{not json")
    assert code == 2 and "invalid JSON" in err

    code, _, err = invoke(capsys, "classify", "--point", '{"a": "1/0"}')
    assert code == 2 and "malformed rational" in err

    code, _, err = invoke(capsys, "chi", "--composition", '["x"]')
    assert code == 2

    code, _, err = invoke(capsys, "antipode", "--element", '[{"coeff": "1", "multiset": 5}]')
    assert code == 2 and "malformed element term" in err

    # a repeated key is refused at any depth, not read as its last value
    code, out, err = invoke(capsys, "classify", "--point", '{"a":"1","b":"2","a":"3"}')
    assert (code, out, err) == (2, "", 'error: point: key "a" is given twice\n')
    code, out, err = invoke(capsys, "maxface", "--point", P1, "--functional", '{"a":"1","b":"0","b":"1"}')
    assert (code, out, err) == (2, "", 'error: functional: key "b" is given twice\n')
    char = tmp_path / "char_twice.json"
    char.write_text('{"degree": 2, "values": [{"composition": [1], "value": "1", "value": "2"}]}')
    code, out, err = invoke(capsys, "convolve", "--char", str(char), "--char", str(char))
    assert (code, out, err) == (2, "", f'error: char {char}: key "value" is given twice\n')

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    for i, payload in enumerate([
        {"degree": "6", "coeffs": [{"composition": [], "coeff": "1"}]},
        {"degree": -1, "coeffs": []},
        {"degree": True, "coeffs": []},
        {"degree": 6, "coeffs": 5},
    ]):
        path = write(f"series{i}.json", payload)
        code, out, err = invoke(capsys, "series-inv", "--series", path)
        assert code == 2 and out == "" and err.startswith(f"error: series {path}:"), payload

    values_int = write("values_int.json", {"degree": 4, "values": 5})
    code, out, err = invoke(capsys, "convolve", "--char", values_int, "--char", values_int)
    assert code == 2 and out == "" and "'values' array" in err
    no_degree = write("no_degree.json", {"values": [{"composition": [1], "value": "1"}]})
    for extra in ([], ["--degree", "3"]):
        code, out, err = invoke(capsys, "convolve", "--char", no_degree, "--char", no_degree, *extra)
        message = "a character must be a JSON object with 'degree' and a 'values' array"
        assert (code, out, err) == (2, "", f"error: char {no_degree}: {message}\n"), extra

    empty = write("empty_char.json", {"degree": -3, "values": []})
    code, out, err = invoke(capsys, "convolve", "--char", empty, "--char", empty, "--degree", "-3")
    assert code == 2 and out == "" and "nonnegative integer" in err

    twice = write("twice.json", {"degree": 4, "values": [
        {"composition": [1, 1], "value": "1"}, {"composition": [1, 1], "value": "5"}]})
    code, out, err = invoke(capsys, "convolve", "--char", twice, "--char", twice)
    assert code == 2 and out == "" and "composition [1, 1] is given twice" in err

    for value in ["2/4", "1.5", " 3 ", "1e2000000", "+3", "3/-1"]:
        point = json.dumps({"a": value, "b": "1"})
        code, out, err = invoke(capsys, "classify", "--point", point)
        assert code == 2 and out == "" and "malformed rational" in err, value

    # more digits than int() converts: the message names the count, not the interpreter's limit
    huge = write("huge.json", {"degree": 2, "coeffs": [{"composition": [], "coeff": "9" * 5000}]})
    code, out, err = invoke(capsys, "series-inv", "--series", huge)
    assert (code, out) == (2, "")
    assert err == f"error: series {huge}: rational with a part of 5000 digits, more than int() converts\n"
    for value, digits in [("-" + "9" * 4301, 4301), ("1/" + "7" * 4400, 4400)]:
        code, out, err = invoke(capsys, "classify", "--point", json.dumps({"a": value}))
        assert (code, out) == (2, "") and f"a part of {digits} digits" in err, digits


def test_repeated_composition_or_multiset_is_exit_2(tmp_path, capsys):
    # a key given twice is refused, not summed; multisets are compared after sorting
    series = tmp_path / "series_twice.json"
    series.write_text(json.dumps({"degree": 2, "coeffs": [
        {"composition": [], "coeff": "1"}, {"composition": [1], "coeff": "1"},
        {"composition": [1], "coeff": "2"}]}))
    code, out, err = invoke(capsys, "series-inv", "--series", str(series))
    assert (code, out, err) == (2, "", f"error: series {series}: composition [1] is given twice\n")
    element = [{"coeff": "1", "multiset": [[1], [1, 2]]}, {"coeff": "-1", "multiset": [[1, 2], [1]]}]
    code, out, err = invoke(capsys, "antipode", "--element", json.dumps(element))
    assert (code, out, err) == (2, "", "error: element: multiset [[1], [1, 2]] is given twice\n")


def test_messages_write_compositions_as_json(tmp_path, capsys):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    # --degree below a listed value's weight is refused, with the file named
    c6 = write("c6.json", {"degree": 6, "values": [{"composition": [1, 3], "value": "1"}]})
    code, out, err = invoke(capsys, "convolve", "--char", c6, "--char", c6, "--degree", "3")
    assert (code, out, err) == (2, "", f"error: char {c6}: generator [1, 3] exceeds truncation degree 3\n")
    c3 = write("c3.json", {"degree": 4, "values": [{"composition": [3], "value": "1"}]})
    code, out, err = invoke(capsys, "convolve", "--char", c3, "--char", c3)
    assert (code, out) == (2, "")
    assert err == f"error: char {c3}: [3] is not a generator; one-part values are derived\n"
    high = write("high.json", {"degree": 2, "coeffs": [{"composition": [1, 2], "coeff": "1"}]})
    code, out, err = invoke(capsys, "series-inv", "--series", high)
    assert (code, out, err) == (2, "", f"error: series {high}: coefficient on [1, 2] exceeds truncation degree 2\n")
    code, out, err = invoke(capsys, "antipode", "--element", '[{"coeff": "1", "multiset": [[3]]}]')
    assert (code, out, err) == (2, "", "error: element: [3] is not a generator (one part, weight >= 2)\n")
    code, out, _ = invoke(capsys, "delta", "--composition", "[2,1]", "--sizes", "[1,1]")
    assert (code, json.loads(out)) == (1, {"error": "sizes [1, 1] do not sum to |[2, 1]| = 3"})
    code, out, _ = invoke(capsys, "delta", "--composition", "[2,1]", "--size", "7")
    assert (code, json.loads(out)) == (1, {"error": "cut weight 7 out of range for [2, 1]"})


def test_json_integer_past_the_digit_limit_is_exit_2(tmp_path, capsys):
    # json.loads refuses it before any field is read: the message names the count
    nines = "9" * 5000
    code, out, err = invoke(capsys, "classify", "--point", '{"a": -%s, "b": 1}' % nines)
    assert (code, out) == (2, "")
    assert err == "error: point: JSON integer of 5000 digits, more than int() converts\n"
    path = tmp_path / "huge.json"
    path.write_text('{"degree": 2, "coeffs": [{"composition": [], "coeff": %s}]}' % nines)
    code, out, err = invoke(capsys, "series-inv", "--series", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: series {path}: JSON integer of 5000 digits, more than int() converts\n"
    # within the limit a JSON integer is a rational coordinate as before
    code, out, _ = invoke(capsys, "classify", "--point", '{"a": %s, "b": 1}' % nines[:4300])
    assert code == 0 and json.loads(out) == {"composition": [1, 1]}


def test_unknown_command_is_exit_2(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "classify")[0] == 2  # missing required flag


SUITES = (
    "splits_reassembly", "delta_vs_geometry", "chi_vs_bruteforce", "normal_equivalence_oracle",
    "base_polytope", "chamber_census", "species_counts", "character_isomorphism",
)


def selftest_report(passed):
    suites = {name: {"passed": p, "failed": 0} for name, p in zip(SUITES, passed)}
    return {"suites": suites, "passed": sum(passed), "failed": 0}


def test_selftest_cli(capsys):
    code, out, _ = invoke(capsys, "selftest", "--max-n", "3")
    assert code == 0
    assert json.loads(out) == selftest_report([25, 43, 8, 21, 25, 25, 9, 10])


def test_selftest_cli_without_max_n_runs_the_default(capsys):
    # no --max-n: the CLI calls run_selftest() and prints its max_n = 5 report
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    report = json.loads(out)
    assert report == selftest_report([161, 683, 32, 85, 25, 25, 9, 10]) and report["passed"] == 1030


def test_run_selftest_report():
    report = run_selftest(5)
    assert report == selftest_report([161, 683, 32, 85, 25, 25, 9, 10])
    assert report["passed"] == 1030
    # the chi recount follows max_n past 5: all 64 compositions of weight <= 6
    assert run_selftest(6) == selftest_report([385, 2731, 64, 85, 25, 25, 9, 10])


def test_selftest_reports_a_raising_suite_and_runs_the_rest(capsys, monkeypatch):
    def broken(alpha):
        raise RuntimeError("recount unavailable")

    monkeypatch.setattr("orbitopes.selftest.chi_bruteforce", broken)
    report = run_selftest(3)
    suites = dict(report["suites"])
    entry = suites.pop("chi_vs_bruteforce")
    assert entry["failed"] >= 1 and entry["error"] == "RuntimeError: recount unavailable"
    expected = selftest_report([25, 43, 8, 21, 25, 25, 9, 10])["suites"]
    del expected["chi_vs_bruteforce"]
    assert suites == expected

    code, out, err = invoke(capsys, "selftest", "--max-n", "3")
    assert code == 1 and err == "" and json.loads(out) == report


@pytest.mark.parametrize("value", [2.0, "3"])
def test_run_selftest_refuses_a_non_integer(value):
    with pytest.raises(ValueError, match=f"^selftest max_n must be an integer, got {value!r}$"):
        run_selftest(value)


@pytest.mark.parametrize("max_n", ["0", "-3", "9"])
def test_selftest_max_n_range(capsys, max_n):
    code, out, err = invoke(capsys, "selftest", "--max-n", max_n)
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": f"selftest max_n must be in the range 1..8, got {max_n}"}
