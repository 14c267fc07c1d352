"""The package loads its submodules lazily, and each subcommand only the ones it uses."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import orbitopes

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

# the package's public names, each named in README.md
EXPORTED = {
    "Composition", "compositions_of", "concat", "iterated_restrict", "multinomial", "near_concat",
    "restrict_contract", "splits",
    "GroundSet", "Point", "chamber_census", "check_base_polytope", "composition_of_point",
    "face_decomposition", "max_face_vertices", "normally_equivalent", "orbit_vertices",
    "representative_point", "standard_ground",
    "OrbitClassElement", "class_of", "count_structures", "delta", "mu",
    "GeneratorMultiset", "HopfElement", "TensorElement", "antipode", "coproduct", "counit", "inject",
    "product",
    "Character", "NSymSeries", "char_to_series", "convolve", "in_group_G", "invert_character",
    "series_inverse", "series_mul", "series_to_char",
    "BinomialPolynomial", "chi", "chi_bruteforce", "to_monomial",
}


def fresh(code: str) -> tuple[object, set[str]]:
    """Run ``code`` in a new interpreter; its value ``result`` and the orbitopes.* modules loaded."""
    report = (
        "import json, sys\n"
        "mods = sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('orbitopes.'))\n"
        "print(json.dumps([result, mods]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + report],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    result, mods = json.loads(proc.stdout.splitlines()[-1])
    return result, set(mods)


BASE = {"cli", "compositions"}


# a request imports ``fractions`` (and with it ``decimal`` and ``numbers``) exactly when it loads
# ``linear``, the rational core: ``count``, ``delta`` and a usage error import neither
@pytest.mark.parametrize("argv, code, extra", [
    (["count", "--n", "4"], 0, {"hopf_monoid"}),
    (["delta", "--composition", "[2, 1, 3]", "--size", "2"], 0, set()),
    (["classify", "--point", '{"a": "1", "b": "2"}'], 0, {"geometry", "linear"}),
    (["coproduct", "--composition", "[2, 1]"], 0, {"hopf_algebra", "linear"}),
    (["chi", "--composition", "[2, 1]"], 0, {"invariants", "hopf_monoid", "linear"}),
    (["coproduct"], 2, set()),  # usage error: argparse refuses before any handler runs
])
def test_each_subcommand_loads_only_the_modules_it_uses(argv, code, extra):
    result, mods = fresh(
        "import contextlib, io, sys\n"
        "from orbitopes import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    result = [cli.run({argv!r}), 'fractions' in sys.modules]\n"
    )
    assert result == [code, "linear" in extra]
    assert mods == BASE | extra


def test_importing_the_package_loads_no_submodule():
    result, mods = fresh("import orbitopes\nresult = orbitopes.__version__")
    assert result == "0.1.0"
    assert mods == set()


def test_package_namespace():
    assert len(orbitopes.__all__) == len(EXPORTED) and set(orbitopes.__all__) == EXPORTED
    assert EXPORTED <= set(dir(orbitopes))
    for name in orbitopes.__all__:
        value = getattr(orbitopes, name)
        assert value.__module__.startswith("orbitopes."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    from orbitopes import chi
    from orbitopes.invariants import chi as defined

    assert chi is defined
    with pytest.raises(AttributeError, match="no_such_name"):
        orbitopes.no_such_name
    with pytest.raises(ImportError):
        from orbitopes import no_such_name  # noqa: F401


def test_every_public_name_is_named_in_readme():
    # a name only tests call does not belong in the package's exports
    quoted = set(re.findall(r"`([^`]+)`", README.read_text(encoding="utf-8")))
    assert [name for name in orbitopes.__all__ if name not in quoted] == []


def test_readme_layout_names_every_module():
    # one row per module of the package, and no row for a module that is gone
    text = README.read_text(encoding="utf-8")
    layout = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `orbitopes\.(\w+)` \|", layout, re.MULTILINE))
    modules = {path.stem for path in (SRC / "orbitopes").glob("*.py")} - {"__init__", "__main__"}
    assert rows == modules


def test_every_annotation_resolves():
    # an annotation naming a type its module no longer imports breaks typing.get_type_hints
    for path in sorted((SRC / "orbitopes").glob("*.py")):
        module = importlib.import_module(f"orbitopes.{path.stem}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                methods = (getattr(m, "__func__", m) for m in vars(value).values())
                members = [value, *filter(inspect.isfunction, methods)]
            elif inspect.isfunction(value):
                members = [value]
            else:
                continue
            for member in members:
                typing.get_type_hints(member)  # raises NameError on an unknown name
