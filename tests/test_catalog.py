"""Built-in ring catalog: entries, aliases, presentations, file override,
and schema validation with precise error paths."""

import contextlib
import io
import json
import os
import subprocess
import sys
import zipfile

import pytest

import pnoether
from pnoether import InputError, get_entry, load_catalog
from pnoether.cli import main
from pnoether.graded import expand


def test_builtin_inventory():
    cat = load_catalog()
    assert set(cat) == {"BS3", "S3", "X23", "X2b_4", "X2b_m", "X30"}
    assert cat["S3"].degrees() == [3]
    assert cat["BS3"].degrees() == [4]
    assert cat["X2b_4"].degrees() == [4, 8]
    assert cat["X23"].degrees() == [4, 12, 20]
    assert cat["X30"].degrees() == [4, 24, 40, 60]


def test_alias_points_at_same_entry():
    cat = load_catalog()
    assert cat["X2b_m"] is cat["X2b_4"]
    assert cat["X2b_m"].name == "X2b_4"


def test_flags_and_tables():
    cat = load_catalog()
    assert cat["BS3"].torsion_free is True
    assert cat["S3"].torsion_free is True
    assert cat["X23"].torsion_free is None
    assert sorted(cat["BS3"].action) == [3, 5, 7]
    assert sorted(cat["X2b_4"].action) == [3]
    assert cat["X23"].action == {}
    assert cat["X23"].recommended_primes == (19, 29)
    assert cat["X30"].recommended_primes == (31, 41)
    assert cat["X2b_4"].recommended_primes == (3,)
    assert cat["BS3"].recommended_primes is None


def test_builtin_catalog_is_parsed_once_into_read_only_entries():
    first, second = load_catalog(), load_catalog()
    assert first is not second and first == second
    assert all(first[name] is second[name] for name in first)
    first.pop("BS3")  # a caller's map is its own
    assert "BS3" in load_catalog()
    entry = second["BS3"]
    with pytest.raises(TypeError):
        entry.action[3] = {}
    with pytest.raises(TypeError):
        entry.action[3][("y4", "P1")] = "0"
    assert entry.presentation(3).action == \
        get_entry("BS3").presentation(3).action


def test_a_zipped_install_reads_its_built_in_catalog(tmp_path):
    """The built-in catalog is package data: a package imported from a zip
    archive finds it inside the archive, not beside a source tree."""
    package = os.path.dirname(os.path.abspath(pnoether.__file__))
    archive = tmp_path / "pnoether.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for root, dirs, files in os.walk(package):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                full = os.path.join(root, name)
                zf.write(full, os.path.relpath(full, os.path.dirname(package)))
    proc = subprocess.run(
        [sys.executable, "-I", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import pnoether; "
         "from pnoether.catalog import load_catalog; "
         "print(pnoether.__file__.startswith(sys.argv[1]), "
         "sorted(load_catalog()), load_catalog()['BS3'].degrees())",
         str(archive)],
        capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("True ['BS3', 'S3', 'X23', 'X2b_4', 'X2b_m', "
                           "'X30'] [4]\n")


def test_a_catalog_file_is_read_on_every_call(tmp_path):
    path = tmp_path / "ring.json"

    def write(degree):
        path.write_text(json.dumps({"entries": {"R": {"generators": [
            {"name": "x", "degree": degree}]}}}))

    write(4)
    assert load_catalog(str(path))["R"].degrees() == [4]
    write(6)
    assert load_catalog(str(path))["R"].degrees() == [6]


def test_equal_entries_hash_alike_and_key_one_dict_slot(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"entries": {"R": {
        "torsion_free": True,
        "generators": [{"name": "x", "degree": 4}],
        "action": {"3": [{"gen": "x", "op": "P1", "value": "x^2"}]},
        "recommended_primes": [3]}}}))
    first, second = (load_catalog(str(path))["R"] for _ in range(2))
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert len({first: "first", second: "second"}) == 1
    assert hash(get_entry("BS3")) == hash(load_catalog()["BS3"])
    assert get_entry("BS3") != get_entry("S3")


def test_presentation_per_prime():
    entry = get_entry("BS3")
    assert entry.action[3] == {("y4", "P1"): "2*y4^2"}
    pres = entry.presentation(3)
    assert pres.p == 3
    # the presentation normalizes the table; P1 y4 = 2*y4^2 must expand cleanly
    alg3 = expand(pres, 12)
    assert alg3.describe(alg3.act(("P", 1), alg3.generator_element("y4"))) \
        == "2*y4^2"
    # untabulated primes still give a presentation; the gaps surface only
    # if a computation needs them (F2[y4] closes itself: odd gaps are empty)
    alg = expand(entry.presentation(2), 12)
    assert alg.dims() == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_get_entry_unknown():
    with pytest.raises(InputError) as err:
        get_entry("BS99")
    assert "unknown catalog entry" in str(err.value)
    assert "BS3" in str(err.value)


def test_entry_fields():
    entry = get_entry("BS3")
    assert entry.name == "BS3"
    assert [(g.name, g.degree, g.kind) for g in entry.generators] == [
        ("y4", 4, "polynomial")]
    assert sorted(entry.action) == [3, 5, 7]
    assert entry.torsion_free is True
    assert entry.recommended_primes is None


def test_catalog_file_override(tmp_path):
    path = tmp_path / "rings.json"
    path.write_text(json.dumps({
        "entries": {
            "MINE": {
                "description": "one exterior line",
                "generators": [{"name": "e", "degree": 3, "kind": "exterior"}],
            },
        },
        "aliases": {"ALSO": "MINE"},
    }))
    cat = load_catalog(str(path))
    assert set(cat) == {"MINE", "ALSO"}
    assert cat["ALSO"] is cat["MINE"]
    entry = get_entry("MINE", str(path))
    assert entry.degrees() == [3]
    assert entry.torsion_free is None
    assert entry.action == {}

    with pytest.raises(InputError) as err:
        load_catalog(str(tmp_path / "missing.json"))
    assert "cannot read catalog file" in str(err.value)


def test_a_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(InputError, match="cannot read catalog file"):
        load_catalog(str(path))


def write_and_load(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return load_catalog(str(path))


GEN = {"name": "x", "degree": 4, "kind": "polynomial"}


@pytest.mark.parametrize("data, path_msg", [
    ("{ nope", "is not valid JSON"),
    ({}, "entries: expected a nonempty object"),
    ({"entries": {}}, "entries: expected a nonempty object"),
    ({"entries": {"E": 3}}, "entries.E: expected an object"),
    ({"entries": {"E": {"generators": [GEN], "description": 7}}},
     "entries.E.description: expected a string"),
    ({"entries": {"E": {"generators": [GEN], "torsion_free": "yes"}}},
     "entries.E.torsion_free: expected true, false, or null"),
    ({"entries": {"E": {}}}, "entries.E.generators: expected a nonempty list"),
    ({"entries": {"E": {"generators": [3]}}},
     "entries.E.generators[0]: expected an object"),
    ({"entries": {"E": {"generators": [{"degree": 4}]}}},
     "entries.E.generators[0].name: expected a string"),
    ({"entries": {"E": {"generators": [{"name": "x", "degree": 0}]}}},
     "entries.E.generators[0].degree: expected a positive integer"),
    ({"entries": {"E": {"generators": [{"name": "x", "degree": 4,
                                        "kind": "free"}]}}},
     'entries.E.generators[0].kind: expected "polynomial" or "exterior"'),
    ({"entries": {"E": {"generators": [GEN], "action": []}}},
     "entries.E.action: expected an object keyed by prime"),
    ({"entries": {"E": {"generators": [GEN], "action": {"two": []}}}},
     "entries.E.action.two: expected a prime written as a decimal string"),
    ({"entries": {"E": {"generators": [GEN], "action": {"2": {}}}}},
     "entries.E.action.2: expected a list of action entries"),
    ({"entries": {"E": {"generators": [GEN], "action": {"2": [7]}}}},
     "entries.E.action.2[0]: expected an object"),
    ({"entries": {"E": {"generators": [GEN],
                        "action": {"2": [{"gen": "x", "op": "Sq1"}]}}}},
     "entries.E.action.2[0].value: expected a string"),
    ({"entries": {"E": {"generators": [GEN],
                        "recommended_primes": "3"}}},
     "entries.E.recommended_primes: expected null or a list of integers"),
    ({"entries": {"E": {"generators": [GEN]}}, "aliases": ["A"]},
     "aliases: expected an object"),
    ({"entries": {"E": {"generators": [GEN]}}, "aliases": {"A": "NOPE"}},
     "aliases.A: expected an existing entry name"),
    # a JSON true is no integer
    ({"entries": {"E": {"generators": [{"name": "y", "degree": True}]}}},
     "entries.E.generators[0].degree: expected a positive integer"),
    ({"entries": {"E": {"generators": [GEN],
                        "recommended_primes": [3, True]}}},
     "entries.E.recommended_primes: expected null or a list of integers"),
    # a table's key is a prime, and each op is valid at that prime
    ({"entries": {"E": {"generators": [GEN], "action": {"4": []}}}},
     "entries.E.action.4: expected a prime written as a decimal string"),
    ({"entries": {"E": {"generators": [GEN], "action": {"1": []}}}},
     "entries.E.action.1: expected a prime written as a decimal string"),
    ({"entries": {"E": {"generators": [GEN], "action": {"3": [
        {"gen": "x", "op": "Sq0", "value": "x"}]}}}},
     "entries.E.action.3[0].op: expected an operation at p = 3"),
    ({"entries": {"E": {"generators": [GEN], "action": {"2": [
        {"gen": "x", "op": "Sq1", "value": "0"},
        {"gen": "x", "op": "beta", "value": "0"}]}}}},
     "entries.E.action.2[1].op: expected an operation at p = 2"),
    # a key that is no ASCII number, or too long to test by trial division,
    # is refused before it is read as an integer
    ({"entries": {"E": {"generators": [GEN], "action": {"\u00b2": []}}}},
     "entries.E.action.\u00b2: expected a prime written as a decimal string"),
    ({"entries": {"E": {"generators": [GEN],
                        "action": {"2305843009213693951": []}}}},
     "entries.E.action.2305843009213693951: expected a prime of at most 4 "
     "digits"),
    pytest.param(
        {"entries": {"E": {"generators": [GEN], "action": {"7" * 5000: []}}}},
        f"entries.E.action.{'7' * 5000}: expected a prime of at most 4 digits",
        id="a-5000-digit-key"),
])
def test_schema_errors(tmp_path, data, path_msg):
    with pytest.raises(InputError) as err:
        write_and_load(tmp_path, data)
    assert "catalog schema" in str(err.value)
    assert path_msg in str(err.value)


@pytest.mark.parametrize("action, path_msg", [
    ({"4": [{"gen": "x", "op": "Sq1", "value": "0"}]}, "entries.E.action.4:"),
    ({"3": [{"gen": "x", "op": "Sq0", "value": "x"}]},
     "entries.E.action.3[0].op:"),
])
def test_a_table_at_a_prime_not_asked_for_is_checked_at_load(tmp_path, action,
                                                             path_msg):
    """A query at p = 2 reads no table at another key, yet a malformed one
    there refuses the whole file, naming its JSON path."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"entries": {"E": {"generators": [GEN],
                                                  "action": action}}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["poincare", "--catalog", str(path), "--p", "2"])
    report = json.loads(out.getvalue())
    assert code == 2 and report["error"]["type"] == "InputError"
    assert path_msg in report["error"]["message"]
