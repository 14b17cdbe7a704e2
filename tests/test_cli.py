"""Command-line behavior: report shape, deterministic JSON, exit codes,
catalog-file plumbing, and one frozen invocation per verb."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as hs

import pnoether
from pnoether import __version__, cli, em, fixtures, steenrod
from pnoether.cli import main
from pnoether.graded import appendix_generators

BOREL_CATALOG = {
    "entries": {
        "BAD4": {
            "description": "degree-4 class whose Kudo chain hits a "
                           "non-principal annihilator",
            "torsion_free": True,
            "generators": [
                {"name": "x4", "degree": 4, "kind": "polynomial"},
                {"name": "y3", "degree": 3, "kind": "exterior"},
                {"name": "z4", "degree": 4, "kind": "exterior"},
            ],
            "action": {"2": [
                {"gen": "x4", "op": "Sq3", "value": "y3*z4"},
                {"gen": "y3", "op": "Sq1", "value": "0"},
                {"gen": "z4", "op": "Sq3", "value": "0"},
            ]},
        },
    },
}


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# report shape and determinism


def test_report_shape_and_provenance():
    code, rep = run_json("adem", "Sq[2]Sq[2]")
    assert code == 0
    assert rep["status"] == "ok" and rep["verb"] == "adem"
    assert set(rep) == {"status", "verb", "payload", "provenance"}
    prov = rep["provenance"]
    assert prov["engine"] == "pnoether 1.0.0"
    assert prov["bounds"] == {"max_degree": None}
    # the input echo lists the parsed arguments, minus the rendering choice
    assert prov["input"] == {"p": 2, "verb": "adem", "word": "Sq[2]Sq[2]"}


def test_output_is_byte_identical_and_canonical_json():
    first = run("cover", "--catalog", "BS3", "--p", "2", "--max-degree", "17")
    second = run("cover", "--catalog", "BS3", "--p", "2", "--max-degree", "17")
    assert first == second
    code, out = first
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_error_reports_are_json_too():
    code, rep = run_json("tq", "Z/6")
    assert code == 2
    assert rep["status"] == "error" and "payload" not in rep
    err = rep["error"]
    assert err["code"] == 2 and err["type"] == "InputError"
    assert "must be cyclic of p-power order" in err["message"]


def test_nonprime_is_rejected_for_every_verb():
    code, rep = run_json("em", "--space", "K(Z,3)", "--p", "4")
    assert code == 2
    assert "p must be a prime number, got 4" in rep["error"]["message"]


@pytest.mark.parametrize("argv", [("em", "--space", "K(Z/0,3)"),
                                  ("tq", "Z/0", "--p", "3")])
def test_a_zero_modulus_is_refused_not_divided_forever(argv):
    """Z/0 has no p-adic valuation: the verb exits 2 with an InputError.
    It runs in a subprocess with a timeout, so a loop that keeps dividing
    0 by p fails the test instead of hanging the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pnoether.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from pnoether.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InputError" and "Z/0" in err["message"]


# ---------------------------------------------------------------------------
# adem / em / fmod / krull


def test_adem_example():
    code, rep = run_json("adem", "Sq[2]Sq[2]")
    assert code == 0
    p = rep["payload"]
    assert p["reduced"] == "Sq[3,1]"
    assert p["degree"] == 4
    assert p["terms"] == [{"word": [3, 1], "rendered": "Sq[3,1]",
                           "coeff": 1, "excess": 2}]


def test_adem_syntax_error_carries_offset():
    code, rep = run_json("adem", "Sq[oops]")
    assert code == 2
    err = rep["error"]
    assert err["type"] == "DSLSyntaxError"
    assert err["offset"] == 0
    assert "expected integer" in err["message"]


def test_em_integral_class_through_33():
    code, rep = run_json("em", "--space", "K(Z,3)", "--max-degree", "33")
    assert code == 0
    p = rep["payload"]
    assert p["space"] == "K(Z,3)"
    assert p["polynomial_degrees"] == [3, 5, 9, 17, 33]
    assert p["exterior_degrees"] == []
    assert p["count"] == 5
    assert rep["provenance"]["bounds"] == {"max_degree": 33}


def test_em_higher_torsion_reports_bockstein_partner():
    code, rep = run_json("em", "--space", "K(Z/4,2)", "--max-degree", "8")
    assert code == 0
    p = rep["payload"]
    assert p["space"] == "K(Z/p^2,2)"
    assert p["generators"] == [
        {"name": "i2", "degree": 2, "kind": "polynomial",
         "bockstein_partner": "Sq1i2"},
        {"name": "Sq1i2", "degree": 3, "kind": "polynomial",
         "bockstein_partner": None},
        {"name": "Sq2Sq1i2", "degree": 5, "kind": "polynomial",
         "bockstein_partner": None},
    ]



def test_em_verb_makes_no_adem_reduction(monkeypatch):
    """The verb prints generators only, so it must not build the action
    table, whose every entry costs one Adem reduction."""

    def refuse(*args):
        raise AssertionError("adem_reduce called")

    monkeypatch.setattr(steenrod, "adem_reduce", refuse)
    code, rep = run_json("em", "--space", "K(Z,3)", "--max-degree", "60")
    assert code == 0
    assert rep["payload"]["polynomial_degrees"] == [3, 5, 9, 17, 33]
    # the library presentation lists its table's keys with no reduction and
    # reduces an entry, through the stub, when it is read
    pres = em.em_product_presentation(em.parse_space("K(Z,3)", 2), 2, 60)
    with pytest.raises(AssertionError, match="adem_reduce called"):
        pres.action[("i3", ("Sq", 2))]

def test_fmod_dims():
    code, rep = run_json("fmod", "F(2)", "--max-degree", "8")
    assert code == 0
    assert rep["payload"] == {"expression": "F(2)",
                              "dims": [0, 0, 1, 1, 1, 1, 1, 0, 1],
                              "total": 6}


@pytest.mark.parametrize("text", ["Fin(0:1)", "0", "Q1", "F(1)"])
def test_fmod_refuses_a_negative_max_degree(text):
    code, rep = run_json("fmod", text, "--max-degree", "-1")
    assert code == 2
    assert rep["status"] == "error"
    assert rep["error"]["type"] == "InputError"


def test_krull_suspension_trace():
    code, rep = run_json("krull", "Sigma(F(1))")
    assert code == 0
    assert rep["payload"] == {
        "expression": "Sigma(F(1))", "degree": 1, "determined": True,
        "trace": ["Sigma(F(1))", "Sigma(F(0))", "0"]}


def test_krull_free_module_trace():
    code, rep = run_json("krull", "F(3)")
    assert code == 0
    assert rep["payload"] == {
        "expression": "F(3)", "degree": 3, "determined": True,
        "trace": ["F(3)", "F(0) + F(1) + F(2)", "F(0)^2 + F(1)", "F(0)", "0"]}


@pytest.mark.parametrize("n", [64, 70])
def test_krull_of_a_large_free_module_is_determined(n):
    code, rep = run_json("krull", f"F({n})")
    assert code == 0
    payload = rep["payload"]
    assert (payload["degree"], payload["determined"]) == (n, True)
    assert len(payload["trace"]) == n + 2 and payload["trace"][-1] == "0"


def test_krull_reports_do_not_depend_on_where_a_suspension_sits():
    # Sigma(F(2) (x) Q1) and F(2) (x) Sigma(Q1) are one module; at p = 2 the
    # finite table of Q1 carries the suspension in both
    code, left = run_json("krull", "Sigma(F(2)*Q1)", "--p", "2")
    assert code == 0
    code, right = run_json("krull", "F(2)*Sigma(Q1)", "--p", "2")
    assert code == 0
    assert left["payload"] == right["payload"]
    assert left["payload"]["trace"][0] == "F(2)*Fin(2:1)"


def test_krull_compound_multiplicity_traces():
    # a compound term of multiplicity m is printed once, with ^m on its
    # last atom
    code, rep = run_json("krull", "F(1)*F(1)*F(1)")
    assert code == 0
    assert rep["payload"]["degree"] == 3
    assert rep["payload"]["trace"] == [
        "F(1)*F(1)*F(1)",
        "F(0) + F(1)^3 + F(1)*F(1)^3",
        "F(0)^6 + F(1)^6", "F(0)^6", "0"]
    # Q1 is written as its finite table at p = 3, which carries the
    # suspension; finite factors merge
    code, rep = run_json("krull", "Sigma(F(2)*Q1) + F(1)*Fin(0:1,2:1)",
                         "--p", "3")
    assert code == 0
    assert rep["payload"]["degree"] == 2
    assert rep["payload"]["trace"] == [
        "F(1)*Fin(0:1,2:1) + F(2)*Fin(2:1,3:1)",
        "Fin(0:1,2:2,3:1) + F(1)*Fin(2:1,3:1)",
        "Fin(2:1,3:1)", "0"]


# ---------------------------------------------------------------------------
# tq / structure


def test_tq_rank_three():
    code, rep = run_json("tq", "Z/4+Zpinf^2")
    assert code == 0
    assert rep["payload"] == {
        "p": 2, "rank": 3, "expression": "Q1^3", "krull_degree": 0,
        "krull_at_most_one": True, "trace": ["Fin(1:3)", "0"],
        "group": "Z/4 + Zpinf^2"}


def test_structure_with_catalog_base():
    code, rep = run_json("structure", "Z/p+Zpinf", "--p", "3",
                         "--base", "BS3")
    assert code == 0
    assert rep["payload"] == {
        "p": 3,
        "fiber": ["K(Z/p,2)", "K(Zpinf,2)"],
        "base_generators": [{"name": "y4", "degree": 4,
                             "kind": "polynomial"}],
        "divisible": False,
        "p_compact": False,
        "group": "Z/3 + Zpinf",
        "hom_zp_rank": 2,
    }


def test_structure_rejects_bad_pi1():
    code, rep = run_json("structure", "Z/2", "--pi1", "6")
    assert code == 2
    assert "not a power of 2" in rep["error"]["message"]


# ---------------------------------------------------------------------------
# cover


def test_cover_bs3_at_two():
    code, rep = run_json("cover", "--catalog", "BS3", "--p", "2",
                         "--max-degree", "17")
    assert code == 0
    p = rep["payload"]
    assert p["catalog_entry"] == "BS3"
    assert p["surviving_degrees"] == [5, 6, 9, 17]
    assert p["killed_base_ideal"] == ["y4"]
    assert p["poincare"] == [1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1,
                             2, 1, 2]
    assert p["surviving_fiber_generators"][0] == {
        "name": "z5", "degree": 5, "kind": "polynomial", "origin": "Sq2i3",
        "display": "z", "is_companion": False, "bockstein_link": None}
    assert p["flags"] == {"finitely_generated": True,
                          "quotient_trivial": True}
    assert rep["provenance"]["bounds"] == {"max_degree": 17}


def test_cover_x23_at_recommended_prime():
    code, rep = run_json("cover", "--catalog", "X23", "--p", "19",
                         "--max-degree", "24")
    assert code == 0
    p = rep["payload"]
    # the three-generator ring loses x4; nothing from the fiber returns
    # below 3p = 57, so the cover is F_19[x12, x20] through degree 24
    assert p["killed_base_ideal"] == ["x4"]
    assert p["surviving_degrees"] == []
    assert p["poincare"] == [1] + [0] * 11 + [1] + [0] * 7 + [1, 0, 0, 0, 1]


def test_cover_x23_untabulated_prime_is_missing_data():
    code, rep = run_json("cover", "--catalog", "X23", "--p", "11",
                         "--max-degree", "24")
    assert code == 5
    err = rep["error"]
    assert err["code"] == 5 and err["type"] == "MissingDataError"
    assert err["gaps"] == [
        "{'generator': 'x4', 'op': 'P1', 'target_degree': 24}"]


def test_cover_alias_resolves_to_canonical_entry():
    code, rep = run_json("cover", "--catalog", "X2b_m", "--p", "3",
                         "--max-degree", "19")
    assert code == 0
    assert rep["payload"]["catalog_entry"] == "X2b_4"
    assert rep["payload"]["surviving_degrees"] == [8, 19]


def test_cover_s3_kills_its_degree_3_class():
    code, rep = run_json("cover", "--catalog", "S3", "--p", "3")
    assert code == 0
    p = rep["payload"]
    assert p["killed_base_ideal"] == ["x3"]
    assert p["surviving_degrees"] == [6, 7]
    # the default bound 2*3 + 2: F_3[z6] (x) E(y7) through degree 8
    assert p["poincare"] == [1, 0, 0, 0, 0, 0, 1, 1, 0]
    assert rep["provenance"]["bounds"] == {"max_degree": 8}


def test_cover_unknown_catalog():
    code, rep = run_json("cover", "--catalog", "BS99")
    assert code == 2
    assert "neither a built-in catalog entry" in rep["error"]["message"]


def test_cover_unsupported_fibration_exits_four(tmp_path):
    path = tmp_path / "borel.json"
    path.write_text(json.dumps(BOREL_CATALOG))
    code, rep = run_json("cover", "--catalog", str(path), "--p", "2")
    assert code == 4
    err = rep["error"]
    assert err["code"] == 4 and err["type"] == "UnsupportedFibrationError"
    assert "does not follow the Borel pattern" in err["message"]
    assert "τ(i3^2) = y3*z4" in err["message"]


def test_catalog_file_entry_selection(tmp_path):
    two = {"entries": {
        "A": BOREL_CATALOG["entries"]["BAD4"],
        "B": BOREL_CATALOG["entries"]["BAD4"],
    }}
    path = tmp_path / "two.json"
    path.write_text(json.dumps(two))
    code, rep = run_json("cover", "--catalog", str(path), "--p", "2")
    assert code == 2
    assert "pick one with --entry" in rep["error"]["message"]

    code, rep = run_json("cover", "--catalog", str(path), "--entry", "C",
                         "--p", "2")
    assert code == 2
    assert "has no entry 'C'" in rep["error"]["message"]

    # a valid selection proceeds into the engine (and hits its exit-4 abort)
    code, rep = run_json("cover", "--catalog", str(path), "--entry", "A",
                         "--p", "2")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ("cover", "--catalog", "BS3", "--entry", "nonsense", "--p", "3",
     "--max-degree", "10"),
    ("poincare", "--catalog", "BS3", "--entry", "X30"),
    ("structure", "Z/p", "--p", "3", "--base", "BS3", "--entry", "BS3"),
])
def test_entry_beside_a_built_in_name_is_refused(argv):
    """--entry picks an entry of a catalog file; beside a built-in name,
    with no file of that name, it is refused, not dropped."""
    code, rep = run_json(*argv)
    assert code == 2
    assert rep["error"]["type"] == "InputError"
    assert "--entry picks an entry of a catalog file" in \
        rep["error"]["message"]


def test_a_built_in_name_wins_over_a_file_unless_entry_is_given(
        tmp_path, monkeypatch):
    two = {"entries": {"A": BOREL_CATALOG["entries"]["BAD4"],
                       "B": BOREL_CATALOG["entries"]["BAD4"]}}
    (tmp_path / "BS3").write_text(json.dumps(two))
    monkeypatch.chdir(tmp_path)
    code, rep = run_json("cover", "--catalog", "BS3", "--p", "2",
                         "--max-degree", "17")
    assert code == 0 and rep["payload"]["catalog_entry"] == "BS3"
    code, rep = run_json("cover", "--catalog", "BS3", "--entry", "A",
                         "--p", "2")
    assert code == 4  # the file's entry A, in the engine's exit-4 abort


# ---------------------------------------------------------------------------
# split


def test_split_list_scenarios():
    code, rep = run_json("split", "--list")
    assert code == 0
    names = [s["name"] for s in rep["payload"]["scenarios"]]
    assert names == sorted(names)
    assert names == [
        "k1-action-trivial", "k1-action-twisted", "low-connectivity",
        "no-section", "section-projection", "section-trivial",
        "sphere-cover-connecting", "sphere-cover-connecting-trivial"]
    assert all(s["description"] for s in rep["payload"]["scenarios"])


def test_split_named_scenario():
    code, rep = run_json("split", "--scenario", "sphere-cover-connecting")
    assert code == 0
    p = rep["payload"]
    assert p["scenario"] == "sphere-cover-connecting"
    assert p["applicable"] is True and p["splits"] is False
    assert p["criterion"] == "connecting-morphism"
    assert p["description"]


def test_split_explicit_flags():
    code, rep = run_json("split", "--criterion", "section",
                         "--b-connectivity", "2", "--fiber-top", "3",
                         "--trivial", "no")
    assert code == 0
    assert rep["payload"] == {
        "applicable": True, "splits": False,
        "criterion": "section-pin-morphism",
        "witness": {"b_connectivity": 2, "fiber_top": 3,
                    "induced_pin_is_trivial": False, "section_exists": True}}


def test_split_requires_a_mode():
    code, rep = run_json("split")
    assert code == 2
    assert "--scenario NAME" in rep["error"]["message"]
    code, rep = run_json("split", "--scenario", "nope")
    assert code == 2
    assert "unknown splitting scenario" in rep["error"]["message"]


# ---------------------------------------------------------------------------
# padic


def test_padic_square_mode():
    code, rep = run_json("padic", "--square", "98")
    assert code == 0
    assert rep["payload"] == {
        "p": 7, "value": 98, "precision": 3, "is_square": True,
        "witness": 756,
        "reason": "valuation 2 even; unit part: 108^2 == 2 mod 7^3"}

    code, rep = run_json("padic", "--square", "45")
    assert code == 0
    assert rep["payload"]["is_square"] is False
    assert rep["payload"]["reason"] == \
        "unit part 45: 3 is not a quadratic residue mod 7"


def test_padic_sum_mode():
    code, rep = run_json("padic", "--sum", "1", "2")
    assert code == 0
    p = rep["payload"]
    assert p["sum_is_zero"] is False and p["both_zero"] is False
    assert "visibly nonzero" in p["argument"]

    code, rep = run_json("padic", "--sum", "1", "1", "--p", "5")
    assert code == 2
    assert "need p ≡ 3 mod 4" in rep["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("--sum", "0", "0"),
    ("--square", "0"),
    ("--square", "7"),
    ("--square", "2"),
])
def test_padic_refuses_precision_zero_in_every_mode(argv):
    # n = 0 and an odd valuation used to return before the precision check
    code, rep = run_json("padic", *argv, "--precision", "0", "--p", "7")
    assert code == 2
    assert rep["error"]["message"] == "precision must be >= 1"


def test_padic_needs_exactly_one_mode():
    code, rep = run_json("padic")
    assert code == 2
    assert "exactly one of" in rep["error"]["message"]
    code, rep = run_json("padic", "--square", "2", "--sum", "1", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# poincare / appendix


def test_poincare_catalog_series():
    code, rep = run_json("poincare", "--catalog", "BS3", "--p", "3",
                         "--max-degree", "12")
    assert code == 0
    assert rep["payload"] == {
        "catalog_entry": "BS3", "generator_degrees": [4],
        "coeffs": [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]}

    code, rep = run_json("poincare", "--catalog", "X23", "--p", "19",
                         "--max-degree", "24")
    assert code == 0
    assert rep["payload"]["coeffs"] == [
        1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0,
        3, 0, 0, 0, 4]


def test_appendix_fixtures():
    code, rep = run_json("appendix", "--fixture", "tensor")
    assert code == 0
    p = rep["payload"]
    assert p["fixture"] == "tensor"
    assert p["generators"] == [{"name": "b2", "degree": 3},
                               {"name": "u.1", "degree": 2}]
    assert p["checked_pairs"] == 30
    nonzero = [c for c in p["certificates"] if c["correction"] != "0"]
    assert nonzero == [{"op": "Sq1", "generator": "u", "degree": 3,
                        "correction": "b", "expression": "b2",
                        "verified": True}]

    code, rep = run_json("appendix", "--fixture", "tensor-untwisted")
    assert code == 0
    assert all(c["correction"] == "0"
               for c in rep["payload"]["certificates"])

    code, rep = run_json("appendix", "--fixture", "compatible")
    assert code == 0
    assert rep["payload"]["generators"] == [{"name": "u.1", "degree": 2}]

    code, rep = run_json("appendix", "--fixture", "broken")
    assert code == 3
    err = rep["error"]
    assert err["code"] == 3 and err["type"] == "EngineContractError"
    assert err["message"] == "proj(Sq1(g.1)) != Sq1(g) for g = u"

    code, rep = run_json("appendix", "--fixture", "nope")
    assert code == 2
    assert "unknown appendix fixture" in rep["error"]["message"]


def test_appendix_runs_at_max_degree_zero():
    # a bound of 0 used to fall back to the fixture's default bound
    code, rep = run_json("appendix", "--fixture", "compatible",
                         "--max-degree", "0")
    assert code == 0
    assert rep["provenance"]["bounds"] == {"max_degree": 0}
    data = fixtures.appendix_compatible(0)
    result = appendix_generators(data["G"], data["B"], data["module_gens"],
                                 data["proj"], data["embed"])
    assert result.generators == [("1", 0)]
    assert rep["payload"]["generators"] == [{"name": "1", "degree": 0}]


@pytest.mark.parametrize("fixture", ["tensor", "tensor-untwisted", "broken"])
def test_appendix_refuses_a_bound_below_its_module_generator(fixture):
    """These fixtures have a module generator of degree 3: a lower bound is
    refused up front as an input error naming the smallest usable bound,
    not met by a TruncationError from inside the expansion."""
    for bound in (0, 1, 2):
        code, rep = run_json("appendix", "--fixture", fixture,
                             "--max-degree", str(bound))
        assert code == 2
        assert rep["error"]["type"] == "InputError"
        assert "smallest usable bound is 3" in rep["error"]["message"]
    code, _rep = run_json("appendix", "--fixture", fixture, "--max-degree", "3")
    assert code == (3 if fixture == "broken" else 0)


# ---------------------------------------------------------------------------
# frozen report bytes


GOLDEN_REPORTS = {
    ("cover", "--catalog", "BS3", "--p", "2", "--max-degree", "100"):
        (0, "933e51cbebef1290eba0cb45c2b2b5c15b0cb785d35c43505873177755ecb0b8"),
    ("cover", "--catalog", "BS3", "--p", "3", "--max-degree", "130"):
        (0, "5a63ff853987c089437e8bf90050961a40376c1f3e6df69fe1dd0d88db48afbc"),
    ("cover", "--catalog", "BS3", "--p", "5", "--max-degree", "140"):
        (0, "3ec3d485a3f4883e459baaf4c637252f684b083c567b5ca1f798fc068e625242"),
    ("cover", "--catalog", "X2b_4", "--p", "3", "--max-degree", "110"):
        (0, "0d180bf55e3e06534351c4c7fc077bd00c5393fda9595abd8f3460758c64d5dd"),
    ("appendix", "--fixture", "compatible"):
        (0, "d17911fe257dce5c139a70c240b41cf0ae28247ca29074f00c5afec1523061a4"),
    ("appendix", "--fixture", "tensor"):
        (0, "41eb3de44340460d79a074386332aa133fd59538d373e67704eb5fca4fc75dc8"),
    ("appendix", "--fixture", "tensor-untwisted"):
        (0, "6ea80db9eaba013369d54c80d1b4c0f403d4312f12bb3274dc419ec15d444bf0"),
    ("appendix", "--fixture", "broken"):
        (3, "763076791bb3608b3d29b1a26686154dc333df749171639d9506e51eebe9f809"),
    ("em", "--space", "K(Z,3)", "--max-degree", "60"):
        (0, "6f31dfe77dc19f03594d4a3d913172c1f133235dc9654e74d77892edb4b187ae"),
    ("krull", "F(1)*F(2)"):
        (0, "3b86917bb20c594d7acf945551611aab7dd6b2e62c8207e79ab6a7afe416af57"),
    ("poincare", "--catalog", "BS3"):
        (0, "d415482f08224f18016dddc7491693e70cdc0017f86d6ba35c57a8d2fac70f7a"),
    ("adem", "bP[0;1,1]bP[0;1,0]", "--p", "3"):
        (0, "1bce8174536a913443e583a441b4c0da5f10c3ba8728476941ed3b5380acb01c"),
    ("fmod", "Sigma(F(1)) + Q1^2", "--max-degree", "20"):
        (0, "38febdc0058c627027990cc72844b1e11ce4c84a5489075003c11d430fd2def6"),
    ("tq", "Z/9+Zpinf", "--p", "3"):
        (0, "7feccc60c074bfb71123aef0165ca742d0a5e3e076d362dc9f92c9ed91ea3f14"),
    ("structure", "Z/4+Zpinf^2", "--base", "BS3"):
        (0, "bc066a78cfdf2766ae4f64acc11a494a5a5c09e9936f034fdcb0c41bf5fd7664"),
    ("split", "--list"):
        (0, "3c9bc82a2a8e930f7b7c4d651625b673ee0ab5cd4983173d580241cb4019e892"),
    # a non-ASCII description, escaped in the report
    ("split", "--scenario", "section-projection"):
        (0, "c28df69283bb5ae443610d198d5fb39640a833d2e936ed2511f9363cd50971f7"),
    ("padic", "--sum", "1", "2"):
        (0, "3870c92cde091671acfced7beb16a927fd0cd41b4f1c04b549893b6fb82ab3ab"),
    # a parse error carries the offset of the bad token
    ("adem", "Sq[2]Sq[3"):
        (2, "6a2607d7fd4a5684dd28dfe35af4e180af5803b478bd0319732e86382fcc4b71"),
    # missing action data carries its gaps
    ("cover", "--catalog", "X23", "--p", "19", "--max-degree", "80"):
        (5, "11d25a1859219dc603334c665e1794032b79f8835bcd8465b07702e6614ccf78"),
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS), ids=" ".join)
def test_report_bytes_are_frozen(argv):
    """sha256 of whole reports: a change to any byte of these is a change
    of the output contract and must be made on purpose."""
    code, out = run(*argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        GOLDEN_REPORTS[argv]


# ---------------------------------------------------------------------------
# the JSON emitter: json.dumps(sort_keys=True, indent=2) is its oracle


def _keyed_dicts(values):
    """Dicts whose keys ``sorted`` can order: str keys, number keys (int,
    bool and float together), or the one None key."""
    keys = hs.sampled_from([
        hs.text(),
        hs.one_of(hs.integers(), hs.booleans(), hs.floats()),
        hs.none(),
    ])
    return keys.flatmap(lambda k: hs.dictionaries(k, values, max_size=5))


_json_trees = hs.recursive(
    hs.one_of(hs.none(), hs.booleans(), hs.integers(), hs.floats(),
              hs.text(),
              hs.lists(hs.one_of(hs.integers(), hs.booleans(), hs.none()),
                       max_size=6),
              hs.lists(hs.text(), max_size=4)),
    lambda children: hs.one_of(
        hs.lists(children, max_size=4),
        hs.lists(children, max_size=4).map(tuple),
        _keyed_dicts(children)),
    max_leaves=30)


@settings(derandomize=True, database=None, max_examples=300)
@given(_json_trees)
@example({"a\"b\\c\x00\x1f\u00b3\U0001f600": ["\ud800", "\t,\n"],
          "n": {1.5: float("nan"), 2: [float("inf"), -float("inf"), -0.0],
                True: [3, True, None, False]},
          "z": {None: ((), {}, [[]])}})
@example({float("nan"): 1, 0: [1, (2, None)], False: {}})
def test_emitter_prints_the_bytes_of_json_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


@hs.composite
def _trees_sharing_a_list(draw):
    """A tree holding one flat list object (or tuple) at depth 1, twice
    inside one list, and wherever a drawn subtree puts it."""
    shared = draw(hs.one_of(
        hs.lists(hs.one_of(hs.integers(), hs.booleans(), hs.none()),
                 max_size=6),
        hs.lists(hs.text(), max_size=4)))
    if draw(hs.booleans()):
        shared = tuple(shared)
    rest = draw(hs.recursive(
        hs.one_of(hs.just(shared), hs.integers(), hs.text()),
        lambda children: hs.one_of(
            hs.lists(children, max_size=4),
            hs.lists(children, max_size=4).map(tuple),
            hs.dictionaries(hs.text(), children, max_size=4)),
        max_leaves=20))
    return {"top": shared, "pair": [shared, shared], "rest": rest}


_SHARED = [3, 1, 4]


@settings(derandomize=True, database=None, max_examples=200)
@given(_trees_sharing_a_list())
@example({"a": _SHARED, "b": {"c": [_SHARED, _SHARED]}})
def test_emitter_prints_a_shared_list_as_json_dumps_does_at_each_depth(tree):
    """The emitter keeps each flat list's text by its id and indent within
    one call; a list repeated at one depth or at several prints as
    json.dumps prints every copy."""
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("tree", [{1, 2}, {"a": [0, {1}]}, {(1, 2): 0},
                                  {"a": 1, 2: 3}])
def test_emitter_refuses_what_json_dumps_refuses(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._dumps(tree)


def test_a_closed_stdout_exits_quietly():
    """A reader that has gone (``| head``) ends the report with exit 1 and
    nothing on stderr, not a BrokenPipeError traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pnoether.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pnoether.cli", "fmod", "Q1", "--p", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_cli_start_up_builds_no_dataclasses():
    """Every invocation is a fresh process, so what importing the CLI
    loads is paid before each answer: ``dataclasses`` (which loads
    ``inspect``) cost about a quarter of start-up, and neither is loaded.
    ``-I`` keeps the environment out, so ``src`` goes on sys.path here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pnoether.__file__)))
    proc = subprocess.run(
        [sys.executable, "-I", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import pnoether.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))", src],
        capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# ---------------------------------------------------------------------------
# table rendering


def test_table_format_renders_plain_text():
    code, out = run("adem", "Sq[2]Sq[2]", "--format", "table")
    assert code == 0
    assert "reduced: Sq[3,1]" in out
    assert "{" not in out
    # list-of-dicts payloads come out as aligned columns
    assert "coeff" in out and "excess" in out


def test_table_format_handles_nested_payloads():
    code, out = run("cover", "--catalog", "BS3", "--p", "2",
                    "--max-degree", "17", "--format", "table")
    assert code == 0
    assert "status: ok" in out
    assert "surviving_degrees" in out
    # booleans render as yes/no in the table view
    assert "finitely_generated: yes" in out


# ---------------------------------------------------------------------------
# one parser per process


def run_capturing(argv):
    """Exit code, stdout and stderr of one in-process call, argparse exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_carries_nothing_between_calls(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"entries": {
        "A": BOREL_CATALOG["entries"]["BAD4"],
        "B": BOREL_CATALOG["entries"]["BAD4"],
    }}))
    calls = [
        ("cover", "--catalog", str(path), "--entry", "A", "--p", "2"),
        ("cover", "--catalog", str(path), "--p", "2"),
        ("split", "--criterion", "section", "--b-connectivity", "2",
         "--fiber-top", "3", "--trivial", "no", "--no-section"),
        ("split", "--criterion", "section", "--b-connectivity", "2",
         "--fiber-top", "3", "--trivial", "no"),
        ("padic", "--sum", "1", "2"),
        ("padic", "--square", "98"),
        ("em", "--space", "K(Z,3)", "--no-such-flag"),
        ("em", "--space", "K(Z,3)"),
        ("--version",),
        ("adem", "Sq[2]Sq[2]", "--format", "table"),
        ("adem", "Sq[2]Sq[2]"),
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_capturing(argv))
    cli._build_parser.cache_clear()
    reused = [run_capturing(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    # the sequence covers each kind of exit, so a leak would show
    assert [code for code, _out, _err in reused] == \
        [4, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0]
    assert f"pnoether {__version__}" in reused[8][1]
