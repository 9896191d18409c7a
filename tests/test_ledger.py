"""Verification-ledger structure and rendering."""

import json

import pytest

from wresbd import boundary, ledger
from wresbd.ledger import (_fmt_c, _id_key, build_ledger, render_json,
                           render_text)
from wresbd.refdata import PUBLISHED


def test_entry_ids_unique_and_complete():
    led = build_ledger("dirac", [1])
    ids = [e["id"] for e in led["entries"]]
    assert len(ids) == len(set(ids))
    for required in ("(3.18)", "(3.23)", "(3.33)", "(3.38)", "(3.43)",
                     "(3.48)", "(3.59)", "(3.63)", "(3.65)", "(3.67)"):
        assert required in ids


@pytest.mark.parametrize("seeds", [[], ()])
def test_empty_seed_list_rejected(seeds, monkeypatch):
    # no seed means no oracle comparison: the ledger must not report a
    # vacuous all_match_oracle, nor evaluate a case first
    def unreachable(*args):
        raise AssertionError("a case was evaluated")

    monkeypatch.setattr(ledger, "evaluate_case", unreachable)
    with pytest.raises(ValueError, match="at least one seed is required"):
        build_ledger("dirac", seeds)


def test_json_entries_sorted_by_id():
    led = build_ledger("dirac", [1], case_ids=["aI", "aII", "aIII"])
    data = json.loads(render_json(led))
    ids = [e["id"] for e in data["entries"]]
    assert ids == sorted(ids, key=lambda s: float(s.strip("()")))


def test_every_published_id_parses():
    ids = [eq_id for fam in PUBLISHED.values() for eq_id, _ in fam.values()]
    assert len(ids) == 26
    assert [_id_key({"id": i}) for i in ["(5.29)", "(3.9)", "(3.12)"]] == [
        (5, 29), (3, 9), (3, 12)]
    for eq_id in ids:
        major, minor = _id_key({"id": eq_id})
        assert eq_id == "(%d.%d)" % (major, minor)


@pytest.mark.parametrize("eq_id", ["3.12", "(3.12", "(3.12a)", "(x.1)", ""])
def test_malformed_id_is_rejected(eq_id):
    with pytest.raises(ValueError, match="malformed equation id"):
        _id_key({"id": eq_id})


def test_text_report_shows_both_values_per_entry():
    led = build_ledger("dirac", [2], case_ids=["b"])
    text = render_text(led)
    assert "(3.33)" in text
    assert "exact:" in text and "paper:" in text
    assert "match_paper=" in text and "match_oracle=" in text


@pytest.mark.parametrize("z, text", [
    # (5.43) at seed 1 with its oracle sums regrouped: the imaginary part is
    # float noise, 3e-16 of |z|
    (complex(-8490.455143151401, -2.50111042988e-12), "-8490.45514315"),
    # near 1 the cutoff is 1e-12 itself, so 1e-11 is shown
    (complex(1.0, 1e-11), "1+1e-11i"),
    (complex(0.0, 2.5), "0+2.5i"),
])
def test_imaginary_part_hidden_only_below_relative_noise(z, text):
    assert _fmt_c({"re": z.real, "im": z.imag}) == text


def test_interior_term_rendered_as_annotation():
    for fam in ("dirac", "signature"):
        led = build_ledger(fam, [1], case_ids={"aI"})
        assert led["interior_term"]
        assert "reported, not verified" in render_text(led)


def test_repeated_seed_keeps_grand_total_per_position():
    # the grand oracle total is summed per seed position, not per seed
    # value, so a repeated seed does not double it
    led = build_ledger("dirac", [1, 1])
    assert led["all_match_oracle"] is True
    total = next(e for e in led["entries"] if e["id"] == "(3.65)")
    assert total["seeds"][0] == total["seeds"][1]


@pytest.mark.parametrize("case_ids", [{"bogus"}, "aII"])
def test_unknown_case_ids_rejected(case_ids):
    # an unknown id must not give an empty, vacuously matching ledger; a
    # bare string is not a set of ids and must not substring-match
    with pytest.raises(ValueError, match="unknown case ids"):
        build_ledger("dirac", [1], case_ids=case_ids)


@pytest.mark.parametrize("case_ids", [[], set()])
def test_empty_case_selection_rejected(case_ids):
    # an empty selection must not give an empty, vacuously matching ledger
    with pytest.raises(ValueError, match="no case selected"):
        build_ledger("dirac", [1], case_ids=case_ids)


def test_factor_pairs_built_once_per_case(monkeypatch):
    # the engine and every oracle seed of a case read the one set of
    # pairs the ledger built for it
    build = boundary.case_factor_pairs
    evaluate, oracle = ledger.evaluate_case, ledger.oracle_case
    built, passed = [], {}

    def record_build(family, case):
        built.append(build(family, case))
        return built[-1]

    def record_evaluate(family, case, pairs=None):
        passed[case.case_id] = [pairs]
        return evaluate(family, case, pairs)

    def record_oracle(family, case, assignment, pairs=None):
        passed[case.case_id].append(pairs)
        return oracle(family, case, assignment, pairs)

    monkeypatch.setattr(boundary, "case_factor_pairs", record_build)
    monkeypatch.setattr(ledger, "evaluate_case", record_evaluate)
    monkeypatch.setattr(ledger, "oracle_case", record_oracle)
    build_ledger("dirac", [1, 2])
    assert len(built) == 5 and len(passed) == 5
    for pairs, used in zip(built, passed.values()):
        assert len(used) == 3 and all(p is pairs for p in used)
