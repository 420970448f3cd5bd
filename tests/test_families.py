import json

import pytest

from kcmlab.families import (
    FamilyError,
    UpdateFamily,
    builtin_family,
    load_family,
    parse_family,
)
from kcmlab.geometry import ALL_INFECTED, Region

from conftest import random_family, random_region, random_seed_set
from reference import Configuration, constraint_satisfied


class TestParsing:
    def test_east1d_direct_encoding(self):
        fam = parse_family('{"name":"east1d","rules":[[[-1,0]]]}')
        assert fam.rules == (((-1, 0),),)

    def test_duarte_has_three_rules(self):
        fam = builtin_family("duarte")
        assert len(fam.rules) == 3
        assert all(len(r) == 2 for r in fam.rules)
        offsets = set(fam.offsets())
        assert offsets == {(0, 1), (0, -1), (-1, 0)}

    def test_parse_serialize_parse_identity(self, rng):
        for _ in range(30):
            fam = random_family(rng)
            text = json.dumps({"name": fam.name, "rules": [[list(s) for s in r] for r in fam.rules]})
            assert parse_family(text) == fam

    def test_origin_rule_rejected_with_location(self):
        with pytest.raises(FamilyError, match="origin in rule"):
            parse_family('{"name":"bad","rules":[[[1,0]],[[0,0]]]}')
        try:
            parse_family('{"name":"bad","rules":[[[0,0]]]}')
        except FamilyError as exc:
            assert "rule 0" in str(exc)

    def test_empty_rule_rejected(self):
        with pytest.raises(FamilyError, match="empty rule"):
            parse_family('{"name":"bad","rules":[[]]}')

    def test_no_rules_rejected(self):
        with pytest.raises(FamilyError):
            parse_family('{"name":"bad","rules":[]}')

    def test_syntax_error_reports_location(self):
        with pytest.raises(FamilyError, match="line"):
            parse_family('{"name": "x", "rules": [[[1,')

    def test_malformed_site(self):
        with pytest.raises(FamilyError, match="site"):
            parse_family('{"name":"x","rules":[[[1,0.5]]]}')

    def test_duplicate_rule_warns_and_dedupes(self):
        with pytest.warns(UserWarning, match="duplicate"):
            fam = parse_family('{"name":"x","rules":[[[1,0]],[[1,0]]]}')
        assert len(fam.rules) == 1

    def test_canonical_form(self):
        a = UpdateFamily.create("x", [[(0, 1), (-1, 0)], [(1, 1)]])
        b = UpdateFamily.create("x", [[(1, 1)], [(-1, 0), (0, 1)]])
        assert a == b

    def test_unknown_builtin(self):
        with pytest.raises(FamilyError, match="unknown"):
            builtin_family("nope")

    def test_load_family_from_json_string_and_path(self, tmp_path):
        text = '{"name":"mine","rules":[[[2,0]]]}'
        assert load_family(text).name == "mine"
        p = tmp_path / "fam.json"
        p.write_text(text)
        assert load_family(str(p)) == load_family(text)
        assert load_family("east2d") == builtin_family("east2d")


class TestConstraint:
    def test_east1d_left_neighbour(self):
        region = Region.rectangle(-1, 0, 0, 0)
        fam = builtin_family("east1d")
        assert constraint_satisfied(Configuration(region, {(-1, 0)}), fam, (0, 0))
        assert not constraint_satisfied(Configuration(region, frozenset()), fam, (0, 0))

    def test_duarte_needs_two_of_three(self):
        region = Region.rectangle(-1, 0, -1, 1)
        fam = builtin_family("duarte")
        for single in [(0, 1), (0, -1), (-1, 0)]:
            assert not constraint_satisfied(Configuration(region, {single}), fam, (0, 0))
        assert constraint_satisfied(
            Configuration(region, {(0, 1), (-1, 0)}), fam, (0, 0)
        )

    def test_outside_region_raises(self):
        region = Region([(0, 0)])
        with pytest.raises(ValueError, match="outside region"):
            constraint_satisfied(Configuration(region, frozenset()), builtin_family("east1d"), (3, 3))

    def test_exterior_policy_supplies_values(self):
        region = Region([(0, 0)])
        fam = builtin_family("east1d")
        healthy = Configuration(region, frozenset())
        infected = Configuration(region, frozenset(), exterior=ALL_INFECTED)
        assert not constraint_satisfied(healthy, fam, (0, 0))
        assert constraint_satisfied(infected, fam, (0, 0))

    def test_monotone_in_infection(self, rng):
        fam = builtin_family("duarte")
        for _ in range(100):
            region = random_region(rng)
            empty = random_seed_set(rng, region, 0.4)
            bigger = empty | random_seed_set(rng, region, 0.3)
            small = Configuration(region, empty)
            large = Configuration(region, bigger)
            for x in region.sites:
                if constraint_satisfied(small, fam, x):
                    assert constraint_satisfied(large, fam, x)
