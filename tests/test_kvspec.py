"""The shared ``key=value,...`` spec grammar behind the CLI flags."""

import pytest

from repro.kvspec import KeyValueSpec

SPEC = KeyValueSpec(
    keys={"n": ("count", int), "count": ("count", int),
          "rate": ("rate", float)},
    error=KeyError,
    malformed="malformed {part!r}",
    unknown_key="unknown {key!r}; available: {available}",
    bad_value="bad {key}/{field}: {raw!r} {value!r}",
    owner="Thing")


def message(spec: str) -> str:
    with pytest.raises(KeyError) as info:
        SPEC.parse(spec)
    return info.value.args[0]


def test_parses_fields_and_skips_blank_entries():
    assert SPEC.parse(" n = 3 ,, rate=0.5,") == {"count": 3, "rate": 0.5}
    assert SPEC.parse("") == {}


def test_messages_fill_the_callers_templates():
    assert message("rate") == "malformed 'rate'"
    assert message("x=1") == "unknown 'x'; available: count n rate"
    assert message("n= two ") == "bad n/count: ' two' 'two'"


@pytest.mark.parametrize("spec,expected", [
    ("rate=1,rate=2", "repeated key 'rate': rate is already set by 'rate'"),
    ("n=1,count=2", "repeated key 'count': count is already set by 'n'"),
])
def test_a_field_set_twice_is_refused(spec, expected):
    assert message(spec) == expected


def test_keys_are_case_sensitive_unless_folded():
    assert message("N=1").startswith("unknown 'N'")
    folded = KeyValueSpec(keys=SPEC.keys, error=KeyError, malformed="",
                          unknown_key="", bad_value="", fold_case=True)
    assert folded.parse("N=1") == {"count": 1}


def test_check_fields_names_the_owner():
    SPEC.check_fields({"count": 1, "rate": 2.0})
    with pytest.raises(KeyError, match=r"unknown Thing field\(s\): \['a', 'z'\]"):
        SPEC.check_fields({"z": 1, "a": 2, "count": 1})
