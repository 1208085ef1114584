import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from loopnil.errors import MalformedJson
from loopnil.jsonio import canonical_dumps, load_json_bytes, parse_int


def test_big_integers_become_decimal_strings():
    small = 2**53 - 1
    big = 2**53
    out = canonical_dumps({"a": small, "b": big, "c": -big, "d": [big * big]})
    obj = json.loads(out)
    assert obj["a"] == small
    assert obj["b"] == str(big)
    assert obj["c"] == str(-big)
    assert obj["d"] == [str(big * big)]
    assert parse_int(obj["b"], "b") == big
    assert parse_int(obj["a"], "a") == small


def test_floats_are_rejected():
    with pytest.raises(MalformedJson):
        canonical_dumps({"x": 1.5})


def test_canonical_output_is_sorted_and_stable():
    one = canonical_dumps({"b": 1, "a": {"z": 2, "y": 3}})
    two = canonical_dumps({"a": {"y": 3, "z": 2}, "b": 1})
    assert one == two
    assert one.index('"a"') < one.index('"b"')
    assert one.endswith("\n")


def test_load_json_reports_position():
    with pytest.raises(MalformedJson) as err:
        load_json_bytes(b'{"a": 1,,}', "probe")
    assert "line 1" in str(err.value)
    with pytest.raises(MalformedJson):
        load_json_bytes(b"\xff\xfe", "probe")


def test_parse_int_rejects_junk():
    # a decimal string takes the CLI's integer syntax: int(value, 10) would
    # also read underscores, padding and other scripts' digits
    for junk in ("12x", "1_0", " 7", "٣"):
        with pytest.raises(MalformedJson):
            parse_int(junk, "field")
    assert parse_int("+7", "field") == 7
    assert parse_int(str(-(2**200)), "field") == -(2**200)
    with pytest.raises(MalformedJson):
        parse_int(True, "field")
    with pytest.raises(MalformedJson):
        parse_int(None, "field")
    # the message quotes junk whole up to 20 characters, else by a prefix
    with pytest.raises(MalformedJson) as err:
        parse_int("9" * 19 + "x", "field")
    assert str(err.value) == f"field is not a decimal integer: '{'9' * 19}x'"
    with pytest.raises(MalformedJson) as err:
        parse_int("9" * 4999 + "x", "field")
    assert str(err.value) == "field is not a decimal integer: '99999999999999999999'... (5000 characters)"


def test_rule_cache_safe_for_concurrent_readers():
    # one shared engine, many threads collecting through it at once
    import random

    from loopnil.nilpotent import collect, nil_inverse, nil_multiply

    def work(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(50):
            word = [
                (rng.randint(1, 3), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 5))
            ]
            u = collect(word, 3, 3)
            assert nil_multiply(u, nil_inverse(u)).is_identity
            out.append(u.exponents)
        return out

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(8)))
    # same seeds in a fresh sequential pass give identical normal forms
    for seed, batch in enumerate(results):
        assert batch == work(seed)
