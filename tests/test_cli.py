import json
import os
import subprocess
import sys
import time

import pytest

from loopnil.cli import data_path, run_command

import oracles


def run_json(argv):
    code, out = run_command(argv)
    return code, json.loads(out)


def space(name):
    return data_path("spaces", name)


def presentation(name):
    return data_path("presentations", name)


def test_witt_report():
    code, rep = run_json(["witt", "--generators", "2", "--class", "3"])
    assert code == 0
    assert rep["result"] == 2
    assert rep["schema"] == "loopnil/1"
    assert rep["verb"] == "witt"
    assert rep["result"] == oracles.witt_by_necklaces(2, 3)


def test_hall_basis_report():
    code, rep = run_json(["hall-basis", "--generators", "2", "--class", "3"])
    assert code == 0
    assert rep["result"]["count"] == 2
    assert rep["result"]["trees"] == ["[[x2,x1],x1]", "[[x2,x1],x2]"]


def test_validate_ok_and_violation_exit_codes():
    code, rep = run_json(["validate", space("s2.json")])
    assert code == 0 and rep["result"]["ok"] is True
    code, rep = run_json(["validate", space("bad_face_target.json")])
    assert code == 2 and rep["result"]["ok"] is False
    assert rep["result"]["violations"][0]["simplex"] == "e"


def test_parse_error_codes_distinct():
    code, rep = run_json(["validate", space("bad_syntax.json")])
    assert code == 2 and rep["error"]["code"] == 1
    code, rep = run_json(["validate", space("bad_duplicate_id.json")])
    assert code == 2 and rep["error"]["code"] == 2
    code, rep = run_json(["validate", space("bad_word_order.json")])
    assert code == 2 and rep["error"]["code"] == 2
    # identity-level violations surface with code 3 on computing commands
    code, rep = run_json(["homology", space("bad_face_target.json"), "--degree", "1"])
    assert code == 2 and rep["error"]["code"] == 3


def face(word, base="*"):
    return {"degeneracies": word, "base": base}


@pytest.mark.parametrize(
    "edges, faces",
    [
        ([], [face([5]), face([0]), face([0])]),
        ([{"id": "e", "faces": [face([])] * 2}], [face([], "e"), face([1]), face([], "e")]),
    ],
)
def test_degeneracy_out_of_range_is_a_validation_failure(tmp_path, edges, faces):
    # a face word s_j on a simplex of dimension below j is not canonical
    obj = {
        "name": "bad",
        "simplices": [[{"id": "*", "faces": []}], edges, [{"id": "t", "faces": faces}]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, rep = run_json(["validate", str(path)])
    assert code == 2 and rep["result"]["ok"] is False
    assert rep["result"]["violations"][0]["rule"] == "canonical-form"
    for argv in (
        ["homology", str(path), "--degree", "1"],
        ["layer-homotopy", str(path), "--class", "1", "--degree", "0"],
    ):
        code, rep = run_json(argv)
        assert code == 2 and rep["error"]["kind"] == "simplicial-identity", argv


def test_homology_results():
    code, rep = run_json(["homology", space("s2.json"), "--degree", "2"])
    assert code == 0 and rep["result"] == {"rank": 1, "torsion": []}
    code, rep = run_json(["homology", space("moore_2_2.json"), "--degree", "2"])
    assert code == 0 and rep["result"] == {"rank": 0, "torsion": [2]}


def test_tower_pi0_report():
    code, rep = run_json(["tower", "pi0", space("wedge2.json"), "--class", "2"])
    assert code == 0
    assert rep["result"]["layers"] == [
        {"rank": 2, "torsion": []},
        {"rank": 1, "torsion": []},
    ]


def test_collect_word_aliases(tmp_path):
    code, rep = run_json(
        ["collect", "--generators", "2", "--class", "2", "--word", "x2 x1"]
    )
    assert code == 0
    assert rep["result"]["normal_form"] == [
        {"letter": "x1", "exponent": 1},
        {"letter": "x2", "exponent": 1},
        {"letter": "[x2,x1]", "exponent": 1},
    ]
    code, rep = run_json(
        ["collect", "--generators", "2", "--class", "2", "--word", "q a"]
    )
    assert code == 2 and rep["error"]["code"] == 2
    # a..z name the first 26 generators; x<i> names any, leading zeros dropped
    code, rep = run_json(["collect", "--generators", "30", "--class", "1", "--word", "x27 x01^2 a"])
    assert code == 0 and rep["result"]["normal_form"] == [
        {"letter": "x1", "exponent": 3},
        {"letter": "x27", "exponent": 1},
    ]
    # a presentation's own names come first, then x<i> by position
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"generators": ["x2", "q"], "relators": ["x2^2", "x02^3"]}))
    code, rep = run_json(["nilq", str(path), "--class", "2"])
    assert code == 0 and rep["result"]["relations"][0] == "x1^2"
    assert rep["result"]["layers"][0] == {"rank": 0, "torsion": [6]}


@pytest.mark.parametrize(
    "word, kind, message",
    [
        ("a^ b", "malformed-json", "bad exponent in token 'a^'"),
        ("x3", "schema", "generator 'x3' out of range 1..2"),
        ("x5", "schema", "generator 'x5' out of range 1..2"),
        # only ASCII digits: "²".isdigit() holds, and int() reads "٣" and "1_000"
        ("x²", "schema", "unknown generator 'x²'"),
        ("a^٣", "malformed-json", "bad exponent in token 'a^٣'"),
        ("a^1_000", "malformed-json", "bad exponent in token 'a^1_000'"),
        # bad text is quoted whole up to 20 characters, else by a prefix
        ("q" * 20, "schema", "unknown generator 'qqqqqqqqqqqqqqqqqqqq'"),
        ("q" * 21, "schema", "unknown generator 'qqqqqqqqqqqqqqqqqqqq'... (21 characters)"),
        pytest.param(
            "x" + "9" * 5000,
            "schema",
            "generator 'x9999999999999999999'... (5001 characters) out of range 1..2",
            id="long-letter",
        ),
        pytest.param(
            "q" * 5000, "schema", "unknown generator 'qqqqqqqqqqqqqqqqqqqq'... (5000 characters)", id="long-name"
        ),
        pytest.param(
            "a^x" + "9" * 4997,
            "malformed-json",
            "bad exponent in token 'a^x99999999999999999'... (5000 characters)",
            id="long-exponent",
        ),
    ],
)
def test_word_exponents_and_generator_range(tmp_path, word, kind, message):
    # the range counts generators, not their a..z and x<i> spellings
    code, rep = run_json(["collect", "--generators", "2", "--class", "2", "--word", word])
    assert code == 2
    assert (rep["error"]["kind"], rep["error"]["message"]) == (kind, message)
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": [word]}))
    code, rep = run_json(["nilq", str(path), "--class", "2"])
    assert code == 2
    assert (rep["error"]["kind"], rep["error"]["message"]) == (kind, message)


def test_nilq_cli():
    code, rep = run_json(["nilq", presentation("commuting2.json"), "--class", "2"])
    assert code == 0
    assert rep["result"]["layers"] == [
        {"rank": 2, "torsion": []},
        {"rank": 0, "torsion": []},
    ]


def test_determinism_byte_identical():
    cmds = [
        ["witt", "--generators", "3", "--class", "4"],
        ["homology", space("moore_2_2.json"), "--degree", "2"],
        ["tower", "pi0", space("wedge2.json"), "--class", "2"],
        ["layer-homotopy", space("s2.json"), "--class", "2", "--degree", "2"],
        ["fixture-check"],
    ]
    for argv in cmds:
        first = run_command(argv)
        second = run_command(argv)
        assert first == second, argv


def test_timing_flag_only_opt_in():
    _, out1 = run_command(["witt", "--generators", "2", "--class", "2"])
    assert "elapsed_ms" not in out1
    _, out2 = run_command(["--timing", "witt", "--generators", "2", "--class", "2"])
    assert "elapsed_ms" in out2


def test_cap_exceeded_exit_code(monkeypatch):
    monkeypatch.setenv("LOOPNIL_MAX_HALL_RANK", "3")
    code, rep = run_json(["collect", "--generators", "3", "--class", "2", "--word", "a b"])
    assert code == 3
    assert rep["error"]["kind"] == "resource-cap"


def test_cap_env_must_be_integer(monkeypatch):
    # an override takes the integer syntax of options: int() would also read
    # full-width and other scripts' digits, underscores and padding
    argv = ["collect", "--generators", "3", "--class", "2", "--word", "a"]
    for raw in ("many", "５", "1_0", " 5", "٣"):
        monkeypatch.setenv("LOOPNIL_MAX_HALL_RANK", raw)
        code, rep = run_json(argv)
        assert code == 3, raw
        assert rep["error"]["message"] == f"LOOPNIL_MAX_HALL_RANK must be an integer, got {raw!r}"
    # a sign is part of the syntax; the total Hall rank here is 6
    monkeypatch.setenv("LOOPNIL_MAX_HALL_RANK", "+600")
    assert run_json(argv)[0] == 0
    monkeypatch.setenv("LOOPNIL_MAX_HALL_RANK", "+5")
    code, rep = run_json(argv)
    assert code == 3 and "total Hall rank 6 exceeds cap 5" in rep["error"]["message"]


def test_cap_env_reports_long_values_briefly(monkeypatch):
    # an override of more digits than Python converts is still an integer:
    # it is refused by its digit count, and a long non-integer by a prefix
    argv = ["collect", "--generators", "3", "--class", "2", "--word", "a"]
    limit = sys.get_int_max_str_digits()
    for raw in ("9" * 5000, "-" + "9" * 5000):
        monkeypatch.setenv("LOOPNIL_MAX_CLASS", raw)
        code, rep = run_json(argv)
        assert code == 3
        assert rep["error"]["message"] == (
            f"LOOPNIL_MAX_CLASS of 5000 digits exceeds the {limit}-digit limit "
            "of integer conversion"
        )
    monkeypatch.setenv("LOOPNIL_MAX_CLASS", "9" * 4999 + "x")
    code, rep = run_json(argv)
    assert code == 3
    assert rep["error"]["message"] == (
        "LOOPNIL_MAX_CLASS must be an integer, got '99999999999999999999'... (5000 characters)"
    )


def test_fixture_check_passes():
    code, rep = run_json(["fixture-check"])
    assert code == 0
    assert rep["result"]["failed"] == 0
    assert rep["result"]["checked"] >= 30


def test_fixture_check_detects_perturbation(tmp_path, monkeypatch):
    # a perturbed expectation must fail with the fixture named
    with open(data_path("fixtures.json")) as fh:
        spec = json.load(fh)
    spec["fixtures"] = [dict(spec["fixtures"][0])]
    spec["fixtures"][0]["expect_stdout"] = spec["fixtures"][0]["expect_stdout"].replace(
        '"result":2', '"result":3'
    )
    bad = tmp_path / "fixtures.json"
    bad.write_text(json.dumps(spec))

    import loopnil.cli as cli

    real_data_path = cli.data_path

    def fake_data_path(*parts):
        if parts and parts[0] == "fixtures.json":
            return str(bad)
        return real_data_path(*parts)

    monkeypatch.setattr(cli, "data_path", fake_data_path)
    code, rep = run_json(["fixture-check"])
    assert code == 2
    assert rep["result"]["failures"][0]["name"] == spec["fixtures"][0]["name"]


def test_fixture_check_cap_exit(monkeypatch):
    # lowering a cap below a fixture's need exits 3, not a silent skip
    monkeypatch.setenv("LOOPNIL_MAX_HALL_RANK", "2")
    code, rep = run_json(["fixture-check"])
    assert code == 3


def test_commands_do_not_mutate_inputs():
    path = space("s2.json")
    with open(path, "rb") as fh:
        before = fh.read()
    run_command(["homology", path, "--degree", "2"])
    run_command(["validate", path])
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_console_entry_point_subprocess():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "loopnil", "witt", "--generators", "2", "--class", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == 1


def test_usage_error_exit_code(capsys):
    # argparse's own form: usage on stderr, no JSON report on stdout
    for argv in (
        ["witt", "--generators", "two", "--class", "2"],
        ["witt", "--generators", "2"],
        ["no-such-verb"],
    ):
        code, out = run_command(argv)
        assert (code, out) == (2, ""), argv
        assert "usage:" in capsys.readouterr().err, argv
    # a bad integer option is echoed briefly, not whole
    code, out = run_command(["witt", "--generators", "2", "--class", "9" * 5000])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert "invalid integer" in err and len(err.encode()) < 300


_USAGE = {
    "validate": "usage: loopnil validate [-h] path",
    "homology": "usage: loopnil homology [-h] --degree DEGREE path",
    "hall-basis": "usage: loopnil hall-basis [-h] --generators GENERATORS --class CLS",
    "witt": "usage: loopnil witt [-h] --generators GENERATORS --class CLS",
    "collect": "usage: loopnil collect [-h] --generators GENERATORS --class CLS --word WORD",
    "cross-effect": "usage: loopnil cross-effect [-h] --class CLS --ranks RANKS",
    "nilq": "usage: loopnil nilq [-h] --class CLS path",
    "loop-group": "usage: loopnil loop-group [-h] --degree DEGREE path",
    "tower": "usage: loopnil tower [-h] --class CLS {pi0} path",
    "layer-homotopy": "usage: loopnil layer-homotopy [-h] --class CLS --degree DEGREE path",
    "fixture-check": "usage: loopnil fixture-check [-h]",
}


@pytest.mark.parametrize("verb", list(_USAGE))
def test_usage_lines(monkeypatch, verb):
    # the order of the parent parsers a verb lists is the order of its usage
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run_command([verb, "--help"])
    assert code == 0 and out.splitlines()[0] == _USAGE[verb]


def test_degree_cap_exit(monkeypatch):
    monkeypatch.setenv("LOOPNIL_MAX_DEGREE", "2")
    code, rep = run_json(
        ["layer-homotopy", space("s2.json"), "--class", "1", "--degree", "3"]
    )
    assert code == 3 and rep["error"]["kind"] == "resource-cap"


def test_layer_rank_cap_exit(tmp_path):
    # pi_4 of layer 4 over M(Z/3,2) eliminates over N_5 = 258,795 trees
    from loopnil.simplicial import moore_space

    path = tmp_path / "m32.json"
    path.write_text(json.dumps(moore_space(3, 2).to_json()))
    code, rep = run_json(["layer-homotopy", str(path), "--class", "4", "--degree", "4"])
    assert code == 3 and rep["error"]["kind"] == "resource-cap"
    assert "N_5 = 258795" in rep["error"]["message"]


def test_homology_degree_cap_exit(tmp_path):
    # degree 7 is one past the default degree cap; its simplices are never
    # listed, however far past the cap the request goes
    from loopnil.simplicial import sphere

    for degree in ("7", "1000"):
        start = time.process_time()
        code, rep = run_json(["homology", space("s2.json"), "--degree", degree])
        assert time.process_time() - start < 1.0
        assert code == 3 and rep["error"]["kind"] == "resource-cap"
        assert f"degree {degree} exceeds cap 6" in rep["error"]["message"]
    # the highest degree within the cap still answers
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(sphere(3).to_json()))
    code, rep = run_json(["homology", str(path), "--degree", "6"])
    assert code == 0 and rep["result"] == {"rank": 0, "torsion": []}


def test_homology_degree_zero_and_negative():
    # a reduced space is connected: H~_0 vanishes without a loop group
    code, rep = run_json(["homology", space("wedge2.json"), "--degree", "0"])
    assert code == 0 and rep["result"] == {"rank": 0, "torsion": []}
    code, rep = run_json(["homology", space("wedge2.json"), "--degree", "-1"])
    assert code == 2 and rep["error"]["message"] == "degree must be >= 0, got -1"


def test_loop_group_negative_degree_exit():
    code, rep = run_json(["loop-group", space("s2.json"), "--degree", "-1"])
    assert code == 2 and rep["error"]["message"] == "degree must be >= 0, got -1"


@pytest.mark.parametrize(
    "argv",
    [
        # int() reads other scripts' digits, underscores and padding
        ["witt", "--generators", "٣", "--class", "2"],
        ["witt", "--generators", "3", "--class", "2_0"],
        ["witt", "--generators", " 3", "--class", "2"],
        ["homology", space("s2.json"), "--degree", "²"],
        ["cross-effect", "--class", "2", "--ranks", "1_0,1,1"],
        ["cross-effect", "--class", "2", "--ranks", "1,١,1"],
    ],
)
def test_integer_arguments_are_ascii(argv):
    code, _ = run_command(argv)
    assert code == 2


@pytest.mark.parametrize("ranks", [",1,,1,1,", "1,,1,1", "1,1,1,", ",1,1,1"])
def test_cross_effect_rejects_empty_ranks(ranks):
    code, rep = run_json(["cross-effect", "--class", "2", "--ranks", ranks])
    assert code == 2 and rep["error"]["kind"] == "schema"


@pytest.mark.parametrize(
    "cls, ranks, message",
    [
        ("0", "1", "class must be >= 1, got 0"),
        ("-1", "1", "class must be >= 1, got -1"),
        ("2", "1,0,1", "cross-effect kernel of Lie_2 needs 3 positive ranks"),
        ("2", "1,1", "cross-effect kernel of Lie_2 needs 3 positive ranks"),
    ],
)
def test_cross_effect_class_and_ranks_are_checked_by_the_kernel(cls, ranks, message):
    code, rep = run_json(["cross-effect", "--class", cls, "--ranks", ranks])
    assert code == 2
    assert (rep["error"]["kind"], rep["error"]["message"]) == ("schema", message)


def test_integer_arguments_take_a_sign():
    code, rep = run_json(["witt", "--generators", "+3", "--class", "2"])
    assert code == 0 and rep["result"] == 3
    code, rep = run_json(["cross-effect", "--class", "2", "--ranks", "+2,1,1"])
    assert code == 0 and rep["result"]["ranks"] == [2, 1, 1]


def test_hall_basis_size_cap_exit():
    # 1,680,220 trees over all weights up to 5; refused before any is listed
    start = time.process_time()
    code, rep = run_json(["hall-basis", "--generators", "24", "--class", "5"])
    assert time.process_time() - start < 1.0
    assert code == 3 and rep["error"]["kind"] == "resource-cap"
    assert "Hall tree count = 1680220" in rep["error"]["message"]
    code, rep = run_json(["hall-basis", "--generators", "12", "--class", "5"])
    assert code == 0 and rep["result"]["count"] == 49764


def test_witt_report_digit_refusal():
    # 2^20000 / 20000 has about 6,000 digits, past the 4,300 that Python
    # prints; refused before the rank is computed
    for k, n, digits in ((2, 20000, 6021), (100000000, 100000, 800001)):
        start = time.process_time()
        code, rep = run_json(["witt", "--generators", str(k), "--class", str(n)])
        assert time.process_time() - start < 1.0
        assert code == 3 and rep["error"]["kind"] == "resource-cap"
        assert f"about {digits} decimal digits" in rep["error"]["message"]
    # 1,905 digits still answer, and k <= 1 never needs the estimate
    code, rep = run_json(["witt", "--generators", "3", "--class", "4000"])
    assert code == 0 and len(rep["result"]) == 1905
    code, rep = run_json(["witt", "--generators", "1", "--class", "20000"])
    assert code == 0 and rep["result"] == 0


def test_cross_effect_witt_rank_cap_exit():
    # Lie_4 on Z^40 has 639,600 columns; refused before any row is built
    start = time.process_time()
    code, rep = run_json(["cross-effect", "--class", "4", "--ranks", "8,8,8,8,8"])
    assert time.process_time() - start < 1.0
    assert code == 3 and rep["error"]["kind"] == "resource-cap"
    assert "Witt rank of Lie_4(Z^40) = 639600" in rep["error"]["message"]


@pytest.mark.parametrize(
    "argv, want",
    [
        # one generator has no brackets, and no Witt rank needs a divisor
        (["hall-basis", "--generators", "1", "--class", "100000000"], 0),
        (["hall-basis", "--generators", "0", "--class", "100000000"], 0),
        (["witt", "--generators", "1", "--class", "100000000000"], 0),
        # two generators pass the cap within a few weights of any class
        (["collect", "--generators", "2", "--class", "100000", "--word", "a"], 3),
        (["hall-basis", "--generators", "2", "--class", "100000"], 3),
        (["nilq", presentation("commuting2.json"), "--class", "100000"], 3),
        # no name is listed per generator before the Hall-rank refusal
        (["collect", "--generators", "10000000", "--class", "2", "--word", "a"], 3),
        (["collect", "--generators", "100000000", "--class", "2", "--word", "a"], 3),
    ],
)
def test_huge_class_answers_or_is_refused_at_once(argv, want):
    start = time.process_time()
    code, rep = run_json(argv)
    assert time.process_time() - start < 1.0
    assert code == want
    if want == 0:
        result = rep["result"]
        assert (result if argv[0] == "witt" else result["count"]) == 0
    else:
        assert rep["error"]["kind"] == "resource-cap"
        assert "summing stopped early" in rep["error"]["message"]


@pytest.mark.parametrize("name, k", [("cyclic2.json", 1), (None, 0)])
def test_nilq_layer_count_is_refused_at_once(tmp_path, name, k):
    # on 0 or 1 generators no Hall rank grows with the class, so the layer
    # cap bounds the report's one layer per weight
    if name is None:
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"generators": [], "relators": []}))
    else:
        path = presentation(name)
    start = time.process_time()
    code, rep = run_json(["nilq", str(path), "--class", "100000000"])
    assert time.process_time() - start < 1.0
    assert code == 3 and rep["error"]["kind"] == "resource-cap"
    assert f"quotient on {k} generators: layers listed = 100000000 exceeds" in rep["error"]["message"]


def test_integers_too_long_to_print_are_refused(tmp_path):
    # A^2 has about 6,000 digits, past the 4,300 that Python prints: the
    # collect report's exponent and a nilq relation's exponent
    a = "9" * 3000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": [f"b^{a} a^{a}"]}))
    limit = sys.get_int_max_str_digits()
    for argv in (
        ["collect", "--generators", "2", "--class", "2", "--word", f"b^{a} a^{a}"],
        ["nilq", str(path), "--class", "2"],
    ):
        code, rep = run_json(argv)
        assert code == 3 and rep["error"]["kind"] == "resource-cap", argv
        assert f"about 6000 decimal digits exceeds the {limit}-digit limit" in rep["error"]["message"]
    # A itself still prints
    code, rep = run_json(["collect", "--generators", "2", "--class", "2", "--word", f"a^{a}"])
    assert code == 0 and rep["result"]["normal_form"] == [{"letter": "x1", "exponent": a}]


def test_one_generator_engine_answers_at_any_class():
    # every weight above 1 is empty on one generator, so none gets a table
    start = time.process_time()
    code, rep = run_json(["collect", "--generators", "1", "--class", "10000000", "--word", "a^3 a"])
    assert time.process_time() - start < 1.0
    assert code == 0 and rep["result"]["normal_form"] == [{"letter": "x1", "exponent": 4}]


def test_integers_too_long_to_read_are_rejected(tmp_path):
    # Python converts at most 4,300 digits to an integer: a longer x<digits>
    # letter is out of range unconverted, and a longer JSON integer is
    # malformed input, both exit 2 with a report
    b = "9" * 5000
    code, rep = run_json(["collect", "--generators", "2", "--class", "2", "--word", f"x{b}"])
    assert code == 2
    assert rep["error"]["message"] == f"generator 'x{b[:19]}'... (5001 characters) out of range 1..2"
    # leading zeros add no length
    code, rep = run_json(["collect", "--generators", "2", "--class", "2", "--word", f"x{'0' * 5000}2"])
    assert code == 0 and rep["result"]["normal_form"] == [{"letter": "x2", "exponent": 1}]
    cell = {"id": "e", "faces": [face([]), {"degeneracies": ["B"], "base": "*"}]}
    text = json.dumps({"name": "big", "simplices": [[{"id": "*", "faces": []}], [cell]]})
    path = tmp_path / "big.json"
    path.write_text(text.replace('"B"', b))
    code, rep = run_json(["validate", str(path)])
    assert code == 2 and rep["error"]["kind"] == "malformed-json"
    assert "value has 5000 digits" in rep["error"]["message"]
    # a syntax error keeps its position
    path.write_text(text.replace('"B"', "9,"))
    code, rep = run_json(["validate", str(path)])
    assert code == 2 and "malformed JSON at line 1 column" in rep["error"]["message"]


def test_exponents_too_long_to_read_are_refused(tmp_path):
    # a well-formed exponent past the 4,300 digits that Python converts is
    # a cap, in a collect word and in a nilq relator; other bad syntax stays
    # malformed
    b = "9" * 5000
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "big.json"
    for exp in (b, f"-{b}", f"+{b}"):
        path.write_text(json.dumps({"generators": ["a", "b"], "relators": [f"a^{exp}"]}))
        for argv in (
            ["collect", "--generators", "2", "--class", "2", "--word", f"a^{exp}"],
            ["nilq", str(path), "--class", "2"],
        ):
            start = time.process_time()
            code, rep = run_json(argv)
            assert time.process_time() - start < 1.0
            assert code == 3 and rep["error"]["kind"] == "resource-cap", argv
            assert rep["error"]["message"] == (
                f"exponent of 5000 digits exceeds the {limit}-digit limit of integer conversion"
            )
    code, rep = run_json(["collect", "--generators", "2", "--class", "2", "--word", f"a^+-{b}"])
    assert code == 2 and rep["error"]["kind"] == "malformed-json"
    # an integer option stays a usage error
    assert run_command(["witt", "--generators", "2", "--class", b])[0] == 2


def test_class_cap_exit(monkeypatch):
    monkeypatch.setenv("LOOPNIL_MAX_CLASS", "2")
    code, rep = run_json(["tower", "pi0", space("wedge2.json"), "--class", "3"])
    assert code == 3 and rep["error"]["kind"] == "resource-cap"


def test_parser_reuse_after_usage_error():
    # one parser serves every command in a process: a usage error in
    # between must not change the next report
    argv = ["nilq", presentation("cyclic2.json"), "--class", "3"]
    first = run_command(argv)
    assert first[0] == 0
    assert run_command(["nilq", presentation("cyclic2.json")])[0] == 2
    assert run_command(argv) == first


def _deep_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    return str(path)


# exit code, error.code and error.kind of each failure
_CONTRACT = {
    "malformed-json": (2, 1, "malformed-json"),
    "schema": (2, 2, "schema"),
    "simplicial-identity": (2, 3, "simplicial-identity"),
    "cap": (3, 3, "resource-cap"),
    "internal-invariant": (4, 4, "internal-invariant"),
    "bare-loopnil-error": (2, 2, "schema"),
    "missing-file": (2, 2, "schema"),
    "directory": (2, 2, "schema"),
    "long-name": (2, 2, "schema"),
    "nul-byte": (2, 2, "schema"),
    "deep-json": (2, 1, "malformed-json"),
}


@pytest.mark.parametrize("case", list(_CONTRACT))
def test_error_contract_table(tmp_path, monkeypatch, case):
    # each error class reports its own exit code, error.code and kind, in
    # one JSON line; an unreadable path or a nesting past the recursion
    # limit is a report too, not a traceback
    import loopnil.cli as cli
    from loopnil.errors import InternalInvariantError, LoopnilError

    if case in ("internal-invariant", "bare-loopnil-error"):
        error = InternalInvariantError if case == "internal-invariant" else LoopnilError

        def fail(k, n):
            raise error("probe")

        monkeypatch.setattr(cli, "witt_rank", fail)
    argv = {
        "malformed-json": ["validate", space("bad_syntax.json")],
        "schema": ["validate", space("bad_duplicate_id.json")],
        "simplicial-identity": ["homology", space("bad_face_target.json"), "--degree", "1"],
        "cap": ["hall-basis", "--generators", "24", "--class", "5"],
        "internal-invariant": ["witt", "--generators", "2", "--class", "2"],
        "bare-loopnil-error": ["witt", "--generators", "2", "--class", "2"],
        "missing-file": ["validate", str(tmp_path / "missing.json")],
        "directory": ["validate", str(tmp_path)],
        "long-name": ["validate", str(tmp_path / ("a" * 5000))],
        # no command line holds a NUL byte, but an in-process argv can
        "nul-byte": ["validate", str(tmp_path / "a\0b")],
        "deep-json": ["nilq", _deep_json(tmp_path), "--class", "2"],
    }[case]
    code, out = run_command(argv)
    assert out.endswith("\n") and out.count("\n") == 1
    error = json.loads(out)["error"]
    assert (code, error["code"], error["kind"]) == _CONTRACT[case]
    if case in ("internal-invariant", "bare-loopnil-error"):
        assert error["message"] == "probe"
    if case in ("missing-file", "directory", "long-name", "nul-byte"):
        assert error["message"].startswith("cannot read input: ")


@pytest.mark.parametrize(
    "verb",
    [
        ["validate"],
        ["homology", "--degree", "1"],
        ["nilq", "--class", "2"],
        ["loop-group", "--degree", "1"],
        ["tower", "pi0", "--class", "2"],
        ["layer-homotopy", "--class", "1", "--degree", "1"],
    ],
    ids=lambda verb: verb[0],
)
def test_every_file_verb_reports_unreadable_input(tmp_path, verb):
    # the path goes where the verb takes it: after the verb, or after "pi0"
    at = 2 if verb[0] == "tower" else 1
    for path, kind in (
        (str(tmp_path), "schema"),
        (str(tmp_path / ("a" * 5000)), "schema"),
        (_deep_json(tmp_path), "malformed-json"),
    ):
        code, out = run_command(verb[:at] + [path] + verb[at:])
        assert code == 2 and out.count("\n") == 1, (verb, kind)
        assert json.loads(out)["error"]["kind"] == kind, verb


def _vertex(cid="*", faces=()):
    return {"id": cid, "faces": list(faces)}


def _edge(faces):
    return {"id": "e", "faces": faces}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "top level must be an object"),
        ({"simplices": [[_vertex()]]}, 'missing or non-string "name"'),
        ({"name": "x", "simplices": []}, '"simplices" must be a nonempty array per dimension'),
        ({"name": "x", "simplices": [[_vertex()], {}]}, "dimension 1 must be an array"),
        ({"name": "x", "simplices": [[_vertex()], [3]]}, "simplex entries in dimension 1 must be objects"),
        ({"name": "x", "simplices": [[_vertex()], [{"id": "", "faces": []}]]},
         "simplex in dimension 1 lacks a string id"),
        ({"name": "x", "simplices": [[_vertex()], [{"id": "e"}]]}, "simplex 'e' lacks a faces array"),
        ({"name": "x", "simplices": [[_vertex(faces=[face([])])]]}, "vertices have no faces"),
        ({"name": "x", "simplices": [[_vertex()], [_edge([face([])])]]}, "simplex 'e' needs 2 faces, got 1"),
        ({"name": "x", "simplices": [[_vertex()], [_edge([face([]), "*"])]]}, "face 1 of 'e' must be an object"),
        ({"name": "x", "simplices": [[_vertex()], [_edge([face([]), face([-1])])]]},
         "face 1 of 'e': degeneracies must be nonnegative ints"),
        ({"name": "x", "simplices": [[_vertex()], [_edge([face([]), face([], "")])]]},
         "face 1 of 'e': base must be a cell id"),
        ({"name": "x", "simplices": [[_vertex("v")]]}, 'dimension 0 must hold exactly the vertex "*"'),
    ],
)
def test_space_schema_rejections(tmp_path, obj, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(obj))
    code, rep = run_json(["validate", str(path)])
    assert code == 2
    assert (rep["error"]["kind"], rep["error"]["message"]) == ("schema", message)


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "top level must be an object"),
        ({"generators": ["a", ""], "relators": []}, '"generators" must be a list of names'),
        ({"generators": ["a", "a"], "relators": []}, "duplicate generator names"),
        ({"generators": ["a"], "relators": [1]}, '"relators" must be a list of words'),
    ],
)
def test_presentation_schema_rejections(tmp_path, obj, message):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(obj))
    code, rep = run_json(["nilq", str(path), "--class", "2"])
    assert code == 2
    assert (rep["error"]["kind"], rep["error"]["message"]) == ("schema", f"{path}: {message}")


def test_cross_effect_rejects_non_integer_ranks():
    code, rep = run_json(["cross-effect", "--class", "2", "--ranks", "x"])
    assert code == 2
    assert (rep["error"]["kind"], rep["error"]["message"]) == (
        "schema",
        "--ranks wants comma-separated integers, got 'x'",
    )
    # a rank too long to convert is not an integer either, and is quoted briefly
    code, rep = run_json(["cross-effect", "--class", "1", "--ranks", "9" * 5000 + ",1"])
    assert code == 2
    assert (rep["error"]["kind"], rep["error"]["message"]) == (
        "schema",
        "--ranks wants comma-separated integers, got '99999999999999999999'... (5002 characters)",
    )


def test_outside_text_is_echoed_briefly(tmp_path):
    # long ids, space names and input paths are quoted by their first 20
    # characters and their length, in reports and in messages
    long = "c" * 5000

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    star = face([])
    with open(space("s2.json")) as fh:
        named = json.load(fh)
    named["name"] = long
    named = write("named.json", named)
    cases = [
        ["validate", write("dup.json", {"name": "d", "simplices": [
            [_vertex()], [{"id": long, "faces": [star, star]}] * 2]})],
        ["validate", write("short.json", {"name": "f", "simplices": [
            [_vertex()], [{"id": long, "faces": [star]}]]})],
        ["validate", write("ghost.json", {"name": "g", "simplices": [
            [_vertex()], [_edge([star, face([], long)])]]})],
        ["layer-homotopy", named, "--class", "5", "--degree", "1"],
        ["layer-homotopy", named, "--class", "1", "--degree", "9"],
        ["tower", "pi0", named, "--class", "5"],
        ["validate", str(tmp_path / long)],
    ]
    for argv in cases:
        code, out = run_command(argv)
        assert code in (2, 3) and "characters)" in out, argv[1:]
        assert len(out.encode()) < 1000, argv[1:]
