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


def test_collect_word_aliases():
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
    monkeypatch.setenv("LOOPNIL_MAX_HALL_RANK", "many")
    code, rep = run_json(["collect", "--generators", "2", "--class", "2", "--word", "a"])
    assert code == 3


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


def test_usage_error_exit_code():
    code, _ = run_command(["witt", "--generators", "2"])
    assert code == 2


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


def test_cross_effect_witt_rank_cap_exit():
    # Lie_4 on Z^40 has 639,600 columns; refused before any row is built
    start = time.process_time()
    code, rep = run_json(["cross-effect", "--class", "4", "--ranks", "8,8,8,8,8"])
    assert time.process_time() - start < 1.0
    assert code == 3 and rep["error"]["kind"] == "resource-cap"
    assert "Witt rank of Lie_4(Z^40) = 639600" in rep["error"]["message"]


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
