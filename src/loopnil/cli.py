"""Command-line front end: JSON ingestion, dispatch, deterministic reports.

Exit codes: 0 success, 2 validation failure (malformed input, schema or
simplicial-identity violations, failed checks), 3 resource cap exceeded,
4 internal invariant breach (always a bug).
"""

import argparse
import functools
import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from .abelian import AbelianInvariants
from .caps import current_caps
from .errors import (
    CapExceeded,
    IdentityViolation,
    InputError,
    InternalInvariantError,
    LoopnilError,
    MalformedJson,
    SchemaViolation,
)
from .hall import cross_effect_kernel, hall_basis, total_hall_rank, tree_str, witt_rank
from .jsonio import canonical_dumps, digest_bytes, load_json_bytes, make_report, parse_int
from .nilq import nilpotent_quotient
from .nilpotent import collect
from .simplicial import SimplicialSet
from .tower import layer_homotopy, loop_group, pi0, tower_stage

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# input parsing


def parse_space(data, what="space"):
    """Bytes -> validated space; errors carry codes 1 (malformed JSON),
    2 (schema violation) and 3 (simplicial-identity violation)."""
    obj = load_json_bytes(data, what)
    space = SimplicialSet.from_json(obj)
    bad = space.violations()
    if bad:
        raise IdentityViolation(
            f"{what}: {len(bad)} simplicial violation(s)", {"violations": bad}
        )
    return space


def read_space(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_space(data, what=path), data


def parse_word(text, names):
    """Whitespace-separated letters with optional integer exponents, e.g.
    "b a b^-1"; letters may also be written x1, x2, ... up to the number
    of generators that ``names`` indexes."""
    k = len(set(names.values()))
    word = []
    for token in text.split():
        name, caret, exp = token.partition("^")
        if caret:
            try:
                e = ascii_int(exp)
            except ValueError:
                raise MalformedJson(f"bad exponent in token {token!r}") from None
        else:
            e = 1
        if name in names:
            g = names[name] + 1
        elif name.startswith("x") and _ascii_digits(name[1:]):
            g = int(name[1:])
        else:
            raise SchemaViolation(f"unknown generator {name!r}")
        if not 1 <= g <= k:
            raise SchemaViolation(f"generator {name!r} out of range 1..{k}")
        word.append((g, e))
    return word


def _ascii_digits(text):
    """Nonempty and only 0-9: ``str.isdigit`` also accepts superscripts and
    other scripts' digits, and ``int`` also accepts underscores."""
    return text.isascii() and text.isdigit()


def ascii_int(text):
    """An optional sign, then :func:`_ascii_digits`; the one integer syntax
    of exponents and integer options."""
    if not _ascii_digits(text[1:] if text[:1] in ("+", "-") else text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def default_names(k):
    """a..z aliases for up to 26 generators alongside x1..xk."""
    names = {}
    for i in range(k):
        names[f"x{i + 1}"] = i
        if i < 26:
            names[chr(ord("a") + i)] = i
    return names


def parse_presentation(data, what="presentation"):
    obj = load_json_bytes(data, what)
    if not isinstance(obj, dict):
        raise SchemaViolation(f"{what}: top level must be an object")
    gens = obj.get("generators")
    rels = obj.get("relators")
    if not isinstance(gens, list) or not all(isinstance(g, str) and g for g in gens):
        raise SchemaViolation(f'{what}: "generators" must be a list of names')
    if len(set(gens)) != len(gens):
        raise SchemaViolation(f"{what}: duplicate generator names")
    if not isinstance(rels, list) or not all(isinstance(r, str) for r in rels):
        raise SchemaViolation(f'{what}: "relators" must be a list of words')
    names = {g: i for i, g in enumerate(gens)}
    for i in range(len(gens)):
        names.setdefault(f"x{i + 1}", i)
    words = [parse_word(r, names) for r in rels]
    return len(gens), words


# ---------------------------------------------------------------------------
# command handlers; each returns the result payload


def _invariants_json(inv):
    return inv.to_json()


def cmd_validate(args):
    with open(args.path, "rb") as fh:
        data = fh.read()
    obj = load_json_bytes(data, args.path)
    space = SimplicialSet.from_json(obj)
    bad = space.violations()
    payload = {"ok": not bad, "violations": bad}
    return payload, digest_bytes(data), EXIT_OK if not bad else EXIT_VALIDATION


def cmd_homology(args):
    space, data = read_space(args.path)
    s = args.degree
    if s < 0:
        raise LoopnilError(f"degree must be >= 0, got {s}")
    # H~_s is pi_{s-1} of layer 1, the abelianized loop group (Kan); a
    # reduced space has one vertex, so H~_0 = 0
    inv = layer_homotopy(loop_group(space), 1, s - 1) if s else AbelianInvariants(0)
    return _invariants_json(inv), digest_bytes(data), EXIT_OK


def cmd_hall_basis(args):
    # every weight up to the class is enumerated and cached on the way
    k, n = args.generators, args.cls
    if k >= 0 and n >= 1:
        current_caps().check_layer_rank(
            "Hall tree count", total_hall_rank(k, n), f"hall basis on {k} generators to class {n}"
        )
    trees = hall_basis(k, n)
    payload = {
        "generators": args.generators,
        "class": args.cls,
        "count": len(trees),
        "trees": [tree_str(t) for t in trees],
    }
    return payload, None, EXIT_OK


def cmd_witt(args):
    return witt_rank(args.generators, args.cls), None, EXIT_OK


def cmd_collect(args):
    word = parse_word(args.word, default_names(args.generators))
    elt = collect(word, args.generators, args.cls)
    payload = {
        "generators": args.generators,
        "class": args.cls,
        "word": args.word,
        "normal_form": elt.to_json(),
    }
    return payload, None, EXIT_OK


def cmd_cross_effect(args):
    try:
        ranks = [ascii_int(tok) for tok in args.ranks.split(",") if tok != ""]
    except ValueError:
        raise SchemaViolation(f"--ranks wants comma-separated integers, got {args.ranks!r}")
    if len(ranks) != args.cls + 1 or any(r < 1 for r in ranks):
        raise SchemaViolation(
            f"--ranks wants {args.cls + 1} positive integers for class {args.cls}"
        )
    inv = cross_effect_kernel(args.cls, ranks)
    payload = {"class": args.cls, "ranks": ranks, "kernel": _invariants_json(inv)}
    return payload, None, EXIT_OK


def cmd_nilq(args):
    with open(args.path, "rb") as fh:
        data = fh.read()
    k, relators = parse_presentation(data, args.path)
    q = nilpotent_quotient(k, relators, args.cls)
    return q.to_json(), digest_bytes(data), EXIT_OK


def cmd_loop_group(args):
    space, data = read_space(args.path)
    q = args.degree
    if q < 0:
        raise LoopnilError(f"degree must be >= 0, got {q}")
    g = loop_group(space)
    gens = g.generators(q)
    faces = {}
    if q >= 1:
        for i in range(q + 1):
            words = []
            for idx in range(len(gens)):
                word = g.face_word(q, i, idx)
                words.append(" ".join(f"g{x}^{e}" if e != 1 else f"g{x}" for x, e in word) or "1")
            faces[f"d{i}"] = words
    payload = {
        "degree": q,
        "generator_count": len(gens),
        "generators": [str(r) for r in gens],
        "faces": faces,
    }
    return payload, digest_bytes(data), EXIT_OK


def cmd_tower(args):
    if args.sub != "pi0":
        raise SchemaViolation(f"unknown tower subcommand {args.sub!r}")
    space, data = read_space(args.path)
    stage = tower_stage(loop_group(space), args.cls)
    q = pi0(stage)
    return q.to_json(), digest_bytes(data), EXIT_OK


def cmd_layer_homotopy(args):
    space, data = read_space(args.path)
    inv = layer_homotopy(loop_group(space), args.cls, args.degree)
    payload = {"class": args.cls, "degree": args.degree}
    payload.update(_invariants_json(inv))
    return payload, digest_bytes(data), EXIT_OK


_DATA_ROOT = Path(__file__).resolve().parent / "data"


def data_path(*parts):
    """Filesystem path of a bundled data file."""
    return str(_DATA_ROOT.joinpath(*parts))


def cmd_fixture_check(args):
    with open(data_path("fixtures.json"), "rb") as fh:
        spec = load_json_bytes(fh.read(), "fixtures.json")
    failures = []
    checked = 0
    cap_hit = False
    for entry in spec["fixtures"]:
        checked += 1
        argv = [
            tok.replace("$DATA", data_path()) if isinstance(tok, str) else tok
            for tok in entry["argv"]
        ]
        runs = [run_command(argv), run_command(argv)]
        exits = [r[0] for r in runs]
        outs = [r[1] for r in runs]
        want_exit = parse_int(entry["expect_exit"], "expect_exit")
        want_out = entry["expect_stdout"].replace("$DATA", data_path())
        problems = []
        if outs[0] != outs[1] or exits[0] != exits[1]:
            problems.append("nondeterministic output")
        if exits[0] != want_exit:
            problems.append(f"exit {exits[0]} != {want_exit}")
            if exits[0] == EXIT_CAP:
                cap_hit = True
        if outs[0] != want_out:
            problems.append("stdout differs")
        if problems:
            failures.append({"name": entry["name"], "problems": problems})
    payload = {
        "checked": checked,
        "passed": checked - len(failures),
        "failed": len(failures),
        "failures": failures,
    }
    if cap_hit:
        return payload, None, EXIT_CAP
    return payload, None, EXIT_OK if not failures else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# dispatch


@functools.cache
def build_parser():
    top = argparse.ArgumentParser(
        prog="loopnil",
        description=(
            "Exact lower-central-series towers of loop groups on finite "
            "reduced simplicial sets"
        ),
    )
    top.add_argument(
        "--timing", action="store_true", help="include elapsed_ms in the report"
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="validate a space file")
    p.add_argument("path")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("homology", help="reduced homology of a space")
    p.add_argument("path")
    p.add_argument("--degree", type=ascii_int, required=True)
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser("hall-basis", help="Hall basis of basic commutators")
    p.add_argument("--generators", type=ascii_int, required=True)
    p.add_argument("--class", dest="cls", type=ascii_int, required=True)
    p.set_defaults(handler=cmd_hall_basis)

    p = sub.add_parser("witt", help="rank of a free Lie module component")
    p.add_argument("--generators", type=ascii_int, required=True)
    p.add_argument("--class", dest="cls", type=ascii_int, required=True)
    p.set_defaults(handler=cmd_witt)

    p = sub.add_parser("collect", help="normal form in a free nilpotent group")
    p.add_argument("--generators", type=ascii_int, required=True)
    p.add_argument("--class", dest="cls", type=ascii_int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=cmd_collect)

    p = sub.add_parser("cross-effect", help="kernel of the first collapse map")
    p.add_argument("--class", dest="cls", type=ascii_int, required=True)
    p.add_argument("--ranks", required=True)
    p.set_defaults(handler=cmd_cross_effect)

    p = sub.add_parser("nilq", help="class-n quotient of a presented group")
    p.add_argument("path")
    p.add_argument("--class", dest="cls", type=ascii_int, required=True)
    p.set_defaults(handler=cmd_nilq)

    p = sub.add_parser("loop-group", help="loop-group generators and face words")
    p.add_argument("path")
    p.add_argument("--degree", type=ascii_int, required=True)
    p.set_defaults(handler=cmd_loop_group)

    p = sub.add_parser("tower", help="lower-central tower computations")
    p.add_argument("sub", choices=["pi0"])
    p.add_argument("path")
    p.add_argument("--class", dest="cls", type=ascii_int, required=True)
    p.set_defaults(handler=cmd_tower)

    p = sub.add_parser("layer-homotopy", help="homotopy of a graded layer")
    p.add_argument("path")
    p.add_argument("--class", dest="cls", type=ascii_int, required=True)
    p.add_argument("--degree", type=ascii_int, required=True)
    p.set_defaults(handler=cmd_layer_homotopy)

    p = sub.add_parser("fixture-check", help="recompute and diff all fixtures")
    p.set_defaults(handler=cmd_fixture_check)

    return top


def run_command(argv):
    """Run one command in-process; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = _run(argv)
    return code, buf.getvalue()


def _error_report(verb, code, kind, message, detail=None):
    payload = {"code": code, "kind": kind, "message": message}
    if detail:
        payload["detail"] = detail
    report = make_report(verb or "error", {}, None)
    report["error"] = payload
    del report["result"]
    sys.stdout.write(canonical_dumps(report))


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    verb = args.verb
    started = time.monotonic()
    try:
        result, input_digest, code = args.handler(args)
    except InputError as exc:
        _error_report(
            verb,
            exc.code,
            {1: "malformed-json", 2: "schema", 3: "simplicial-identity"}[exc.code],
            str(exc),
            exc.detail,
        )
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        _error_report(verb, 2, "schema", f"cannot read input: {exc}")
        return EXIT_VALIDATION
    except CapExceeded as exc:
        _error_report(verb, 3, "resource-cap", str(exc))
        return EXIT_CAP
    except InternalInvariantError as exc:
        _error_report(verb, 4, "internal-invariant", str(exc))
        return EXIT_INTERNAL
    except LoopnilError as exc:
        _error_report(verb, 2, "schema", str(exc))
        return EXIT_VALIDATION
    inputs = {"args": _echo_args(args)}
    if input_digest is not None:
        inputs["sha256"] = input_digest
    report = make_report(verb, inputs, result)
    if args.timing:
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    sys.stdout.write(canonical_dumps(report))
    return code


def _echo_args(args):
    skip = {"handler", "verb", "timing"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        out[key] = val
    return out


def main():
    sys.exit(_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
