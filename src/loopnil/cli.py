"""Command-line front end: JSON ingestion, dispatch, deterministic reports.

Exit codes: 0 success, 2 a failed check (``validate``, ``fixture-check``) or
a usage error.  Every other failure is a :class:`~loopnil.errors.LoopnilError`
that carries its own exit code and report ``code`` and ``kind``; the table
lives in :mod:`loopnil.errors`.

Each argument is declared once, in a parent parser that every verb taking it
lists, and the integer options share one ``type``, :func:`int_option`.  Text
from outside echoed in a report or usage error (option values, ids, names,
input paths) is shortened by :func:`~loopnil.caps.quoted`.
"""

import argparse
import functools
import io
import math
import sys
import time
from contextlib import redirect_stdout, suppress
from pathlib import Path

from .abelian import AbelianInvariants
from .caps import ascii_digits, ascii_int, current_caps, quoted
from .errors import CapExceeded, IdentityViolation, LoopnilError, MalformedJson, SchemaViolation
from .hall import capped_hall_rank, cross_effect_kernel, hall_basis, tree_str, witt_rank
from .jsonio import canonical_dumps, digest_bytes, load_json_bytes, make_report, parse_int
from .nilq import nilpotent_quotient
from .nilpotent import collect
from .simplicial import SimplicialSet
from .tower import layer_homotopy, loop_group, pi0, tower_stage

EXIT_OK = 0
EXIT_VALIDATION = 2


# ---------------------------------------------------------------------------
# input parsing


def read_input(path):
    """The bytes of an input file; a path that cannot be read (missing, a
    directory, a name too long, or, in process, one holding a NUL byte) is
    a schema violation."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        # the OS's reason, without its own whole echo of the path
        reason = getattr(exc, "strerror", None) or exc
        raise SchemaViolation(f"cannot read input: {quoted(path)}: {reason}") from None


def read_space(path):
    """A space file's validated space and its bytes; errors carry codes 1
    (malformed JSON), 2 (schema violation) and 3 (simplicial-identity
    violation)."""
    data = read_input(path)
    space = SimplicialSet.from_json(load_json_bytes(data, path))
    bad = space.violations()
    if bad:
        raise IdentityViolation(
            f"{path}: {len(bad)} simplicial violation(s)", {"violations": bad}
        )
    return space, data


def parse_word(text, names, k):
    """Whitespace-separated letters with optional integer exponents, e.g.
    "b a b^-1", over k generators; a letter is a key of ``names`` (mapping
    to a 0-based index) or, failing that, one of x1, x2, ..., xk.  An
    exponent too long for Python to convert is refused as a cap."""
    word = []
    for token in text.split():
        name, caret, exp = token.partition("^")
        if caret:
            try:
                e = ascii_int(exp, "exponent")
            except ValueError:
                raise MalformedJson(f"bad exponent in token {quoted(token)}") from None
        else:
            e = 1
        if name in names:
            g = names[name] + 1
        elif name.startswith("x") and ascii_digits(name[1:]):
            # a numeral longer than k's is out of range and is not converted
            digits = name[1:].lstrip("0")
            g = int(digits or "0") if len(digits) <= len(str(k)) else 0
        else:
            raise SchemaViolation(f"unknown generator {quoted(name)}")
        if not 1 <= g <= k:
            raise SchemaViolation(f"generator {quoted(name)} out of range 1..{k}")
        word.append((g, e))
    return word


def default_names(k):
    """a..z aliases for the first 26 of k generators; :func:`parse_word`
    reads x1..xk itself."""
    return {chr(ord("a") + i): i for i in range(min(k, 26))}


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
    words = [parse_word(r, names, len(gens)) for r in rels]
    return len(gens), words


# ---------------------------------------------------------------------------
# command handlers; each returns the result payload


def cmd_validate(args):
    data = read_input(args.path)
    space = SimplicialSet.from_json(load_json_bytes(data, args.path))
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
    return inv.to_json(), digest_bytes(data), EXIT_OK


def cmd_hall_basis(args):
    # every weight up to the class is enumerated and cached on the way
    k, n = args.generators, args.cls
    if k >= 0 and n >= 1:
        caps = current_caps()
        count, w = capped_hall_rank(k, n, caps.max_layer_rank)
        early = f" of weights 1..{w} of {n} only (summing stopped early)" if w < n else ""
        caps.check_layer_rank(
            f"Hall tree count{early}", count, f"hall basis on {k} generators to class {n}"
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
    k, n = args.generators, args.cls
    # the report prints the rank in decimal, and Python refuses to print an
    # integer longer than its int-to-str limit; k^n bounds the rank
    limit = sys.get_int_max_str_digits()
    if k > 1 and limit:
        digits = math.floor(n * math.log10(k)) + 1
        if digits > limit:
            raise CapExceeded(
                f"witt rank on {k} generators at class {n}: about {digits} decimal "
                f"digits exceeds the {limit}-digit limit of integer printing"
            )
    return witt_rank(k, n), None, EXIT_OK


def cmd_collect(args):
    word = parse_word(args.word, default_names(args.generators), args.generators)
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
        ranks = [int_option(tok) for tok in args.ranks.split(",")]
    except argparse.ArgumentTypeError:
        raise SchemaViolation(f"--ranks wants comma-separated integers, got {quoted(args.ranks)}")
    inv = cross_effect_kernel(args.cls, ranks)
    payload = {"class": args.cls, "ranks": ranks, "kernel": inv.to_json()}
    return payload, None, EXIT_OK


def cmd_nilq(args):
    data = read_input(args.path)
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
            faces[f"d{i}"] = [
                " ".join(f"g{x}^{e}" if e != 1 else f"g{x}" for x, e in word) or "1"
                for word in g.map_words(q, i, "face")[1]
            ]
    payload = {
        "degree": q,
        "generator_count": len(gens),
        "generators": [str(r) for r in gens],
        "faces": faces,
    }
    return payload, digest_bytes(data), EXIT_OK


def cmd_tower(args):
    space, data = read_space(args.path)
    stage = tower_stage(loop_group(space), args.cls)
    q = pi0(stage)
    return q.to_json(), digest_bytes(data), EXIT_OK


def cmd_layer_homotopy(args):
    space, data = read_space(args.path)
    inv = layer_homotopy(loop_group(space), args.cls, args.degree)
    payload = {"class": args.cls, "degree": args.degree}
    payload.update(inv.to_json())
    return payload, digest_bytes(data), EXIT_OK


_DATA_ROOT = Path(__file__).resolve().parent / "data"


def data_path(*parts):
    """Filesystem path of a bundled data file."""
    return str(_DATA_ROOT.joinpath(*parts))


def cmd_fixture_check(args):
    spec = load_json_bytes(read_input(data_path("fixtures.json")), "fixtures.json")
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
            if exits[0] == CapExceeded.exit:
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
        return payload, None, CapExceeded.exit
    return payload, None, EXIT_OK if not failures else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# dispatch


def int_option(text):
    """An integer option or ``--ranks`` entry: :func:`~loopnil.caps.ascii_int`
    syntax, at most 20 digits (what :func:`~loopnil.caps.quoted` echoes
    whole); bad text is echoed briefly in argparse's usage error."""
    with suppress(ValueError):
        if len(text.lstrip("+-")) <= 20:
            return ascii_int(text)
    raise argparse.ArgumentTypeError(f"invalid integer {quoted(text)}")


def _argument(*names, **kwargs):
    """A parent parser declaring one argument, for every verb that takes it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


@functools.cache
def build_parser():
    # each argument is declared once; a verb lists its parents in the order
    # of its usage line
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
    path = _argument("path")
    gens = _argument("--generators", type=int_option, required=True)
    cls = _argument("--class", dest="cls", type=int_option, required=True)
    degree = _argument("--degree", type=int_option, required=True)
    word = _argument("--word", required=True)
    ranks = _argument("--ranks", required=True)
    tower_sub = _argument("sub", choices=["pi0"])
    verbs = [
        ("validate", cmd_validate, [path], "validate a space file"),
        ("homology", cmd_homology, [path, degree], "reduced homology of a space"),
        ("hall-basis", cmd_hall_basis, [gens, cls], "Hall basis of basic commutators"),
        ("witt", cmd_witt, [gens, cls], "rank of a free Lie module component"),
        ("collect", cmd_collect, [gens, cls, word], "normal form in a free nilpotent group"),
        ("cross-effect", cmd_cross_effect, [cls, ranks], "kernel of the first collapse map"),
        ("nilq", cmd_nilq, [path, cls], "class-n quotient of a presented group"),
        ("loop-group", cmd_loop_group, [path, degree], "loop-group generators and face words"),
        ("tower", cmd_tower, [tower_sub, path, cls], "lower-central tower computations"),
        ("layer-homotopy", cmd_layer_homotopy, [path, cls, degree], "homotopy of a graded layer"),
        ("fixture-check", cmd_fixture_check, [], "recompute and diff all fixtures"),
    ]
    for verb, handler, parents, text in verbs:
        sub.add_parser(verb, parents=parents, help=text).set_defaults(handler=handler)
    return top


def run_command(argv):
    """Run one command in-process; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = _run(argv)
    return code, buf.getvalue()


def _error_report(verb, exc):
    payload = {"code": exc.code, "kind": exc.kind, "message": str(exc)}
    if exc.detail:
        payload["detail"] = exc.detail
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
        inputs = {"args": _echo_args(args)}
        if input_digest is not None:
            inputs["sha256"] = input_digest
        report = make_report(verb, inputs, result)
        if args.timing:
            report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        # serialized inside the try, so an integer too long to print is refused
        sys.stdout.write(canonical_dumps(report))
    except LoopnilError as exc:
        _error_report(verb, exc)
        return exc.exit
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
