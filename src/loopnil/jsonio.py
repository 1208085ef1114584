"""Deterministic JSON reports.

All payloads are integers or strings; integers whose magnitude exceeds 53
bits are serialized as decimal strings so consumers without big-int support
read them losslessly.  Keys are emitted in sorted order and the output for
identical inputs is byte-identical.
"""

import hashlib
import json

from .caps import ascii_int, decimal, quoted
from .errors import MalformedJson

SCHEMA_TAG = "loopnil/1"
_BIG = 1 << 53


def _encode(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return decimal(value) if abs(value) >= _BIG else value
    if isinstance(value, float):
        raise MalformedJson("floating point values are not allowed in reports")
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise MalformedJson(f"cannot serialize {type(value).__name__}")


def canonical_dumps(obj):
    return json.dumps(_encode(obj), sort_keys=True, separators=(",", ":")) + "\n"


def parse_int(value, what):
    """Accept both native ints and decimal-string big ints; a string takes
    the integer syntax of :func:`~loopnil.caps.ascii_int`, so no whitespace,
    underscores or other scripts' digits."""
    if isinstance(value, bool):
        raise MalformedJson(f"{what} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return ascii_int(value)
        except ValueError:
            raise MalformedJson(f"{what} is not a decimal integer: {quoted(value)}") from None
    raise MalformedJson(f"{what} must be an integer")


def load_json_bytes(data, what="input"):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedJson(f"{what}: not UTF-8 ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(
            f"{what}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # too long an integer, too deep a nesting
        raise MalformedJson(f"{what}: unreadable JSON: {exc}") from None


def digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def make_report(verb, inputs, result):
    return {
        "schema": SCHEMA_TAG,
        "verb": verb,
        "inputs": inputs,
        "result": result,
    }
