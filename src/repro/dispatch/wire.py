"""One typed codec for every untrusted byte: socket frames and journal records.

:func:`dumps` writes compact JSON (a dataclass as :func:`as_dict`,
``bytes`` as ``{"$bytes": <base64>}``) and :func:`loads` reads it back,
refusing ``NaN``, infinities and runaway nesting.  :func:`decode`
rebuilds a value from its type's annotations, :func:`check_fields` holds
an in-process instance to them, and :func:`check_result` holds a trial
result to the spec dispatched for its index.  Every refusal is one
:class:`FrameRejected` naming the field, e.g. ``results[0].metrics.rounds:
expected int, got NoneType None``.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import functools
import json
import math
import types
import typing
from itertools import repeat
from typing import Any, Callable, Mapping, NoReturn

from ..errors import DispatchError
from ..experiments.trial import TrialResult, TrialSpec


class FrameRejected(DispatchError):
    """Bytes that are not a frame, or a value that does not fit its type
    or bounds; ``where`` names the field."""

    def __init__(self, reason: str, where: str = "") -> None:
        super().__init__(f"{where}: {reason}" if where else reason)
        self.reason, self.where = reason, where

    def within(self, step: str) -> FrameRejected:
        """This refusal seen from one level further out."""
        return FrameRejected(self.reason, step + self.where)


def as_dict(obj: Any) -> dict[str, Any]:
    """A dataclass instance's fields as the wire reads them back: by name
    (``vars``: the instance holds exactly its fields), tuples walked to
    lists; ``bytes`` and nested dataclasses are left to :func:`dumps`."""
    return {
        name: _lists(value) if type(value) is tuple else value
        for name, value in vars(obj).items()
    }


def _lists(row: tuple) -> list:
    return [_lists(item) if type(item) is tuple else item for item in row]


def _encode_other(value: Any) -> Any:
    if type(value) is bytes:
        return {"$bytes": base64.b64encode(value).decode("ascii")}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return as_dict(value)
    raise TypeError(f"{type(value).__name__} does not go on the wire")


def _decode_object(obj: dict) -> Any:
    if "$bytes" not in obj:
        return obj
    try:
        if len(obj) == 1 and type(obj["$bytes"]) is str:
            return base64.b64decode(obj["$bytes"], validate=True)
    except binascii.Error:
        pass
    raise FrameRejected("a $bytes object holds one base64 string")


def _finite_float(text: str) -> float:
    """A JSON number with a fraction or exponent, or a constant: ``NaN``,
    ``Infinity`` and ``1e400`` (which reads as infinity) are refused."""
    if not math.isfinite(number := float(text)):
        raise FrameRejected(f"{text:.40} is not a frame value")
    return number


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_encode_other)
_DECODER = json.JSONDecoder(
    object_hook=_decode_object,
    parse_float=_finite_float,
    parse_constant=_finite_float,
)


def dumps(value: Any) -> bytes:
    """``value`` as compact JSON bytes."""
    try:
        return _ENCODER.encode(value).encode("ascii")
    except (TypeError, ValueError) as exc:
        raise FrameRejected(f"cannot encode: {exc}") from None


def loads(data: bytes | bytearray | memoryview | str) -> Any:
    """Plain values from JSON text or UTF-8 bytes."""
    try:
        return _DECODER.decode(data if type(data) is str else str(data, "utf-8"))
    except RecursionError:
        raise FrameRejected("nested too deeply") from None
    except ValueError as exc:  # JSON syntax, UTF-8, the int digit cap
        raise FrameRejected(f"not JSON: {exc}") from None


def decode(tp: Any, value: Any, where: str | None = None) -> Any:
    """``value`` rebuilt as ``tp`` — exact ``int`` (not ``bool``), ``bool``,
    ``str``, ``bytes``, finite ``float``, ``X | None``, ``tuple[...]`` (from
    a list or a tuple), ``dict[str, X]``, dataclasses (from a dict of their
    fields), ``Any`` (scalars, ``bytes`` and tuples of them); refusals are
    named from ``where`` (default: ``tp``'s name)."""
    where = tp.__name__ if where is None else where
    try:
        return _decoder(tp)(value)
    except FrameRejected as exc:
        raise exc.within(where) from None
    except RecursionError:
        raise FrameRejected("nested too deeply", where) from None


def check_fields(obj: Any, where: str) -> None:
    """Refuse, naming the field, a dataclass instance holding a value that
    its annotation does not admit, or admits only once rebuilt (a list
    where a tuple is declared); the instance itself is left as it is."""
    try:
        for name, check in _fields(type(obj))[0].items():
            value = getattr(obj, name)
            if check(value) != value:  # only a list rebuilds unequal
                raise FrameRejected("a list where a tuple is declared")
    except FrameRejected as exc:
        raise exc.within(f"{where}.{name}") from None


def _refuse(expected: str, value: Any) -> NoReturn:
    try:
        shown = "" if isinstance(value, (list, tuple, dict)) else f" {value!r:.40}"
    except ValueError:  # an int with more digits than Python will print
        shown = ""
    raise FrameRejected(f"expected {expected}, got {type(value).__name__}{shown}")


def _exact(kind: type, value: Any) -> Any:
    if type(value) is not kind:
        _refuse(kind.__name__, value)
    return value


def _finite(value: Any) -> float:
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an int no float can hold
            number = math.inf
        if math.isfinite(number):
            return number
    _refuse("a finite float", value)


def _any(value: Any) -> Any:
    if type(value) in (list, tuple):
        return _tuple(_any, value)
    if type(value) is float:
        return _finite(value)
    if type(value) not in (type(None), bool, int, str, bytes):
        _refuse("a scalar or a list", value)
    return value


def _tuple(items: Any, value: Any) -> tuple:
    """``items`` is one checker for every element, or a tuple of one
    checker per element (which pins the length)."""
    fixed = type(items) is tuple
    if type(value) not in (list, tuple) or (fixed and len(value) != len(items)):
        _refuse(f"a list of {len(items)}" if fixed else "a list", value)
    out: list = []
    try:
        for item, v in zip(items if fixed else repeat(items), value):
            out.append(item(v))
    except FrameRejected as exc:
        raise exc.within(f"[{len(out)}]") from None
    return tuple(out)


def _mapping(item: Callable, value: Any) -> dict:
    if type(value) is not dict:
        _refuse("an object", value)
    out = {}
    try:
        for key, v in value.items():
            out[_exact(str, key)] = item(v)
    except FrameRejected as exc:
        raise exc.within(f"[{key!r:.40}]") from None
    return out


def _dataclass(cls: type, checks: dict, required: tuple, value: Any) -> Any:
    if type(value) is not dict:
        _refuse(f"a {cls.__name__} object", value)
    kwargs = {}
    try:
        for name, v in value.items():
            if name not in checks:
                raise FrameRejected("unknown field")
            kwargs[name] = checks[name](v)
    except FrameRejected as exc:
        raise exc.within(f".{name!s:.40}") from None
    for name in required:
        if name not in kwargs:
            raise FrameRejected("missing", f".{name}")
    return cls(**kwargs)


@functools.cache
def _fields(cls: type) -> tuple[dict[str, Callable[[Any], Any]], tuple[str, ...]]:
    """A dataclass's checker per field, and the fields with no default."""
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    return {f.name: _decoder(hints[f.name]) for f in fields}, tuple(
        f.name for f in fields
        if f.default is f.default_factory is dataclasses.MISSING
    )


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The checker for ``tp``, built once per type."""
    if tp in (int, bool, str, bytes):
        return functools.partial(_exact, tp)
    if tp is float:
        return _finite
    if tp is Any:
        return _any
    if tp is tuple:
        return functools.partial(_tuple, _any)
    if dataclasses.is_dataclass(tp):
        return functools.partial(_dataclass, tp, *_fields(tp))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and args[1:] == (type(None),):
        inner = _decoder(args[0])
        return lambda value: None if value is None else inner(value)
    if origin is dict and args[0] is str:
        return functools.partial(_mapping, _decoder(args[1]))
    if origin is tuple and args[-1:] == (Ellipsis,):
        return functools.partial(_tuple, _decoder(args[0]))
    if origin is tuple:
        return functools.partial(_tuple, tuple(map(_decoder, args)))
    raise TypeError(f"the wire codec has no decoder for {tp!r}")


def check_result(
    result: TrialResult, specs: Mapping[int, TrialSpec], where: str = "TrialResult"
) -> None:
    """Raise :class:`FrameRejected` naming the field unless ``result``
    answers the spec dispatched for its index: that spec's seed, a cover
    that is an ``int`` in ``[0, len(failed_pairs)]`` (never ``None``, so
    nobody runs the exact cover search on a peer's pairs), sorted distinct
    pairs ``0 <= u < v < n`` and counters ``>= 0``."""
    spec = specs.get(result.index)
    if spec is None:
        raise FrameRejected(f"{result.index} was not dispatched", f"{where}.index")
    pairs, metrics = result.failed_pairs, result.metrics
    counts = [*metrics.rounds_by_phase.values()]
    counts += [value for value in vars(metrics).values() if type(value) is int]
    for field, out_of_bounds in (
        ("seed", result.seed != spec.seed),
        ("cover", result.cover is None or not 0 <= result.cover <= len(pairs)),
        ("failed_pairs", any(
            not 0 <= u < v < spec.n or (i and pairs[i - 1] >= (u, v))
            for i, (u, v) in enumerate(pairs)
        )),
        ("metrics", min(counts, default=0) < 0),
    ):
        if out_of_bounds:
            raise FrameRejected(
                f"{getattr(result, field)!r:.80} is out of bounds for {spec}",
                f"{where}.{field}",
            )
