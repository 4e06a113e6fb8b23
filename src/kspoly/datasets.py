"""Embedded polytope datasets (layouts + generators) and their JSON format."""

from __future__ import annotations

import json
import re
from importlib import resources
from pathlib import Path

from .raysystem import (Generator, Pentadecagon, PentadecagonLayout,
                        POLYTOPES, check_generators)

_EXPECTED = {
    # polytope -> (rays, pentadecagons, generators, bases, per-ray count)
    "600cell": (60, 4, 5, 75, 5),
    "120cell": (300, 20, 45, 675, 9),
    "gosset": (120, 8, 135, 2025, 135),
}


class DatasetError(ValueError):
    """A dataset file that cannot be read, or that does not have the shape
    of dataset.schema.json; the message names the file or field."""


# the JSON type of each Python type json.loads produces
_JSON_NAMES = {str: "string", int: "integer", float: "number",
               bool: "boolean", list: "array", dict: "object",
               type(None): "null"}


def _typed(value, kind: str, name: str):
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    if got != kind and (kind, got) != ("number", "integer"):
        raise DatasetError(f"field {name}: expected {kind}, got {got}")
    return value


# the schema's enums, patterns and bounds: (test, what the field expects)
_DIMENSION = (lambda d: d in (4, 8), "4 or 8")
_LABEL = (re.compile(r"[A-L][12]?").fullmatch,
          "a label matching ^[A-L][12]?$")
_RADIUS = (lambda r: r > 0, "> 0")
_ANGLE = (lambda a: 0 <= a <= 360, "0..360")


def _field(obj: dict, key: str, kind: str, where: str = "", rule=None):
    name = f"{where}.{key}" if where else key
    if key not in obj:
        raise DatasetError(f"missing field {name}")
    value = _typed(obj[key], kind, name)
    if rule and not rule[0](value):
        raise DatasetError(f"field {name}: expected {rule[1]}, "
                           f"got {value!r}")
    return value


def _objects(doc: dict, key: str):
    """(field path, object) for each item of an array of objects."""
    for i, item in enumerate(_field(doc, key, "array")):
        yield f"{key}[{i}]", _typed(item, "object", f"{key}[{i}]")


def dataset_from_dict(doc: dict) -> tuple[PentadecagonLayout, tuple[Generator, ...]]:
    if not isinstance(doc, dict):
        raise DatasetError("a dataset must be a JSON object")
    layout = PentadecagonLayout(
        polytope=_field(doc, "polytope", "string"),
        dimension=_field(doc, "dimension", "integer", rule=_DIMENSION),
        pentadecagons=tuple(
            Pentadecagon(_field(p, "label", "string", where, _LABEL),
                         _field(p, "lo", "integer", where),
                         _field(p, "hi", "integer", where),
                         float(_field(p, "radius", "number", where, _RADIUS)),
                         float(_field(p, "angle_deg", "number", where,
                                      _ANGLE)))
            for where, p in _objects(doc, "pentadecagons")),
    )
    generators = tuple(
        Generator(_field(g, "label", "string", where),
                  tuple(_typed(r, "integer", f"{where}.rays[{j}]")
                        for j, r in enumerate(
                            _field(g, "rays", "array", where))))
        for where, g in _objects(doc, "generators"))
    check_generators(layout, generators)
    return layout, generators


def data_text(name: str) -> str:
    return resources.files("kspoly.data").joinpath(name).read_text()


def load_polytope(polytope: str,
                  path: str | Path | None = None
                  ) -> tuple[PentadecagonLayout, tuple[Generator, ...]]:
    """Load a built-in dataset, or an external JSON file when path is given.

    Raises DatasetError when the file cannot be read, is not UTF-8 JSON
    that Python can parse, or is not a valid dataset.
    """
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DatasetError(f"cannot read {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8: byte {exc.start}: "
                               f"{exc.reason}") from exc
        try:
            return dataset_from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise DatasetError(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:  # DatasetError and the layout checks
            raise DatasetError(f"{path}: {exc}") from exc
    if polytope not in POLYTOPES:
        raise ValueError(f"unknown polytope {polytope!r}; "
                         f"expected one of {POLYTOPES}")
    return dataset_from_dict(json.loads(data_text(f"{polytope}.json")))


def expected_counts(polytope: str) -> tuple[int, int, int, int, int]:
    """(rays, pentadecagons, generators, bases, bases-per-ray)."""
    return _EXPECTED[polytope]
