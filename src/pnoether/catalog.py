"""Catalog of classifying-space cohomology rings shipped as JSON.

Entries give generator degrees/kinds and, per prime, the tabulated reduced-
power values on generators.  Primes without a table still yield a
presentation; the truncated-algebra layer reports honestly (as missing-data
errors) if a computation actually needs an untabulated value below its
bound.
"""

from __future__ import annotations

import functools
import json
import os
from types import MappingProxyType

from ._record import Frozen
from .errors import InputError
from .graded import FreeCommPresentation, GeneratorSpec


class CatalogEntry(Frozen):
    """A catalog entry: ``generators`` are GeneratorSpecs in degree order,
    and ``action`` maps prime -> {(gen, op string): value string},
    read-only at both levels."""

    __slots__ = ("name", "description", "torsion_free", "generators",
                 "action", "recommended_primes")

    def __init__(self, name: str, description: str, torsion_free: bool | None,
                 generators: tuple, action: dict,
                 recommended_primes: tuple | None):
        self._assign(name, description, torsion_free, generators, action,
                     recommended_primes)

    def __hash__(self):
        # the read-only action tables do not hash; equal entries have
        # equal names and generators
        return hash((self.name, self.generators))

    def degrees(self) -> list:
        return [g.degree for g in self.generators]

    def presentation(self, p: int) -> FreeCommPresentation:
        return FreeCommPresentation(p, list(self.generators),
                                    dict(self.action.get(p, {})))


def _fail(path: str, expected: str):
    raise InputError(f"catalog schema: {path}: expected {expected}")


def _load_entry(name: str, raw, where: str) -> CatalogEntry:
    if not isinstance(raw, dict):
        _fail(where, "an object")
    description = raw.get("description", "")
    if not isinstance(description, str):
        _fail(f"{where}.description", "a string")
    torsion_free = raw.get("torsion_free")
    if torsion_free is not None and not isinstance(torsion_free, bool):
        _fail(f"{where}.torsion_free", "true, false, or null")

    gens_raw = raw.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        _fail(f"{where}.generators", "a nonempty list")
    gens = []
    for k, g in enumerate(gens_raw):
        path = f"{where}.generators[{k}]"
        if not isinstance(g, dict):
            _fail(path, "an object")
        if not isinstance(g.get("name"), str):
            _fail(f"{path}.name", "a string")
        if type(g.get("degree")) is not int or g["degree"] <= 0:
            _fail(f"{path}.degree", "a positive integer")
        kind = g.get("kind", "polynomial")
        if kind not in ("polynomial", "exterior"):
            _fail(f"{path}.kind", '"polynomial" or "exterior"')
        gens.append(GeneratorSpec(g["name"], g["degree"], kind))

    action_raw = raw.get("action", {})
    if not isinstance(action_raw, dict):
        _fail(f"{where}.action", "an object keyed by prime")
    action = {}
    for prime_key, entries in action_raw.items():
        path = f"{where}.action.{prime_key}"
        if not prime_key.isdigit():
            _fail(path, "a prime written as a decimal string")
        if not isinstance(entries, list):
            _fail(path, "a list of action entries")
        table = {}
        for k, e in enumerate(entries):
            epath = f"{path}[{k}]"
            if not isinstance(e, dict):
                _fail(epath, "an object")
            for fld in ("gen", "op", "value"):
                if not isinstance(e.get(fld), str):
                    _fail(f"{epath}.{fld}", "a string")
            table[(e["gen"], e["op"])] = e["value"]
        action[int(prime_key)] = MappingProxyType(table)

    rec = raw.get("recommended_primes")
    if rec is not None and (not isinstance(rec, list)
                            or not all(type(q) is int for q in rec)):
        _fail(f"{where}.recommended_primes", "null or a list of integers")

    return CatalogEntry(name, description, torsion_free, tuple(gens),
                        MappingProxyType(action), tuple(rec) if rec else None)


def load_catalog(path: str = None) -> dict:
    """Load the built-in catalog, or a JSON file with the same schema.

    Returns a name → CatalogEntry map (aliases included).  Schema problems
    raise an input error naming the offending JSON path.  The built-in
    catalog is parsed once per process; each call returns a fresh map over
    the same read-only entries.  A file is read and parsed on every call.
    """
    if path is None:
        return dict(_builtin_catalog())
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read catalog file {path}: {exc}")
    return _parse_catalog(text, path)


@functools.lru_cache(maxsize=None)
def _builtin_catalog() -> dict:
    # through this module's loader, which reads inside a zipped install
    # too; importlib.resources would cost more than the parse (it loads
    # pathlib, tempfile and zipfile, and inspect on Python 3.12+)
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    text = __loader__.get_data(path).decode("utf-8")
    return _parse_catalog(text, "built-in catalog")


def _parse_catalog(text: str, source: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"catalog schema: {source} is not valid JSON: {exc}")
    if not isinstance(data, dict) or not isinstance(data.get("entries"), dict) \
            or not data["entries"]:
        _fail("entries", "a nonempty object of catalog entries")

    out = {}
    for name, raw in data["entries"].items():
        out[name] = _load_entry(name, raw, f"entries.{name}")
    aliases = data.get("aliases", {})
    if not isinstance(aliases, dict):
        _fail("aliases", "an object mapping alias -> entry name")
    for alias, target in aliases.items():
        if target not in out:
            _fail(f"aliases.{alias}", f"an existing entry name, got {target!r}")
        out[alias] = out[target]
    return out


def get_entry(name: str, path: str = None) -> CatalogEntry:
    cat = load_catalog(path)
    if name not in cat:
        known = ", ".join(sorted(cat))
        raise InputError(f"unknown catalog entry {name!r} (available: {known})")
    return cat[name]
