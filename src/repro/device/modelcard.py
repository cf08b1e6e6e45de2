"""Modelcard serialization: human-readable parameter decks.

The paper's flow hands a calibrated "modelcard" from device modelling to
standard-cell characterization (Fig. 4).  We serialize
:class:`~repro.device.params.FinFETParams` records in a SPICE-like
``.model`` deck so libraries and calibration results are inspectable and
round-trippable.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.device.params import FinFETParams

__all__ = ["dumps", "loads", "save", "load"]

_HEADER = "* repro cryogenic FinFET modelcard"


def dumps(params: FinFETParams, name: str | None = None) -> str:
    """Serialize a parameter record to modelcard text.

    >>> from repro.device.params import default_nfet
    >>> text = dumps(default_nfet())
    >>> text.splitlines()[0]
    '* repro cryogenic FinFET modelcard'
    """
    name = name or f"{params.polarity}fet"
    lines = [_HEADER, f".model {name} finfet_cryo"]
    for key, value in sorted(params.as_dict().items()):
        if isinstance(value, float):
            lines.append(f"+ {key} = {value!r}")
        else:
            lines.append(f"+ {key} = {value}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def loads(text: str) -> FinFETParams:
    """Parse modelcard text back into a parameter record.

    Unknown and repeated keys raise ``ValueError`` so silently-stale
    decks are caught.
    """
    values: dict[str, object] = {}
    field_types = {f.name: f.type for f in dataclasses.fields(FinFETParams)}
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("+"):
            continue
        body = line[1:].strip()
        if "=" not in body:
            raise ValueError(f"malformed modelcard line: {raw!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in field_types:
            raise ValueError(f"unknown modelcard parameter: {key!r}")
        if key in values:
            raise ValueError(f"duplicate modelcard parameter: {key!r}")
        if key == "polarity":
            values[key] = value.strip("'\"")
        elif key == "nfin":
            values[key] = int(value)
        else:
            values[key] = float(value)
    if "polarity" not in values:
        raise ValueError("modelcard missing polarity")
    return FinFETParams(**values)  # type: ignore[arg-type]


def save(params: FinFETParams, path: str | Path, name: str | None = None) -> None:
    """Write a modelcard file."""
    Path(path).write_text(dumps(params, name=name))


def load(path: str | Path) -> FinFETParams:
    """Read a modelcard file."""
    return loads(Path(path).read_text())
