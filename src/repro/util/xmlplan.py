"""Provisioning-planning persistence (Fig. 8 of the paper).

The master agent shares its provisioning planning as a small XML document
whose entries look like::

    <timestamp value="1385896446">
      <temperature>23.5</temperature>
      <candidates>8</candidates>
      <electricity_cost>0.6</electricity_cost>
    </timestamp>

The paper guards this file with a readers–writer lock because DIET's
agents are threads sharing it; this program has no such threads, so
:func:`write_planning` instead replaces the file atomically and a reader
in any process sees either the old planning or the new one, never a mix.

>>> import pathlib, tempfile
>>> with tempfile.TemporaryDirectory() as tmp:
...     path = pathlib.Path(tmp) / "plan.xml"
...     write_planning(path, [PlanningEntry(600.0, 24.0, 8, 0.6),
...                           PlanningEntry(0.0, 21.5, 4, 1.0)])
...     [(e.timestamp, e.candidates) for e in read_planning(path)]
[(0.0, 4), (600.0, 8)]
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True)
class PlanningEntry:
    """One timestamped sample of the platform status.

    Attributes mirror the XML tags of Fig. 8: ``timestamp`` (seconds),
    ``temperature`` (degrees Celsius), ``candidates`` (number of candidate
    nodes available for computation) and ``electricity_cost`` (ratio of the
    current cost to the theoretical maximum cost, in ``[0, 1]``).
    """

    timestamp: float
    temperature: float
    candidates: int
    electricity_cost: float

    def to_element(self) -> ET.Element:
        """Serialise this entry as a ``<timestamp>`` XML element."""
        element = ET.Element("timestamp", {"value": repr(self.timestamp)})
        ET.SubElement(element, "temperature").text = repr(self.temperature)
        ET.SubElement(element, "candidates").text = str(self.candidates)
        ET.SubElement(element, "electricity_cost").text = repr(self.electricity_cost)
        return element

    @classmethod
    def from_element(cls, element: ET.Element) -> "PlanningEntry":
        """Parse a ``<timestamp>`` element back into an entry.

        Raises ``ValueError`` naming the offending field when a value is
        missing, not a finite number, a negative or fractional candidate
        count, or an electricity cost outside ``[0, 1]``.
        """
        if element.tag != "timestamp":
            raise ValueError(f"expected <timestamp> element, got <{element.tag}>")
        timestamp = _finite(element.attrib.get("value"), "timestamp value")
        temperature = _finite(element.findtext("temperature"), "temperature")
        candidates = _finite(element.findtext("candidates"), "candidates")
        if candidates < 0 or not candidates.is_integer():
            raise ValueError(
                f"<candidates> must be a non-negative integer, got {candidates!r}"
            )
        cost = _finite(element.findtext("electricity_cost"), "electricity_cost")
        if not 0.0 <= cost <= 1.0:
            raise ValueError(f"<electricity_cost> must lie in [0, 1], got {cost!r}")
        return cls(
            timestamp=timestamp,
            temperature=temperature,
            candidates=int(candidates),
            electricity_cost=cost,
        )


def _finite(text: str | None, field: str) -> float:
    if text is None:
        raise ValueError(f"malformed planning entry: missing <{field}>")
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"<{field}> is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"<{field}> must be finite, got {text!r}")
    return value


def write_planning(path: str | Path, entries: Iterable[PlanningEntry]) -> None:
    """Write ``entries`` to ``path`` as a provisioning-planning XML file.

    Entries are written sorted by timestamp so readers can scan forward.
    The document goes to a sibling temporary file that then replaces
    ``path`` in one ``os.replace``, so readers never see a partial file.
    """
    root = ET.Element("provisioning_planning")
    for entry in sorted(entries):
        root.append(entry.to_element())
    path = Path(path)
    staging = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        staging.write_text(ET.tostring(root, encoding="unicode"), encoding="utf-8")
        os.replace(staging, path)
    finally:
        staging.unlink(missing_ok=True)


def read_planning(path: str | Path) -> Sequence[PlanningEntry]:
    """Read a provisioning-planning XML file written by :func:`write_planning`.

    Any malformed content raises ``ValueError`` naming ``path`` and, for a
    bad entry, the offending field.
    """
    try:
        root = ET.fromstring(Path(path).read_text(encoding="utf-8"))
    except ET.ParseError as exc:
        raise ValueError(f"planning file {path} is not well-formed XML: {exc}") from exc
    try:
        if root.tag != "provisioning_planning":
            raise ValueError(
                f"expected <provisioning_planning> root element, got <{root.tag}>"
            )
        return tuple(PlanningEntry.from_element(child) for child in root)
    except ValueError as exc:
        raise ValueError(f"planning file {path}: {exc}") from exc
