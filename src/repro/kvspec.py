"""One parser for the CLIs' ``key=value,...`` specs.

``--faults``, ``--resilience`` and ``--spans`` each take a
comma-separated list of ``key=value`` entries that set the fields of a
frozen dataclass.  :class:`KeyValueSpec` is that grammar, written once:
blank entries are skipped, each key names one field (several keys may
name the same field), each value goes through its field's converter,
and a field set twice is refused rather than silently taking the last
value.  The error class and the wording of each message belong to the
caller, so every flag keeps its own messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class KeyValueSpec:
    """A ``key=value,...`` grammar over one dataclass's fields.

    ``keys`` maps each accepted key to ``(field, convert)``.  The three
    message templates are :meth:`str.format` strings over ``part`` (the
    malformed entry), ``key``, ``available`` (the accepted keys, sorted
    and space-separated), ``field``, ``raw`` (the value as written) and
    ``value`` (the value stripped).  ``owner`` names the dataclass in
    :meth:`check_fields`' error.
    """

    keys: Mapping[str, tuple[str, Callable[[str], Any]]]
    error: type[Exception]
    malformed: str
    unknown_key: str
    bad_value: str
    owner: str = ""
    fold_case: bool = False

    def parse(self, spec: str) -> dict[str, Any]:
        """The field values ``spec`` sets, by field name."""
        fields: dict[str, Any] = {}
        set_by: dict[str, str] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise self.error(self.malformed.format(part=part))
            key, _, raw = part.partition("=")
            key = key.strip()
            if self.fold_case:
                key = key.lower()
            if key not in self.keys:
                raise self.error(self.unknown_key.format(
                    key=key, available=" ".join(sorted(self.keys))))
            field, convert = self.keys[key]
            if field in set_by:
                raise self.error(f"repeated key {key!r}: {field} is "
                                 f"already set by {set_by[field]!r}")
            set_by[field] = key
            try:
                fields[field] = convert(raw.strip())
            except ValueError as exc:
                raise self.error(self.bad_value.format(
                    key=key, field=field, raw=raw,
                    value=raw.strip())) from exc
        return fields

    def check_fields(self, data: Mapping[str, Any]) -> None:
        """Refuse a mapping with a key that is no field of ``owner``."""
        unknown = set(data) - {field for field, _ in self.keys.values()}
        if unknown:
            raise self.error(
                f"unknown {self.owner} field(s): {sorted(unknown)}")
