"""Finding record for the lint subsystem.

A :class:`Finding` pins a rule violation to a file/line/column and
carries the offending line's text for the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    line_text: str = field(default="", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.rule} {self.message}"


__all__ = ["Finding"]
