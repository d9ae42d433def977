"""Source locations, ranges and presumed locations.

Clang encodes a ``SourceLocation`` as a single 32-bit integer offset into the
concatenation of all loaded source buffers; decoding to file/line/column is
done lazily by the ``SourceManager``.  We keep the same design: a location is
one integer, comparisons are integer comparisons, and everything human
readable lives in :class:`PresumedLoc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True)
class SourceLocation:
    """An opaque offset into the translation unit's source character stream.

    Offset 0 is reserved as the *invalid* location (clang does the same),
    hence valid locations start at 1.
    """

    offset: int = 0

    INVALID_OFFSET = 0

    @classmethod
    def invalid(cls) -> "SourceLocation":
        return cls(cls.INVALID_OFFSET)

    def is_valid(self) -> bool:
        return self.offset != self.INVALID_OFFSET

    def is_invalid(self) -> bool:
        return not self.is_valid()

    def with_offset(self, delta: int) -> "SourceLocation":
        """A location *delta* characters further into the same buffer."""
        if self.is_invalid():
            return self
        return SourceLocation(self.offset + delta)

    def __lt__(self, other: "SourceLocation") -> bool:
        return self.offset < other.offset

    def __str__(self) -> str:
        if self.is_invalid():
            return "<invalid loc>"
        return f"loc({self.offset})"


@dataclass(frozen=True)
class SourceRange:
    """A half-open character range ``[begin, end)`` in the source stream."""

    begin: SourceLocation = SourceLocation()
    end: SourceLocation = SourceLocation()

    def is_valid(self) -> bool:
        return self.begin.is_valid() and self.end.is_valid()

    def contains(self, loc: SourceLocation) -> bool:
        return self.begin.offset <= loc.offset < self.end.offset

    def union(self, other: "SourceRange") -> "SourceRange":
        if not self.is_valid():
            return other
        if not other.is_valid():
            return self
        return SourceRange(
            min(self.begin, other.begin), max(self.end, other.end)
        )

    def __str__(self) -> str:
        return f"<{self.begin}, {self.end}>"


@dataclass(frozen=True)
class PresumedLoc:
    """Human-readable decoded location: filename, 1-based line and column.

    "Presumed" because ``#line`` directives (which the preprocessor honours)
    may override the physical position, as in Clang.
    """

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"
