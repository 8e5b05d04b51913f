"""The package's `# dd-<kind> v1` text files: one reader, one row parser, one writer.

Datasets, meshes, unit-load libraries and the emitted tables share the
convention described under "File formats" in docs/config.md.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _is_row(raw: str) -> bool:
    """Neither blank nor a comment."""
    text = raw.strip()
    return bool(text) and not text.startswith("#")


@dataclass
class TextFile:
    """A read file: its name, its lines and its header's fields and line."""

    name: str
    lines: list[str]
    header: dict[str, str]
    header_line: int

    def error(self, line: int, msg: str) -> ValueError:
        return ValueError(f"{self.name}:{line}: {msg}")

    def field(self, key: str, parse=str):
        """Header field `key` through `parse`; a fault names the header's line."""
        if key not in self.header:
            raise self.error(self.header_line, f"header field '{key}' missing")
        try:
            return parse(self.header[key])
        except ValueError:
            raise self.error(self.header_line, f"bad header field {key}={self.header[key]}") from None

    def numbered(self, start: int, stop: int | None = None) -> list[tuple[int, str]]:
        """(line number, text) of the rows among lines[start:stop]."""
        return [(ln, raw.strip()) for ln, raw in enumerate(self.lines[start:stop], start + 1)
                if _is_row(raw)]

    def numbers(self, line: int, tokens: list[str], dtype=int) -> list:
        """`dtype()` of every token of one line, ints within int64; a bad
        token names the line."""
        try:
            return np.array([dtype(tok) for tok in tokens], dtype=dtype).tolist()
        except (ValueError, OverflowError):
            raise self.error(line, "malformed number") from None

    def rows(self, start: int, stop: int | None, width: int, dtype=float) -> np.ndarray:
        """The rows among lines[start:stop] as one (n, width) float or int array.

        One np.loadtxt call parses a block of rows only; a block with
        blanks or comments is parsed once more without them.  Whatever
        loadtxt rejects goes through the line loop, which accepts exactly
        the tokens `numbers` accepts and names the first bad line.
        """
        table = _loadtxt(self.lines[start:stop], width, dtype)
        if table is None:
            numbered = self.numbered(start, stop)
            table = _loadtxt([text for _, text in numbered], width, dtype)
        if table is None:
            parsed = []
            for ln, text in numbered:
                parts = text.split()
                if len(parts) != width:
                    raise self.error(ln, f"expected {width} components, got {len(parts)}")
                parsed.append(self.numbers(ln, parts, dtype))
            table = np.array(parsed, dtype=dtype).reshape(-1, width)
        return table


def _loadtxt(lines: list[str], width: int, dtype) -> np.ndarray | None:
    """np.loadtxt of the lines if it reads one `width` row from each.

    loadtxt accepts no token that `dtype()` rejects, and its comment
    stripping is off so that a `#` after a value stays an error.
    """
    if not lines:
        return None
    try:
        with warnings.catch_warnings():
            # all-blank lines read as no data, with a warning
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape == (len(lines), width) else None


def read(path, magic: str) -> TextFile:
    """Read a file, check its magic line and parse its header.

    The header is the first line after the magic line that is neither
    blank nor a comment; without one the error names line 2.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != magic:
        raise ValueError(f"{path}:1: missing magic line '{magic}'")
    line = next((ln for ln, raw in enumerate(lines[1:], 2) if _is_row(raw)), None)
    if line is None:
        raise ValueError(f"{path}:2: missing header line")
    header = dict(tok.split("=", 1) for tok in lines[line - 1].split() if "=" in tok)
    return TextFile(str(path), lines, header, line)


def format_rows(*blocks, sep: str = " ") -> list[str]:
    """One line per row of the (n, k) or (n,) blocks side by side.

    `tolist` turns the values into Python floats and ints, whose repr is
    the shortest round-trip form and the plain digits.
    """
    columns = [(a[:, None] if a.ndim == 1 else a).tolist() for a in map(np.asarray, blocks)]
    return [sep.join(map(repr, itertools.chain.from_iterable(row))) for row in zip(*columns)]


def write(path, lines: list[str]) -> None:
    """Write the lines, each ended by a newline."""
    Path(path).write_text("\n".join(lines) + "\n")
