"""The package's `# dd-<kind> v1` text files: one reader, one row parser, one writer.

Datasets, meshes, unit-load libraries and the emitted tables share the
convention described under "File formats" in docs/config.md.  A line
ends at `\\n`, `\\r\\n` or `\\r`, as in a file opened in text mode.

`read` reads a file up to its header line only.  A block of rows that
runs from the header to the end of the file, as in a dataset or a
unit-load library, is parsed by one np.loadtxt call on the open file,
which holds neither the file's text nor a list of its lines.  The lines
are read once, on first use: for a mesh's sections, and to name the
line of a malformed row or of a tuple that fails validation.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


def _is_row(raw: str) -> bool:
    """Neither blank nor a comment."""
    text = raw.strip()
    return bool(text) and not text.startswith("#")


@dataclass
class TextFile:
    """A read file: its name and its header's fields and line."""

    name: str
    header: dict[str, str]
    header_line: int

    @cached_property
    def lines(self) -> list[str]:
        """Every line of the file, read on first use."""
        with open(self.name) as f:
            return f.read().removesuffix("\n").split("\n")

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

        A block that runs from the header to the end of the file goes to
        one np.loadtxt call on the open file, which skips blank lines;
        any other block to one call on its lines.  A block that call
        rejects is parsed once more from its rows alone, without blanks
        and comments, and whatever loadtxt rejects then goes through the
        line loop, which accepts exactly the tokens `numbers` accepts
        and names the first bad line.
        """
        if start == self.header_line and stop is None:
            with open(self.name) as f:
                for _ in range(start):
                    f.readline()
                table = _loadtxt(f, width, dtype)
        else:
            block = self.lines[start:stop]
            table = _loadtxt(block, width, dtype, len(block))
        if table is None:
            numbered = self.numbered(start, stop)
            table = _loadtxt([text for _, text in numbered], width, dtype, len(numbered))
        if table is None:
            parsed = []
            for ln, text in numbered:
                parts = text.split()
                if len(parts) != width:
                    raise self.error(ln, f"expected {width} components, got {len(parts)}")
                parsed.append(self.numbers(ln, parts, dtype))
            table = np.array(parsed, dtype=dtype).reshape(-1, width)
        return table


def _loadtxt(source, width: int, dtype, n: int | None = None) -> np.ndarray | None:
    """np.loadtxt of a list of lines or an open file if it reads `n` rows
    of `width` values (one or more rows when `n` is None).

    loadtxt accepts no token that `dtype()` rejects, and its comment
    stripping is off so that a `#` after a value stays an error.
    """
    try:
        with warnings.catch_warnings():
            # all-blank input reads as no data, with a warning
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(source, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    rows = len(table) if n is None else n
    return table if rows and table.shape == (rows, width) else None


def read(path, magic: str) -> TextFile:
    """Check a file's magic line and parse its header, reading no further.

    The header is the first line after the magic line that is neither
    blank nor a comment; without one the error names line 2.
    """
    path = Path(path)
    with open(path) as f:
        if f.readline().strip() != magic:
            raise ValueError(f"{path}:1: missing magic line '{magic}'")
        for line, raw in enumerate(f, 2):
            if _is_row(raw):
                header = dict(tok.split("=", 1) for tok in raw.split() if "=" in tok)
                return TextFile(str(path), header, line)
    raise ValueError(f"{path}:2: missing header line")


def format_rows(*blocks, sep: str = " ") -> list[str]:
    """One line per row of the (n, k) or (n,) blocks side by side.

    `tolist` turns the values into Python floats and ints, whose repr is
    the shortest round-trip form and the plain digits.
    """
    columns = [(a[:, None] if a.ndim == 1 else a).tolist() for a in map(np.asarray, blocks)]
    return [sep.join(map(repr, itertools.chain.from_iterable(row))) for row in zip(*columns)]


def write(path, lines: list[str]) -> None:
    """Write the lines, each ended by a newline, one at a time."""
    with open(path, "w") as f:
        f.writelines(f"{line}\n" for line in lines)
