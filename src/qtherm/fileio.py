"""CSV readers and number formatting for the command-line tools.

Input files hold one real value per line (probabilities or energies),
UTF-8 with LF or CRLF endings.  An optional header row names the columns;
multi-column files (such as the solver's own CSV output) are supported by
selecting a column by name.  Blank lines and lines starting with ``#`` are
skipped.  Parse failures raise :class:`ParseError` carrying the 1-based
line number.

The selected cells are converted by one NumPy cast, which accepts exactly
the strings that ``float`` accepts (``1_0``, Unicode digits, the ``nan`` and
``inf`` spellings, ``1e400``).  Only when that cast raises does the reader
convert line by line, to name the line that fails.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .entropy import as_distribution
from .errors import ParseError
from .maxent import as_spectrum


def format_float(x: float) -> str:
    """Render a double with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def read_column(path, column: str) -> np.ndarray:
    """Read one numeric column from a CSV file.

    Headerless single-column files are accepted directly; files with a
    header row must contain ``column``.  Data cells are split but not
    stripped (``float`` ignores the whitespace around a number); only the
    header and the cell that an error names are.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines if line.strip()[:1] not in ("", "#")]
    if not rows:
        raise ParseError(f"no data rows in {path}")

    header = [cell.strip() for cell in rows[0].split(",")]
    if _all_numeric(header):
        header = None
    else:
        rows = rows[1:]
        if not rows:
            raise ParseError("header present but no data rows",
                             line=_data_line_numbers(lines)[0])

    if header is None:
        index = 0
        if any("," in line for line in rows):
            raise ParseError(
                f"multi-column file without a header naming {column!r}",
                line=_data_line_numbers(lines)[0],
            )
    else:
        if column not in header:
            raise ParseError(
                f"no column named {column!r} in header {header!r}",
                line=_data_line_numbers(lines)[0],
            )
        index = header.index(column)

    try:
        return np.array([line.split(",", index + 1)[index] for line in rows],
                        dtype=np.float64)
    except (IndexError, ValueError):
        pass
    # some row is short or holds no number: find the first one, line by line
    linenos = _data_line_numbers(lines)
    if header is not None:
        linenos = linenos[1:]
    values = []
    try:
        for lineno, line in zip(linenos, rows):
            values.append(float(line.split(",", index + 1)[index]))
    except IndexError:
        cells = line.split(",")
        raise ParseError(f"row has {len(cells)} columns, need {index + 1}",
                         line=lineno) from None
    except ValueError:
        cell = line.split(",")[index].strip()
        raise ParseError(f"not a number: {cell!r}", line=lineno) from None
    return np.asarray(values, dtype=float)


def _data_line_numbers(lines: list[str]) -> list[int]:
    """The 1-based numbers of the lines that are neither blank nor comments."""
    return [lineno for lineno, line in enumerate(lines, start=1)
            if line.strip()[:1] not in ("", "#")]


def _all_numeric(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def read_distribution(path) -> np.ndarray:
    """Read and validate a probability vector (column ``p``)."""
    return as_distribution(read_column(path, "p"))


def read_spectrum(path) -> np.ndarray:
    """Read and validate an energy spectrum (column ``E``)."""
    return as_spectrum(read_column(path, "E"))
