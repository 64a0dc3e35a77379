"""Sparse SDPA (.dat-s) export and a matching reader for cross-checks.

The file encodes ``min c^T x  s.t.  X = sum_i x_i F_i - F_0,  X >= 0``
(the standard reading of the format).  Every PSD block of the program
becomes one block of X; the equality system A x = b is appended as one
diagonal block holding the paired inequalities A x - b >= 0 and
b - A x >= 0.  Maximization problems are written with the negated
objective and flagged in a comment line.

Entry lines ``matno blkno i j value`` are sorted by (matno, blkno, i, j,
value), and the value is written with ``{!r}`` of the Python float, the
shortest string that reads back to the same double.  PSD block entry
(i, j) comes from svec position p of ``np.triu_indices(dim)``, shifted to
one-based indices.  Export and read stream the entry lines, so neither
holds the file's text in memory at once.  In memory the entries are one
record table of ``_ENTRY_DTYPE`` in that order, zero values dropped once:
the program's table is what ``export_sdpa`` writes, and each
``SdpaData.entries`` value is an (i, j, value) record view of its rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .momentproblem import ConicProgram

_ENTRY_DTYPE = [("matno", np.int64), ("blkno", np.int64),
                ("i", np.int64), ("j", np.int64), ("value", np.float64)]
_LINES_PER_WRITE = 1 << 16


@dataclass(eq=False)
class SdpaData:
    num_vars: int
    block_sizes: list            # negative entries are diagonal blocks
    c: list
    entries: dict                # (matno, blkno) -> (i, j, value) records


def _grouped(table: np.ndarray) -> dict:
    """Sorted, zero-free entry table -> ``SdpaData.entries``: a slice of
    the table's one (i, j, value) record view per (matno, blkno)."""
    starts = np.flatnonzero((np.diff(table["matno"], prepend=-1) != 0)
                            | (np.diff(table["blkno"], prepend=-1) != 0))
    ends = np.append(starts[1:], len(table)).tolist()
    keys = table[["matno", "blkno"]][starts].tolist()
    records = table[["i", "j", "value"]]
    return {key: records[s:e]
            for key, s, e in zip(keys, starts.tolist(), ends)}


def _program_table(program: ConicProgram) -> np.ndarray:
    """The program's nonzero entries in file order, one record each.

    Stacking every block's rows over the columns [F_0 | x_1 .. x_n] and
    reading the stack column by column gives (matno, blkno, i, j) order:
    blocks are stacked in blkno order, svec rows run in (i, j) order,
    and the equality pairs A x - b (i = row) come before b - A x
    (i = m_eq + row).
    """
    m_eq = program.a_eq.shape[0]
    mats = [b.mat for b in program.blocks] + [program.a_eq, -program.a_eq]
    ij = [np.triu_indices(b.dim) for b in program.blocks]
    ij.append((np.arange(2 * m_eq),) * 2)
    blkno = np.repeat(np.arange(1, len(ij) + 1), [len(i) for i, _ in ij])
    f = sp.vstack(mats, format="csr")
    f0 = np.concatenate([np.zeros(f.shape[0] - 2 * m_eq),
                         program.rhs, -program.rhs])
    stack = sp.hstack([sp.csr_matrix(f0[:, None]), f], format="csc")
    stack.sort_indices()
    stack.eliminate_zeros()
    rows = stack.indices
    table = np.empty(len(rows), dtype=_ENTRY_DTYPE)
    table["matno"] = np.repeat(np.arange(stack.shape[1]), np.diff(stack.indptr))
    table["blkno"] = blkno[rows]
    table["i"], table["j"] = np.concatenate(ij, axis=1)[:, rows] + 1
    table["value"] = stack.data
    return table


def _sizes_and_c(program: ConicProgram):
    m_eq = program.a_eq.shape[0]
    sizes = [b.dim for b in program.blocks]
    if m_eq:
        sizes.append(-2 * m_eq)
    sign = -1.0 if program.sense == "max" else 1.0
    return sizes, [sign * v for v in program.objective.tolist()]


def program_sdpa_image(program: ConicProgram) -> SdpaData:
    """The exact structure export_sdpa writes, kept in memory."""
    sizes, c = _sizes_and_c(program)
    return SdpaData(program.num_vars, sizes, c,
                    _grouped(_program_table(program)))


def export_sdpa(program: ConicProgram, path) -> None:
    """Write the program in sparse SDPA format (see module docstring for
    the block layout; equalities are the trailing diagonal block)."""
    sizes, c = _sizes_and_c(program)
    header = [
        "*exitmoment conic program export",
        f"*sense: {program.sense}"
        + (" (objective negated in c below)" if program.sense == "max" else ""),
        "*blocks: "
        + ", ".join(b.label for b in program.blocks)
        + (", equality pairs (diagonal)" if program.a_eq.shape[0] else ""),
        str(program.num_vars),
        str(len(sizes)),
        " ".join(str(s) for s in sizes),
        " ".join(repr(v) for v in c),
    ]
    table = _program_table(program)
    index_cols = [table[name] for name, _ in _ENTRY_DTYPE[:4]]
    # each distinct index ({}) and value ({!r}) is formatted once
    top = max((int(col.max()) for col in index_cols if len(col)), default=0)
    names = np.array([str(k) for k in range(top + 1)], dtype=object)
    uniq, inv = np.unique(table["value"], return_inverse=True)
    reprs = np.array([repr(v) for v in uniq.tolist()], dtype=object)
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, len(table), _LINES_PER_WRITE):
            part = slice(start, start + _LINES_PER_WRITE)
            fields = [names[col[part]].tolist() for col in index_cols]
            fields.append(reprs[inv[part]].tolist())
            fh.write("\n".join(map(" ".join, zip(*fields))) + "\n")


def _is_data(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and stripped[0] not in "*\""


def _load_entries(source, skiprows=0):
    """Entry lines -> structured array; np.loadtxt rejects a line of other
    than 5 fields or a non-integer index, and skips blank lines."""
    with warnings.catch_warnings():
        # numpy releases that truncate a float-looking string read into an
        # integer field only warn about it; reject such an index there too
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(source, dtype=_ENTRY_DTYPE, comments=None,
                              skiprows=skiprows, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(
                f"non-integer index in an entry line: {exc}") from exc


def _check_ranges(table: np.ndarray, num_vars: int,
                  block_sizes: list) -> None:
    """Raise a ValueError naming the first entry field out of range;
    i > j is legal, i != j only outside diagonal blocks."""
    size = np.array([0] + block_sizes)[
        np.clip(table["blkno"], 0, len(block_sizes))]
    for name, low, high in [("matno", 0, num_vars),
                            ("blkno", 1, len(block_sizes)),
                            ("i", 1, abs(size)), ("j", 1, abs(size))]:
        if ((table[name] < low) | (table[name] > high)).any():
            raise ValueError(f"entry field {name} out of range")
    if ((size < 0) & (table["i"] != table["j"])).any():
        raise ValueError("entry i != j in a diagonal block")


def read_sdpa(path) -> SdpaData:
    """Parse a sparse SDPA file back into the exported structure."""
    with open(path) as fh:
        numbered = ((n, line) for n, line in enumerate(fh) if _is_data(line))
        head = [line for _, line in islice(numbered, 4)]
        if len(head) < 4:
            raise ValueError("truncated SDPA file")
        num_vars = int(head[0])
        nblocks = int(head[1])
        sizes_line = head[2].translate(str.maketrans("{}(),", "     "))
        block_sizes = [int(tok) for tok in sizes_line.split()]
        if len(block_sizes) != nblocks:
            raise ValueError("block count does not match the size list")
        c = [float(tok) for tok in head[3].split()]
        if len(c) != num_vars:
            raise ValueError("objective length does not match num_vars")
        first = next((n for n, _ in numbered), None)   # first entry line
    if first is None:
        table = np.zeros(0, dtype=_ENTRY_DTYPE)
    else:
        try:
            # numpy reads the path in C, without a Python call per line;
            # a comment line among the entries fails to parse here
            table = _load_entries(path, skiprows=first)
        except ValueError:
            with open(path) as fh:
                table = _load_entries(filter(_is_data,
                                             islice(fh, first, None)))
    _check_ranges(table, num_vars, block_sizes)
    # comparing records field by field sorts by (matno, blkno, i, j,
    # value); the stable sort (timsort) takes one linear pass over the
    # already sorted entries export_sdpa writes
    table.sort(kind="stable")
    if not (keep := table["value"] != 0.0).all():
        table = table[keep]
    return SdpaData(num_vars, block_sizes, c, _grouped(table))
