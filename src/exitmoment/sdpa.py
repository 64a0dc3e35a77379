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
(i, j) is the pair at svec position p of ``momentproblem.svec_layout``,
shifted to one-based indices.  In memory the entries are records of
``_ENTRY_DTYPE`` (int32 indices, 24 bytes an entry) in that order, zero
values dropped once, and each ``SdpaData.entries`` value is an
(i, j, value) record view of one (matno, blkno) run of a single table,
sliced when its key is looked up (``_Runs``).

What each stage holds.  Neither holds the file's text at once.
``export_sdpa`` holds a by-column copy of every block and of [b | A]
(the size of the program's own matrices) and one chunk of whole columns
of about ``_LINES_PER_WRITE`` lines: its records, its distinct values
formatted once, and its lines; no table of the whole program.
``program_sdpa_image`` joins the same chunks into its one table.
``read_sdpa`` counts the file's lines in 64 KB blocks, reads the entry
lines into one table, allocated once for at most that many entries, in
one ``np.loadtxt`` pass, checks ranges and order a slice of
``_LINES_PER_WRITE`` entries at a time, and sorts only a file written
out of order, so past the table and two int64 arrays of its runs it
holds slice-sized temporaries.
"""

from __future__ import annotations

import operator
import warnings
from collections.abc import ItemsView, MutableMapping, ValuesView
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .momentproblem import ConicProgram

_ENTRY_DTYPE = [("matno", np.int32), ("blkno", np.int32),
                ("i", np.int32), ("j", np.int32), ("value", np.float64)]
# Entry lines per chunk of the export, and entries per slice of the
# reader's checks.  A chunk's records and line strings take about 250 B a
# line, so a chunk holds about 2 MB: the pendulum's files have 26,556
# lines at K=6 and 416,810 at K=10.
_LINES_PER_WRITE = 1 << 13


@dataclass(eq=False)
class SdpaData:
    num_vars: int
    block_sizes: list            # negative entries are diagonal blocks
    c: list
    entries: MutableMapping      # (matno, blkno) -> (i, j, value) records


_GONE = object()   # a deleted run's entry in ``_Runs``' changes


class _Runs(MutableMapping):
    """``SdpaData.entries`` of a sorted, zero-free entry table: (matno,
    blkno) -> the slice of the table's one (i, j, value) record view that
    holds that run.  The run keys (as one int64 code each) and start
    offsets are arrays; a view is sliced only when its key is looked up
    or its run comes up in an iteration.  An assigned or deleted key goes
    to a dict on top.  Keys iterate in table order, then the assigned keys
    the table lacks."""

    def __init__(self, table: np.ndarray):
        matno, blkno = table["matno"], table["blkno"]
        new = np.ones(len(table), dtype=bool)
        np.not_equal(matno[1:], matno[:-1], out=new[1:])
        new[1:] |= blkno[1:] != blkno[:-1]
        starts = np.flatnonzero(new)
        # sorted by (matno, blkno), both in [0, 2^31): so are the codes
        self._codes = (matno[starts].astype(np.int64) << 32) | blkno[starts]
        self._starts = np.append(starts, len(table))
        self._records = table[["i", "j", "value"]]
        self._changed = {}

    def _run(self, key):
        """The index of ``key``'s run in the table, or None."""
        try:
            matno, blkno = map(operator.index, key)
        except (TypeError, ValueError):
            return None
        if not (0 <= matno < 1 << 31 and 0 <= blkno < 1 << 31):
            return None
        code = matno << 32 | blkno
        k = int(self._codes.searchsorted(code))
        return k if k < len(self._codes) and self._codes[k] == code else None

    def __getitem__(self, key):
        if key in self._changed:
            value = self._changed[key]
        elif (k := self._run(key)) is not None:
            value = self._records[self._starts[k]:self._starts[k + 1]]
        else:
            value = _GONE
        if value is _GONE:
            raise KeyError(key)
        return value

    def __setitem__(self, key, value):
        self._changed[key] = value

    def __delitem__(self, key):
        self[key]                    # a KeyError if it is absent
        if self._run(key) is None:
            del self._changed[key]
        else:
            self._changed[key] = _GONE

    def _pairs(self):
        """(key, value) in iteration order, without a lookup per key."""
        starts = self._starts
        for k, code in enumerate(self._codes.tolist()):
            key = (code >> 32, code & 0xFFFFFFFF)
            if key not in self._changed:
                yield key, self._records[starts[k]:starts[k + 1]]
            elif (value := self._changed[key]) is not _GONE:
                yield key, value
        for key, value in self._changed.items():
            if value is not _GONE and self._run(key) is None:
                yield key, value

    def __iter__(self):
        return (key for key, _ in self._pairs())

    def items(self):
        return _RunItems(self)

    def values(self):
        return _RunValues(self)

    def __len__(self):
        added = sum(1 if self._run(key) is None else -(value is _GONE)
                    for key, value in self._changed.items())
        return len(self._codes) + added


class _RunItems(ItemsView):
    def __iter__(self):
        return self._mapping._pairs()


class _RunValues(ValuesView):
    def __iter__(self):
        return (value for _, value in self._mapping._pairs())


def _by_column(mat: sp.spmatrix) -> sp.csc_matrix:
    """A copy of ``mat`` by columns, rows sorted and summed, zeros dropped."""
    out = sp.csc_matrix(mat, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def _entry_chunks(program: ConicProgram):
    """The program's nonzero entries in file order, as record tables of
    whole columns of [F_0 | x_1 .. x_n], about ``_LINES_PER_WRITE`` each.

    Each block, +A and -A is one source of entries, held by columns: a
    block's svec row p is entry (i, j) of ``np.triu_indices``, and the
    equality pairs A x - b (i = row) come before b - A x (i = m_eq + row),
    with the right-hand side b as column F_0.  Within one column the
    sources run in blkno order and each source's rows in (i, j) order, so
    a stable sort of a chunk's pieces by column gives (matno, blkno, i, j)
    order.
    """
    m_eq = program.a_eq.shape[0]
    # (blkno, indptr over num_vars + 1 columns, rows, values, one-based
    # i and j of each row, negated)
    sources = []
    triu = {}
    for blkno, block in enumerate(program.blocks, 1):
        if block.dim not in triu:
            triu[block.dim] = [ix.astype(np.int32) + 1
                               for ix in np.triu_indices(block.dim)]
        mat = _by_column(block.mat)
        # F_0 of a PSD block is zero: an empty leading column
        sources.append((blkno, np.append(0, mat.indptr), mat.indices,
                        mat.data, *triu[block.dim], False))
    if m_eq:
        pairs = _by_column(sp.hstack([sp.csc_matrix(program.rhs[:, None]),
                                      program.a_eq]))
        plus = np.arange(1, m_eq + 1, dtype=np.int32)
        blkno = len(sources) + 1
        sources += [(blkno, pairs.indptr, pairs.indices, pairs.data,
                     ix, ix, negated)
                    for ix, negated in [(plus, False), (plus + m_eq, True)]]
    if not sources:
        return
    before = np.zeros(program.num_vars + 2, dtype=np.int64)
    for _, indptr, *_ in sources:
        before[1:] += np.diff(indptr)
    np.cumsum(before, out=before)        # entries before each column
    start = 0
    while start <= program.num_vars:
        stop = int(np.searchsorted(before, before[start] + _LINES_PER_WRITE))
        stop = min(max(stop, start + 1), program.num_vars + 1)
        parts = []
        for blkno, indptr, rows, values, i_of, j_of, negated in sources:
            lo, hi = indptr[start], indptr[stop]
            parts.append((np.repeat(np.arange(start, stop, dtype=np.int32),
                                    np.diff(indptr[start:stop + 1])),
                          np.full(hi - lo, blkno, dtype=np.int32),
                          i_of[rows[lo:hi]], j_of[rows[lo:hi]],
                          -values[lo:hi] if negated else values[lo:hi]))
        columns = [np.concatenate(col) for col in zip(*parts)]
        if len(columns[0]):
            order = np.argsort(columns[0], kind="stable")
            table = np.empty(len(order), dtype=_ENTRY_DTYPE)
            for (name, _), col in zip(_ENTRY_DTYPE, columns):
                table[name] = col[order]
            yield table
        start = stop


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
    table = np.concatenate([np.zeros(0, dtype=_ENTRY_DTYPE),
                            *_entry_chunks(program)])
    return SdpaData(program.num_vars, sizes, c, _Runs(table))


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
    index_names = [name for name, _ in _ENTRY_DTYPE[:4]]
    top = max([program.num_vars, len(sizes)] + [abs(s) for s in sizes])
    names = np.array([str(k) for k in range(top + 1)], dtype=object)
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for table in _entry_chunks(program):
            # each distinct index ({}) and value ({!r}) of the chunk is
            # formatted once
            uniq, inv = np.unique(table["value"], return_inverse=True)
            reprs = np.array([repr(v) for v in uniq.tolist()], dtype=object)
            fields = [names[table[name]].tolist() for name in index_names]
            fields.append(reprs[inv].tolist())
            fh.write("\n".join(map(" ".join, zip(*fields))) + "\n")


def _is_data(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and stripped[0] not in "*\""


def _load_entries(source, skiprows=0, max_rows=None):
    """Entry lines -> structured array; np.loadtxt rejects a line of other
    than 5 fields or a non-integer index, and skips blank lines.  Given at
    least as many ``max_rows`` as there are entries, it allocates the
    array once instead of growing it."""
    with warnings.catch_warnings():
        # numpy releases that truncate a float-looking string read into an
        # integer field only warn about it; reject such an index there too
        warnings.simplefilter("error", DeprecationWarning)
        # a blank line counts toward no max_rows, which is only a bound
        warnings.filterwarnings("ignore", "Input line .* contained no data",
                                UserWarning)
        try:
            return np.loadtxt(source, dtype=_ENTRY_DTYPE, comments=None,
                              skiprows=skiprows, max_rows=max_rows, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(
                f"non-integer index in an entry line: {exc}") from exc


def _check_ranges(table: np.ndarray, num_vars: int,
                  block_sizes: list) -> None:
    """Raise a ValueError naming the first entry field out of range in the
    first slice of ``_LINES_PER_WRITE`` entries that has one; i > j is
    legal, i != j only outside diagonal blocks."""
    sizes = np.array([0] + block_sizes)
    for start in range(0, len(table), _LINES_PER_WRITE):
        part = table[start:start + _LINES_PER_WRITE]
        size = sizes[np.clip(part["blkno"], 0, len(block_sizes))]
        for name, low, high in [("matno", 0, num_vars),
                                ("blkno", 1, len(block_sizes)),
                                ("i", 1, abs(size)), ("j", 1, abs(size))]:
            if ((part[name] < low) | (part[name] > high)).any():
                raise ValueError(f"entry field {name} out of range")
        if ((size < 0) & (part["i"] != part["j"])).any():
            raise ValueError("entry i != j in a diagonal block")


def _in_file_order(table: np.ndarray) -> bool:
    """Whether the records are sorted by (matno, blkno, i, j, value), as
    ``export_sdpa`` writes them; compared ``_LINES_PER_WRITE`` neighbours
    at a time, the last field first."""
    for start in range(0, len(table) - 1, _LINES_PER_WRITE):
        later = table[start + 1:start + 1 + _LINES_PER_WRITE]
        earlier = table[start:start + len(later)]
        ordered = np.ones(len(later), dtype=bool)
        for name in reversed(table.dtype.names):
            ordered = (earlier[name] < later[name]) | (
                (earlier[name] == later[name]) & ordered)
        if not ordered.all():
            return False
    return True


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
        with open(path, "rb") as fh:
            lines = sum(block.count(b"\n")
                        for block in iter(partial(fh.read, 1 << 16), b""))
        try:
            # numpy reads the path in C, without a Python call per line;
            # a comment line among the entries fails to parse here.  No
            # more entries follow the first than lines do.
            table = _load_entries(path, skiprows=first,
                                  max_rows=lines + 1 - first)
        except ValueError:
            with open(path) as fh:
                table = _load_entries(filter(_is_data,
                                             islice(fh, first, None)))
    _check_ranges(table, num_vars, block_sizes)
    if not _in_file_order(table):
        # comparing records field by field sorts by (matno, blkno, i, j,
        # value)
        table.sort(kind="stable")
    if not (keep := table["value"] != 0.0).all():
        table = table[keep]
    return SdpaData(num_vars, block_sizes, c, _Runs(table))
