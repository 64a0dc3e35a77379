import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from exitmoment.momentproblem import ConicProgram, PsdBlock, assemble
from exitmoment import sdpa
from exitmoment.sdpa import (SdpaData, export_sdpa, program_sdpa_image,
                             read_sdpa)

from models import BROWNIAN, PENDULUM, scaled
from traced import traced_peak

GOLDEN = Path(__file__).parent / "golden"


def records(data: SdpaData) -> dict:
    """The entries, each record view as its list of (i, j, value) tuples."""
    return {key: view.tolist() for key, view in data.entries.items()}


def fields(data: SdpaData) -> tuple:
    return data.num_vars, data.block_sizes, data.c, records(data)


def trivial_program():
    return ConicProgram(
        num_vars=1,
        objective=np.array([1.0]),
        sense="max",
        a_eq=sp.csr_matrix(np.array([[1.0]])),
        rhs=np.array([0.25]),
        blocks=[PsdBlock("M", 1, sp.csr_matrix(np.array([[1.0]])))],
    )


@pytest.fixture(scope="module")
def brownian_k4():
    """Brownian reduced K=4 order 1 "max", the program of the golden file."""
    return assemble(scaled(BROWNIAN), "reduced", 4, 1, "max")


def test_trivial_export_matches_golden(tmp_path):
    out = tmp_path / "trivial.dat-s"
    export_sdpa(trivial_program(), out)
    assert out.read_bytes() == (GOLDEN / "trivial.dat-s").read_bytes()


def test_brownian_export_matches_golden(brownian_k4, tmp_path):
    # written by the per-entry exporter this file format started with; the
    # block M(m) (block 1) was then taken out and the later blocks
    # renumbered.  Then block 3, M((1 - y) m), the mirror of M(y m), went
    # the same way, and the entries of the 25 symmetry rows, their
    # coefficients expanded by Polynomial arithmetic, joined the equality
    # block as its rows 31-55 and 86-110, after the 30 rows it had in
    # each half.  Then block 1, M(b), which y + (1 - y) = 1 implies, went
    # too, and M(y b) joined as block 4, its entries from the per-entry
    # reference lowering of the tests of momentproblem
    out = tmp_path / "bm.dat-s"
    export_sdpa(brownian_k4, out)
    golden = (GOLDEN / "brownian-reduced-K4.dat-s").read_bytes()
    assert out.read_bytes() == golden
    image = program_sdpa_image(brownian_k4)
    assert fields(read_sdpa(out)) == fields(image)


@pytest.mark.parametrize("lines", [3, 7])
def test_chunk_size_changes_no_byte(brownian_k4, tmp_path, monkeypatch, lines):
    # chunks hold whole columns, so these cut the file at many places,
    # and the reader checks ranges and order as many slices
    monkeypatch.setattr(sdpa, "_LINES_PER_WRITE", lines)
    out = tmp_path / "bm.dat-s"
    export_sdpa(brownian_k4, out)
    golden = (GOLDEN / "brownian-reduced-K4.dat-s").read_bytes()
    assert out.read_bytes() == golden
    image = program_sdpa_image(brownian_k4)
    assert fields(read_sdpa(out)) == fields(image)


def test_export_and_read_stay_within_their_memory(tmp_path):
    """The numpy peak (tracemalloc) of exporting pendulum reduced K=6
    (28,347 entry lines, its blocks over the circle quotient basis) and
    reading it back is 2.7 MB, set by the export; the read's result holds
    1.0 MB, where a dict of 7,461 record views and tuple keys held 2.7 MB.
    With M(m) in the program, without the exit-measure localizers and over
    the full basis (28,152 lines), an export that built a record table of
    the whole program and formatted all its lines at once peaked at
    5.4 MB."""
    program = assemble(scaled(PENDULUM), "reduced", 6, 1, "min")
    out = tmp_path / "p.dat-s"

    def round_trip():
        export_sdpa(program, out)
        return read_sdpa(out)

    data, peak = traced_peak(round_trip)
    assert sum(len(view) for view in data.entries.values()) == 28_347
    assert peak <= 4_200_000


def test_block_sizes_match_assembled_dimensions(brownian_k4, tmp_path):
    out = tmp_path / "bm.dat-s"
    export_sdpa(brownian_k4, out)
    data = read_sdpa(out)
    psd = [s for s in data.block_sizes if s > 0]
    assert psd == [b.dim for b in brownian_k4.blocks]
    (diag,) = [s for s in data.block_sizes if s < 0]
    assert diag == -2 * brownian_k4.a_eq.shape[0]
    assert data.num_vars == brownian_k4.num_vars


def test_round_trip_exact(brownian_k4, tmp_path):
    out = tmp_path / "bm.dat-s"
    export_sdpa(brownian_k4, out)
    parsed = read_sdpa(out)
    image = program_sdpa_image(brownian_k4)
    assert parsed.num_vars == image.num_vars
    assert parsed.block_sizes == image.block_sizes
    assert parsed.c == image.c
    assert records(parsed) == records(image)


def test_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.dat-s"
    bad.write_text("*comment\n3\n")
    with pytest.raises(ValueError):
        read_sdpa(bad)
    bad.write_text("1\n1\n1\n0.0\n1 1 1 1\n")
    with pytest.raises(ValueError):
        read_sdpa(bad)
    bad.write_text("1\n2\n2\n0.0\n0 1 1 1 1.0\n")
    with pytest.raises(ValueError, match="block count does not match"):
        read_sdpa(bad)
    bad.write_text("2\n1\n2\n1.0\n1 1 1 1 1.0\n")
    with pytest.raises(ValueError, match="objective length"):
        read_sdpa(bad)
    # HEADER declares 2 variables, a 2x2 block and a diagonal block
    for line, field in [("7 1 1 1 1.0", "matno"), ("-1 1 1 1 1.0", "matno"),
                        ("1 5 1 1 1.0", "blkno"), ("1 0 1 1 1.0", "blkno"),
                        ("1 1 9 9 1.0", "i"), ("1 1 1 3 1.0", "j"),
                        ("1 1 0 1 1.0", "i"), ("1 2 1 2 1.0", "diagonal")]:
        bad.write_text(HEADER + "0 2 1 1 1.0\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            read_sdpa(bad)
    # 2**32 + 1 wraps to the valid index 1 in a 32-bit field
    for line in ["4294967297 1 1 1 1.0", "1 1 1 4294967297 1.0"]:
        bad.write_text(HEADER + line + "\n")
        with pytest.raises(ValueError):
            read_sdpa(bad)


HEADER = "*title\n2\n2\n2 -2\n1.0 0.5\n"


def test_reader_accepts_lower_triangle_entries(tmp_path):
    path = tmp_path / "l.dat-s"
    path.write_text(HEADER + "1 1 2 1 5.0\n2 2 2 2 1.0\n")
    assert records(read_sdpa(path)) == {(1, 1): [(2, 1, 5.0)],
                                        (2, 2): [(2, 2, 1.0)]}


def test_entries_are_record_views_of_one_table(brownian_k4, tmp_path):
    out = tmp_path / "bm.dat-s"
    export_sdpa(brownian_k4, out)
    for data in (read_sdpa(out), program_sdpa_image(brownian_k4)):
        views = list(data.entries.values())
        table = views[0].base
        assert table.dtype == np.dtype(sdpa._ENTRY_DTYPE)
        assert sum(len(view) for view in views) == len(table)
        for view in views:
            assert view.base is table
            assert view.dtype.names == ("i", "j", "value")


def test_entries_are_a_dict_of_their_runs(brownian_k4):
    """Looked up, assigned, deleted and iterated as the dict of record
    views they stand for; keys keep the table's order, and a new key comes
    last."""
    data = program_sdpa_image(brownian_k4)
    entries = data.entries
    keys = list(records(data))
    assert len(entries) == len(keys) and keys[0] in entries
    assert (0, 99) not in entries and "a key" not in entries
    entries[keys[0]] = entries[keys[0]][1:]
    del entries[keys[1]]
    entries[(0, 99)] = "a value"
    with pytest.raises(KeyError):
        entries[keys[1]]
    with pytest.raises(KeyError):
        del entries[keys[1]]
    assert list(entries) == [keys[0]] + keys[2:] + [(0, 99)]
    assert len(entries) == len(keys)
    # items and values walk the same keys, in the same order
    assert [key for key, _ in entries.items()] == list(entries)
    assert [len(v) for v in entries.values()] == [len(entries[k]) for k in entries]
    assert entries[(0, 99)] == "a value"
    assert entries[keys[0]].tolist() == records(program_sdpa_image(
        brownian_k4))[keys[0]][1:]
    del entries[(0, 99)]
    entries[keys[1]] = "back"
    assert len(entries) == len(keys) and entries[keys[1]] == "back"


@pytest.mark.parametrize("comment", ["", "* a comment line\n"])
@pytest.mark.parametrize("line", [
    "1 1 1.5 1 2.0",     # non-integer index
    "1 1 x 1 2.0",
    "1 1 1 1",           # four tokens
    "1 1 1 1 2.0 3.0",   # six tokens
    "1 1 1 1 two",
])
def test_reader_rejects_malformed_entry(tmp_path, line, comment):
    bad = tmp_path / "bad.dat-s"
    bad.write_text(HEADER + "0 2 1 1 1.0\n" + comment + line + "\n")
    with pytest.raises(ValueError):
        read_sdpa(bad)


def test_reader_rejects_index_an_older_numpy_truncates(tmp_path, monkeypatch):
    # numpy releases with the float-to-int deprecation read "1.5" into an
    # integer field as 1 and only warn; the reader must still refuse it
    loadtxt = np.loadtxt

    def truncating_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning, stacklevel=2)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    bad = tmp_path / "bad.dat-s"
    bad.write_text(HEADER + "1 1 1.5 1 2.0\n")
    with pytest.raises(ValueError, match="non-integer index"):
        read_sdpa(bad)


def test_reader_skips_header_comments_and_blank_lines(tmp_path):
    path = tmp_path / "b.dat-s"
    path.write_text(HEADER + "* after the header\n\n"
                    "1 1 1 1 2.0\n"
                    "\n"
                    "  \t \n"
                    "1 1 2 2 3.0\n")
    assert records(read_sdpa(path)) == {(1, 1): [(1, 1, 2.0), (2, 2, 3.0)]}


def test_reader_parses_exported_entries_in_one_pass(brownian_k4, tmp_path, monkeypatch):
    # without comment lines among the entries, numpy reads them from the
    # path; the per-line comment filter is the fallback for other files
    calls = []
    load = sdpa._load_entries

    def counted(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(sdpa, "_load_entries", counted)
    out = tmp_path / "bm.dat-s"
    export_sdpa(brownian_k4, out)
    image = program_sdpa_image(brownian_k4)
    assert fields(read_sdpa(out)) == fields(image)
    assert len(calls) == 1


def test_reader_skips_comments_and_blanks_between_entries(tmp_path):
    path = tmp_path / "c.dat-s"
    path.write_text(HEADER + "* after the header\n"
                    "2 1 1 2 -1.5\n"
                    "* between entries\n"
                    "\n"
                    '"quoted comment line\n'
                    "   * indented comment\n"
                    "  1 1 1 1 2.0\n"
                    "0 2 2 2 0.25\n"
                    "1 1 1 2 0.0\n"
                    "1 1 2 2 3.0\n"
                    "0 2 1 1 -0.25\n")
    data = read_sdpa(path)
    assert (data.num_vars, data.block_sizes, data.c) == (2, [2, -2], [1.0, 0.5])
    assert records(data) == {
        (0, 2): [(1, 1, -0.25), (2, 2, 0.25)],
        (1, 1): [(1, 1, 2.0), (2, 2, 3.0)],
        (2, 1): [(1, 2, -1.5)],
    }


def test_reader_sorts_an_unsorted_file_without_comments(tmp_path):
    path = tmp_path / "u.dat-s"
    path.write_text(HEADER + "1 1 2 2 3.0\n1 1 1 1 2.0\n0 2 1 1 1.0\n"
                    "1 1 1 1 -1.0\n")
    data = read_sdpa(path)
    assert records(data) == {(0, 2): [(1, 1, 1.0)],
                             (1, 1): [(1, 1, -1.0), (1, 1, 2.0), (2, 2, 3.0)]}
    path.write_text(HEADER)
    assert read_sdpa(path).entries == {}


@pytest.mark.parametrize("lines", [1, 2, 3])
def test_reader_sorts_a_file_out_of_order_by_value_alone(tmp_path,
                                                         monkeypatch, lines):
    # the order check compares neighbours a slice of entries at a time;
    # the one pair out of order differs only in its last field
    monkeypatch.setattr(sdpa, "_LINES_PER_WRITE", lines)
    path = tmp_path / "v.dat-s"
    path.write_text(HEADER + "0 2 1 1 1.0\n1 1 1 1 2.0\n1 1 1 1 -1.0\n"
                    "1 1 2 2 3.0\n")
    assert records(read_sdpa(path)) == {
        (0, 2): [(1, 1, 1.0)],
        (1, 1): [(1, 1, -1.0), (1, 1, 2.0), (2, 2, 3.0)]}


def test_objective_negated_for_max(tmp_path):
    program = trivial_program()
    out = tmp_path / "t.dat-s"
    export_sdpa(program, out)
    data = read_sdpa(out)
    assert data.c == [-1.0]
    text = out.read_text()
    assert "sense: max" in text
