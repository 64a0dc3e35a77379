import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from exitmoment.augment import SdeModel, augment, scale_model
from exitmoment.momentproblem import ConicProgram, PsdBlock, assemble
from exitmoment import sdpa
from exitmoment.sdpa import (SdpaData, export_sdpa, program_sdpa_image,
                             read_sdpa)

GOLDEN = Path(__file__).parent / "golden"


def trivial_program():
    return ConicProgram(
        num_vars=1,
        objective=np.array([1.0]),
        sense="max",
        a_eq=sp.csr_matrix(np.array([[1.0]])),
        rhs=np.array([0.25]),
        blocks=[PsdBlock("M", 1, sp.csr_matrix(np.array([[1.0]])))],
    )


def brownian_program(K=4):
    model = scale_model(augment(SdeModel.from_strings(
        ["y"], ["0"], [["1"]], [0.5], 10.0, ["y", "1 - y"])))
    return assemble(model, "reduced", K, 1, "max")


def test_trivial_export_matches_golden(tmp_path):
    out = tmp_path / "trivial.dat-s"
    export_sdpa(trivial_program(), out)
    assert out.read_bytes() == (GOLDEN / "trivial.dat-s").read_bytes()


def test_brownian_export_matches_golden(tmp_path):
    # written by the per-entry exporter this file format started with
    out = tmp_path / "bm.dat-s"
    export_sdpa(brownian_program(4), out)
    golden = (GOLDEN / "brownian-reduced-K4.dat-s").read_bytes()
    assert out.read_bytes() == golden
    assert read_sdpa(out) == program_sdpa_image(brownian_program(4))


def test_block_sizes_match_assembled_dimensions(tmp_path):
    program = brownian_program()
    out = tmp_path / "bm.dat-s"
    export_sdpa(program, out)
    data = read_sdpa(out)
    psd = [s for s in data.block_sizes if s > 0]
    assert psd == [b.dim for b in program.blocks]
    (diag,) = [s for s in data.block_sizes if s < 0]
    assert diag == -2 * program.a_eq.shape[0]
    assert data.num_vars == program.num_vars


def test_round_trip_exact(tmp_path):
    program = brownian_program()
    out = tmp_path / "bm.dat-s"
    export_sdpa(program, out)
    parsed = read_sdpa(out)
    image = program_sdpa_image(program)
    assert parsed.num_vars == image.num_vars
    assert parsed.block_sizes == image.block_sizes
    assert parsed.c == image.c
    assert parsed.entries == image.entries


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


HEADER = "*title\n2\n2\n2 -2\n1.0 0.5\n"


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
    assert read_sdpa(path).entries == {(1, 1): [(1, 1, 2.0), (2, 2, 3.0)]}


def test_reader_parses_exported_entries_in_one_pass(tmp_path, monkeypatch):
    # without comment lines among the entries, numpy reads them from the
    # path; the per-line comment filter is the fallback for other files
    calls = []
    load = sdpa._load_entries

    def counted(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(sdpa, "_load_entries", counted)
    out = tmp_path / "bm.dat-s"
    export_sdpa(brownian_program(4), out)
    assert read_sdpa(out) == program_sdpa_image(brownian_program(4))
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
    assert read_sdpa(path) == SdpaData(
        num_vars=2, block_sizes=[2, -2], c=[1.0, 0.5],
        entries={
            (0, 2): [(1, 1, -0.25), (2, 2, 0.25)],
            (1, 1): [(1, 1, 2.0), (2, 2, 3.0)],
            (2, 1): [(1, 2, -1.5)],
        })


def test_reader_sorts_an_unsorted_file_without_comments(tmp_path):
    path = tmp_path / "u.dat-s"
    path.write_text(HEADER + "1 1 2 2 3.0\n1 1 1 1 2.0\n0 2 1 1 1.0\n"
                    "1 1 1 1 -1.0\n")
    data = read_sdpa(path)
    assert data.entries == {(0, 2): [(1, 1, 1.0)],
                            (1, 1): [(1, 1, -1.0), (1, 1, 2.0), (2, 2, 3.0)]}
    path.write_text(HEADER)
    assert read_sdpa(path).entries == {}


def test_objective_negated_for_max(tmp_path):
    program = trivial_program()
    out = tmp_path / "t.dat-s"
    export_sdpa(program, out)
    data = read_sdpa(out)
    assert data.c == [-1.0]
    text = out.read_text()
    assert "sense: max" in text
