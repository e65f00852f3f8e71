import contextlib
import io
from types import SimpleNamespace

import numpy as np
import pytest

from dnasearch import cli, fmindex
from dnasearch.cli import EXIT_FASTA, EXIT_IO, EXIT_PARAMS, main
from dnasearch.fmindex import locate
from dnasearch.index_io import load_index
from dnasearch.search import MODES

from conftest import STRUCTURE_DAMAGE, damage_index


def write_reference(path, bases, name="ref"):
    with open(path, "w") as fh:
        fh.write(f">{name}\n")
        for i in range(0, len(bases), 70):
            fh.write(bases[i : i + 70] + "\n")


def random_bases(rng, n):
    return "".join("ACGT"[i] for i in rng.integers(0, 4, size=n))


def absent_queries(bases, length, count):
    """``count`` random strings of ``length`` bases that do not occur in ``bases``."""
    rng = np.random.default_rng(length)
    out = []
    while len(out) < count:
        q = random_bases(rng, length)
        if q not in bases:
            out.append(q)
    return out


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    fasta = root / "ref.fa"
    rng = np.random.default_rng(31)
    bases = random_bases(rng, 3001)  # not a multiple of 4: the packed text ends in padding
    write_reference(fasta, bases)
    index = root / "ref.idx"
    assert main(["build", str(fasta), "--k", "6", "--out", str(index)]) == 0
    return index, bases


class TestBuild:
    def test_space_report(self, tmp_path, capsys):
        fasta = tmp_path / "r.fa"
        write_reference(fasta, random_bases(np.random.default_rng(1), 800))
        # a small alpha_leaf, so that the 800 bases take many leaves
        rc = main(["build", str(fasta), "--k", "5", "--alpha-leaf", "0.5",
                   "--out", str(tmp_path / "r.idx")])
        out = capsys.readouterr().out
        assert rc == 0
        report = dict(
            line.split("=", 1) for line in out.strip().splitlines() if "=" in line
        )
        assert int(report["n"]) == 801
        assert "bwt_occ_bytes" not in report  # the file stores no BWT
        for key in ("sa_bytes", "text_bytes", "ipbwt_bytes", "rmi_bytes",
                    "total_bytes", "ipbwt_expected_bytes", "ipbwt_ratio_vs_expected"):
            assert key in report
        # the file stores 800 bases in 200 bytes; the IP-BWT is the 12n-byte table in memory
        assert (int(report["text_bytes"]), int(report["ipbwt_bytes"])) == (200 + 4, 12 * 801)
        # the file's model: 4n of suffix array, the packed text and 32 bytes a
        # leaf, plus 48 of magic, header, leaf count and checksums
        leaves = int(report["rmi_leaf_models"])
        assert (int(report["total_expected_bytes"]) == int(report["total_bytes"])
                == 4 * 801 + 200 + 32 * leaves + 48)
        # model shape: leaf count and the worst leaf prediction error
        assert 1 <= int(report["rmi_leaf_models"]) <= 801
        assert 0 <= int(report["rmi_leaf_err_max"]) < 801
        # the saved leaves' maximum errors: p50 and p99 are each the smallest
        # value that at least that share of leaves stay at or below
        eps = np.sort(load_index(str(tmp_path / "r.idx"))[0].rmi.leaf.max_errors)
        m = eps.size
        assert int(report["rmi_leaf_models"]) == m > 100
        assert [int(report[f"rmi_leaf_err_{p}"]) for p in ("p50", "p99", "max")] == [
            eps[-(-m // 2) - 1], eps[-(-99 * m // 100) - 1], eps[-1]]

    def test_missing_fasta_exits_2(self, tmp_path):
        assert main(["build", str(tmp_path / "nope.fa"), "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_invalid_fasta_exits_3(self, tmp_path):
        fasta = tmp_path / "bad.fa"
        fasta.write_text(">x\nACGNT\n")
        assert main(["build", str(fasta), "--out", str(tmp_path / "o")]) == EXIT_FASTA

    def test_k_zero_exits_4(self, tmp_path):
        fasta = tmp_path / "r.fa"
        write_reference(fasta, "ACGTACGT")
        assert main(["build", str(fasta), "--k", "0", "--out", str(tmp_path / "o")]) == EXIT_PARAMS

    def test_k_too_large_exits_4(self, tmp_path):
        fasta = tmp_path / "r.fa"
        write_reference(fasta, "ACGT")
        assert main(["build", str(fasta), "--k", "10", "--out", str(tmp_path / "o")]) == EXIT_PARAMS

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
    def test_alpha_leaf_not_finite_positive_exits_4(self, tmp_path, alpha):
        fasta = tmp_path / "r.fa"
        write_reference(fasta, random_bases(np.random.default_rng(4), 35))
        rc = main(["build", str(fasta), "--alpha-leaf", alpha, "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARAMS

    def test_k_up_to_32(self, tmp_path, capsys):
        fasta = tmp_path / "r.fa"
        write_reference(fasta, random_bases(np.random.default_rng(3), 300))
        assert main(["build", str(fasta), "--k", "32", "--out", str(tmp_path / "o")]) == 0
        assert main(["build", str(fasta), "--k", "33", "--out", str(tmp_path / "o")]) == EXIT_PARAMS

    @pytest.mark.parametrize("arg", ["--k=0", "--k=21", "--k=22", "--k=33", "--alpha-leaf=0",
                                     "--alpha-leaf=nan", "--alpha-leaf=-inf"])
    def test_bad_parameters_refused_before_suffix_sort(self, tmp_path, monkeypatch, capsys, arg):
        # 20 bases make n = 21: K = 20 is the largest that fits, 21 does not
        fasta = tmp_path / "r.fa"
        write_reference(fasta, random_bases(np.random.default_rng(5), 20))
        sorted_calls = []
        monkeypatch.setattr(fmindex, "build_suffix_array",
                            lambda *args: sorted_calls.append(args) or np.zeros(0))
        rc = main(["build", str(fasta), arg, "--out", str(tmp_path / "o")])
        assert (rc, sorted_calls) == (EXIT_PARAMS, [])
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["build", "r.fa", "--out", "o", "--k", "abc"],
                                      ["build", "r.fa", "--out", "o", "--alpha-leaf", "abc"],
                                      ["query", "i", "q", "--mode", "bogus"],
                                      ["build", "r.fa"], ["query", "i"], []])
    def test_usage_errors_exit_4(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARAMS
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "-h"])
        assert exc.value.code == 0


GOLDEN_REFERENCE = "ATACGACGTTAGCATTACGGATCCATGACTAGGACATTTACGACCGTAGATTACA"

# CRLF endings, blank and whitespace-only lines, surrounding spaces and tabs,
# lowercase bases, an N line, a non-ASCII byte, an absent query and no final
# newline; every mode must print exactly the expected TSV
GOLDEN_QUERIES = b" ACGA\r\n\r\n\t \r\nttac\t\r\nGgAt \nACNA\n\nAC\xe9A\r\n  \t\nGGGG\r\nCATT"
GOLDEN_TSV = ("0\t5\t7\t2\t2,39\n1\t51\t54\t3\t14,37,50\n2\t39\t40\t1\t18\n3\tINVALID\n"
              "4\tINVALID\n5\t40\t40\t0\t\n6\t21\t23\t2\t12,34\n")
GOLDEN_MIXED_QUERIES = b"ACGA\r\nttacg\n\n GA\t\nACNAT\nCCGTAGATT\nGGGGGG\r\n\xffCATT\nCATT"
GOLDEN_MIXED_TSV = ("0\t5\t7\t2\t2,39\n1\t52\t54\t2\t14,37\n2\t31\t37\t6\t4,19,26,32,41,48\n"
                    "3\tINVALID\n4\t24\t25\t1\t43\n5\t40\t40\t0\t\n6\tINVALID\n"
                    "7\t21\t23\t2\t12,34\n")


@pytest.fixture(scope="module")
def golden_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    fasta = root / "ref.fa"
    write_reference(fasta, GOLDEN_REFERENCE)
    index = root / "ref.idx"
    assert main(["build", str(fasta), "--k", "3", "--out", str(index)]) == 0
    return index


class TestQuery:
    def test_golden_tsv_every_mode(self, golden_index, tmp_path, capsys):
        qfile = tmp_path / "q.txt"
        qfile.write_bytes(GOLDEN_QUERIES)
        capsys.readouterr()
        for mode in MODES:
            assert main(["query", str(golden_index), str(qfile), "--mode", mode, "--locate"]) == 0
            assert capsys.readouterr().out == GOLDEN_TSV, mode

    def test_golden_tsv_mixed_lengths(self, golden_index, tmp_path, capsys):
        qfile = tmp_path / "q.txt"
        qfile.write_bytes(GOLDEN_MIXED_QUERIES)
        capsys.readouterr()
        for mode in MODES:
            assert main(["query", str(golden_index), str(qfile), "--mode", mode, "--locate"]) == 0
            assert capsys.readouterr().out == GOLDEN_MIXED_TSV, mode

    def test_one_parse_and_one_search_call(self, golden_index, tmp_path, monkeypatch, capsys):
        # the benchmark's traced run times a query command by wrapping
        # cli.parse_queries and cli.batch_search: one call each, in every mode
        calls = []
        for name in ("parse_queries", "batch_search"):
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        for mode, queries in (("rmi", GOLDEN_QUERIES), ("binary", GOLDEN_QUERIES),
                              ("fm", GOLDEN_MIXED_QUERIES)):
            qfile = tmp_path / "q.txt"
            qfile.write_bytes(queries)
            calls.clear()
            assert main(["query", str(golden_index), str(qfile), "--mode", mode, "--locate"]) == 0
            assert calls == ["parse_queries", "batch_search"], mode

    def test_locate_golden(self, tmp_path, capsys):
        fasta = tmp_path / "g.fa"
        write_reference(fasta, "ATACGAC")
        index = tmp_path / "g.idx"
        assert main(["build", str(fasta), "--k", "2", "--out", str(index)]) == 0
        capsys.readouterr()
        qfile = tmp_path / "q.txt"
        qfile.write_text("AC\n")
        assert main(["query", str(index), str(qfile), "--locate"]) == 0
        out = capsys.readouterr().out.strip()
        qid, low, high, count, positions = out.split("\t")
        assert (int(low), int(high), int(count)) == (1, 3, 2)
        assert positions == "2,5"

    @staticmethod
    def run_modes(index, qfile, tmp_path, modes=("rmi", "binary", "fm")):
        """Result rows of each mode, as lists of TSV fields."""
        rows = {}
        for mode in modes:
            out_path = tmp_path / f"res.{mode}"
            assert main(["query", str(index), str(qfile), "--mode", mode,
                         "--out", str(out_path)]) == 0
            rows[mode] = [line.split("\t") for line in out_path.read_text().splitlines()]
        return rows

    def test_modes_agree(self, built_index, tmp_path, capsys):
        index, bases = built_index
        present = [bases[i : i + 17] for i in range(0, 400, 40)]
        absent = absent_queries(bases, 17, 5)
        qfile = tmp_path / "q.txt"
        qfile.write_text("\n".join(present + absent) + "\n")
        rows = self.run_modes(index, qfile, tmp_path)
        assert rows["rmi"] == rows["binary"] == rows["fm"]
        assert all(int(row[3]) > 0 for row in rows["fm"][: len(present)])
        assert all(row[1] == row[2] and row[3] == "0" for row in rows["fm"][len(present) :])

    def test_absent_rows_agree_across_file_shapes(self, built_index, tmp_path, capsys):
        # an absent query prints the same empty interval in every mode, whether
        # the file holds one query length or several (one matrix per length)
        index, bases = built_index
        queries = absent_queries(bases, 29, 3) + [bases[100:129]]
        one = tmp_path / "one.txt"
        one.write_text("\n".join(queries) + "\n")
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("\n".join(queries + [bases[7:19], "ACGTACGTACGTACGTACGT"]) + "\n")
        rows = self.run_modes(index, one, tmp_path)
        assert rows["rmi"] == rows["binary"] == rows["fm"]
        mixed_modes = self.run_modes(index, mixed, tmp_path)
        assert mixed_modes["rmi"] == mixed_modes["binary"] == mixed_modes["fm"]
        mixed_rows = mixed_modes["fm"]
        assert mixed_rows[:4] == rows["fm"]
        assert all(row[1] == row[2] and row[3] == "0" for row in rows["fm"][:3])
        assert int(rows["fm"][3][3]) >= 1 and int(mixed_rows[4][3]) >= 1

    def test_invalid_line_marked(self, built_index, tmp_path, capsys):
        index, _ = built_index
        qfile = tmp_path / "q.txt"
        qfile.write_text("ACGTAC\nACNGTA\nTACGTA\n")
        assert main(["query", str(index), str(qfile)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1] == "1\tINVALID"

    def test_empty_query_file(self, built_index, tmp_path, capsys):
        index, _ = built_index
        qfile = tmp_path / "q.txt"
        qfile.write_text("")
        assert main(["query", str(index), str(qfile)]) == 0
        assert capsys.readouterr().out == ""

    def test_mixed_lengths_fm_rows_every_mode(self, built_index, tmp_path):
        # lengths below, at and across K = 6, one invalid line and an absent one
        index, bases = built_index
        qfile = tmp_path / "q.txt"
        qfile.write_text("\n".join(["ACGT", "ACGTA", bases[50:56], "ACNGT", bases[9:30], "A",
                                    *absent_queries(bases, 13, 1), bases[200:213]]) + "\n")
        rows = self.run_modes(index, qfile, tmp_path)
        assert rows["rmi"] == rows["binary"] == rows["fm"]
        assert len(rows["fm"]) == 8 and rows["fm"][3] == ["3", "INVALID"]

    def test_mixed_lengths_allowed_in_fm_mode(self, built_index, tmp_path, capsys):
        index, _ = built_index
        qfile = tmp_path / "q.txt"
        qfile.write_text("ACGT\nACGTA\n")
        assert main(["query", str(index), str(qfile), "--mode", "fm"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_corrupt_index_exit_2(self, built_index, tmp_path):
        index, _ = built_index
        broken = tmp_path / "broken.idx"
        broken.write_bytes(index.read_bytes()[:100])
        qfile = tmp_path / "q.txt"
        qfile.write_text("ACGT\n")
        assert main(["query", str(broken), str(qfile)]) == EXIT_IO

    def test_fasta_as_index_exit_2(self, built_index, tmp_path, capsys):
        index, _ = built_index
        qfile = tmp_path / "q.txt"
        qfile.write_text("ACGT\n")
        assert main(["query", str(index.parent / "ref.fa"), str(qfile)]) == EXIT_IO
        assert "bad header section (bad magic b'>ref')" in capsys.readouterr().err

    # every defect in every mode; the default mode, rmi, keeps the defect's name as its id
    @pytest.mark.parametrize("how, mode", [
        pytest.param(how, mode, id=how if mode == "rmi" else f"{how}-{mode}")
        for how in ["version_1", "version_2", "version_3", "version_4", "version_5",
                    "version_6", "version_7", "version_8", "version_9", "header_k",
                    "k_out_of_range", "sa_out_of_range", "sa_duplicate", "sa_rows_swapped",
                    "sa_rows_permuted", "flip_sa", "flip_text", "flip_rmi", *STRUCTURE_DAMAGE]
        for mode in MODES])
    def test_rejected_index_exit_2(self, built_index, tmp_path, how, mode):
        index, _ = built_index
        broken = tmp_path / "broken.idx"
        broken.write_bytes(index.read_bytes())
        damage_index(broken, how)
        qfile = tmp_path / "q.txt"
        qfile.write_text("ACGT\n")
        assert main(["query", str(broken), str(qfile), "--mode", mode]) == EXIT_IO

    def test_out_file_and_stdout_same_bytes(self, built_index, tmp_path, capsys):
        # stdout gets text through sys.stdout.write, also when it has no .buffer
        index, bases = built_index
        fixed = [bases[i : i + 9] for i in range(0, 900, 60)] + absent_queries(bases, 9, 3)
        fixed.append("ACGTNACGT")
        mixed = fixed + ["ACGTA", "A", bases[:40]]
        qfile, out_path = tmp_path / "q.txt", tmp_path / "res.tsv"
        for mode, queries, extra in (("rmi", fixed, ["--locate"]), ("fm", mixed, ["--locate"]),
                                     ("fm", mixed, [])):
            qfile.write_text("\n".join(queries) + "\n")
            argv = ["query", str(index), str(qfile), "--mode", mode, *extra]
            assert main(argv + ["--out", str(out_path)]) == 0
            written = out_path.read_bytes()
            assert written.count(b"\n") == len(queries)
            capsys.readouterr()
            assert main(argv) == 0
            assert capsys.readouterr().out.encode() == written
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(argv) == 0
            assert buffer.getvalue().encode() == written, (mode, extra)


def reference_tsv(sa, low, high, valid, with_locate: bool) -> str:
    """The per-line formatting loop that the TSV writer replaced, kept as its reference."""
    lines = []
    for qid, (lo, hi, ok) in enumerate(zip(low.tolist(), high.tolist(), valid.tolist())):
        if not ok:
            lines.append(f"{qid}\tINVALID")
            continue
        row = f"{qid}\t{lo}\t{hi}\t{hi - lo}"
        if with_locate:
            row += "\t" + ",".join(map(str, np.sort(sa[lo:hi]).tolist()))
        lines.append(row)
    return "\n".join(lines) + ("\n" if lines else "")


def written_tsv(sa, low, high, valid, with_locate: bool) -> str:
    """What cli._write_tsv writes, with the positions as the query command locates them."""
    positions = locate(SimpleNamespace(sa=sa), low[valid], high[valid]) if with_locate else None
    blocks = []
    cli._write_tsv(lambda buf: blocks.append(buf.tobytes()), low, high, valid, positions)
    return b"".join(blocks).decode("ascii")


# 0, 1, 9, 10, 99, 100, ... 10^9 and the largest uint32
DIGIT_EDGES = sorted({0, 2**32 - 1} | {10**e + d for e in range(10) for d in (-1, 0)})


def random_results(rng, sa_size: int, lines: int):
    """(low, high, valid) of ``lines`` lines over a table of ``sa_size`` rows.

    Intervals are empty or short, some lines repeat the whole table, and
    about a fifth are invalid, whose intervals the output must ignore.
    """
    low = rng.integers(0, sa_size + 1, size=lines)
    high = np.minimum(low + rng.integers(0, 6, size=lines) * (rng.random(lines) < 0.8), sa_size)
    full = rng.random(lines) < 0.05
    low[full], high[full] = 0, sa_size
    return low, high, rng.random(lines) >= 0.2


class TestTsvWriter:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, cli._BLOCK])
    @pytest.mark.parametrize("with_locate", [False, True])
    def test_equals_per_line_loop(self, monkeypatch, block, with_locate):
        # lines and single positions straddle every block cut at the small sizes
        monkeypatch.setattr(cli, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(4):
            sa = np.concatenate([DIGIT_EDGES, rng.integers(0, 2**32, size=60)]).astype(np.uint32)
            rng.shuffle(sa)
            low, high, valid = random_results(rng, sa.size, int(rng.integers(1, 80)))
            expected = reference_tsv(sa, low, high, valid, with_locate)
            assert written_tsv(sa, low, high, valid, with_locate) == expected

    def test_digit_edges_in_every_field(self):
        # low, high and count take every edge value; so do the positions
        edges = np.array(DIGIT_EDGES, dtype=np.int64)
        low = np.concatenate([np.zeros_like(edges), edges, [0, 3]])
        high = np.concatenate([edges, np.full_like(edges, 2**32 - 1), [0, 0]])
        high[-2:] = len(DIGIT_EDGES)
        valid = np.ones(low.size, dtype=bool)
        expected = reference_tsv(None, low, high, valid, False)
        assert written_tsv(None, low, high, valid, False) == expected
        sa = np.array(DIGIT_EDGES, dtype=np.uint32)[::-1].copy()
        low, high, valid = low[-2:], high[-2:], valid[-2:]
        expected = reference_tsv(sa, low, high, valid, True)
        assert written_tsv(sa, low, high, valid, True) == expected
        assert expected.startswith("0\t0\t21\t21\t0,1,9,10,99,100,") and "4294967295\n" in expected

    def test_values_above_uint32_not_wrapped(self):
        low = np.array([0, 2**32 - 1, 2**32, 5, 10**18, 2**62], dtype=np.int64)
        high = np.array([2**32, 2**32, 2**33 + 7, 10**19 // 2, 10**18, 2**63 - 1], dtype=np.int64)
        valid = np.ones(low.size, dtype=bool)
        out = written_tsv(None, low, high, valid, False)
        assert out == reference_tsv(None, low, high, valid, False)
        assert "\t4294967296\t" in out and "\t9223372036854775807\t" in out

    @pytest.mark.parametrize("with_locate", [False, True])
    def test_empty_and_all_invalid(self, with_locate):
        sa = np.arange(10, dtype=np.uint32)
        none = np.zeros(0, dtype=np.int64)
        assert written_tsv(sa, none, none, none.astype(bool), with_locate) == ""
        low = np.array([0, 3, 0, 9], dtype=np.int64)
        high = np.array([0, 7, 10, 9], dtype=np.int64)
        invalid = np.zeros(4, dtype=bool)
        assert written_tsv(sa, low, high, invalid, with_locate) == "0\tINVALID\n1\tINVALID\n" \
            "2\tINVALID\n3\tINVALID\n"

    def test_zero_hit_lines(self):
        sa = np.arange(20, dtype=np.uint32)[::-1].copy()
        low = np.array([4, 0, 20, 6], dtype=np.int64)
        high = np.array([4, 0, 20, 8], dtype=np.int64)
        valid = np.ones(4, dtype=bool)
        assert written_tsv(sa, low, high, valid, False) == \
            "0\t4\t4\t0\n1\t0\t0\t0\n2\t20\t20\t0\n3\t6\t8\t2\n"
        assert written_tsv(sa, low, high, valid, True) == \
            "0\t4\t4\t0\t\n1\t0\t0\t0\t\n2\t20\t20\t0\t\n3\t6\t8\t2\t12,13\n"

    def test_line_with_more_hits_than_a_block(self):
        rng = np.random.default_rng(9)
        sa = rng.permutation(cli._BLOCK + 2_000).astype(np.uint32)
        low = np.array([0, 5, 0, 100, 0], dtype=np.int64)
        high = np.array([3, 5, sa.size, 103, sa.size], dtype=np.int64)
        valid = np.array([True, True, True, False, True])
        blocks = []
        positions = locate(SimpleNamespace(sa=sa), low[valid], high[valid])
        cli._write_tsv(lambda buf: blocks.append(buf.size), low, high, valid, positions)
        assert len(blocks) > 2  # the long lines are cut across blocks
        assert written_tsv(sa, low, high, valid, True) == reference_tsv(sa, low, high, valid, True)
