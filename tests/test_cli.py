import numpy as np
import pytest

from dnasearch import cli
from dnasearch.cli import (
    EXIT_FASTA,
    EXIT_IO,
    EXIT_MIXED,
    EXIT_PARAMS,
    main,
)
from dnasearch.search import MODES

from conftest import STRUCTURE_DAMAGE, damage_index


def write_fasta_file(path, bases, name="ref"):
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
    bases = random_bases(rng, 3000)
    write_fasta_file(fasta, bases)
    index = root / "ref.idx"
    assert main(["build", str(fasta), "--k", "6", "--out", str(index)]) == 0
    return index, bases


class TestBuild:
    def test_space_report(self, tmp_path, capsys):
        fasta = tmp_path / "r.fa"
        write_fasta_file(fasta, random_bases(np.random.default_rng(1), 800))
        rc = main(["build", str(fasta), "--k", "5", "--out", str(tmp_path / "r.idx")])
        out = capsys.readouterr().out
        assert rc == 0
        report = dict(
            line.split("=", 1) for line in out.strip().splitlines() if "=" in line
        )
        assert int(report["n"]) == 801
        assert "bwt_occ_bytes" not in report  # the file stores no BWT
        for key in ("sa_bytes", "ipbwt_bytes", "rmi_bytes",
                    "total_bytes", "ipbwt_expected_bytes", "ipbwt_ratio_vs_expected"):
            assert key in report
        # model shape: leaf count and the worst leaf prediction error
        assert 1 <= int(report["rmi_leaf_models"]) <= 801
        assert 0 <= int(report["rmi_leaf_err_max"]) < 801

    def test_space_report_without_rmi(self, tmp_path, capsys):
        fasta = tmp_path / "r.fa"
        write_fasta_file(fasta, random_bases(np.random.default_rng(1), 200))
        rc = main(["build", str(fasta), "--k", "5", "--no-rmi", "--out", str(tmp_path / "r.idx")])
        assert rc == 0
        assert "rmi_leaf_models" not in capsys.readouterr().out

    def test_missing_fasta_exits_2(self, tmp_path):
        assert main(["build", str(tmp_path / "nope.fa"), "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_invalid_fasta_exits_3(self, tmp_path):
        fasta = tmp_path / "bad.fa"
        fasta.write_text(">x\nACGNT\n")
        assert main(["build", str(fasta), "--out", str(tmp_path / "o")]) == EXIT_FASTA

    def test_k_zero_exits_4(self, tmp_path):
        fasta = tmp_path / "r.fa"
        write_fasta_file(fasta, "ACGTACGT")
        assert main(["build", str(fasta), "--k", "0", "--out", str(tmp_path / "o")]) == EXIT_PARAMS

    def test_k_too_large_exits_4(self, tmp_path):
        fasta = tmp_path / "r.fa"
        write_fasta_file(fasta, "ACGT")
        assert main(["build", str(fasta), "--k", "10", "--out", str(tmp_path / "o")]) == EXIT_PARAMS

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
    def test_alpha_leaf_not_finite_positive_exits_4(self, tmp_path, alpha):
        fasta = tmp_path / "r.fa"
        write_fasta_file(fasta, random_bases(np.random.default_rng(4), 35))
        rc = main(["build", str(fasta), "--alpha-leaf", alpha, "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARAMS

    def test_k_up_to_32(self, tmp_path, capsys):
        fasta = tmp_path / "r.fa"
        write_fasta_file(fasta, random_bases(np.random.default_rng(3), 300))
        assert main(["build", str(fasta), "--k", "32", "--out", str(tmp_path / "o")]) == 0
        assert main(["build", str(fasta), "--k", "33", "--out", str(tmp_path / "o")]) == EXIT_PARAMS


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
    write_fasta_file(fasta, GOLDEN_REFERENCE)
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
        assert main(["query", str(golden_index), str(qfile), "--mode", "fm", "--locate"]) == 0
        assert capsys.readouterr().out == GOLDEN_MIXED_TSV
        for mode in ("rmi", "binary"):
            assert main(["query", str(golden_index), str(qfile), "--mode", mode]) == EXIT_MIXED
        assert capsys.readouterr().out == ""

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
        write_fasta_file(fasta, "ATACGAC")
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
        # the file holds one query length or several (fm, one matrix per length)
        index, bases = built_index
        queries = absent_queries(bases, 29, 3) + [bases[100:129]]
        one = tmp_path / "one.txt"
        one.write_text("\n".join(queries) + "\n")
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("\n".join(queries + [bases[7:19], "ACGTACGTACGTACGTACGT"]) + "\n")
        rows = self.run_modes(index, one, tmp_path)
        assert rows["rmi"] == rows["binary"] == rows["fm"]
        mixed_rows = self.run_modes(index, mixed, tmp_path, modes=("fm",))["fm"]
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

    def test_mixed_lengths_exit_5(self, built_index, tmp_path):
        index, _ = built_index
        qfile = tmp_path / "q.txt"
        qfile.write_text("ACGT\nACGTA\n")
        assert main(["query", str(index), str(qfile), "--mode", "rmi"]) == EXIT_MIXED

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

    @pytest.mark.parametrize("how", ["version_1", "version_2", "version_3", "version_4",
                                     "version_5", "version_6", "header_k", "k_out_of_range",
                                     "sa_out_of_range", "sa_duplicate", "sa_rows_swapped",
                                     "flip_sa", "flip_ipbwt", "flip_rmi",
                                     *STRUCTURE_DAMAGE])
    def test_rejected_index_exit_2(self, built_index, tmp_path, how):
        index, _ = built_index
        broken = tmp_path / "broken.idx"
        broken.write_bytes(index.read_bytes())
        damage_index(broken, how)
        qfile = tmp_path / "q.txt"
        qfile.write_text("ACGT\n")
        assert main(["query", str(broken), str(qfile)]) == EXIT_IO

    def test_rmi_mode_unavailable_exit_4(self, tmp_path):
        fasta = tmp_path / "r.fa"
        write_fasta_file(fasta, random_bases(np.random.default_rng(2), 300))
        index = tmp_path / "r.idx"
        assert main(["build", str(fasta), "--k", "4", "--no-rmi",
                     "--out", str(index)]) == 0
        qfile = tmp_path / "q.txt"
        qfile.write_text("ACGT\n")
        assert main(["query", str(index), str(qfile), "--mode", "rmi"]) == EXIT_PARAMS
        assert main(["query", str(index), str(qfile), "--mode", "binary"]) == 0
