import struct
import zlib
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from dnasearch.index_io import MAGIC, CorruptIndexError, load_index, save_index
from dnasearch.search import MODES, batch_search_matrix, build_engine

from conftest import (
    SECTIONS,
    STRUCTURE_DAMAGE,
    damage_index,
    index_sections,
    make_reference,
    random_reference,
    repetitive_reference,
    rewrite_crc,
    rotation_rows,
)


@pytest.fixture()
def engine_and_ref():
    rng = np.random.default_rng(21)
    ref = random_reference(rng, 500, name="disk")
    return build_engine(ref, k=4), ref


class TestRoundTrip:
    def test_structures_identical(self, engine_and_ref, tmp_path):
        engine, ref = engine_and_ref
        path = str(tmp_path / "a.idx")
        sizes = save_index(path, engine)
        assert sizes["total"] == (tmp_path / "a.idx").stat().st_size
        loaded, ref2, meta = load_index(path)
        # the keys and the FM tables are rebuilt from the stored text
        assert np.array_equal(loaded.ipbwt.text, engine.ipbwt.text)
        for name in ("sa", "occ"):
            a, b = getattr(loaded.fm, name), getattr(engine.fm, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(loaded.ipbwt.key_hi, engine.ipbwt.key_hi)
        assert np.array_equal(loaded.ipbwt.key_lo, engine.ipbwt.key_lo)
        assert np.array_equal(ref2.ranks, ref.ranks)
        la, lb = loaded.rmi.leaf, engine.rmi.leaf
        assert la.target_size == lb.target_size
        # boundaries and top words are gathered from the keys at load
        for name in ("starts", "slopes", "intercepts", "max_errors", "boundary_hi",
                     "boundary_lo"):
            a, b = getattr(la, name), getattr(lb, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(loaded.rmi.leaf_top, engine.rmi.leaf_top)
        assert (loaded.rmi.alpha_leaf, loaded.rmi.k) == (engine.rmi.alpha_leaf, engine.rmi.k)

    def test_results_identical_after_reload(self, engine_and_ref, tmp_path):
        engine, ref = engine_and_ref
        path = str(tmp_path / "b.idx")
        save_index(path, engine)
        loaded, _, _ = load_index(path)
        rng = np.random.default_rng(3)
        qm = rng.integers(1, 5, size=(200, 9)).astype(np.uint8)
        for mode in ("rmi", "binary", "fm"):
            a = batch_search_matrix(engine, qm, mode=mode)
            b = batch_search_matrix(loaded, qm, mode=mode)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sentinel_rows_survive(self, tmp_path):
        engine = build_engine(make_reference("CATTATTAGGA"), k=3)
        path = str(tmp_path / "c.idx")
        save_index(path, engine)
        loaded, _, _ = load_index(path)
        # the k rows whose k-mer reaches the sentinel have loc fields below k
        rows = np.flatnonzero(engine.ipbwt.key_lo < 3)
        assert rows.size == 3
        assert np.array_equal(loaded.ipbwt.key_hi[rows], engine.ipbwt.key_hi[rows])
        assert np.array_equal(loaded.ipbwt.key_lo[rows], engine.ipbwt.key_lo[rows])

    def test_text_round_trip(self, tmp_path):
        # texts of every length mod 4, so with every amount of padding
        rng = np.random.default_rng(77)
        refs = [repetitive_reference(rng) for _ in range(12)]
        refs += [random_reference(rng, int(rng.integers(1, 60))) for _ in range(6)]
        for i, ref in enumerate(refs):
            for k in sorted({1, min(2, ref.n - 1), min(32, ref.n - 1)}):
                engine = build_engine(ref, k=k)
                path = str(tmp_path / f"t{i}-{k}.idx")
                save_index(path, engine)
                loaded, ref2, _ = load_index(path)
                assert np.array_equal(ref2.ranks, ref.ranks), (i, k)
                assert np.array_equal(loaded.fm.occ, engine.fm.occ)


@pytest.mark.parametrize("n_bases", [500, 501])
def test_loaded_arrays_aligned(tmp_path, n_bases):
    # n = n_bases + 1: for an odd n, a whole-file buffer would put key_hi at an
    # offset of 4 mod 8, and every 64-bit read of it would be misaligned
    engine = build_engine(random_reference(np.random.default_rng(n_bases), n_bases), k=4)
    path = str(tmp_path / "al.idx")
    save_index(path, engine)
    loaded, _, meta = load_index(path)
    assert meta.n == n_bases + 1
    leaf = loaded.rmi.leaf
    for name, arr in (("sa", loaded.fm.sa), ("key_hi", loaded.ipbwt.key_hi),
                      ("key_lo", loaded.ipbwt.key_lo), ("occ", loaded.fm.occ),
                      ("slopes", leaf.slopes), ("intercepts", leaf.intercepts),
                      ("max_errors", leaf.max_errors), ("starts", leaf.starts)):
        assert arr.flags.aligned and arr.flags.c_contiguous, name


def test_benchmark_contract(engine_and_ref, tmp_path):
    # perfbench/run.py reads these section sizes and unpacks three values from load_index
    engine, _ = engine_and_ref
    path = str(tmp_path / "bench.idx")
    sizes = save_index(path, engine)
    assert {"sa", "bwt_occ", "ipbwt", "rmi", "total"} <= sizes.keys()
    assert len(load_index(path)) == 3


def refused_or_exact(path) -> bool:
    """False if loading ``path`` raises :class:`CorruptIndexError`; True if it
    loads and every mode returns the brute-force interval of every substring
    of the loaded text of lengths K - 1, K and 2K + 1."""
    try:
        engine, ref, _ = load_index(str(path))
    except CorruptIndexError:
        return False
    seq = ref.ranks.tolist()
    n, rows = len(seq), rotation_rows(seq)
    for m in (engine.k - 1, engine.k, 2 * engine.k + 1):
        prefixes = [tuple(seq[(start + j) % n] for j in range(m)) for start in rows]
        qm = np.lib.stride_tricks.sliding_window_view(ref.ranks[:-1], m)
        expected = [(bisect_left(prefixes, q), bisect_right(prefixes, q))
                    for q in map(tuple, qm.tolist())]
        for mode in MODES:
            low, high = batch_search_matrix(engine, qm, mode=mode)
            assert list(zip(low.tolist(), high.tolist())) == expected, (mode, m)
    return True


@pytest.mark.parametrize("kind", ["sa_rows_swapped", "text_base_changed"])
def test_single_row_damage_refused_or_exact(engine_and_ref, tmp_path, kind):
    # with its checksum rewritten, only load's structure checks can see the change
    engine, _ = engine_and_ref
    n = engine.fm.n
    path = tmp_path / "row.idx"
    save_index(str(path), engine)
    clean = path.read_bytes()
    rng = np.random.default_rng(15)
    for _ in range(150):
        data = bytearray(clean)
        section = "sa" if kind == "sa_rows_swapped" else "text"
        start, _ = index_sections(data)[section]
        if kind == "sa_rows_swapped":
            sa = np.frombuffer(data, "<u4", n, start)
            rows = rng.choice(n, size=2, replace=False)
            sa[rows] = sa[rows[::-1]]
        else:
            p = int(rng.integers(n - 1))  # another code at one base
            data[start + p // 4] ^= int(rng.integers(1, 4)) << (6 - 2 * (p % 4))
        rewrite_crc(data, section)
        path.write_bytes(bytes(data))
        refused_or_exact(path)


class TestCorruption:
    def test_truncated_file(self, engine_and_ref, tmp_path):
        engine, ref = engine_and_ref
        path = tmp_path / "t.idx"
        save_index(str(path), engine)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section  # names the failing section

    def test_bad_magic(self, engine_and_ref, tmp_path):
        engine, ref = engine_and_ref
        path = tmp_path / "m.idx"
        save_index(str(path), engine)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section == "header"
        assert "bad magic b'XXXX'" in str(exc.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.idx"
        path.write_bytes(b"")
        with pytest.raises(CorruptIndexError):
            load_index(str(path))

    # every older version lays its header or sections out otherwise (version 7's
    # header holds a flags word before alpha_leaf): each would misread
    @pytest.mark.parametrize("how", ["version_1", "version_2", "version_3", "version_4",
                                     "version_5", "version_6", "version_7", "version_8",
                                     "version_9"])
    def test_older_version_refused(self, engine_and_ref, tmp_path, how):
        engine, ref = engine_and_ref
        path = tmp_path / "old.idx"
        save_index(str(path), engine)
        damage_index(path, how)  # the header checksum is rewritten to match
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section == "header"
        assert "unsupported version" in str(exc.value)

    def test_genuine_version_7_refused(self, engine_and_ref, tmp_path):
        # version 7's header held a flags word, so it is 4 bytes longer and its
        # checksum lies 4 bytes later: the version must be read before the checksum
        engine, ref = engine_and_ref
        path = tmp_path / "v7.idx"
        save_index(str(path), engine)
        head = MAGIC + struct.pack("<HHQId", 7, engine.k, ref.n, 1, engine.rmi.alpha_leaf)
        assert len(head) == 28
        path.write_bytes(head + zlib.crc32(head).to_bytes(4, "little") + path.read_bytes()[28:])
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section == "header"
        assert "unsupported version 7" in str(exc.value)

    @pytest.mark.parametrize("where", ["magic", "header_fields", "header_crc", "after_header",
                                       "after_sa", "after_text", "leaf_count",
                                       "before_last_crc", "inside_last_crc"])
    def test_truncation_names_its_section(self, engine_and_ref, tmp_path, where):
        engine, ref = engine_and_ref
        path = tmp_path / "cut.idx"
        save_index(str(path), engine)
        data = path.read_bytes()
        sections = index_sections(data)
        rmi_start, rmi_end = sections["rmi"]
        cut, section = {
            "magic": (2, "header"),
            "header_fields": (10, "header"),
            "header_crc": (sections["header"][1] + 2, "header"),
            "after_header": (sections["header"][1] + 4, "sa"),
            "after_sa": (sections["sa"][1] + 4, "text"),
            "after_text": (sections["text"][1] + 4, "rmi"),
            "leaf_count": (rmi_start + 3, "rmi"),
            "before_last_crc": (rmi_end - 1, "rmi"),
            "inside_last_crc": (len(data) - 1, "rmi"),
        }[where]
        path.write_bytes(data[:cut])
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section == section
        assert "truncated" in str(exc.value)

    def test_huge_leaf_count_is_truncated_not_allocated(self, engine_and_ref, tmp_path):
        engine, ref = engine_and_ref
        path = tmp_path / "count.idx"
        save_index(str(path), engine)
        data = bytearray(path.read_bytes())
        start, _ = index_sections(data)["rmi"]
        data[start : start + 8] = (1 << 62).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section == "rmi"
        assert "truncated" in str(exc.value)

    @pytest.mark.parametrize("how, words", [("header_k", "checksum"),
                                            ("k_out_of_range", "exceeds")])
    def test_header_damage_refused(self, engine_and_ref, tmp_path, how, words):
        # a K that is wrong but in range would misread every rmi and binary row
        engine, ref = engine_and_ref
        path = tmp_path / "k.idx"
        save_index(str(path), engine)
        damage_index(path, how)
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section == "header"
        assert words in str(exc.value)

    @pytest.mark.parametrize("section", SECTIONS)
    def test_bit_flip_refused(self, engine_and_ref, tmp_path, section):
        engine, ref = engine_and_ref
        path = tmp_path / "flip.idx"
        save_index(str(path), engine)
        damage_index(path, f"flip_{section}")
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section == section
        assert "checksum" in str(exc.value)

    def test_sections_tile_the_file(self, engine_and_ref, tmp_path):
        engine, ref = engine_and_ref
        path = tmp_path / "s.idx"
        sizes = save_index(str(path), engine)
        sections = index_sections(path.read_bytes())
        # each size counts the section's 4-byte checksum
        assert {name: end - start + 4 for name, (start, end) in sections.items()} == {
            name: sizes[name] for name in ("header", *SECTIONS)
        }
        assert sections["header"][0] == 0
        assert sections["text"][1] - sections["text"][0] == engine.ipbwt.text.size
        assert sections["rmi"][1] + 4 == sizes["total"]


@pytest.mark.parametrize("how", ["sa_out_of_range", "sa_duplicate", "sa_rows_swapped",
                                 "sa_rows_permuted"])
def test_sa_not_a_permutation_refused(engine_and_ref, tmp_path, how):
    # a permutation that is not the text's suffix array, whether or not its
    # row 0 is the sentinel's, puts the text's keys out of order
    engine, _ = engine_and_ref
    path = tmp_path / "sa.idx"
    save_index(str(path), engine)
    damage_index(path, how)
    with pytest.raises(CorruptIndexError) as exc:
        load_index(str(path))
    assert exc.value.section == "sa"
    permuted = how in ("sa_rows_swapped", "sa_rows_permuted")
    assert ("keys out of order" if permuted else "permutation") in str(exc.value)


@pytest.mark.parametrize("how", list(STRUCTURE_DAMAGE))
def test_structure_damage_refused(tmp_path, how):
    # a tighter bound than the default gives the several leaves starts_swapped
    # needs, and 501 bases leave the padding text_padding_set needs
    engine = build_engine(random_reference(np.random.default_rng(21), 501), k=4, alpha_leaf=2.0)
    assert len(engine.rmi.leaf) >= 3
    path = tmp_path / "bad.idx"
    save_index(str(path), engine)
    damage_index(path, how)
    with pytest.raises(CorruptIndexError) as exc:
        load_index(str(path))
    sections = {"rows_reordered": "sa", "text_padding_set": "text", "alpha_nan": "header"}
    assert exc.value.section == sections.get(how, "rmi")
    assert STRUCTURE_DAMAGE[how] in str(exc.value)
