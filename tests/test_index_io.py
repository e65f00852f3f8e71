import numpy as np
import pytest

from dnasearch.index_io import CorruptIndexError, load_index, save_index
from dnasearch.search import (
    ModeUnavailableError,
    batch_search_matrix,
    build_engine,
)

from conftest import (
    SECTIONS,
    STRUCTURE_DAMAGE,
    damage_index,
    index_sections,
    make_reference,
    random_reference,
    repetitive_reference,
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
        # the FM tables are rebuilt from the text that sa and the keys give back
        for name in ("sa", "d", "checkpoints", "occ_bits"):
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

    def test_text_derived_from_first_column(self, tmp_path):
        # rows whose k-mer is cut at the sentinel must still give their first base
        rng = np.random.default_rng(77)
        refs = [repetitive_reference(rng) for _ in range(12)]
        refs += [random_reference(rng, int(rng.integers(1, 60))) for _ in range(6)]
        for i, ref in enumerate(refs):
            for k in sorted({1, min(2, ref.n - 1), min(32, ref.n - 1)}):
                engine = build_engine(ref, k=k)
                path = str(tmp_path / f"t{i}-{k}.idx")
                save_index(path, engine)
                loaded, ref2, _ = load_index(path)
                assert np.array_equal(ref2.ranks, ref.ranks), (ref.bases(), k)
                assert np.array_equal(loaded.fm.checkpoints, engine.fm.checkpoints)
                assert np.array_equal(loaded.fm.occ_bits, engine.fm.occ_bits)

    def test_no_rmi_round_trip(self, tmp_path):
        engine = build_engine(make_reference("ATACGACATT"), k=3, with_rmi=False)
        path = str(tmp_path / "d.idx")
        save_index(path, engine)
        loaded, _, meta = load_index(path)
        assert loaded.rmi is None
        with pytest.raises(ModeUnavailableError):
            loaded.require_mode("rmi")
        loaded.require_mode("binary")


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
        with pytest.raises(CorruptIndexError):
            load_index(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.idx"
        path.write_bytes(b"")
        with pytest.raises(CorruptIndexError):
            load_index(str(path))

    # version 1 keys have another meaning, version 2 models predict from
    # absolute keys, version 3 stores no maximum errors, version 4 stores
    # a layer count, upper layers and boundary keys, and version 5 stores
    # two 64-bit words per key and no header checksum, and version 6 stores
    # the BWT and a checkpoint stride: each would misread
    @pytest.mark.parametrize("how", ["version_1", "version_2", "version_3", "version_4",
                                     "version_5", "version_6"])
    def test_older_version_refused(self, engine_and_ref, tmp_path, how):
        engine, ref = engine_and_ref
        path = tmp_path / "old.idx"
        save_index(str(path), engine)
        damage_index(path, how)  # the header checksum is rewritten to match
        with pytest.raises(CorruptIndexError) as exc:
            load_index(str(path))
        assert exc.value.section == "header"
        assert "unsupported version" in str(exc.value)

    @pytest.mark.parametrize("how, words", [("header_k", "checksum"),
                                            ("k_out_of_range", "outside")])
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
        assert sections["ipbwt"][1] - sections["ipbwt"][0] == 12 * engine.ipbwt.n
        assert sections["rmi"][1] + 4 == sizes["total"]


@pytest.mark.parametrize("how", ["sa_out_of_range", "sa_duplicate", "sa_rows_swapped"])
def test_sa_not_a_permutation_refused(engine_and_ref, tmp_path, how):
    # a permutation whose row 0 is not the sentinel's would derive a text
    # that does not end with the sentinel
    engine, _ = engine_and_ref
    path = tmp_path / "sa.idx"
    save_index(str(path), engine)
    damage_index(path, how)
    with pytest.raises(CorruptIndexError) as exc:
        load_index(str(path))
    assert exc.value.section == "sa"
    words = "sentinel" if how == "sa_rows_swapped" else "permutation"
    assert words in str(exc.value)  # the checksum was rewritten to match


@pytest.mark.parametrize("how", list(STRUCTURE_DAMAGE))
def test_structure_damage_refused(engine_and_ref, tmp_path, how):
    # a tighter bound than the default gives the several leaves starts_swapped needs
    engine = build_engine(engine_and_ref[1], k=4, alpha_leaf=2.0)
    assert len(engine.rmi.leaf) >= 3
    path = tmp_path / "bad.idx"
    save_index(str(path), engine)
    damage_index(path, how)
    with pytest.raises(CorruptIndexError) as exc:
        load_index(str(path))
    sections = {"keys_unsorted": "ipbwt", "first_key_raised": "ipbwt", "kmer_too_wide": "ipbwt",
                "alpha_nan": "header"}
    assert exc.value.section == sections.get(how, "rmi")
    assert STRUCTURE_DAMAGE[how] in str(exc.value)
