"""Language-pack loading, lookups, and hot reload."""

import pytest

from helpers import make_language
from hl7portal.interpreter import packaged_languages_dir
from hl7portal.lexicon import (
    RegistryHolder,
    RegistryMissing,
    load_registry,
)


@pytest.fixture(scope="module")
def shipped():
    return load_registry(packaged_languages_dir())


class TestShippedPacks:
    def test_ro_and_en_load(self, shipped):
        assert set(shipped.packs) == {"ro", "en"}
        assert shipped.unavailable == ()
        assert shipped.packs["ro"].display_name == "Romana"
        assert shipped.packs["en"].display_name == "English"

    def test_romanian_specials(self, shipped):
        ro = shipped.packs["ro"]
        assert ro.files_not_found == "Fisiere HL7 negasite! Alegeti alta limba!"
        assert ro.none == "Niciunul"
        assert ro.not_present == "Nu exista date."

    def test_english_specials(self, shipped):
        en = shipped.packs["en"]
        assert en.none == "None"
        assert en.not_present == "No data available."

    def test_label_lookups(self, shipped):
        ro = shipped.packs["ro"]
        assert ro.label("PID", 17) == "Cod numeric personal"
        assert ro.label("PID", 9999) is None
        assert ro.label("NTE", 1) is None  # no such lexicon file
        with pytest.raises(ValueError):
            ro.label("PID", 0)

    def test_code_lookups(self, shipped):
        en = shipped.packs["en"]
        assert en.code_lookup("MSH-MessageType", "ADT") == "Admit/Discharge/Transfer"
        assert en.code_lookup("MSH-EventType", "ZZZ") is None
        assert en.code_lookup("MSH-MessageType", "adt") is None  # case-sensitive
        assert en.code_lookup("NoSuchTable", "ADT") is None

    def test_specials_nonempty_for_every_pack(self, shipped):
        for pack in shipped.packs.values():
            assert pack.files_not_found and pack.none and pack.not_present

    def test_default_pack_prefers_en(self, shipped):
        assert shipped.default_pack().code == "en"

    def test_load_is_deterministic(self, shipped):
        assert load_registry(packaged_languages_dir()) == shipped


class TestLoadRules:
    def test_missing_languages_txt(self, tmp_path):
        with pytest.raises(RegistryMissing):
            load_registry(tmp_path)

    def test_empty_languages_txt(self, tmp_path):
        (tmp_path / "languages.txt").write_text("")
        with pytest.raises(RegistryMissing):
            load_registry(tmp_path)

    def test_missing_special_marks_unavailable(self, tmp_path):
        make_language(tmp_path, "de", lexicons={"PID": "4=Name"})
        make_language(tmp_path, "nl")
        (tmp_path / "-none-.de").unlink()
        reg = load_registry(tmp_path)
        assert list(reg.packs) == ["nl"]
        assert reg.unavailable == ("de",)

    def test_empty_special_marks_unavailable(self, tmp_path):
        make_language(tmp_path, "de")
        make_language(tmp_path, "nl")
        (tmp_path / "-none-.de").write_text("\n")
        reg = load_registry(tmp_path)
        assert "de" in reg.unavailable
        assert "de" not in reg.packs

    def test_special_trailing_newline_stripped(self, tmp_path):
        make_language(tmp_path, "fr", none="Aucun")
        reg = load_registry(tmp_path)
        assert reg.packs["fr"].none == "Aucun"

    def test_name_may_contain_spaces(self, tmp_path):
        make_language(tmp_path, "pt", name="Portugues do Brasil")
        reg = load_registry(tmp_path)
        assert reg.packs["pt"].display_name == "Portugues do Brasil"

    def test_bad_index_line_skipped(self, tmp_path):
        make_language(tmp_path, "de", lexicons={"PID": "4=Name\nx=Nope\n0=Nope\n"})
        reg = load_registry(tmp_path)
        assert reg.packs["de"].segment_lexicons["PID"] == {4: "Name"}

    def test_duplicate_key_last_wins(self, tmp_path):
        make_language(tmp_path, "de", lexicons={"PID": "4=First\n4=Second"})
        reg = load_registry(tmp_path)
        assert reg.packs["de"].label("PID", 4) == "Second"

    def test_comments_and_blanks_ignored(self, tmp_path):
        make_language(tmp_path, "de", lexicons={"PID": "# header\n\n4=Name\n"})
        reg = load_registry(tmp_path)
        assert reg.packs["de"].segment_lexicons["PID"] == {4: "Name"}

    def test_malformed_registry_line_skipped(self, tmp_path):
        make_language(tmp_path, "de")
        index = tmp_path / "languages.txt"
        index.write_bytes(b"not a language line\n" + index.read_bytes())
        reg = load_registry(tmp_path)
        assert set(reg.packs) == {"de"}

    def test_file_name_discipline(self, tmp_path):
        # QAK.de must populate exactly pack(de).segmentLexicons[QAK].
        make_language(tmp_path, "de", lexicons={"QAK": "1=Abfrage"})
        make_language(tmp_path, "nl", lexicons={"QAK": "1=Zoekopdracht"})
        reg = load_registry(tmp_path)
        assert reg.packs["de"].label("QAK", 1) == "Abfrage"
        assert reg.packs["nl"].label("QAK", 1) == "Zoekopdracht"
        assert reg.packs["de"].segment_lexicons.keys() == {"QAK"}

    def test_non_ascii_bytes_carried_opaquely(self, tmp_path):
        make_language(tmp_path, "fr", not_present="Pas présent", encoding="utf-8")
        reg = load_registry(tmp_path)
        wire = reg.packs["fr"].not_present.encode("latin-1")
        assert wire == "Pas présent".encode("utf-8")


class TestReload:
    def test_new_language_appears_after_reload(self, tmp_path):
        make_language(tmp_path, "ro")
        holder = RegistryHolder(load_registry(tmp_path))
        assert holder.get().packs.get("fr") is None
        make_language(tmp_path, "fr", name="Français", none="Aucun")
        assert holder.get().packs.get("fr") is None  # snapshot unchanged
        holder.reload()
        assert holder.get().packs["fr"].none == "Aucun"

    def test_reload_failure_keeps_old_snapshot(self, tmp_path):
        make_language(tmp_path, "ro")
        holder = RegistryHolder(load_registry(tmp_path))
        before = holder.get()
        (tmp_path / "languages.txt").unlink()
        with pytest.raises(RegistryMissing):
            holder.reload()
        assert holder.get() is before

    def test_reload_unchanged_files_equal_registry(self, tmp_path):
        make_language(tmp_path, "ro")
        holder = RegistryHolder(load_registry(tmp_path))
        before = holder.get()
        after = holder.reload()
        assert after == before
        assert after is not before
