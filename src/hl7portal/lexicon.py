"""File-based language packs: registry, segment lexicons, code tables.

A pack directory holds ``languages.txt`` ("Name (code)" per line) and, per
language code, up to 18 files named ``<FILE>.<code>``: thirteen segment
lexicons, two code tables, and three special strings.  Files are read as
raw bytes carried via latin-1, so whatever byte sequence an author put in a
file is what goes out on the wire.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

SEGMENT_FILES = (
    "EVN", "MRG", "MSA", "MSH", "OBR", "OBX", "ORC",
    "PID", "PV1", "QAK", "QPD", "RCP", "ZDS",
)
CODE_TABLE_FILES = ("MSH-EventType", "MSH-MessageType")
# File-name stems of the three special strings, hyphens and spaces included.
FILES_NOT_FOUND_STEM = "-files not found-"
NONE_STEM = "-none-"
NOT_PRESENT_STEM = "-not present-"

LANGUAGES_FILE = "languages.txt"

_LANGUAGE_LINE = re.compile(r"^(?P<name>.+?)\s*\((?P<code>[^()\s]+)\)$")


class RegistryMissing(Exception):
    """languages.txt is absent or no language it lists loads; the registry
    cannot be (re)loaded."""


def _read_text(path: Path) -> str:
    return path.read_bytes().decode("latin-1")


def _parse_entries(path: Path) -> dict[str, str]:
    """Read "KEY=Value" lines; '#' comments and blanks skipped, last
    duplicate wins with a diagnostic."""
    entries: dict[str, str] = {}
    for line_no, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if not eq or not key.strip():
            logger.warning("%s:%d: not a KEY=Value line, skipped", path.name, line_no)
            continue
        key = key.strip()
        if key in entries:
            logger.warning("%s:%d: duplicate key %r, last wins", path.name, line_no, key)
        entries[key] = value.strip()
    return entries


def _parse_lexicon(path: Path) -> dict[int, str]:
    lexicon: dict[int, str] = {}
    for key, value in _parse_entries(path).items():
        try:
            index = int(key)
        except ValueError:
            index = 0
        if index < 1:
            logger.warning("%s: field index %r is not a positive int, skipped", path.name, key)
            continue
        lexicon[index] = value
    return lexicon


@dataclass(frozen=True)
class LanguagePack:
    """One language's interpretation data.  Treat all members as immutable."""

    code: str
    display_name: str
    segment_lexicons: dict[str, dict[int, str]]
    code_tables: dict[str, dict[str, str]]
    files_not_found: str
    none: str
    not_present: str

    def label(self, segment: str, index: int) -> str | None:
        """Lexicon label for a field, or None when file or index is absent."""
        if index < 1:
            raise ValueError("field indices start at 1")
        lexicon = self.segment_lexicons.get(segment)
        if lexicon is None:
            return None
        return lexicon.get(index)

    def code_lookup(self, table: str, code: str) -> str | None:
        """Case-sensitive description lookup in a code table."""
        return self.code_tables.get(table, {}).get(code)


@dataclass(frozen=True)
class LanguageRegistry:
    """Immutable snapshot of every loadable pack (at least one) under one
    directory."""

    source_dir: Path
    packs: dict[str, LanguagePack]
    unavailable: tuple[str, ...] = ()

    def default_pack(self) -> LanguagePack:
        """"en" when loaded, else the first listed language."""
        return self.packs.get("en") or next(iter(self.packs.values()))


def _load_pack(directory: Path, name: str, code: str) -> LanguagePack | None:
    specials = {}
    for stem in (FILES_NOT_FOUND_STEM, NONE_STEM, NOT_PRESENT_STEM):
        path = directory / f"{stem}.{code}"
        if not path.is_file():
            logger.warning("language %r: missing %s, pack unavailable", code, path.name)
            return None
        text = _read_text(path).rstrip("\r\n")
        if not text:
            logger.warning("language %r: %s is empty, pack unavailable", code, path.name)
            return None
        specials[stem] = text
    lexicons = {
        seg: _parse_lexicon(directory / f"{seg}.{code}")
        for seg in SEGMENT_FILES
        if (directory / f"{seg}.{code}").is_file()
    }
    tables = {
        table: _parse_entries(directory / f"{table}.{code}")
        for table in CODE_TABLE_FILES
        if (directory / f"{table}.{code}").is_file()
    }
    return LanguagePack(
        code=code,
        display_name=name,
        segment_lexicons=lexicons,
        code_tables=tables,
        files_not_found=specials[FILES_NOT_FOUND_STEM],
        none=specials[NONE_STEM],
        not_present=specials[NOT_PRESENT_STEM],
    )


def load_registry(directory: str | Path) -> LanguageRegistry:
    """Load languages.txt and every referenced pack.

    A language missing (or with empty) special files is listed as
    unavailable rather than half-loaded.  A missing languages.txt, or one
    under which no language loads, raises RegistryMissing: a registry
    always holds at least one pack.
    """
    directory = Path(directory)
    index = directory / LANGUAGES_FILE
    if not index.is_file():
        raise RegistryMissing(f"no {LANGUAGES_FILE} in {directory}")
    packs: dict[str, LanguagePack] = {}
    unavailable: list[str] = []
    for line_no, line in enumerate(_read_text(index).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _LANGUAGE_LINE.match(stripped)
        if not match:
            logger.warning("%s:%d: not 'Name (code)', skipped: %r", LANGUAGES_FILE, line_no, stripped)
            continue
        name, code = match.group("name"), match.group("code")
        if code in packs or code in unavailable:
            logger.warning("%s:%d: duplicate language code %r, last wins", LANGUAGES_FILE, line_no, code)
            packs.pop(code, None)
            if code in unavailable:
                unavailable.remove(code)
        pack = _load_pack(directory, name, code)
        if pack is None:
            unavailable.append(code)
        else:
            packs[code] = pack
    if not packs:
        raise RegistryMissing(f"no usable language in {directory / LANGUAGES_FILE}")
    return LanguageRegistry(directory, packs, tuple(unavailable))


class RegistryHolder:
    """Shared, swappable registry snapshot.

    Sessions call get() per command and keep that snapshot for the whole
    command, so a reload never mixes generations mid-render.  The get and
    the swap are each one reference read or write, and reloads run only
    from the SIGHUP handler, so no lock is needed.
    """

    def __init__(self, registry: LanguageRegistry):
        self._registry = registry

    def get(self) -> LanguageRegistry:
        return self._registry

    def reload(self) -> LanguageRegistry:
        """Swap in a fresh snapshot of the same directory.  On failure
        load_registry's exception propagates and the old snapshot stays."""
        self._registry = load_registry(self._registry.source_dir)
        return self._registry
