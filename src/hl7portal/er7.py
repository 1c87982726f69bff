"""HL7 v2 message model and ER7 ("pipe and hat") codec.

A message is an immutable list of segments.  A segment is its name plus the
raw ER7 token of each field (one split on the field separator), in the
encoding it was read or written in.  A field is turned into repetitions ->
components -> subcomponent strings, unescaped, only when it is first read;
the result is cached.  Serializing a segment emits its tokens verbatim, so
escape sequences the decoder does not know (``\\H\\``, ``\\X0A\\``) pass
through unchanged.  Fields are addressed from 1, HL7 style; index 0 is the
segment name and is not addressable.

Bytes on the wire are ASCII-compatible; anything outside ASCII is carried
opaquely by decoding/encoding as latin-1, so byte values survive a parse /
serialize round trip untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

# Leaf-to-root nesting of a single field value.
Component = tuple[str, ...]
Repetition = tuple[Component, ...]
Field = tuple[Repetition, ...]

SEGMENT_TERMINATOR = "\r"

_PRINTABLE_ASCII = set(range(0x20, 0x7F))
_NAME_FIRST = set("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_REST = _NAME_FIRST | set("0123456789")


class MalformedSegment(ValueError):
    """Raised when a line cannot be read as an HL7 segment.

    ``line_no`` is set when the failure was detected while parsing a
    multi-segment message (1-based).
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EmptyMessage(ValueError):
    """Raised when message input contains no segment lines at all."""


@dataclass(frozen=True)
class EncodingChars:
    """The five ER7 delimiter characters of one message."""

    field_sep: str = "|"
    component_sep: str = "^"
    repetition_sep: str = "~"
    escape_char: str = "\\"
    subcomponent_sep: str = "&"

    def __post_init__(self):
        seps = (
            self.field_sep,
            self.component_sep,
            self.repetition_sep,
            self.escape_char,
            self.subcomponent_sep,
        )
        for sep in seps:
            if len(sep) != 1 or ord(sep) not in _PRINTABLE_ASCII:
                raise ValueError(f"separator {sep!r} is not printable ASCII")
        if len(set(seps)) != 5:
            raise ValueError(f"separators are not distinct: {seps!r}")


DEFAULT_ENCODING = EncodingChars()


def decode_escapes(text: str, enc: EncodingChars = DEFAULT_ENCODING) -> str:
    """Replace \\F\\ \\S\\ \\R\\ \\E\\ \\T\\ sequences with their separator.

    Unknown escape sequences, and a dangling escape character, are kept
    literally.
    """
    esc = enc.escape_char
    if esc not in text:
        return text
    known = {
        "F": enc.field_sep,
        "S": enc.component_sep,
        "R": enc.repetition_sep,
        "E": enc.escape_char,
        "T": enc.subcomponent_sep,
    }
    # Escape characters pair off left to right, so every odd part lies
    # between a pair; a lone last escape character stays in the text.
    parts = text.split(esc)
    if len(parts) % 2 == 0:
        parts[-2:] = [parts[-2] + esc + parts[-1]]
    parts[1::2] = [known.get(seq, esc + seq + esc) for seq in parts[1::2]]
    return "".join(parts)


def encode_escapes(text: str, enc: EncodingChars = DEFAULT_ENCODING) -> str:
    """Escape every delimiter occurring inside a value."""
    esc = enc.escape_char
    # The escape character itself must go first so the delimiters of the
    # inserted sequences are not re-escaped.
    text = text.replace(esc, esc + "E" + esc)
    text = text.replace(enc.field_sep, esc + "F" + esc)
    text = text.replace(enc.component_sep, esc + "S" + esc)
    text = text.replace(enc.repetition_sep, esc + "R" + esc)
    text = text.replace(enc.subcomponent_sep, esc + "T" + esc)
    return text


class Hl7Segment:
    """One named segment over raw ER7 field tokens: ``tokens[k - 1]`` is the
    escaped text of HL7 field k, in encoding ``enc``.  For MSH, tokens 0 and
    1 are the field separator and the encoding characters.

    Tokens are taken as given: none may hold the field separator or a line
    break.  A segment is equal to, and hashes like, any segment with the
    same name and parsed fields.
    """

    __slots__ = ("name", "_tokens", "_fields", "_enc")

    def __init__(self, name: str, tokens=(), enc: EncodingChars = DEFAULT_ENCODING):
        if len(name) != 3:
            raise ValueError(f"segment name must be 3 characters: {name!r}")
        self.name = name
        self._tokens: tuple[str, ...] = tuple(tokens)
        self._fields: list[Field | None] = [None] * len(self._tokens)
        self._enc = enc

    @property
    def fields(self) -> tuple[Field, ...]:
        return tuple(self.field(k) for k in range(1, len(self._tokens) + 1))

    def field(self, index: int) -> Field | None:
        """Field at 1-based ``index``, or None beyond the last field."""
        if index < 1:
            raise IndexError("field indices start at 1")
        fields = self._fields
        if index > len(fields):
            return None
        f = fields[index - 1]
        if f is None:
            token = self._tokens[index - 1]
            if self.name == "MSH" and index <= 2:
                # The separator and the encoding characters are verbatim.
                f = (((token,),),)
            else:
                f = _parse_field(token, self._enc)
            fields[index - 1] = f
        return f

    def field_text(self, index: int) -> str | None:
        """Full display text of a field (all repetitions), or None if absent."""
        f = self.field(index)
        if f is None:
            return None
        enc = self._enc
        return enc.repetition_sep.join(
            enc.component_sep.join(enc.subcomponent_sep.join(comp) for comp in rep)
            for rep in f
        )

    def __eq__(self, other):
        if not isinstance(other, Hl7Segment):
            return NotImplemented
        return self.name == other.name and self.fields == other.fields

    def __hash__(self):
        return hash((self.name, self.fields))

    def __repr__(self):
        return f"Hl7Segment({self.name!r}, {self._tokens!r})"


@dataclass(frozen=True)
class Hl7Message:
    """An ordered, non-empty list of segments plus the encoding in force."""

    segments: tuple[Hl7Segment, ...]
    encoding: EncodingChars = DEFAULT_ENCODING

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a message holds at least one segment")

    def segment(self, name: str) -> Hl7Segment | None:
        """First segment with the given name, or None."""
        for seg in self.segments:
            if seg.name == name:
                return seg
        return None

    def field_value(self, segment_name: str, index: int) -> str | None:
        """Joined text of the first repetition of a field.

        Returns None when the segment is absent, the index is beyond the
        last field, or the stored value is empty: absence and emptiness both
        mean "no value" here.
        """
        seg = self.segment(segment_name)
        if seg is None:
            return None
        f = seg.field(index)
        if f is None or not f:
            return None
        rep = f[0]
        text = self.encoding.component_sep.join(
            self.encoding.subcomponent_sep.join(comp) for comp in rep
        )
        return text if text != "" else None


def _parse_field(token: str, enc: EncodingChars) -> Field:
    return tuple(
        tuple(
            tuple(
                decode_escapes(sub, enc) for sub in comp.split(enc.subcomponent_sep)
            )
            for comp in rep.split(enc.component_sep)
        )
        for rep in token.split(enc.repetition_sep)
    )


def parse_segment(raw: str, enc: EncodingChars = DEFAULT_ENCODING) -> Hl7Segment:
    """Parse one segment line (without its terminator).

    MSH is special-cased per the standard: field 1 is the field separator
    itself and field 2 carries the remaining encoding characters verbatim,
    so the k-th delimited token lands at field k+1.
    """
    if "\r" in raw or "\n" in raw:
        raise MalformedSegment("segment line contains CR/LF")
    if len(raw) < 3:
        raise MalformedSegment(f"segment name shorter than 3 characters: {raw!r}")
    name = raw[:3]
    if name[0] not in _NAME_FIRST or name[1] not in _NAME_REST or name[2] not in _NAME_REST:
        raise MalformedSegment(f"invalid segment name: {name!r}")
    if len(raw) == 3:
        return Hl7Segment(name, (), enc)
    if raw[3] != enc.field_sep:
        raise MalformedSegment(
            f"segment name not followed by field separator: {raw[:4]!r}"
        )
    if name == "MSH":
        tokens = raw[3:].split(enc.field_sep)
        tokens[0] = enc.field_sep
    else:
        tokens = raw[4:].split(enc.field_sep)
    return Hl7Segment(name, tokens, enc)


def _encoding_from_msh(line: str) -> EncodingChars:
    field_sep = line[3]
    chars = line[4:].split(field_sep, 1)[0]
    defaults = "^~\\&"
    picked = [chars[i] if i < len(chars) else defaults[i] for i in range(4)]
    return EncodingChars(field_sep, *picked)


def parse_message(raw: bytes | bytearray | str) -> Hl7Message:
    """Parse CR-separated segment lines (CR, LF, or CRLF all accepted).

    When the first line is an MSH, its declared encoding characters apply
    to the whole message; otherwise the default '|^~\\&' set is used, so a
    bare segment is a valid single-segment message.
    """
    if isinstance(raw, (bytes, bytearray)):
        raw = bytes(raw).decode("latin-1")
    lines = [
        line
        for line in raw.replace("\r\n", "\r").replace("\n", "\r").split("\r")
        if line != ""
    ]
    if not lines:
        raise EmptyMessage("no segment lines in input")
    enc = DEFAULT_ENCODING
    if lines[0].startswith("MSH") and len(lines[0]) > 3:
        try:
            enc = _encoding_from_msh(lines[0])
        except ValueError as e:
            raise MalformedSegment(f"bad MSH encoding characters: {e}", 1) from e
    segments = []
    for i, line in enumerate(lines, start=1):
        try:
            segments.append(parse_segment(line, enc))
        except MalformedSegment as e:
            if e.line_no is None:
                raise MalformedSegment(str(e), i) from e
            raise
    return Hl7Message(tuple(segments), enc)


def serialize_segment(seg: Hl7Segment) -> str:
    """Render one segment as an ER7 line (no terminator).

    The tokens go out verbatim, joined by the segment's own field
    separator, with trailing empty fields dropped.  MSH field 1 is the
    separator itself: never dropped, never emitted.
    """
    is_msh = seg.name == "MSH"
    texts = list(seg._tokens)
    floor = min(len(texts), 2) if is_msh else 0
    while len(texts) > floor and texts[-1] == "":
        texts.pop()
    if not texts:
        return seg.name
    sep = seg._enc.field_sep
    return seg.name + sep + sep.join(texts[1:] if is_msh else texts)


def serialize_message(m: Hl7Message) -> bytes:
    """Emit CR-terminated segment lines; inverse of parse_message up to
    trailing-empty normalization."""
    text = "".join(
        serialize_segment(seg) + SEGMENT_TERMINATOR for seg in m.segments
    )
    return text.encode("latin-1")
