"""HL7 v2 message model and ER7 ("pipe and hat") codec.

A message is an immutable list of segments.  A segment read from ER7 keeps
its raw field tokens (one split on the field separator) and turns a field
into repetitions -> components -> subcomponent strings, unescaped, only when
that field is first read; the result is cached.  Serializing a parsed
segment emits its raw tokens wherever that gives the same bytes as the
tree.  Fields are addressed from 1, HL7 style; index 0 is the segment name
and is not addressable.

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

    @property
    def msh_2(self) -> str:
        """The four characters carried in MSH field 2."""
        return (
            self.component_sep
            + self.repetition_sep
            + self.escape_char
            + self.subcomponent_sep
        )


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
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != esc:
            out.append(ch)
            i += 1
            continue
        end = text.find(esc, i + 1)
        if end < 0:
            out.append(text[i:])
            break
        seq = text[i + 1 : end]
        if seq in known:
            out.append(known[seq])
        else:
            out.append(text[i : end + 1])
        i = end + 1
    return "".join(out)


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


def _field_from_value(value) -> Field:
    """Build a Field from a plain string, or from a sequence of components
    where each component is a string or a sequence of subcomponent strings."""
    if value is None:
        return ((("",),),)
    if isinstance(value, str):
        return (((value,),),)
    components: list[Component] = []
    for comp in value:
        if isinstance(comp, str):
            components.append((comp,))
        else:
            components.append(tuple(comp))
    return (tuple(components),)


class Hl7Segment:
    """One named segment; ``fields[k - 1]`` is HL7 field k.

    A built segment holds its fields.  A parsed one holds the raw ER7 token
    of each field and parses a field on its first read.  Either way the
    segment is equal to, and hashes like, any segment with the same name and
    fields.
    """

    __slots__ = ("name", "_fields", "_tokens", "_enc")

    def __init__(self, name: str, fields: tuple[Field, ...] = ()):
        if len(name) != 3:
            raise ValueError(f"segment name must be 3 characters: {name!r}")
        self.name = name
        self._fields: tuple[Field, ...] | list[Field | None] = tuple(fields)
        self._tokens: tuple[str, ...] | None = None
        self._enc: EncodingChars | None = None

    @classmethod
    def from_tokens(
        cls, name: str, tokens, enc: EncodingChars = DEFAULT_ENCODING
    ) -> "Hl7Segment":
        """A segment over raw ER7 field tokens: ``tokens[k - 1]`` is the
        escaped text of field k.  For MSH, tokens 0 and 1 are the field
        separator and the encoding characters.

        Tokens are taken as given: none may hold the field separator or a
        line break.
        """
        seg = cls(name)
        seg._tokens = tuple(tokens)
        seg._fields = [None] * len(seg._tokens)
        seg._enc = enc
        return seg

    @classmethod
    def build(cls, name: str, *values) -> "Hl7Segment":
        """Construct a segment from plain values.

        Each value is a string (single component), a sequence of components,
        or None for an empty field.  Separator characters inside the strings
        are data and get escaped on serialization.
        """
        return cls(name, tuple(_field_from_value(v) for v in values))

    @classmethod
    def build_msh(cls, *values, enc: EncodingChars = DEFAULT_ENCODING) -> "Hl7Segment":
        """Construct an MSH segment: the two structural fields come from
        ``enc`` and ``values`` start at MSH field 3."""
        fields = [(((enc.field_sep,),),), (((enc.msh_2,),),)]
        fields.extend(_field_from_value(v) for v in values)
        return cls("MSH", tuple(fields))

    @property
    def fields(self) -> tuple[Field, ...]:
        fields = self._fields
        if not isinstance(fields, tuple):
            fields = tuple(self.field(k) for k in range(1, len(fields) + 1))
            self._fields = fields
        return fields

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

    def field_text(self, index: int, enc: EncodingChars = DEFAULT_ENCODING) -> str | None:
        """Full display text of a field (all repetitions), or None if absent."""
        f = self.field(index)
        if f is None:
            return None
        return _join_field(f, enc)

    def __eq__(self, other):
        if not isinstance(other, Hl7Segment):
            return NotImplemented
        return self.name == other.name and self.fields == other.fields

    def __hash__(self):
        return hash((self.name, self.fields))

    def __repr__(self):
        return f"Hl7Segment(name={self.name!r}, fields={self.fields!r})"


def _join_field(f: Field, enc: EncodingChars) -> str:
    return enc.repetition_sep.join(
        enc.component_sep.join(enc.subcomponent_sep.join(comp) for comp in rep)
        for rep in f
    )


def _field_is_empty(f: Field, enc: EncodingChars) -> bool:
    return _join_field(f, enc) == ""


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

    def normalized(self) -> "Hl7Message":
        """Copy with trailing empty fields dropped from every segment.

        Serialization drops trailing empties, so round-trip comparisons go
        through this form.  MSH keeps its two structural fields.
        """
        segs = []
        for seg in self.segments:
            fields = list(seg.fields)
            floor = 2 if seg.name == "MSH" else 0
            while len(fields) > floor and _field_is_empty(fields[-1], self.encoding):
                fields.pop()
            segs.append(Hl7Segment(seg.name, tuple(fields)))
        return Hl7Message(tuple(segs), self.encoding)


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
        return Hl7Segment(name)
    if raw[3] != enc.field_sep:
        raise MalformedSegment(
            f"segment name not followed by field separator: {raw[:4]!r}"
        )
    if name == "MSH":
        tokens = raw[3:].split(enc.field_sep)
        tokens[0] = enc.field_sep
    else:
        tokens = raw[4:].split(enc.field_sep)
    return Hl7Segment.from_tokens(name, tokens, enc)


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


def serialize_segment(seg: Hl7Segment, enc: EncodingChars = DEFAULT_ENCODING) -> str:
    """Render one segment as an ER7 line (no terminator).

    Trailing empty fields are dropped and separator characters inside
    values are escaped.
    """
    is_msh = seg.name == "MSH"
    tokens = seg._tokens
    if tokens is not None and (seg._enc is enc or seg._enc == enc):
        # A token without the escape character serializes back to itself,
        # so only tokens holding one go through the tree.
        esc = enc.escape_char
        texts = list(tokens)
        for k in range(2 if is_msh else 0, len(texts)):
            if esc in texts[k]:
                texts[k] = _serialize_field(seg.field(k + 1), enc)
    else:
        texts = [_serialize_field(f, enc) for f in seg.fields]
        if is_msh and len(texts) >= 2:
            # Field 2 goes out verbatim.
            texts[1] = _raw_field_text(seg.fields[1])
    # MSH field 1 is the separator itself: never dropped, never emitted.
    floor = min(len(texts), 2) if is_msh else 0
    while len(texts) > floor and texts[-1] == "":
        texts.pop()
    if not texts:
        return seg.name
    if is_msh:
        return seg.name + enc.field_sep + enc.field_sep.join(texts[1:])
    return seg.name + enc.field_sep + enc.field_sep.join(texts)


def _serialize_field(f: Field, enc: EncodingChars) -> str:
    return enc.repetition_sep.join(
        enc.component_sep.join(
            enc.subcomponent_sep.join(encode_escapes(sub, enc) for sub in comp)
            for comp in rep
        )
        for rep in f
    )


def _raw_field_text(f: Field) -> str:
    if not f or not f[0] or not f[0][0]:
        return ""
    return f[0][0][0]


def serialize_message(m: Hl7Message) -> bytes:
    """Emit CR-terminated segment lines; inverse of parse_message up to
    trailing-empty normalization."""
    text = "".join(
        serialize_segment(seg, m.encoding) + SEGMENT_TERMINATOR for seg in m.segments
    )
    return text.encode("latin-1")
