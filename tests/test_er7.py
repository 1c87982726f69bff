"""Codec tests: field addressing, MSH quirks, escapes, round trips."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    PATIENT_CNP,
    PATIENT_PID,
    message_from_trees,
    random_message,
    random_trees,
    trimmed,
)
from hl7portal.er7 import (
    EmptyMessage,
    EncodingChars,
    Hl7Message,
    Hl7Segment,
    MalformedSegment,
    decode_escapes,
    encode_escapes,
    parse_message,
    parse_segment,
    serialize_message,
    serialize_segment,
)


class TestParseSegment:
    def test_patient_pid_fields(self):
        seg = parse_segment(PATIENT_PID)
        assert seg.name == "PID"
        assert seg.field_text(4) == "C. Marius"
        assert seg.field_text(5) == "Timpau"
        assert seg.field_text(6) == "1975.09.16"
        assert seg.field_text(7) == "M"
        assert seg.field_text(17) == PATIENT_CNP
        assert seg.field_text(18) == ""
        # 27 delimited values, the last one empty.
        assert len(seg.fields) == 27
        assert seg.field(28) is None

    def test_bare_segment_has_no_fields(self):
        seg = parse_segment("EVN")
        assert seg.name == "EVN"
        assert seg.fields == ()

    def test_repetitions_then_components(self):
        # Oracle: split the token on ~ first, then each part on ^.
        token = "A^B~C"
        expected = tuple(
            tuple((comp,) for comp in rep.split("^")) for rep in token.split("~")
        )
        seg = parse_segment("PID|" + token)
        assert seg.field(1) == expected
        assert seg.field(1) == ((("A",), ("B",)), (("C",),))
        assert seg.field_text(1) == token

    def test_subcomponents(self):
        seg = parse_segment("PID|a&b^c")
        assert seg.field(1) == ((("a", "b"), ("c",)),)

    def test_msh_field_numbering(self):
        seg = parse_segment(
            r"MSH|^~\&|SENDAPP|SENDFAC||RECVFAC|20250101||QBP^Q22|MSG1|P|2.3.1"
        )
        assert seg.field_text(1) == "|"
        assert seg.field_text(2) == r"^~\&"
        assert seg.field_text(3) == "SENDAPP"
        assert seg.field_text(9) == "QBP^Q22"
        assert seg.field_text(10) == "MSG1"
        assert seg.field_text(12) == "2.3.1"

    def test_field_index_zero_rejected(self):
        seg = parse_segment("PID|x")
        with pytest.raises(IndexError):
            seg.field(0)

    @pytest.mark.parametrize(
        "raw",
        ["P", "pid|x", "PIDX", "1ID|x", "PID\rX", "PID|a\nb"],
    )
    def test_malformed_lines(self, raw):
        with pytest.raises(MalformedSegment):
            parse_segment(raw)


class TestEscapes:
    def test_known_sequences_decode(self):
        assert decode_escapes(r"a\F\b\S\c\R\d\T\e\E\f") == "a|b^c~d&e\\f"

    def test_unknown_sequence_kept_literally(self):
        assert decode_escapes(r"a\H\b") == r"a\H\b"
        assert decode_escapes(r"a\X0D\b") == r"a\X0D\b"

    def test_dangling_escape_kept_literally(self):
        assert decode_escapes("a\\qz") == "a\\qz"

    def test_encode_escapes_escape_char_first(self):
        assert encode_escapes("a|b\\c") == r"a\F\b\E\c"

    def test_parsed_field_text_is_decoded(self):
        seg = parse_segment(r"PID|a\F\b")
        assert seg.field_text(1) == "a|b"

    @given(st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E)))
    def test_decode_inverts_encode(self, text):
        assert decode_escapes(encode_escapes(text)) == text

    @pytest.mark.parametrize("enc", [EncodingChars(), EncodingChars("#", "!", "$", "%", "*")])
    @given(text=st.text(alphabet=st.sampled_from("\\\\\\%%%FSRETHX0a|^~&#!$*")))
    def test_decode_matches_a_pairwise_reference(self, enc, text):
        # Escape characters pair off left to right; the text between a pair
        # is replaced when it is a known sequence and kept otherwise.
        esc = re.escape(enc.escape_char)
        known = {
            "F": enc.field_sep,
            "S": enc.component_sep,
            "R": enc.repetition_sep,
            "E": enc.escape_char,
            "T": enc.subcomponent_sep,
        }
        expected = re.sub(
            f"{esc}([^{esc}]*){esc}", lambda m: known.get(m.group(1), m.group(0)), text
        )
        assert decode_escapes(text, enc) == expected


class TestParseMessage:
    def test_single_bare_segment_uses_default_encoding(self):
        msg = parse_message(PATIENT_PID)
        assert len(msg.segments) == 1
        assert msg.encoding == EncodingChars()

    def test_field_value_presence_and_absence(self):
        msg = parse_message(PATIENT_PID)
        assert msg.field_value("PID", 17) == PATIENT_CNP
        assert msg.field_value("PID", 16) is None  # present but empty
        assert msg.field_value("PID", 99) is None  # beyond the last field
        assert msg.field_value("ZZZ", 1) is None  # no such segment

    def test_field_value_takes_first_repetition(self):
        msg = parse_message("PID|A^B~C")
        assert msg.field_value("PID", 1) == "A^B"

    def test_encoding_comes_from_msh(self):
        msg = parse_message("MSH#*%!$#A*B\rPID#1%2")
        assert msg.encoding == EncodingChars("#", "*", "%", "!", "$")
        assert msg.field_value("MSH", 3) == "A*B"
        assert msg.field_value("PID", 1) == "1"

    def test_short_msh_2_filled_with_defaults(self):
        msg = parse_message("MSH|^~|APP")
        assert msg.encoding == EncodingChars()

    def test_line_separators_cr_lf_crlf(self):
        for sep in ("\r", "\n", "\r\n"):
            msg = parse_message(f"EVN|1{sep}PID|2{sep}")
            assert [s.name for s in msg.segments] == ["EVN", "PID"]

    def test_empty_input_rejected(self):
        for raw in ("", "\r\n\r", b""):
            with pytest.raises(EmptyMessage):
                parse_message(raw)

    def test_error_carries_line_number(self):
        with pytest.raises(MalformedSegment) as exc_info:
            parse_message("PID|ok\rP")
        assert exc_info.value.line_no == 2
        assert "line 2" in str(exc_info.value)

    def test_duplicate_msh_separators_rejected(self):
        with pytest.raises(MalformedSegment) as exc_info:
            parse_message("MSH|^^\rPID|1")
        assert exc_info.value.line_no == 1


class TestSerialize:
    def test_trailing_empty_fields_dropped(self):
        seg = Hl7Segment("PID", ("", "x", "", ""))
        assert serialize_segment(seg) == "PID||x"
        assert serialize_segment(Hl7Segment("EVN", ("", ""))) == "EVN"

    def test_separators_in_values_escaped(self):
        seg = Hl7Segment("PID", (encode_escapes("a|b"),))
        assert serialize_segment(seg) == r"PID|a\F\b"

    def test_msh_structural_fields(self):
        msg = parse_message(r"MSH|^~\&|APP|")
        assert serialize_message(msg) == b"MSH|^~\\&|APP\r"

    def test_patient_pid_round_trips_up_to_trailing_empty(self):
        msg = parse_message(PATIENT_PID)
        assert serialize_message(msg) == (PATIENT_PID[:-1] + "\r").encode("ascii")

    def test_non_ascii_bytes_survive(self):
        raw = "PID|Pas pr\xc3\xa9sent".encode("latin-1")  # UTF-8 bytes for é
        msg = parse_message(raw)
        assert serialize_message(msg) == raw + b"\r"

    @given(st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E)))
    def test_any_value_embeds_and_comes_back(self, value):
        msg = Hl7Message((Hl7Segment("PID", (encode_escapes(value),)),))
        back = parse_message(serialize_message(msg))
        assert (back.field_value("PID", 1) or "") == value

    @given(st.randoms(use_true_random=False))
    def test_round_trip_gives_the_trees_back(self, rng):
        enc, segments = random_trees(rng)
        msg = message_from_trees(enc, segments)
        back = parse_message(serialize_message(msg))
        assert [(seg.name, seg.fields) for seg in back.segments] == trimmed(segments)
        # Parsing is pure: same input, same result.
        assert parse_message(serialize_message(msg)) == back


# Raw ER7 whose tokens hold known, unknown and dangling escapes, empty
# fields and a latin-1 letter, as an upstream may send them.
RAW_TOKEN_CHARS = "aZ09 .|^~\\&FSRETHX\xe9"
raw_er7 = st.builds(
    lambda head, bodies: (head + "".join(f"PID|{b}\r" for b in bodies)).encode("latin-1"),
    st.sampled_from(["", "MSH|^~\\&|\r", "MSH|^~\\&|APP|\\H\\|\r"]),
    st.lists(st.text(alphabet=RAW_TOKEN_CHARS, max_size=40), min_size=1, max_size=4),
)
er7_bytes = st.one_of(
    raw_er7,
    st.randoms(use_true_random=False).map(lambda rng: serialize_message(random_message(rng))),
)

READ_INDICES = range(1, 16)


class TestParsedSegments:
    """A parsed segment holds raw tokens, parses each field on its first
    read and serializes its tokens verbatim."""

    @given(raw_er7)
    def test_serialize_gives_the_raw_bytes_back(self, raw):
        # Up to the trailing-empty-field trim; unknown and dangling escapes
        # pass through.
        expected = b"".join(line.rstrip(b"|") + b"\r" for line in raw.split(b"\r")[:-1])
        assert serialize_message(parse_message(raw)) == expected

    @given(er7_bytes)
    def test_reads_agree_before_and_after_fields(self, raw):
        def reads(msg):
            return [
                (seg.field(k), msg.field_value(seg.name, k))
                for seg in msg.segments
                for k in READ_INDICES
            ]

        before = reads(parse_message(raw))
        msg = parse_message(raw)
        for seg in msg.segments:
            seg.fields
        assert reads(msg) == before

    @given(er7_bytes)
    def test_equal_messages_hash_alike(self, raw):
        partly_read = parse_message(raw)
        partly_read.field_value("PID", 2)  # one field cached, the rest unread
        fresh = parse_message(raw)
        for seg, twin in zip(partly_read.segments, fresh.segments):
            assert seg == twin
            assert hash(seg) == hash(twin)
        assert partly_read == fresh
        assert hash(partly_read) == hash(fresh)

    def test_unknown_escape_passes_through(self):
        seg = parse_segment(r"PID|a\H\b|c")
        assert serialize_segment(seg) == r"PID|a\H\b|c"
