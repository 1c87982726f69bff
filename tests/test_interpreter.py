"""Command grammar, alias table, mappings, and session execution."""

import socket
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PATIENT_CNP, PATIENT_PID, make_language
from hl7portal.er7 import (
    parse_message,
    parse_segment,
    serialize_message,
)
from hl7portal.interpreter import (
    ALIASES,
    COMMANDS,
    GETTERS,
    CommandSyntaxError,
    Interpreter,
    MappingError,
    Session,
    build_patient_query,
    interpret_segment,
    load_mapping,
    mapping_path,
    packaged_languages_dir,
    parse_command,
)
from hl7portal.lexicon import RegistryHolder, load_registry
from hl7portal.mllp import Deframer, UpstreamEndpoint
from hl7portal.mockserver import MockHl7Server, PatientFixture


class TestParseCommand:
    def test_connect_form(self):
        req = parse_command("conectare(127.0.0.1, 2575, demo, demo);")
        assert req.name == "conectare"
        assert req.args == ["127.0.0.1", "2575", "demo", "demo"]

    def test_no_arguments(self):
        assert parse_command("nume();") == ("nume", [])
        assert parse_command("nume()") == ("nume", [])

    def test_surrounding_whitespace_tolerated(self):
        req = parse_command("  usePatient( 175 , ro ) ; ")
        assert req == ("usePatient", ["175", "ro"])

    def test_empty_args_preserved(self):
        assert parse_command("f(,)").args == ["", ""]

    @pytest.mark.parametrize(
        "line", ["nume(;", "nume", "nume()x", "", "nume());", "nu me()", "9ume()"]
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(CommandSyntaxError):
            parse_command(line)


class TestAliases:
    def test_every_command_has_exactly_two_spellings(self):
        by_canonical = {}
        for alias, canonical in ALIASES.items():
            by_canonical.setdefault(canonical, []).append(alias)
        assert all(len(aliases) == 2 for aliases in by_canonical.values())
        # 22 getters + connect, usePatient, lastError, disconnect.
        assert len(by_canonical) == 26

    @pytest.mark.parametrize(
        "romanian,english,canonical",
        [
            ("conectare", "login", "CONNECT"),
            ("utilizarePacient", "usePatient", "USE_PATIENT"),
            ("nume", "getName", "NAME"),
            ("numeFataMama", "getMotherMaidenName", "MOTHER_MAIDEN_NAME"),
            ("codNumericPersonal", "getCNP", "CNP"),
            ("serieCarteIdentitate", "getDriversLicenseNumber", "DRIVERS_LICENSE"),
            ("ultimaEroare", "getLastError", "LAST_ERROR"),
            ("deconectare", "logout", "DISCONNECT"),
        ],
    )
    def test_pairs_share_canonical(self, romanian, english, canonical):
        assert ALIASES[romanian] == canonical
        assert ALIASES[english] == canonical

    def test_unknown_name_absent(self):
        assert "frobnicate" not in ALIASES


class TestMappings:
    def test_simopac_positions(self):
        mapping = load_mapping(mapping_path("simopac"))
        assert mapping["NAME"] == ("PID", 4)
        assert mapping["MOTHER_MAIDEN_NAME"] == ("PID", 5)
        assert mapping["CNP"] == ("PID", 17)
        assert mapping["NATIONALITY"] == ("PID", 26)
        assert set(mapping) == set(GETTERS)

    def test_standard_positions(self):
        mapping = load_mapping(mapping_path("standard"))
        assert mapping["NAME"] == ("PID", 5)
        assert mapping["CNP"] == ("PID", 19)
        assert mapping["NATIONALITY"] == ("PID", 28)
        assert set(mapping) == set(GETTERS)

    def test_missing_getter_rejected(self, tmp_path):
        path = tmp_path / "partial.map"
        path.write_text("NAME=PID-4\n")
        with pytest.raises(MappingError, match="no entry"):
            load_mapping(path)

    def test_non_pid_target_rejected(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("\n".join(f"{g}=OBX-3" for g in GETTERS))
        with pytest.raises(MappingError, match="PID"):
            load_mapping(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.map"
        path.write_text("NAME=PID-4\nNAME=PID-5\n")
        with pytest.raises(MappingError, match="duplicate"):
            load_mapping(path)

    def test_unknown_canonical_rejected(self, tmp_path):
        path = tmp_path / "alien.map"
        path.write_text("SHOE_SIZE=PID-30\n")
        with pytest.raises(MappingError):
            load_mapping(path)


@pytest.fixture(scope="module")
def holder():
    return RegistryHolder(load_registry(packaged_languages_dir()))


@pytest.fixture(scope="module")
def simopac():
    return load_mapping(mapping_path("simopac"))


@pytest.fixture()
def interp(holder, simopac):
    return Interpreter(holder, simopac, upstream_timeout_ms=2000)


@pytest.fixture()
def mock():
    fixtures = [PatientFixture(PATIENT_CNP, PATIENT_PID)]
    with MockHl7Server(fixtures=fixtures, user="demo", password="demo") as server:
        yield server


@pytest.fixture()
def session():
    """A fresh session whose upstream connection, if it opened one, is
    closed after the test."""
    session = Session("s1")
    yield session
    if session.upstream is not None:
        session.upstream.close()


def connect(interp, session, mock, user="demo", password="demo"):
    line = f"conectare(127.0.0.1, {mock.port}, {user}, {password});"
    return interp.handle_line(session, line).response


class TestConnect:
    def test_success(self, interp, mock, session):
        assert connect(interp, session, mock) == "OK"
        assert session.upstream is not None

    def test_closed_port_is_nok(self, interp):
        session = Session("s1")
        response = interp.handle_line(
            session, "conectare(127.0.0.1, 1, x, y);"
        ).response
        assert response == "NOK"
        assert "failed" in session.last_error.lower()

    def test_non_numeric_port_is_nok(self, interp):
        session = Session("s1")
        assert interp.handle_line(session, "login(h, abc, u, p);").response == "NOK"
        assert "abc" in session.last_error

    def test_wrong_arg_count_is_nok(self, interp):
        session = Session("s1")
        assert interp.handle_line(session, "conectare(1, 2);").response == "NOK"
        assert "4 argument" in session.last_error


class TestUsePatient:
    def test_known_patient(self, interp, mock, session):
        connect(interp, session, mock)
        outcome = interp.handle_line(
            session, f"utilizarePacient({PATIENT_CNP}, ro);"
        )
        assert outcome.response == "OK"
        assert session.language == "ro"
        assert session.patient.field_value("PID", 4) == "C. Marius"

    def test_unknown_cnp(self, interp, mock, session):
        connect(interp, session, mock)
        assert interp.handle_line(session, "utilizarePacient(999, ro);").response == "NOK"
        assert session.last_error == "Nu exista date."
        assert session.patient is None

    def test_unknown_language_uses_default_pack_message(self, interp, mock, session):
        connect(interp, session, mock)
        assert interp.handle_line(session, f"usePatient({PATIENT_CNP}, xx);").response == "NOK"
        assert session.last_error == "HL7 files not found! Please choose another language!"

    def test_not_connected(self, interp):
        session = Session("s1")
        assert interp.handle_line(session, f"usePatient({PATIENT_CNP}, ro);").response == "NOK"
        assert "connected" in session.last_error.lower()

    def test_empty_cnp(self, interp, mock, session):
        connect(interp, session, mock)
        assert interp.handle_line(session, "utilizarePacient(, ro);").response == "NOK"

    def test_credentials_mismatch(self, interp, mock, session):
        assert connect(interp, session, mock, password="wrong") == "OK"  # TCP is up
        assert interp.handle_line(session, f"usePatient({PATIENT_CNP}, en);").response == "NOK"
        assert session.last_error == "No data available."

    def test_repeated_use_patient_replaces(self, interp, mock, session):
        connect(interp, session, mock)
        interp.handle_line(session, f"usePatient({PATIENT_CNP}, en);")
        assert interp.handle_line(session, "usePatient(999, en);").response == "NOK"
        # The failed lookup does not clobber the current patient.
        assert session.patient is not None


class TestGetters:
    @pytest.fixture()
    def ready(self, interp, mock, session):
        connect(interp, session, mock)
        assert (
            interp.handle_line(session, f"utilizarePacient({PATIENT_CNP}, ro);").response
            == "OK"
        )
        return session

    @pytest.mark.parametrize(
        "command,expected",
        [
            ("nume();", "C. Marius"),
            ("numeFataMama();", "Timpau"),
            ("dataNasterii();", "1975.09.16"),
            ("sex();", "M"),
            ("codNumericPersonal();", "1750916334996"),
            ("rasa();", "Caucasian"),
            ("loculNasterii();", "Suceava"),
            ("nationalitate();", "Romana"),
        ],
    )
    def test_present_values(self, interp, ready, command, expected):
        assert interp.handle_line(ready, command).response == expected

    @pytest.mark.parametrize(
        "command", ["serieCarteIdentitate();", "numarContBancar();", "idExternPacient();"]
    )
    def test_absent_values_are_nok(self, interp, ready, command):
        assert interp.handle_line(ready, command).response == "NOK"
        assert ready.last_error == "Nu exista date."

    def test_getter_before_patient_is_nok(self, interp):
        session = Session("s1")
        assert interp.handle_line(session, "nume();").response == "NOK"
        assert session.last_error == "No data available."  # default en pack

    def test_getter_with_arguments_is_nok(self, interp, ready):
        assert interp.handle_line(ready, "nume(1);").response == "NOK"
        assert "argument" in ready.last_error


class TestLastErrorAndLifecycle:
    def test_fresh_session_reports_none_string(self, interp):
        session = Session("s1")
        assert interp.handle_line(session, "ultimaEroare();").response == "None"

    def test_last_error_flow(self, interp, mock, session):
        connect(interp, session, mock)
        interp.handle_line(session, f"utilizarePacient({PATIENT_CNP}, ro);")
        assert interp.handle_line(session, "serieCarteIdentitate();").response == "NOK"
        assert interp.handle_line(session, "ultimaEroare();").response == "Nu exista date."
        # A successful command in between leaves the error untouched.
        assert interp.handle_line(session, "nume();").response == "C. Marius"
        assert interp.handle_line(session, "ultimaEroare();").response == "Nu exista date."

    def test_two_failures_report_latest(self, interp):
        session = Session("s1")
        interp.handle_line(session, "frobnicate();")
        interp.handle_line(session, "nume(;")
        response = interp.handle_line(session, "getLastError();").response
        assert "Cannot parse" in response

    def test_unknown_command(self, interp):
        session = Session("s1")
        assert interp.handle_line(session, "frobnicate();").response == "NOK"
        assert "frobnicate" in session.last_error

    def test_syntax_error(self, interp):
        session = Session("s1")
        assert interp.handle_line(session, "nume(;").response == "NOK"
        assert "parse" in session.last_error.lower()

    def test_disconnect_fresh_session(self, interp):
        outcome = interp.handle_line(Session("s1"), "deconectare();")
        assert outcome.response == "OK"
        assert outcome.end_session

    def test_disconnect_closes_upstream(self, interp, mock):
        session = Session("s1")
        connect(interp, session, mock)
        upstream = session.upstream
        outcome = interp.handle_line(session, "logout();")
        assert outcome == ("OK", True)
        assert upstream.closed

    def test_alias_symmetry_on_identical_state(self, interp):
        patient = parse_message(PATIENT_PID)
        pairs = {}
        for alias, canonical in ALIASES.items():
            pairs.setdefault(canonical, []).append(alias)
        for canonical, (first, second) in pairs.items():
            if canonical in ("CONNECT", "USE_PATIENT", "DISCONNECT"):
                continue
            one = Session("a", language="ro", patient=patient)
            other = Session("b", language="ro", patient=patient)
            assert (
                interp.handle_line(one, f"{first}();").response
                == interp.handle_line(other, f"{second}();").response
            )


class TestFailurePaths:
    def test_silent_upstream_times_out_nok(self, holder, simopac):
        interp = Interpreter(holder, simopac, upstream_timeout_ms=300)
        with MockHl7Server(misbehave="silent") as mock:
            session = Session("s1")
            assert connect(interp, session, mock) == "OK"
            import time

            start = time.monotonic()
            response = interp.handle_line(
                session, f"usePatient({PATIENT_CNP}, ro);"
            ).response
            elapsed = time.monotonic() - start
        assert response == "NOK"
        assert session.last_error == "Nu exista date."
        assert elapsed < 1.3  # timeout + 1s per the failure contract

    def test_dead_upstream_answers_not_connected(self, holder, simopac):
        interp = Interpreter(holder, simopac, upstream_timeout_ms=300)
        with MockHl7Server(misbehave="silent") as mock:
            session = Session("s1")
            assert connect(interp, session, mock) == "OK"
            use = f"usePatient({PATIENT_CNP}, ro);"
            assert interp.handle_line(session, use).response == "NOK"
            assert interp.handle_line(session, use).response == "NOK"
        assert (
            interp.handle_line(session, "ultimaEroare();").response
            == "Not connected to an HL7 server"
        )

    def test_garbage_upstream_is_nok_not_crash(self, holder, simopac, session):
        interp = Interpreter(holder, simopac, upstream_timeout_ms=1000)
        with MockHl7Server(misbehave="garbage") as mock:
            assert connect(interp, session, mock) == "OK"
            assert (
                interp.handle_line(session, f"usePatient({PATIENT_CNP}, ro);").response
                == "NOK"
            )


class TestPatientQueryShape:
    def test_query_segments_and_credentials(self):
        query = build_patient_query("175", "demo", "secret", "Q7")
        assert [seg.name for seg in query.segments] == ["MSH", "QPD", "RCP"]
        assert query.field_value("MSH", 8) == "demo:secret"
        assert query.field_value("MSH", 9) == "QBP^Q22"
        assert query.field_value("MSH", 10) == "Q7"
        assert query.field_value("QPD", 2) == "Q7"
        assert query.field_value("QPD", 3) == "175"
        assert query.field_value("RCP", 1) == "I"


    @given(*[st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF))] * 4)
    def test_template_values_come_back(self, cnp, user, password, control_id):
        raw = serialize_message(build_patient_query(cnp, user, password, control_id))
        assert raw.count(b"\r") == 3
        back = parse_message(raw)
        assert [seg.name for seg in back.segments] == ["MSH", "QPD", "RCP"]
        assert (back.field_value("MSH", 8) or "") == f"{user}:{password}"
        assert (back.field_value("MSH", 10) or "") == control_id
        assert (back.field_value("QPD", 2) or "") == control_id
        assert (back.field_value("QPD", 3) or "") == cnp


class StubUpstream:
    """Stands in for an upstream connection and counts the queries sent."""

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.queries = []
        self.closed = False

    def next_control_id(self):
        return "Q1"

    def exchange(self, query):
        self.queries.append(query)
        return parse_message(PATIENT_PID)

    def close(self):
        self.closed = True


class TestArgumentHygiene:
    @pytest.fixture()
    def stubbed(self, holder, simopac):
        connects = []

        def connect(endpoint):
            connects.append(StubUpstream(endpoint))
            return connects[-1]

        return Interpreter(holder, simopac, connect=connect), connects

    @pytest.mark.parametrize("bad", ["1\rZZZ|x", "1\nZZZ|x", "1\x0b2", "1\x1c\r2"])
    @pytest.mark.parametrize("name", ["utilizarePacient", "usePatient"])
    def test_use_patient_rejects_control_characters(self, stubbed, name, bad):
        interp, connects = stubbed
        session = Session("s1")
        assert interp.handle_line(session, "login(h, 1, u, p);").response == "OK"
        assert interp.handle_line(session, f"{name}({bad}, ro);").response == "NOK"
        assert "cnp" in session.last_error
        assert connects[0].queries == []
        assert session.patient is None

    def test_language_argument_checked_too(self, stubbed):
        interp, connects = stubbed
        session = Session("s1")
        interp.handle_line(session, "login(h, 1, u, p);")
        assert interp.handle_line(session, "usePatient(1, r\ro);").response == "NOK"
        assert "argument language" in session.last_error
        assert connects[0].queries == []

    @pytest.mark.parametrize(
        "line,argument",
        [
            ("conectare(h\rx, 1, u, p);", "host"),
            ("login(h, 1, u\nMSH, p);", "user"),
            ("conectare(h, 1, u, p\x0bq);", "password"),
            ("login(h, 1\x1c2, u, p);", "port"),
        ],
    )
    def test_connect_rejects_control_characters(self, stubbed, line, argument):
        interp, connects = stubbed
        session = Session("s1")
        assert interp.handle_line(session, line).response == "NOK"
        assert f"argument {argument}" in session.last_error
        assert connects == []
        assert session.upstream is None

    # Table-driven: COMMANDS states each command's arguments, and the one
    # check in handle_line reads them from there.
    ARITY_CASES = [
        (name, len(c.args), got)
        for c in COMMANDS
        for name in (c.romanian, c.english)
        for got in {len(c.args) + 1, abs(len(c.args) - 1)}
    ]

    @pytest.mark.parametrize("name,expected,got", ARITY_CASES)
    def test_wrong_arity_names_the_expected_count(self, stubbed, name, expected, got):
        interp, connects = stubbed
        session = Session("s1")
        args = ", ".join(["a"] * got)
        assert interp.handle_line(session, f"{name}({args});").response == "NOK"
        assert session.last_error == f"{name} expects {expected} argument(s), got {got}"
        assert interp.handle_line(session, "ultimaEroare();").response == session.last_error
        assert connects == []

    VALID_ARGS = {"CONNECT": ["h", "1", "u", "p"], "USE_PATIENT": [PATIENT_CNP, "ro"]}
    ARGUMENT_CASES = [
        (name, c.canonical, index, arg)
        for c in COMMANDS
        if c.args
        for name in (c.romanian, c.english)
        for index, arg in enumerate(c.args)
    ]

    @pytest.mark.parametrize("char", ["\r", "\n", "\x0b", "\x1c"])
    @pytest.mark.parametrize("name,canonical,index,arg", ARGUMENT_CASES)
    def test_control_character_in_each_argument_is_refused(
        self, stubbed, name, canonical, index, arg, char
    ):
        interp, connects = stubbed
        session = Session("s1")
        assert interp.handle_line(session, "login(h, 1, u, p);").response == "OK"
        args = list(self.VALID_ARGS[canonical])
        args[index] = f"a{char}b"
        assert interp.handle_line(session, f"{name}({', '.join(args)});").response == "NOK"
        assert session.last_error == f"{name}: argument {arg} holds a control character"
        assert len(connects) == 1
        assert connects[0].queries == []

    def test_clean_arguments_still_query(self, stubbed):
        interp, connects = stubbed
        session = Session("s1")
        interp.handle_line(session, "login(h, 1, u, p);")
        assert interp.handle_line(session, f"usePatient({PATIENT_CNP}, ro);").response == "OK"
        assert len(connects[0].queries) == 1
        assert connects[0].endpoint == UpstreamEndpoint("h", 1, "u", "p", 5000)


class TestEmptyUpstreamFrame:
    def test_empty_frame_answers_not_present_and_session_goes_on(self, holder, interp):
        # A scripted upstream that answers every query with an empty frame,
        # which parse_message refuses with EmptyMessage.
        listener = socket.create_server(("127.0.0.1", 0))

        def answer():
            conn, _ = listener.accept()
            with conn:
                deframer = Deframer()
                while data := conn.recv(65536):
                    for _ in deframer.feed(data):
                        conn.sendall(b"\x0b\x1c\x0d")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        session = Session("s1")
        try:
            port = listener.getsockname()[1]
            assert interp.handle_line(session, f"login(127.0.0.1, {port}, u, p);").response == "OK"
            use = f"usePatient({PATIENT_CNP}, ro);"
            assert interp.handle_line(session, use).response == "NOK"
            not_present = holder.get().packs["ro"].not_present
            assert session.last_error == not_present
            assert interp.handle_line(session, "ultimaEroare();").response == not_present
            assert interp.handle_line(session, "nume();").response == "NOK"
            # The connection survives the empty frame and is asked again.
            assert interp.handle_line(session, use).response == "NOK"
            assert session.upstream is not None and not session.upstream.closed
        finally:
            if session.upstream is not None:
                session.upstream.close()
            listener.close()
            thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(scope="module")
def packs():
    return load_registry(packaged_languages_dir()).packs


class TestInterpretSegment:

    def test_patient_pid_in_romanian(self, packs):
        seg = parse_segment(PATIENT_PID)
        lines = interpret_segment(seg, packs["ro"])
        assert "Cod numeric personal: 1750916334996" in lines
        assert "Nume: C. Marius" in lines
        assert "Serie carte identitate: Niciunul" in lines  # present but empty
        assert len(lines) == len(packs["ro"].segment_lexicons["PID"])

    def test_lines_follow_ascending_index_order(self, packs):
        seg = parse_segment(PATIENT_PID)
        lines = interpret_segment(seg, packs["en"])
        lexicon = packs["en"].segment_lexicons["PID"]
        labels = [line.split(":", 1)[0] for line in lines]
        assert labels == [lexicon[i] for i in sorted(lexicon)]

    def test_fields_beyond_segment_use_not_present(self, packs):
        seg = parse_segment("PID||||C. Marius")
        lines = interpret_segment(seg, packs["ro"])
        assert "Cod numeric personal: Nu exista date." in lines
        assert "Nume: C. Marius" in lines

    def test_missing_lexicon_file_renders_files_not_found(self, tmp_path):
        make_language(tmp_path, "fr", files_not_found="Dossiers HL7 non trouves!",
                      lexicons={"PID": "4=Nom"})
        pack = load_registry(tmp_path).packs["fr"]
        assert interpret_segment(parse_segment("EVN|A01"), pack) == [
            "Dossiers HL7 non trouves!"
        ]

    def test_empty_lexicon_file_renders_nothing(self, tmp_path):
        make_language(tmp_path, "fr", lexicons={"EVN": "# rien\n"})
        pack = load_registry(tmp_path).packs["fr"]
        assert interpret_segment(parse_segment("EVN|A01"), pack) == []

    def test_msh_type_codes_resolved(self, packs):
        seg = parse_segment(r"MSH|^~\&|APP|FAC|||20250101120000||ADT^A01|1|P|2.3.1")
        lines = interpret_segment(seg, packs["en"])
        assert (
            "Message type: ADT^A01 (Admit/Discharge/Transfer, Admit/visit notification)"
            in lines
        )

    def test_msh_unknown_codes_stay_plain(self, packs):
        seg = parse_segment(r"MSH|^~\&|APP|FAC|||20250101120000||XXX^Z99|1|P|2.3.1")
        lines = interpret_segment(seg, packs["en"])
        assert "Message type: XXX^Z99" in lines
