"""Protocol command parsing and execution against per-session state.

Each downstream client owns one Session.  Commands carry a Romanian and an
English alias (same behavior, same canonical id); responses are either a
data value, "OK", or "NOK" with the reason stored for ultimaEroare().
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .er7 import (
    EmptyMessage,
    Hl7Message,
    Hl7Segment,
    MalformedSegment,
    encode_escapes,
)
from .lexicon import LanguagePack, RegistryHolder
from .mllp import (
    DEFAULT_TIMEOUT_MS,
    ConnectFailed,
    ConnectionLost,
    ExchangeTimeout,
    FrameTooLarge,
    UpstreamConnection,
    UpstreamEndpoint,
    connect_upstream,
)

logger = logging.getLogger(__name__)

OK = "OK"
NOK = "NOK"

# Canonical session-command ids; the getter ids appear only in COMMANDS and
# map 1:1 onto mapping-file entries.
CONNECT = "CONNECT"
USE_PATIENT = "USE_PATIENT"
LAST_ERROR = "LAST_ERROR"
DISCONNECT = "DISCONNECT"


class Command(NamedTuple):
    canonical: str
    romanian: str
    english: str
    args: tuple[str, ...] = ()


# The command table: one row per command, its Romanian and English
# spellings both first-class, and the names of its arguments.
COMMANDS = (
    Command(CONNECT, "conectare", "login", ("host", "port", "user", "password")),
    Command(USE_PATIENT, "utilizarePacient", "usePatient", ("cnp", "language")),
    Command("EXTERNAL_ID", "idExternPacient", "getExternalID"),
    Command("INTERNAL_ID", "idInternPacient", "getInternalID"),
    Command("ALTERNATE_ID", "idAlternativPacient", "getAlternateID"),
    Command("NAME", "nume", "getName"),
    Command("MOTHER_MAIDEN_NAME", "numeFataMama", "getMotherMaidenName"),
    Command("DATE_OF_BIRTH", "dataNasterii", "getDateOfBirth"),
    Command("SEX", "sex", "getSex"),
    Command("RACE", "rasa", "getRace"),
    Command("ADDRESS", "adresa", "getAddress"),
    Command("COUNTRY_CODE", "codulTarii", "getCountryCode"),
    Command("HOME_PHONE", "numarTelefon", "getHomePhoneNumber"),
    Command("BUSINESS_PHONE", "numarTelefonServicii", "getBusinessPhoneNumber"),
    Command("PRIMARY_LANGUAGE", "limbaNatala", "getPrimaryLanguage"),
    Command("MARITAL_STATUS", "stareCivila", "getMaritalStatus"),
    Command("RELIGION", "religie", "getReligion"),
    Command("ACCOUNT_NUMBER", "numarContBancar", "getAccountNumber"),
    Command("CNP", "codNumericPersonal", "getCNP"),
    Command("DRIVERS_LICENSE", "serieCarteIdentitate", "getDriversLicenseNumber"),
    Command("ETHNIC_GROUP", "minoritateaEtnica", "getEthnicGroup"),
    Command("BIRTH_PLACE", "loculNasterii", "getBirthPlace"),
    Command("CITIZENSHIP", "cetatenie", "getCitizenship"),
    Command("NATIONALITY", "nationalitate", "getNationality"),
    Command(LAST_ERROR, "ultimaEroare", "getLastError"),
    # Added pair: explicit session teardown on request.
    Command(DISCONNECT, "deconectare", "logout"),
)

_BY_NAME = {name: c for c in COMMANDS for name in (c.romanian, c.english)}
ALIASES = {name: c.canonical for name, c in _BY_NAME.items()}

# Data getters, in table order: every command that is not a session command.
GETTERS = tuple(
    c.canonical
    for c in COMMANDS
    if c.canonical not in (CONNECT, USE_PATIENT, LAST_ERROR, DISCONNECT)
)

# Commands whose fourth argument is the upstream password.
_LOGIN_NAMES = tuple(name for name, canonical in ALIASES.items() if canonical == CONNECT)


def redact_password(line: str) -> str:
    """``line`` with a login's text after its third comma, where the
    password starts, replaced by ``***``; any other line as it is.  Leading
    whitespace does not hide a login, since ``parse_command`` strips it."""
    if line.lstrip().startswith(_LOGIN_NAMES):
        parts = line.split(",", 3)
        if len(parts) == 4:
            return ",".join(parts[:3]) + ",***"
    return line


class CommandSyntaxError(ValueError):
    """The line does not match `name '(' args ')' [';']`."""


class CommandRequest(NamedTuple):
    name: str
    args: list[str]


_COMMAND = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\((?P<args>[^()]*)\)\s*;?$"
)


def parse_command(line: str) -> CommandRequest:
    """Parse `name(arg, ...)[;]`; args are trimmed, names case-sensitive."""
    match = _COMMAND.match(line.strip())
    if not match:
        raise CommandSyntaxError(f"Cannot parse command: {redact_password(line.strip())!r}")
    args_text = match.group("args")
    args = [] if args_text.strip() == "" else [a.strip() for a in args_text.split(",")]
    return CommandRequest(match.group("name"), args)


class MappingError(ValueError):
    """A mapping file is missing getters or maps outside PID."""


_MAPPING_TARGET = re.compile(r"^([A-Z][A-Z0-9]{2})-([0-9]+)$")


def load_mapping(path: str | Path) -> dict[str, tuple[str, int]]:
    """Read "CANONICAL=PID-<index>" lines into a getter-to-field table.

    Every getter must appear exactly once; every target must be a PID
    field with index >= 1.
    """
    entries: dict[str, tuple[str, int]] = {}
    path = Path(path)
    for line_no, raw in enumerate(path.read_text("ascii").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, target = line.partition("=")
        name = name.strip()
        match = _MAPPING_TARGET.match(target.strip())
        if not eq or name not in GETTERS or not match:
            raise MappingError(f"{path.name}:{line_no}: bad mapping line {line!r}")
        if name in entries:
            raise MappingError(f"{path.name}:{line_no}: duplicate entry for {name}")
        segment, index = match.group(1), int(match.group(2))
        if segment != "PID" or index < 1:
            raise MappingError(f"{path.name}:{line_no}: target must be PID-<n>: {line!r}")
        entries[name] = (segment, index)
    missing = [g for g in GETTERS if g not in entries]
    if missing:
        raise MappingError(f"{path.name}: no entry for {', '.join(missing)}")
    return entries


def mapping_path(selector: str) -> Path:
    """Resolve "standard"/"simopac" to the packaged file, else a path."""
    if selector in ("standard", "simopac"):
        from importlib.resources import files

        return Path(str(files("hl7portal") / "data" / "mappings" / f"{selector}.map"))
    return Path(selector)


def packaged_languages_dir() -> Path:
    from importlib.resources import files

    return Path(str(files("hl7portal") / "data" / "languages"))


@dataclass
class Session:
    """Per-client mutable state; confined to one server thread."""

    id: str
    language: str | None = None
    upstream: UpstreamConnection | None = None
    patient: Hl7Message | None = None
    last_error: str = ""


class CommandOutcome(NamedTuple):
    response: str
    end_session: bool = False


def build_patient_query(
    cnp: str, user: str, password: str, control_id: str
) -> Hl7Message:
    """QBP-style patient lookup: MSH + QPD (the CNP) + RCP.

    A fixed template in the default encoding; only the credentials, the
    control id and the CNP are escaped.  None of them may hold a CR, LF or
    MLLP framing byte (see ``Interpreter``).
    """
    control = encode_escapes(control_id)
    msh = Hl7Segment(
        "MSH",
        (
            "|",
            "^~\\&",
            "HL7PORTAL",
            "PORTAL",
            "",
            "",
            time.strftime("%Y%m%d%H%M%S"),
            encode_escapes(f"{user}:{password}"),
            "QBP^Q22",
            control,
            "P",
            "2.3.1",
        ),
    )
    qpd = Hl7Segment("QPD", ("Q22^Find Candidates", control, encode_escapes(cnp)))
    rcp = Hl7Segment("RCP", ("I", "1^RD"))
    return Hl7Message((msh, qpd, rcp))


# Bytes that would end a query segment or its MLLP frame early.
_ILLEGAL_ARGUMENT_CHARS = frozenset("\r\n\x0b\x1c")


class Interpreter:
    """Executes parsed commands; shared by all sessions, itself stateless
    apart from the swappable registry snapshot and the fixed mapping."""

    def __init__(
        self,
        registry: RegistryHolder,
        mapping: dict[str, tuple[str, int]],
        connect: Callable[[UpstreamEndpoint], UpstreamConnection] = connect_upstream,
        upstream_timeout_ms: int = DEFAULT_TIMEOUT_MS,
    ):
        self._registry = registry
        self._mapping = mapping
        self._connect = connect
        self._upstream_timeout_ms = upstream_timeout_ms

    def handle_line(self, session: Session, line: str) -> CommandOutcome:
        """Execute one command line; always returns exactly one response."""
        try:
            name, args = parse_command(line)
        except CommandSyntaxError as e:
            session.last_error = str(e)
            return CommandOutcome(NOK)
        command = _BY_NAME.get(name)
        if command is None:
            session.last_error = f"Unknown command: {name}"
            return CommandOutcome(NOK)
        if len(args) != len(command.args):
            session.last_error = (
                f"{name} expects {len(command.args)} argument(s), got {len(args)}"
            )
            return CommandOutcome(NOK)
        # No line break or framing byte may reach the upstream query.
        for arg, value in zip(command.args, args):
            if not _ILLEGAL_ARGUMENT_CHARS.isdisjoint(value):
                session.last_error = f"{name}: argument {arg} holds a control character"
                return CommandOutcome(NOK)
        canonical = command.canonical
        if canonical == CONNECT:
            return CommandOutcome(self._connect_cmd(session, args))
        if canonical == USE_PATIENT:
            return CommandOutcome(self._use_patient(session, args))
        if canonical == DISCONNECT:
            if session.upstream is not None:
                session.upstream.close()
                session.upstream = None
            return CommandOutcome(OK, end_session=True)
        if canonical == LAST_ERROR:
            return CommandOutcome(session.last_error or self._pack(session).none)
        return CommandOutcome(self._getter(session, canonical))

    def _pack(self, session: Session) -> LanguagePack:
        """The session's pack; the default one before a language is set."""
        registry = self._registry.get()
        return registry.packs.get(session.language) or registry.default_pack()

    def _connect_cmd(self, session: Session, args: list[str]) -> str:
        host, port_text, user, password = args
        try:
            endpoint = UpstreamEndpoint(
                host, int(port_text), user, password, self._upstream_timeout_ms
            )
        except ValueError:
            session.last_error = f"Invalid port argument: {port_text!r}"
            return NOK
        try:
            upstream = self._connect(endpoint)
        except ConnectFailed as e:
            session.last_error = f"Connection failed: {e}"
            return NOK
        if session.upstream is not None:
            session.upstream.close()
        session.upstream = upstream
        return OK

    def _use_patient(self, session: Session, args: list[str]) -> str:
        cnp, language = args
        if not cnp:
            session.last_error = "CNP must be non-empty"
            return NOK
        registry = self._registry.get()
        pack = registry.packs.get(language)
        if pack is None:
            session.last_error = registry.default_pack().files_not_found
            return NOK
        session.language = language
        if session.upstream is None:
            session.last_error = "Not connected to an HL7 server"
            return NOK
        query = build_patient_query(
            cnp,
            session.upstream.endpoint.user,
            session.upstream.endpoint.password,
            session.upstream.next_control_id(),
        )
        try:
            response = session.upstream.exchange(query)
        except (
            ExchangeTimeout,
            ConnectionLost,
            FrameTooLarge,
            MalformedSegment,
            EmptyMessage,
            OSError,
        ) as e:
            logger.warning("session %s: patient query failed: %s", session.id, e)
            if session.upstream.closed:
                # Later lookups answer "not connected", not "no data".
                session.upstream = None
            session.last_error = pack.not_present
            return NOK
        if response.segment("PID") is None:
            session.last_error = pack.not_present
            return NOK
        session.patient = response
        return OK

    def _getter(self, session: Session, canonical: str) -> str:
        if session.patient is not None:
            segment, index = self._mapping[canonical]
            value = session.patient.field_value(segment, index)
            if value is not None:
                return value
        session.last_error = self._pack(session).not_present
        return NOK


def interpret_segment(seg: Hl7Segment, pack: LanguagePack) -> list[str]:
    """Render a segment as "Label: value" lines in the pack's language.

    No lexicon file for the segment: one line, the files-not-found string.
    Present-but-empty fields render the none-string, indices beyond the
    segment's last field the not-present-string.  MSH-9 codes are expanded
    through the pack's code tables.
    """
    lexicon = pack.segment_lexicons.get(seg.name)
    if lexicon is None:
        return [pack.files_not_found]
    lines = []
    for index in sorted(lexicon):
        text = seg.field_text(index)
        if text is None:
            value = pack.not_present
        elif text == "":
            value = pack.none
        elif seg.name == "MSH" and index == 9:
            value = _describe_message_type(seg, pack)
        else:
            value = text
        lines.append(f"{lexicon[index]}: {value}")
    return lines


def _describe_message_type(seg: Hl7Segment, pack: LanguagePack) -> str:
    text = seg.field_text(9) or ""
    components = [comp[0] for comp in seg.field(9)[0] if comp]
    descriptions = []
    if len(components) >= 1:
        found = pack.code_lookup("MSH-MessageType", components[0])
        if found:
            descriptions.append(found)
    if len(components) >= 2:
        found = pack.code_lookup("MSH-EventType", components[1])
        if found:
            descriptions.append(found)
    if not descriptions:
        return text
    return f"{text} ({', '.join(descriptions)})"
