"""Seeded inputs for the portal benchmark and the oracle that checks replies.

Everything here is derived from a seed: the synthetic patient table served
by the mock HIS, the CNPs that are absent from it, and one endless stream of
sessions per client connection.  Each command in a stream carries the exact
response line the portal must send back.  Those responses come from a small
model of a portal session (`SessionModel`) fed with the fixture table, the
packaged language strings and the packaged `simopac` field map.  Nothing
here imports the portal, so a bug in the portal cannot hide itself by
agreeing with its own oracle.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

# The protocol's getters: canonical id, Romanian alias, English alias.
GETTERS = (
    ("EXTERNAL_ID", "idExternPacient", "getExternalID"),
    ("INTERNAL_ID", "idInternPacient", "getInternalID"),
    ("ALTERNATE_ID", "idAlternativPacient", "getAlternateID"),
    ("NAME", "nume", "getName"),
    ("MOTHER_MAIDEN_NAME", "numeFataMama", "getMotherMaidenName"),
    ("DATE_OF_BIRTH", "dataNasterii", "getDateOfBirth"),
    ("SEX", "sex", "getSex"),
    ("RACE", "rasa", "getRace"),
    ("ADDRESS", "adresa", "getAddress"),
    ("COUNTRY_CODE", "codulTarii", "getCountryCode"),
    ("HOME_PHONE", "numarTelefon", "getHomePhoneNumber"),
    ("BUSINESS_PHONE", "numarTelefonServicii", "getBusinessPhoneNumber"),
    ("PRIMARY_LANGUAGE", "limbaNatala", "getPrimaryLanguage"),
    ("MARITAL_STATUS", "stareCivila", "getMaritalStatus"),
    ("RELIGION", "religie", "getReligion"),
    ("ACCOUNT_NUMBER", "numarContBancar", "getAccountNumber"),
    ("CNP", "codNumericPersonal", "getCNP"),
    ("DRIVERS_LICENSE", "serieCarteIdentitate", "getDriversLicenseNumber"),
    ("ETHNIC_GROUP", "minoritateaEtnica", "getEthnicGroup"),
    ("BIRTH_PLACE", "loculNasterii", "getBirthPlace"),
    ("CITIZENSHIP", "cetatenie", "getCitizenship"),
    ("NATIONALITY", "nationalitate", "getNationality"),
)
LAST_ERROR_NAMES = ("ultimaEroare", "getLastError")
LOGIN_NAMES = ("conectare", "login")
USE_PATIENT_NAMES = ("utilizarePacient", "usePatient")
LOGOUT_NAMES = ("deconectare", "logout")

# Every getter spelling, both languages, plus ultimaEroare: what the
# `getters` workload cycles through.
GETTER_CALLS = tuple(
    (canonical, name) for canonical, ro, en in GETTERS for name in (ro, en)
) + (("LAST_ERROR", LAST_ERROR_NAMES[0]),)

# Language codes a client may ask for that no packaged pack provides.
UNKNOWN_LANGUAGES = ("fr", "de", "hu", "xx")

USER = "portal"
PASSWORD = "secret"

# Command kinds, used to bucket latencies.
LOGIN, USE, GETTER, LOGOUT = range(4)
KIND_NAMES = ("login", "use_patient", "getter", "logout")


class Command(NamedTuple):
    kind: int
    line: bytes
    expected: bytes
    lookup: "Lookup | None" = None


class Lookup(NamedTuple):
    """What one usePatient asked for, for the workload-property record."""

    hit: bool
    unknown_language: bool
    repeat: bool
    pid_bytes: int


# ---------------------------------------------------------------- oracle


def decode_escapes(text: str) -> str:
    """HL7 v2 escape decoding for the default delimiters.

    A sequence runs from one escape character to the next; \\F\\ \\S\\ \\R\\
    \\E\\ \\T\\ become their delimiter and any other sequence (such as the
    \\H\\ / \\N\\ formatting escapes) or a dangling escape stays literal.
    """
    known = {"F": "|", "S": "^", "R": "~", "E": "\\", "T": "&"}
    out = []
    i = 0
    while i < len(text):
        start = text.find("\\", i)
        if start < 0:
            out.append(text[i:])
            break
        out.append(text[i:start])
        end = text.find("\\", start + 1)
        if end < 0:
            out.append(text[start:])
            break
        seq = text[start + 1 : end]
        out.append(known.get(seq, text[start : end + 1]))
        i = end + 1
    return "".join(out)


def pid_field(pid_line: str, index: int) -> str | None:
    """What a getter mapped to PID-<index> answers, or None for NOK.

    The answer is the first repetition, its components joined by '^' and
    subcomponents by '&' after unescaping each piece.  An absent field and
    an empty one both mean "no value".
    """
    fields = pid_line.split("|")
    if index >= len(fields):
        return None
    first = fields[index].split("~")[0]
    text = "^".join(
        "&".join(decode_escapes(sub) for sub in comp.split("&"))
        for comp in first.split("^")
    )
    return text or None


@dataclass(frozen=True)
class Strings:
    """The three per-language answers the oracle needs."""

    not_present: str
    none: str
    files_not_found: str


@dataclass(frozen=True)
class PortalData:
    """Packaged data the portal answers from: language strings and map."""

    packs: dict[str, Strings]
    mapping: dict[str, int]

    @classmethod
    def load(cls, data_dir: Path, mapping: str = "simopac") -> "PortalData":
        languages = data_dir / "languages"
        packs = {}
        for line in (languages / "languages.txt").read_bytes().decode("latin-1").splitlines():
            match = re.match(r"^.+?\s*\((\S+)\)$", line.strip())
            if line.strip().startswith("#") or not match:
                continue
            code = match.group(1)

            def special(stem: str) -> str:
                return (languages / f"{stem}.{code}").read_bytes().decode("latin-1").rstrip("\r\n")

            packs[code] = Strings(
                special("-not present-"), special("-none-"), special("-files not found-")
            )
        table = {}
        for line in (data_dir / "mappings" / f"{mapping}.map").read_text("ascii").splitlines():
            name, eq, target = line.strip().partition("=")
            if eq and not name.startswith("#"):
                table[name] = int(target.removeprefix("PID-"))
        return cls(packs, table)

    def default_pack(self) -> Strings:
        return self.packs["en"] if "en" in self.packs else next(iter(self.packs.values()))


@dataclass
class SessionModel:
    """Expected responses of one portal session, command by command."""

    data: PortalData
    fixtures: dict[str, str]
    language: str | None = None
    patient: str | None = None
    last_error: str = ""

    def _pack(self) -> Strings:
        return self.data.packs.get(self.language) or self.data.default_pack()

    def login(self) -> str:
        return "OK"

    def logout(self) -> str:
        return "OK"

    def use_patient(self, cnp: str, language: str) -> str:
        if language not in self.data.packs:
            self.last_error = self.data.default_pack().files_not_found
            return "NOK"
        self.language = language
        pid = self.fixtures.get(cnp)
        if pid is None:
            # A miss keeps the previous patient selected.
            self.last_error = self.data.packs[language].not_present
            return "NOK"
        self.patient = pid
        return "OK"

    def getter(self, canonical: str) -> str:
        if canonical == "LAST_ERROR":
            return self.last_error or self._pack().none
        value = None
        if self.patient is not None:
            value = pid_field(self.patient, self.data.mapping[canonical])
        if value is None:
            self.last_error = self._pack().not_present
            return "NOK"
        return value


# -------------------------------------------------------------- fixtures

_CNP_WEIGHTS = "279146358279"
_SURNAMES = ("Popescu", "Ionescu", "Munteanu", "Timpau", "Rusu", "Stan", "Dumitru",
             "Moldovan", "Lungu", "Oprea", "Constantinescu-Vladareanu")
_GIVEN = ("Marius", "Ioana", "Andrei", "Elena", "Mihai", "Ana", "Radu", "Maria", "Stefan")
# Latin-1 letters (â, î) check that non-ASCII bytes reach the client intact.
_CITIES = ("Suceava", "Iasi", "Cluj-Napoca", "Bucuresti", "Târgu Jiu", "Râmnicu Vâlcea",
           "Sfântu Gheorghe", "Pârâul Rece", "Sânnicolau Mare", "Vîrfurile")
_STREETS = ("Jupiter", "Lalelelor", "Stefan cel Mare", "Independentei", "Mihai Eminescu")
_RELIGIONS = ("Crestin Ortodox", "Romano-Catolic", "Greco-Catolic", "")
_MARITAL = ("Necasatorit", "Casatorit", "Divortat", "Vaduv")


def cnp_for(rng: random.Random) -> str:
    """A CNP with a valid check digit (sex/century, birth date, county, serial)."""
    sex = rng.choice("1256")
    body = f"{sex}{rng.randrange(100):02d}{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}"
    body += f"{rng.randrange(1, 47):02d}{rng.randrange(1, 1000):03d}"
    check = sum(int(d) * int(w) for d, w in zip(body, _CNP_WEIGHTS)) % 11
    return body + str(1 if check == 10 else check)


def encode_escapes(text: str) -> str:
    return (
        text.replace("\\", "\\E\\").replace("|", "\\F\\").replace("^", "\\S\\")
        .replace("~", "\\R\\").replace("&", "\\T\\")
    )


class PidBuilder:
    """Builds one PID line and, alongside, what each field must answer."""

    def __init__(self):
        self.raw: dict[int, str] = {}
        self.answer: dict[int, str | None] = {}

    def put(self, index: int, reps: list[list[str]], raw_suffix: str = "") -> None:
        """`reps` is repetitions of components of plain text; `raw_suffix` is
        appended to the first component unescaped (a formatting escape)."""
        encoded = [[encode_escapes(c) for c in rep] for rep in reps]
        answer = None
        if reps:
            encoded[0][0] += raw_suffix
            answer = "^".join([reps[0][0] + raw_suffix, *reps[0][1:]])
        self.raw[index] = "~".join("^".join(rep) for rep in encoded)
        self.answer[index] = answer or None

    def line(self, last: int) -> str:
        return "PID|" + "|".join(self.raw.get(i, "") for i in range(1, last + 1))


def make_pid(rng: random.Random, cnp: str) -> tuple[str, dict[int, str | None]]:
    """A synthetic PID line in simopac positions and its per-field answers."""
    b = PidBuilder()
    surname, given = rng.choice(_SURNAMES), rng.choice(_GIVEN)
    city = rng.choice(_CITIES)
    if rng.random() < 0.5:
        b.put(1, [[f"EXT{rng.randrange(10**6):06d}"]])
    b.put(2, [[str(rng.randrange(10**5)), "", "", "SIMOPAC"]])
    if rng.random() < 0.4:
        b.put(3, [[f"ALT{rng.randrange(1000)}"], [f"ALT{rng.randrange(1000)}"]])
    name = [[f"{given[0]}. {surname}"]]
    if rng.random() < 0.3:
        name = [[surname, given, "", "Dr."]]
    b.put(4, name, raw_suffix="\\H\\" if rng.random() < 0.05 else "")
    if rng.random() < 0.8:
        b.put(5, [[rng.choice(_SURNAMES)]])
    century = {"1": 1900, "2": 1900, "5": 2000, "6": 2000}[cnp[0]]
    b.put(6, [[f"{century + int(cnp[1:3])}.{cnp[3:5]}.{cnp[5:7]}"]])
    b.put(7, [["M" if cnp[0] in "15" else "F"]])
    b.put(8, [[rng.choice(("Caucasian", "", "Rroma"))]] if rng.random() < 0.9 else [])
    street = f"{rng.choice(_STREETS)} Nr.{rng.randrange(1, 200)}"
    if rng.random() < 0.5:
        flat = f"Bl.{rng.randrange(1, 300)}{rng.choice(('', '&12', '|B'))}, Ap.{rng.randrange(1, 99)}"
        b.put(9, [[f"{city}, {street} {flat}"]])
    else:
        b.put(9, [[street, "", city, "", f"{rng.randrange(10**5, 10**6)}", "RO"],
                  [f"{street} (corespondenta)", "", city]])
    b.put(10, [["RO"]])
    phones = [[f"07{rng.randrange(10**8):08d}"] for _ in range(rng.randrange(1, 4))]
    b.put(11, phones)
    if rng.random() < 0.6:
        b.put(12, [[f"02{rng.randrange(10**8):08d}"]])
    b.put(13, [["RO"]] if rng.random() < 0.7 else [["ro", "Romana"]])
    b.put(14, [[rng.choice(_MARITAL)]])
    b.put(15, [[rng.choice(_RELIGIONS)]])
    if rng.random() < 0.5:
        b.put(16, [[f"RO{rng.randrange(10, 99)}BTRL{rng.randrange(10**15, 10**16)}"]])
    b.put(17, [[cnp]])
    if rng.random() < 0.5:
        b.put(18, [[f"{rng.choice(('SV', 'IS', 'CJ', 'B'))}{rng.randrange(10**5, 10**6)}"]])
    b.put(20, [[rng.choice(("Roman", "Maghiar", "German", "Ucrainean"))]])
    b.put(21, [[city]])
    b.put(24, [["Romana"]])
    last = 26
    if rng.random() < 0.1:
        last = rng.choice((20, 24))  # short records: trailing getters answer NOK
    else:
        b.put(26, [["Romana"]])
        if rng.random() < 0.3:
            # Free-text tail the portal never reads; it only makes the
            # reply longer.
            words = " ".join(rng.choice(_STREETS) for _ in range(rng.randrange(10, 120)))
            b.put(30, [[f"Note: {words} ~ 5% & 1/2 | end"]])
            last = 30
    return b.line(last), {i: b.answer.get(i) for i in range(1, last + 1)}


@dataclass
class Inputs:
    """The seeded patient table plus CNPs that the HIS does not know."""

    fixtures: dict[str, str]
    absent: list[str]
    answers: dict[str, dict[int, str | None]] = field(default_factory=dict)

    @classmethod
    def generate(cls, seed: int, patients: int = 1000, absent: int = 200) -> "Inputs":
        rng = random.Random(f"fixtures/{seed}")
        fixtures: dict[str, str] = {}
        answers = {}
        while len(fixtures) < patients:
            cnp = cnp_for(rng)
            if cnp in fixtures:
                continue
            fixtures[cnp], answers[cnp] = make_pid(rng, cnp)
        missing: list[str] = []
        while len(missing) < absent:
            cnp = cnp_for(rng)
            if cnp not in fixtures and cnp not in missing:
                missing.append(cnp)
        return cls(fixtures, missing, answers)

    def fixture_bytes(self) -> bytes:
        """The `hl7portal mock --fixtures` file for this table."""
        blocks = [f"cnp={cnp}\n{pid}\n" for cnp, pid in self.fixtures.items()]
        return ("# generated benchmark fixtures\n\n" + "\n".join(blocks)).encode("latin-1")


def parse_fixture_text(text: str) -> dict[str, str]:
    """Read a fixture file: `cnp=<id>` then the PID line, blank-separated."""
    table = {}
    lines = [l for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
    for key, pid in zip(lines[0::2], lines[1::2]):
        table[key.removeprefix("cnp=").strip()] = pid
    return table


# --------------------------------------------------------------- streams


def call(name: str, *args: str) -> bytes:
    return f"{name}({', '.join(args)});\n".encode("latin-1")


class Streams:
    """Per-connection session generators for the three workloads."""

    def __init__(self, inputs: Inputs, data: PortalData, upstream: tuple[str, int]):
        self.inputs = inputs
        self.data = data
        self.upstream = upstream
        self.present = list(inputs.fixtures)

    def sessions(self, workload: str, seed: int, conn: int) -> Iterator[Iterator[Command]]:
        """Endless sessions for one connection.  Each session is generated a
        command at a time as it is consumed, so the load generator never
        stalls a whole session's worth between two replies.  Sessions share
        one RNG, so a session abandoned part-way changes the ones after it."""
        rng = random.Random(f"{workload}/{seed}/{conn}")
        make = {"getters": self._getters, "lookups": self._lookups, "churn": self._churn}[workload]
        while True:
            yield make(rng)

    def _model(self) -> SessionModel:
        return SessionModel(self.data, self.inputs.fixtures)

    def _login(self, rng, model) -> Command:
        host, port = self.upstream
        line = call(rng.choice(LOGIN_NAMES), host, str(port), USER, PASSWORD)
        return Command(LOGIN, line, _line(model.login()))

    def _logout(self, rng, model) -> Command:
        return Command(LOGOUT, call(rng.choice(LOGOUT_NAMES)), _line(model.logout()))

    def _use(self, rng, model, cnp, language, asked) -> Command:
        pid = self.inputs.fixtures.get(cnp)
        known = language in self.data.packs
        lookup = Lookup(
            hit=pid is not None and known,
            unknown_language=not known,
            repeat=known and cnp in asked,
            pid_bytes=len(pid) if pid is not None and known else 0,
        )
        if known:
            asked.add(cnp)
        line = call(rng.choice(USE_PATIENT_NAMES), cnp, language)
        return Command(USE, line, _line(model.use_patient(cnp, language)), lookup)

    def _getter(self, model, canonical, name) -> Command:
        return Command(GETTER, call(name), _line(model.getter(canonical)))

    def _getters(self, rng) -> Iterator[Command]:
        """Login, one usePatient, 200 getters cycling over every spelling."""
        model, asked = self._model(), set()
        yield self._login(rng, model)
        cnp = rng.choice(self.present)
        if rng.random() < 0.05:
            yield self._use(rng, model, cnp, rng.choice(UNKNOWN_LANGUAGES), asked)
        yield self._use(rng, model, cnp, rng.choice(("ro", "en")), asked)
        order = list(GETTER_CALLS)
        rng.shuffle(order)
        offset = rng.randrange(len(order))
        for i in range(200):
            canonical, name = order[(offset + i) % len(order)]
            yield self._getter(model, canonical, name)
        yield self._logout(rng, model)

    def _lookups(self, rng) -> Iterator[Command]:
        """Login, 20 usePatient calls, each hit followed by 2 getters and each
        miss by ultimaEroare.  After the first, a call repeats a CNP already
        asked for in the session with probability 0.2; otherwise 10% of CNPs
        are absent from the HIS.  2% of calls name an unknown language."""
        model, asked = self._model(), set()
        yield self._login(rng, model)
        history: list[str] = []
        for _ in range(20):
            if history and rng.random() < 0.2:
                cnp = rng.choice(history)
            elif rng.random() < 0.10:
                cnp = rng.choice(self.inputs.absent)
            else:
                cnp = rng.choice(self.present)
            history.append(cnp)
            language = rng.choice(("ro", "en"))
            if rng.random() < 0.02:
                language = rng.choice(UNKNOWN_LANGUAGES)
            use = self._use(rng, model, cnp, language, asked)
            yield use
            if use.lookup.hit:
                for _ in range(2):
                    canonical, name = rng.choice(GETTER_CALLS[:-1])
                    yield self._getter(model, canonical, name)
            else:
                yield self._getter(model, "LAST_ERROR", rng.choice(LAST_ERROR_NAMES))
        yield self._logout(rng, model)

    def _churn(self, rng) -> Iterator[Command]:
        """One short session per connection: login, usePatient (5% in an
        unknown language), nume, logout."""
        model, asked = self._model(), set()
        language = rng.choice(("ro", "en"))
        if rng.random() < 0.05:
            language = rng.choice(UNKNOWN_LANGUAGES)
        yield self._login(rng, model)
        yield self._use(rng, model, rng.choice(self.present), language, asked)
        yield self._getter(model, "NAME", "nume")
        yield self._logout(rng, model)


def _line(response: str) -> bytes:
    return response.encode("latin-1") + b"\n"


# ----------------------------------------------------------- statistics


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of sorted samples, or None when fewer than
    ten samples lie beyond it (the sample cannot support that percentile)."""
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return ordered[rank - 1]
