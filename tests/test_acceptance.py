"""End-to-end contract checks, one test per shipped guarantee.

Each test is tagged with an `acceptance` marker; conftest echoes a
PASS/FAIL line per criterion in the terminal summary.  Time budgets are
asserted inside the tests themselves.
"""

import contextlib
import random
import shutil
import socket
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from helpers import PATIENT_CNP, PATIENT_PID, message_from_trees, random_trees, trimmed
from hl7portal.er7 import (
    DEFAULT_ENCODING,
    Hl7Segment,
    encode_escapes,
    parse_message,
    parse_segment,
    serialize_message,
    serialize_segment,
)
from hl7portal.interpreter import (
    interpret_segment,
    load_mapping,
    mapping_path,
    packaged_languages_dir,
)
from hl7portal.lexicon import load_registry
from hl7portal.mllp import Deframer, frame
from hl7portal.mockserver import GARBAGE, SILENT, MockHl7Server, PatientFixture
from hl7portal.server import PortalServer, ServerConfig
from test_server import Client, read_records


@contextlib.contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"over the {seconds}s budget: {elapsed:.2f}s"


def cli_client(port: int, script: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "hl7portal",
            "client",
            "--port",
            str(port),
            "--script",
            str(script),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def finish(proc: subprocess.Popen) -> bytes:
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode(errors="replace")
    return out


def replay(port: int, commands: list[str], script: Path) -> bytes:
    script.write_text("\n".join(commands) + "\n", encoding="utf-8")
    return finish(cli_client(port, script))


def transcript(pairs: list[tuple[str, str]]) -> bytes:
    return b"".join(f"{cmd} -> {resp}\n".encode("utf-8") for cmd, resp in pairs)


def portal_config(tmp_path: Path, **overrides) -> ServerConfig:
    settings = dict(
        listen_port=0,
        host="127.0.0.1",
        log_path=tmp_path / "events.log",
        upstream_timeout_ms=3000,
    )
    settings.update(overrides)
    return ServerConfig(**settings)


GOLDEN_RO = [
    ("nume();", "C. Marius"),
    ("numeFataMama();", "Timpau"),
    ("dataNasterii();", "1975.09.16"),
    ("sex();", "M"),
    ("codNumericPersonal();", "1750916334996"),
    ("serieCarteIdentitate();", "NOK"),
    ("ultimaEroare();", "Nu exista date."),
]

GOLDEN_EN = [
    ("getName();", "C. Marius"),
    ("getMotherMaidenName();", "Timpau"),
    ("getDateOfBirth();", "1975.09.16"),
    ("getSex();", "M"),
    ("getCNP();", "1750916334996"),
    ("getDriversLicenseNumber();", "NOK"),
    ("getLastError();", "No data available."),
]

ALL_GETTERS = [
    "idExternPacient();",
    "idInternPacient();",
    "idAlternativPacient();",
    "nume();",
    "numeFataMama();",
    "dataNasterii();",
    "sex();",
    "rasa();",
    "adresa();",
    "codulTarii();",
    "numarTelefon();",
    "numarTelefonServicii();",
    "limbaNatala();",
    "stareCivila();",
    "religie();",
    "numarContBancar();",
    "codNumericPersonal();",
    "serieCarteIdentitate();",
    "minoritateaEtnica();",
    "loculNasterii();",
    "cetatenie();",
    "nationalitate();",
]


@pytest.mark.acceptance("1. golden Romanian session replay")
def test_golden_romanian_session(tmp_path):
    with budget(5):
        fixture = PatientFixture(PATIENT_CNP, PATIENT_PID)
        with MockHl7Server(fixtures=[fixture], user="portal", password="secret") as mock:
            with PortalServer(portal_config(tmp_path)) as portal:
                connect = f"conectare(127.0.0.1, {mock.port}, portal, secret);"
                use = f"utilizarePacient({PATIENT_CNP}, ro);"
                commands = [connect, use] + [cmd for cmd, _ in GOLDEN_RO]
                out = replay(portal.port, commands, tmp_path / "golden.txt")
        expected = transcript([(connect, "OK"), (use, "OK")] + GOLDEN_RO)
        assert out == expected


@pytest.mark.acceptance("2. English alias parity")
def test_english_alias_parity(tmp_path):
    with budget(5):
        fixture = PatientFixture(PATIENT_CNP, PATIENT_PID)
        with MockHl7Server(fixtures=[fixture], user="portal", password="secret") as mock:
            with PortalServer(portal_config(tmp_path)) as portal:
                connect = f"login(127.0.0.1, {mock.port}, portal, secret);"
                use = f"usePatient({PATIENT_CNP}, en);"
                commands = [connect, use] + [cmd for cmd, _ in GOLDEN_EN]
                out = replay(portal.port, commands, tmp_path / "golden-en.txt")
        assert out == transcript([(connect, "OK"), (use, "OK")] + GOLDEN_EN)
        # Same data values and NOK positions as the Romanian run; only the
        # final error text is pack-specific.
        ro_responses = [resp for _, resp in GOLDEN_RO]
        en_responses = [resp for _, resp in GOLDEN_EN]
        assert en_responses[:-1] == ro_responses[:-1]
        assert [r == "NOK" for r in en_responses] == [r == "NOK" for r in ro_responses]


@pytest.mark.acceptance("3. message round-trip and value embedding properties")
def test_parser_round_trip_properties():
    with budget(30):
        rng = random.Random(0xE57)
        for _ in range(1000):
            enc, segments = random_trees(rng)
            back = parse_message(serialize_message(message_from_trees(enc, segments)))
            assert [(seg.name, seg.fields) for seg in back.segments] == trimmed(segments)
        printable = [chr(i) for i in range(0x20, 0x7F)]
        for _ in range(1000):
            value = "".join(
                rng.choice(printable) for _ in range(rng.randint(0, 40))
            )
            # The guard field keeps an empty value out of the trailing
            # position, where serialization would (by design) drop it.
            line = serialize_segment(Hl7Segment("ZZT", (encode_escapes(value), "guard")))
            assert parse_segment(line).field_text(1) == value


@pytest.mark.acceptance("4. framing invariant under chunk partitions")
def test_deframing_is_chunking_invariant():
    with budget(30):
        rng = random.Random(0xF7A)
        alphabet = bytes(b for b in range(256) if b not in (0x0B, 0x1C))

        def random_chunks(stream: bytes) -> list[bytes]:
            chunks, i = [], 0
            while i < len(stream):
                step = rng.randint(1, 7)
                chunks.append(stream[i : i + step])
                i += step
            return chunks

        for _ in range(200):
            payloads = [
                bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
                for _ in range(rng.randint(1, 4))
            ]
            stream = b"".join(frame(p) for p in payloads)
            partitions = [
                [stream],
                [stream[i : i + 1] for i in range(len(stream))],
                random_chunks(stream),
            ]
            for chunks in partitions:
                deframer = Deframer()
                recovered = []
                for chunk in chunks:
                    recovered.extend(deframer.feed(chunk))
                assert recovered == payloads


def numbered_patient(i: int, cnp: str) -> str:
    return (
        f"PID||||Pacient {i:02d}|Mama {i:02d}|1975.09.{i % 28 + 1:02d}|M|Caucasian"
        f"|Strada Exemplu Nr.{i}|RO|02304200{i:02d}|07200337{i:02d}|RO"
        f"|Necasatorit|Crestin Ortodox||{cnp}|||Roman|Suceava|||Romana||Romana"
    )


@pytest.mark.acceptance("5. fifty concurrent clients, isolated transcripts")
def test_concurrent_clients_match_solo_runs(tmp_path):
    with budget(60):
        rng = random.Random(0x32C)
        cnps = [str(2_750_916_000_000 + i) for i in range(50)]
        fixtures = [
            PatientFixture(cnp, numbered_patient(i, cnp))
            for i, cnp in enumerate(cnps)
        ]
        with MockHl7Server(fixtures=fixtures, user="portal", password="secret") as mock:
            scripts = []
            for i, cnp in enumerate(cnps):
                commands = [
                    f"conectare(127.0.0.1, {mock.port}, portal, secret);",
                    f"utilizarePacient({cnp}, {rng.choice(['ro', 'en'])});",
                    *ALL_GETTERS,
                    "ultimaEroare();",
                    "deconectare();",
                ]
                script = tmp_path / f"client{i:02d}.txt"
                script.write_text("\n".join(commands) + "\n")
                scripts.append(script)

            solo_log = tmp_path / "solo.log"
            with PortalServer(portal_config(tmp_path, log_path=solo_log)) as solo:
                solo_runs = [finish(cli_client(solo.port, s)) for s in scripts]

            shared_log = tmp_path / "shared.log"
            with PortalServer(portal_config(tmp_path, log_path=shared_log)) as shared:
                procs = [cli_client(shared.port, s) for s in scripts]
                concurrent_runs = [finish(p) for p in procs]

        assert concurrent_runs == solo_runs
        assert len(set(concurrent_runs)) == 50  # patient-specific transcripts

        records = read_records(shared_log)
        assert sum(r[1] == "CONNECT" for r in records) == 50
        assert sum(r[1] == "DISCONNECT" for r in records) == 50
        received = Counter(sid for sid, direction, _ in records if direction == "RECV")
        sent = Counter(sid for sid, direction, _ in records if direction == "SEND")
        assert received == sent
        assert len(received) == 50


FR_FILES = {
    "-files not found-.fr": "Dossiers HL7 non trouvés! Veuillez choisir une autre langue!",
    "-none-.fr": "Aucun",
    "-not present-.fr": "Pas présent",
    "PID.fr": "4=Nom\n5=Nom de jeune fille de la mère\n17=Code numérique personnel",
}


@pytest.mark.acceptance("6. adding a French pack to a running portal")
def test_add_language_while_running(tmp_path):
    with budget(5):
        languages = tmp_path / "languages"
        shutil.copytree(packaged_languages_dir(), languages)
        fixture = PatientFixture(PATIENT_CNP, PATIENT_PID)
        with MockHl7Server(fixtures=[fixture]) as mock:
            config = portal_config(tmp_path, languages_dir=languages)
            with PortalServer(config) as portal:
                connect = f"conectare(127.0.0.1, {mock.port}, x, y);"
                use_fr = f"utilizarePacient({PATIENT_CNP}, fr);"

                before = replay(
                    portal.port, [connect, use_fr], tmp_path / "before.txt"
                )
                assert before.endswith(b"-> NOK\n")  # fr does not exist yet

                for name, content in FR_FILES.items():
                    (languages / name).write_text(content + "\n", encoding="utf-8")
                with (languages / "languages.txt").open("a", encoding="utf-8") as f:
                    f.write("Français (fr)\n")
                portal.reload_languages()

                after = replay(
                    portal.port,
                    [connect, use_fr, "serieCarteIdentitate();", "ultimaEroare();"],
                    tmp_path / "after.txt",
                )
        expected = (
            transcript([(connect, "OK"), (use_fr, "OK"), ("serieCarteIdentitate();", "NOK")])
            + "ultimaEroare(); -> Pas présent\n".encode("utf-8")
        )
        assert after == expected

        # A segment with no fr lexicon file renders as the files-not-found
        # notice, byte-identical to the authored French text.
        pack = load_registry(languages).packs["fr"]
        lines = interpret_segment(parse_segment("EVN|A01|20260814101500"), pack)
        assert lines == [pack.files_not_found]
        assert lines[0].encode("latin-1") == (
            "Dossiers HL7 non trouvés! Veuillez choisir une autre langue!".encode("utf-8")
        )


@pytest.mark.acceptance("7. failure paths answer NOK without crashing")
def test_failure_paths(tmp_path):
    with budget(30):
        # Unresponsive upstream: NOK within the configured timeout plus 1s.
        with MockHl7Server(misbehave=SILENT) as silent:
            config = portal_config(tmp_path, upstream_timeout_ms=1000)
            with PortalServer(config) as portal:
                client = Client(portal.port)
                try:
                    assert client.ask(f"conectare(127.0.0.1, {silent.port}, x, y);") == b"OK"
                    start = time.monotonic()
                    assert client.ask(f"utilizarePacient({PATIENT_CNP}, ro);") == b"NOK"
                    assert time.monotonic() - start < 1.0 + 1.0
                finally:
                    client.close()

        # Closed upstream port: the connect command itself fails.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with PortalServer(portal_config(tmp_path, log_path=tmp_path / "l2")) as portal:
            client = Client(portal.port)
            try:
                assert client.ask(f"conectare(127.0.0.1, {dead_port}, x, y);") == b"NOK"
            finally:
                client.close()

        # Garbage upstream: NOK, and the session keeps answering.
        with MockHl7Server(misbehave=GARBAGE) as garbage:
            with PortalServer(portal_config(tmp_path, log_path=tmp_path / "l3")) as portal:
                client = Client(portal.port)
                try:
                    assert client.ask(f"conectare(127.0.0.1, {garbage.port}, x, y);") == b"OK"
                    assert client.ask(f"utilizarePacient({PATIENT_CNP}, ro);") == b"NOK"
                    assert client.ask("ultimaEroare();") == "Nu exista date.".encode()
                    assert client.ask("nume();") == b"NOK"
                finally:
                    client.close()


def reauthored_at_standard_positions() -> str:
    """Move each mapped value from its simopac slot to its v2.3.1 slot."""
    source = parse_segment(PATIENT_PID)
    simopac = load_mapping(mapping_path("simopac"))
    standard = load_mapping(mapping_path("standard"))
    fields = [""] * max(index for _, index in standard.values())
    for getter, (_, source_index) in simopac.items():
        _, target_index = standard[getter]
        fields[target_index - 1] = source.field_text(source_index)
    return "PID|" + "|".join(fields)


@pytest.mark.acceptance("8. standard-position mapping yields identical values")
def test_standard_mapping_reproduces_values(tmp_path):
    with budget(5):
        fixture = PatientFixture(PATIENT_CNP, reauthored_at_standard_positions())
        with MockHl7Server(fixtures=[fixture], user="portal", password="secret") as mock:
            config = portal_config(tmp_path, mapping_selector="standard")
            with PortalServer(config) as portal:
                connect = f"conectare(127.0.0.1, {mock.port}, portal, secret);"
                use = f"utilizarePacient({PATIENT_CNP}, ro);"
                commands = [connect, use] + [cmd for cmd, _ in GOLDEN_RO]
                out = replay(portal.port, commands, tmp_path / "standard.txt")
        assert out == transcript([(connect, "OK"), (use, "OK")] + GOLDEN_RO)
