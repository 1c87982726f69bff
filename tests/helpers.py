"""Shared test builders: the demo patient record and random HL7 content."""

import random
import string
from pathlib import Path

from hl7portal.er7 import EncodingChars, Hl7Message, Hl7Segment, encode_escapes

# Demo patient record used throughout the suite, CNP 1750916334996.  Field
# layout follows the simopac-style upstream: name at 4, mother's maiden
# name at 5, birth date at 6, CNP at 17, no value at 18.
PATIENT_CNP = "1750916334996"
PATIENT_PID = (
    "PID||||C. Marius|Timpau|1975.09.16|M|Caucasian"
    "|Suceava, Jupiter Nr.1 Bl.121, Sc.B Ap.10|RO|0230420066|0720033743|RO"
    "|Necasatorit|Crestin Ortodox||1750916334996|||Roman|Suceava|||Romana||Romana|"
)

# Deliberately includes the default separators and one non-ASCII letter so
# escaping and the latin-1 byte carriage get exercised.
VALUE_CHARS = string.ascii_letters + string.digits + " .,-|^~\\&é"

BODY_NAMES = ("PID", "EVN", "OBR", "OBX", "ORC", "PV1", "NTE", "ZDS", "QAK")

SEPARATOR_POOL = "|^~\\&!#$%*+/:;=?@"


def random_value(rng: random.Random, max_len: int = 12) -> str:
    return "".join(rng.choice(VALUE_CHARS) for _ in range(rng.randint(0, max_len)))


def random_field(rng: random.Random):
    reps = []
    for _ in range(rng.choice((1, 1, 1, 2))):
        comps = []
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            comps.append(tuple(random_value(rng) for _ in range(rng.choice((1, 1, 2)))))
        reps.append(tuple(comps))
    return tuple(reps)


def random_encoding(rng: random.Random) -> EncodingChars:
    if rng.random() < 0.5:
        return EncodingChars()
    return EncodingChars(*rng.sample(SEPARATOR_POOL, 5))


def make_language(
    directory,
    code: str,
    name: str | None = None,
    files_not_found: str = "files not found",
    none: str = "none",
    not_present: str = "not present",
    lexicons: dict[str, str] | None = None,
    encoding: str = "utf-8",
    register: bool = True,
):
    """Drop a language's files into a pack directory.

    ``lexicons`` maps a file stem ("PID", "MSH-MessageType", ...) to its
    text content.  With register=True the code is appended to
    languages.txt (created if needed).
    """
    directory = Path(directory)
    specials = {
        "-files not found-": files_not_found,
        "-none-": none,
        "-not present-": not_present,
    }
    for stem, content in specials.items():
        (directory / f"{stem}.{code}").write_bytes(f"{content}\n".encode(encoding))
    for stem, content in (lexicons or {}).items():
        (directory / f"{stem}.{code}").write_bytes(content.encode(encoding))
    if register:
        index = directory / "languages.txt"
        existing = index.read_bytes() if index.exists() else b""
        line = f"{name or code.upper()} ({code})\n".encode(encoding)
        index.write_bytes(existing + line)


def field_token(tree, enc: EncodingChars) -> str:
    """Reference ER7 token of a field tree: each subcomponent escaped, then
    joined by the subcomponent, component and repetition separators."""
    return enc.repetition_sep.join(
        enc.component_sep.join(
            enc.subcomponent_sep.join(encode_escapes(sub, enc) for sub in comp)
            for comp in rep
        )
        for rep in tree
    )


def random_trees(rng: random.Random):
    """A random encoding and segments as (name, field trees).  An MSH head's
    first two trees hold its separator and encoding characters verbatim."""
    enc = random_encoding(rng)
    segments = []
    if rng.random() < 0.7:
        msh_2 = enc.component_sep + enc.repetition_sep + enc.escape_char + enc.subcomponent_sep
        trees = [(((enc.field_sep,),),), (((msh_2,),),)]
        trees.extend(random_field(rng) for _ in range(rng.randint(0, 6)))
        segments.append(("MSH", trees))
    else:
        # Without an MSH head the parser assumes the default separators.
        enc = EncodingChars()
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(BODY_NAMES)
        segments.append((name, [random_field(rng) for _ in range(rng.randint(1, 8))]))
    return enc, segments


def message_from_trees(enc: EncodingChars, segments) -> Hl7Message:
    """Token segments built from ``random_trees`` output."""
    return Hl7Message(
        tuple(
            Hl7Segment(
                name,
                [tree[0][0][0] if name == "MSH" and k < 2 else field_token(tree, enc)
                 for k, tree in enumerate(trees)],
                enc,
            )
            for name, trees in segments
        ),
        enc,
    )


def random_message(rng: random.Random) -> Hl7Message:
    """A structurally valid random message; parse/serialize safe."""
    return message_from_trees(*random_trees(rng))


def trimmed(segments):
    """(name, fields) of each segment as a parse of its serialization reads
    them: trailing empty fields dropped."""
    out = []
    for name, trees in segments:
        trees = list(trees)
        while trees and trees[-1] == ((("",),),):
            trees.pop()
        out.append((name, tuple(trees)))
    return out
