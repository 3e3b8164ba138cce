#!/usr/bin/env python3
"""Full-precision transcript of every modelled number, one record per
seeded input.

Every modelled number of the reproduction is a bit-identical contract:
receipts, ledger counters, busy times, op traces, ciphertext digests and
every simulator result field.  A record is a name and a thunk returning
its text, all of it in ``repr``; ``tests/golden/transcript.sha256`` holds
one ``name sha256`` line per record and ``tests/tools/test_transcript.py``
names each record that moved, went missing or appeared.  To see how a
record moved, write the transcript of both trees and diff them::

    python tools/transcript.py --src <other-tree>/src --out a.txt
    python tools/transcript.py --out b.txt
    diff a.txt b.txt

``--src`` names the ``src/`` directory whose ``repro`` package is driven
(default: the one next to this file).  The records come from
``image_corpus.py`` (``stack/``, ``flatten/``, ``wide/``) and
``sim_corpus.py`` (``bench/``, ``random/``, ``ties/``, ``invalid/``,
``closed/``, ``runner/``), both next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, Tuple

#: a record: its name and a thunk returning its text
Record = Tuple[str, Callable[[], str]]


def error_text(exc: Exception) -> str:
    """How an exception reads where a record, or one step of it, raised."""
    return f"error={type(exc).__name__}: {exc}"


def record_text(thunk: Callable[[], str]) -> str:
    """Run one record; its text, or the exception it raised as text."""
    try:
        with warnings.catch_warnings():
            # invalid inputs make numpy warn on trees that accept them
            warnings.simplefilter("ignore")
            return thunk()
    except Exception as exc:    # the outcome *is* the record
        return error_text(exc) + "\n"


def record_texts(records: Iterable[Record]) -> Iterator[Tuple[str, str]]:
    """``(name, text)`` of every record, run in order."""
    for name, thunk in records:
        yield name, record_text(thunk)


def write_transcript(out: TextIO, records: Iterable[Record]) -> int:
    """Run every record and write it under its ``== name ==`` line;
    returns the record count."""
    count = 0
    for name, text in record_texts(records):
        out.write(f"== {name} ==\n{text}")
        count += 1
    return count


def record_digests(texts: Iterable[Tuple[str, str]]
                   ) -> Iterator[Tuple[str, str]]:
    """``(name, sha256 of the text)``: one golden line per record."""
    for name, text in texts:
        yield name, hashlib.sha256(text.encode()).hexdigest()


def corpus() -> Iterator[Record]:
    """Every record, in the golden's order."""
    import image_corpus
    import sim_corpus

    yield from image_corpus.records()
    yield from sim_corpus.records()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("--src", metavar="DIR",
                        default=str(Path(__file__).resolve().parents[1]
                                    / "src"),
                        help="src/ directory of the tree to drive "
                             "(default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    with open(args.out, "w", encoding="utf-8") as out:
        count = write_transcript(out, corpus())
    print(f"{count} records -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
