"""Every modelled number, pinned: one sha256 per ``tools/transcript.py``
record in ``tests/golden/transcript.sha256``.

The ``closed/`` lines were written by the legacy closed-loop scheduler
before it was deleted; the rest by the tree that committed them.  After
an intentional model change, rewrite the file with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/tools/test_transcript.py

and name every moved record where the change is described.  A rewrite
happens only while the corpus still reaches what it is for (``REACH``).
"""

import os
import re
import sys
from pathlib import Path

import numpy as np

from repro.sim.reservoir import CLIENT_RESERVOIR_CAPACITY

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

from image_corpus import STACKINGS                      # noqa: E402
from sim_corpus import bench_records, tie_records      # noqa: E402
from transcript import corpus, record_digests, record_texts  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "transcript.sha256"

CLIENT_COUNT = re.compile(rf"^client\[\d+\]: capacity="
                          rf"{CLIENT_RESERVOIR_CAPACITY} count=(\d+) ",
                          flags=re.MULTILINE)
WRITE_BATCH = re.compile(r"\('completion', 'write-batch', \d+\) -> \(")

#: what the corpus is for, each reached by some record: digests rewritten
#: from a corpus that stopped reaching one of these would pin nothing
REACH = {
    "random fleet on the vectorized engine": lambda name, text:
        name.startswith("random/") and text.startswith("engine='vectorized'"),
    "random fleet on the index machine": lambda name, text:
        name.startswith("random/") and text.startswith("engine='compact'"),
    "random fleet with no traced operation": lambda name, text:
        name.startswith("random/")
        and text.startswith("error=ConfigurationError: "),
    "client past the reservoir capacity": lambda name, text: max(
        map(int, CLIENT_COUNT.findall(text)), default=0)
        > CLIENT_RESERVOIR_CAPACITY,
    "pipeline write batch": lambda name, text: bool(WRITE_BATCH.search(text)),
    "cache writeback": lambda name, text: "'cache.writebacks': " in text,
    "cache hit": lambda name, text: "OpTrace(kind='cache-hit'" in text,
    "clone copyup": lambda name, text: "'clone.copyups': " in text,
    "flatten": lambda name, text:
        name.startswith("flatten/") and "'clone.flattens': 1.0" in text,
    "pwl": lambda name, text: "stats=PwlStats(" in text,
}


def _corpus_problems(texts):
    """What no longer holds of the corpus, whatever its digests."""
    unreached = [fact for fact, test in REACH.items()
                 if not any(test(name, text) for name, text in texts.items())]
    not_refused = [name for name, text in texts.items()
                   if name.startswith("invalid/")
                   and not text.startswith("error=ConfigurationError: ")]
    failed = {name for name, text in texts.items()
              if name.startswith(("stack/", "flatten/", "wide/"))
              and "error=" in text}
    refused = {f"wide/{stacking}/past-end" for stacking in STACKINGS}
    problems = []
    if unreached:
        problems.append(f"no record reaches {unreached}")
    if not_refused:
        problems.append(f"invalid inputs accepted: {not_refused}")
    if failed != refused:
        problems.append(f"image records failing {sorted(failed - refused)}, "
                        f"not failing {sorted(refused - failed)}")
    return problems


def test_every_record_matches_its_golden_digest():
    texts = dict(record_texts(corpus()))
    problems = _corpus_problems(texts)
    digests = dict(record_digests(texts.items()))
    if os.environ.get("REPRO_UPDATE_GOLDEN") and not problems:
        GOLDEN.write_text("".join(f"{name} {digest}\n"
                                  for name, digest in digests.items()))
    golden = dict(line.split() for line in GOLDEN.read_text().splitlines())
    moved = [name for name in digests
             if name in golden and digests[name] != golden[name]]
    missing = [name for name in golden if name not in digests]
    extra = [name for name in digests if name not in golden]
    if moved or missing or extra:
        problems.append(
            f"transcript records differ from {GOLDEN.name}: moved {moved}, "
            f"missing {missing}, extra {extra}; diff the text of "
            f"`tools/transcript.py --out` on this tree and on its parent "
            f"(`--src <parent>/src`), and if the change is intentional "
            f"rerun with REPRO_UPDATE_GOLDEN=1")
    assert not problems, "; ".join(problems)


def test_tie_fleets_are_ordered_by_their_tie_breaks(monkeypatch):
    """Every queue sort of every ``ties/`` record has tied runs to repair
    (``lexsort`` runs nowhere else in the engine); the benchmark-shaped
    records have none, which is why the group exists."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda keys: calls.append(len(keys[0]))
                        or lexsort(keys))
    records = [*bench_records(seeds=[1], clients=12, ops_per_client=6),
               *tie_records(count=3, max_clients=10)]
    for name, thunk in records:
        del calls[:]
        assert thunk().startswith("engine='vectorized'\n"), name
        # a replay sorts twice: the primaries, then the OSD queues
        assert len(calls) == (2 if name.startswith("ties/") else 0), name
