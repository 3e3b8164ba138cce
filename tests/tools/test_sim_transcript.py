"""tools/sim_transcript.py: the transcript is a pure function of the tree."""

import io
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from sim_transcript import corpus, write_transcript


#: 1 seed x {write, read} x {1, 4 shards}, the random fleets, the tie
#: fleets x {1, 4 shards}, 9 malformed inputs + 7 cost columns x 3 values,
#: (4 historical + 6 random closed loops) x {untraced, traced}, one layout
#: and pattern of the runner group: {scalar, batched} x 3 caches x 5 modes
#: x {run, x1, x3} + 3 captures
RECORDS = (4 + 14 + 3 * 2 + (9 + 7 * 3) + (4 + 6) * 2
           + (2 * 3 * 5 * 3 + 3))


def _tiny_transcript() -> str:
    out = io.StringIO()
    count = write_transcript(out, corpus(seeds=[1], clients=12,
                                         ops_per_client=6, random_fleets=14,
                                         max_clients=10, tie_fleets=3,
                                         closed_fleets=6,
                                         runner_layouts=["object-end"],
                                         runner_patterns=["randrw"]))
    assert count == RECORDS
    return out.getvalue()


def test_tiny_corpus_written_twice_is_byte_identical():
    text = _tiny_transcript()
    assert text == _tiny_transcript()

    records = dict(chunk.split(" ==\n", 1)
                   for chunk in text.split("== ")[1:])
    assert len(records) == RECORDS
    assert records["bench/seed1/randwrite/shards1"].startswith(
        "engine='vectorized'\n")
    assert "client[11]: capacity=1024 count=6 " in records[
        "bench/seed1/randread/shards4"]
    # the corpus reaches both engines, the reservoir RNG and the typed
    # "no operation at all" error
    engines = {body.split("\n", 1)[0] for name, body in records.items()
               if name.startswith("random/")}
    assert {"engine='vectorized'", "engine='compact'"} <= engines
    populations = re.findall(r"^client\[\d+\]: capacity=1024 count=(\d+) ",
                             text, flags=re.MULTILINE)
    assert max(map(int, populations)) > 1024
    assert records["random/011"].startswith("error=ConfigurationError: ")
    for name, body in records.items():
        if name.startswith("invalid/"):
            assert body.startswith("error=ConfigurationError: "), name
        if name.startswith("ties/"):
            assert body.startswith("engine='vectorized'\n"), name
    assert "visit_push_us" in records["invalid/cost-push_us-negative"]


def test_tie_fleets_are_ordered_by_their_tie_breaks(monkeypatch):
    """Every queue sort of every ``ties/`` record has tied runs to repair
    (``lexsort`` runs nowhere else in the engine); the benchmark-shaped
    records have none, which is why the group exists."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda keys: calls.append(len(keys[0]))
                        or lexsort(keys))
    for name, thunk in corpus(seeds=[1], clients=12, ops_per_client=6,
                              random_fleets=0, max_clients=10, tie_fleets=3):
        if name.endswith("/shards1"):
            del calls[:]
            assert thunk().engine == "vectorized"
            # one shard sorts twice: the primaries, then the OSD queues
            assert len(calls) == (2 if name.startswith("ties/") else 0), name
