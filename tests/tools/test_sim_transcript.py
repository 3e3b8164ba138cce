"""tools/sim_transcript.py: the transcript is a pure function of the tree."""

import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from sim_transcript import corpus, write_transcript


def _tiny_transcript() -> str:
    out = io.StringIO()
    count = write_transcript(out, corpus(seeds=[1], clients=12,
                                         ops_per_client=6, random_fleets=14,
                                         max_clients=10))
    # 1 seed x {write, read} x {1, 4 shards}, the random fleets, 9 rejects
    assert count == 4 + 14 + 9
    return out.getvalue()


def test_tiny_corpus_written_twice_is_byte_identical():
    text = _tiny_transcript()
    assert text == _tiny_transcript()

    records = dict(chunk.split(" ==\n", 1)
                   for chunk in text.split("== ")[1:])
    assert len(records) == 4 + 14 + 9
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
