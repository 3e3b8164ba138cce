"""tools/image_transcript.py: the transcript is a pure function of the tree."""

import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from image_transcript import DRIVERS, corpus, write_transcript


def _tiny_transcript() -> str:
    out = io.StringIO()
    count = write_transcript(out, corpus(
        stackings=("writeback-over-clone", "pwl"), layouts=("omap",),
        pools=("rbd", "ec42"), drivers=DRIVERS, script_ops=8))
    # 2 stackings x 1 layout x 2 pools x 2 drivers x {stack, flatten},
    # then 2 stackings x {in-bounds, past-end}
    assert count == 16 + 4
    return out.getvalue()


def test_tiny_corpus_written_twice_is_byte_identical():
    text = _tiny_transcript()
    assert text == _tiny_transcript()

    records = dict(chunk.split(" ==\n", 1)
                   for chunk in text.split("== ")[1:])
    assert len(records) == 16 + 4
    # nothing fails but the writes that must be refused
    failed = {name for name, body in records.items() if "error=" in body}
    assert failed == {"wide/writeback-over-clone/past-end",
                      "wide/pwl/past-end"}
    assert records["wide/pwl/past-end"].count("error=RbdError: ") == 3
    assert records["wide/pwl/past-end"].count(
        "recover -> 'pwl recovery: replayed 1 record(s)") == 3
    # the corpus reaches what it is for: both drivers, EC stripes, a real
    # flatten, and every front-end's own counters
    stack = records["stack/writeback-over-clone/omap/ec42/pipeline8"]
    assert re.search(r"\('completion', 'write-batch', \d+\) -> \(", stack)
    assert "'cache.writebacks': " in stack and "'clone.copyups': " in stack
    assert "OpTrace(kind='cache-hit'" in stack and "stats=CacheStats(" in stack
    assert "pipeline.stats=PipelineStats(" in stack
    assert "'clone.flattens': 1.0" in records[
        "flatten/writeback-over-clone/omap/ec42/pipeline8"]
    assert "stats=PwlStats(" in records["stack/pwl/omap/rbd/scalar"]
    assert "('flatten',) -> (0.0, 0)" in records["flatten/pwl/omap/rbd/scalar"]
