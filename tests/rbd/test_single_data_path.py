"""Keep the data path single.

A scalar read or write is a one-extent batch: ``Image.write`` /
``read_with_receipt`` are shims over ``write_extents`` / ``read_extents``
and an object dispatcher has no per-extent entry of its own.  These checks
fail when the twin comes back — a scalar method on a dispatcher, a body
behind a scalar name, a caller of one — or when the two entries stop
meaning the same thing: receipts, ledger, event traces, stored bytes.
They also pin what only one write path could give a discard: it zeroes
its byte range and nothing else, on every stacking.
"""

import ast
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import api
from repro.encryption.layouts import LAYOUT_NAMES

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

from image_transcript import (BLOCK, IMAGE_SIZE, OBJECT_SIZE,     # noqa: E402
                              POOLS, STACKINGS, build_stacking, make_cluster)

SRC = Path(repro.__file__).resolve().parent
DISPATCHER = SRC / "rbd/dispatcher.py"
CRYPTO = SRC / "encryption/dispatch.py"
#: the scalar names of an image-like class, and where the four classes live
SCALAR_TRIO = ("write", "read", "read_with_receipt")
IMAGE_CLASSES = {"Image": "rbd/image.py", "CachedImage": "cache/image.py",
                 "PwlImage": "pwl/image.py", "LayeredImage": "clone/layered.py"}


# -- (a) structure ------------------------------------------------------------

def _methods(text, class_name):
    node = next(node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ClassDef) and node.name == class_name)
    return {item.name: item for item in node.body
            if isinstance(item, ast.FunctionDef)}


def scalar_dispatcher_calls(text):
    """``<something>dispatcher.write(...)`` / ``.read(...)`` calls."""
    return [ast.unparse(node.func) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write", "read")
            and ast.unparse(node.func.value).endswith("dispatcher")]


def fat_shims(text, class_name, names):
    """Those of ``names`` that are more than a docstring and two statements."""
    fat = []
    methods = _methods(text, class_name)
    for name in names:
        function = methods[name]
        # every statement inside, less the def itself and its docstring
        statements = sum(isinstance(node, ast.stmt)
                         for node in ast.walk(function)) - 2
        if ast.get_docstring(function) is None or statements > 2:
            fat.append(name)
    return fat


def test_a_dispatcher_declares_the_vectored_pair_and_nothing_scalar():
    text = DISPATCHER.read_text()
    assert sorted(_methods(text, "ObjectDispatcher")) == [
        "discard", "flush", "read_extents", "write_extents"]
    for owner, source in (("RawObjectDispatcher", text),
                          ("JournaledCryptoObjectDispatcher",
                           CRYPTO.read_text())):
        assert not {"write", "read"} & set(_methods(source, owner)), owner


def test_nothing_calls_a_scalar_dispatcher_method():
    found = {str(path.relative_to(SRC)): calls
             for path in sorted(SRC.rglob("*.py"))
             if (calls := scalar_dispatcher_calls(path.read_text()))}
    assert found == {}


@pytest.mark.parametrize("class_name", sorted(IMAGE_CLASSES))
def test_the_scalar_names_of_an_image_are_shims(class_name):
    text = (SRC / IMAGE_CLASSES[class_name]).read_text()
    assert fat_shims(text, class_name, SCALAR_TRIO) == []


def test_the_scalar_names_of_the_crypto_dispatcher_are_shims():
    assert fat_shims(CRYPTO.read_text(), "CryptoObjectDispatcher",
                     ("write", "read")) == []


def test_what_only_the_scalar_path_needed_is_gone():
    gone = re.compile(r"\b(ScratchPool|_read_blocks|_journal_write)\b"
                      r"|crypto\.write_batches")
    assert [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
            if gone.search(path.read_text())] == []


def test_the_dispatcher_asks_the_layout_instead_of_its_class():
    tree = ast.parse(CRYPTO.read_text())
    assert [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "layouts"
            for alias in node.names] == ["MetadataLayout"]
    assert [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", "") == "isinstance"
            and "layout" in ast.unparse(node).lower()] == []


def test_structure_checks_catch_a_pasted_back_twin():
    """The checks are live: the old bodies trip them."""
    dispatcher = DISPATCHER.read_text().replace(
        "    def flush(self) -> None:",
        "    def write(self, object_no, offset, data):\n"
        "        raise NotImplementedError\n\n"
        "    def flush(self) -> None:", 1)
    assert "write" in _methods(dispatcher, "ObjectDispatcher")
    image = (SRC / "rbd/image.py").read_text().replace(
        "        return self.write_extents([(offset, data)])\n",
        "        view = as_readonly_view(data)\n"
        "        self.check_io(offset, len(view))\n"
        "        combined = None\n"
        "        for extent in map_extent(offset, len(view), self.object_size):\n"
        "            piece = view[extent.buffer_offset:][:extent.length]\n"
        "            combined = _merge_parallel(combined, self._dispatcher.write(\n"
        "                extent.object_no, extent.offset, piece))\n"
        "        return combined or OpReceipt()\n", 1)
    assert fat_shims(image, "Image", SCALAR_TRIO) == ["write"]
    assert scalar_dispatcher_calls(image) == ["self._dispatcher.write"]


# -- (b) the two entries mean the same ----------------------------------------

KINDS = ([(layout, journaled) for layout in LAYOUT_NAMES
          for journaled in (False, True)] + [("plain", False)])


def _fresh(kind):
    layout, journaled = kind
    cluster = api.make_cluster(osd_count=3)
    cluster.ledger.trace_ops = True
    if layout == "plain":
        return api.create_plain_image(cluster, "img", IMAGE_SIZE,
                                      object_size=OBJECT_SIZE)
    return api.create_encrypted_image(
        cluster, "img", IMAGE_SIZE, b"pw", object_size=OBJECT_SIZE,
        encryption_format=layout, cipher_suite="blake2-xts-sim",
        random_seed=b"one-path", journaled=journaled)[0]


def _scalar(image, verb, offset, arg):
    if verb == "write":
        return None, image.write(offset, arg)
    result = image.read_with_receipt(offset, arg)
    return result.data, result.receipt


def _vectored(image, verb, offset, arg):
    if verb == "write":
        return None, image.write_extents([(offset, arg)])
    pieces, receipt = image.read_extents([(offset, arg)])
    return pieces[0], receipt


def _drive(image, entry, ops):
    """Everything observable about ``ops`` issued through ``entry``."""
    ledger = image.ioctx.cluster.ledger
    outcomes = []
    for verb, offset, length, fill in ops:
        arg = bytes([fill]) * length if verb == "write" else length
        try:
            data, receipt = entry(image, verb, offset, arg)
        except Exception as exc:
            ledger.discard_open_traces()
            outcomes.append((type(exc), str(exc)))
            continue
        ledger.finish_op(receipt)
        outcomes.append((data, receipt.latency_us, receipt.bytes_moved))
    ioctx = image.ioctx
    return {"outcomes": outcomes,
            "counters": list(ledger.counters.items()),
            "resource_us": list(ledger.resource_us.items()),
            "traces": [repr(op) for op in ledger.pop_client_ops()],
            "objects": {name: ioctx.read(name, 0, ioctx.stat(name) or 0).data
                        for name in ioctx.list_objects()}}


#: offsets that are aligned, just off, mid-block, at an object seam and at
#: (or past) the image end; lengths from nothing to more than an object
_OFFSETS = st.one_of(
    st.integers(0, IMAGE_SIZE + BLOCK),
    st.builds(lambda block, delta: block * BLOCK + delta,
              st.integers(0, IMAGE_SIZE // BLOCK),
              st.sampled_from([0, 1, 2172, BLOCK - 1])))
_LENGTHS = st.one_of(
    st.sampled_from([0, 1, BLOCK, BLOCK + 1, 2 * BLOCK, 14728,
                     OBJECT_SIZE + 3 * BLOCK + 5]),
    st.integers(0, 3 * BLOCK))
_OPS = st.lists(st.tuples(st.sampled_from(["write", "write", "read"]),
                          _OFFSETS, _LENGTHS, st.integers(1, 255)),
                min_size=1, max_size=6)


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: "-".join(
    [kind[0]] + ["journaled"] * kind[1]))
@settings(max_examples=20, deadline=None)
@given(ops=_OPS)
def test_scalar_and_one_extent_entries_are_the_same_io(kind, ops):
    scalar = _drive(_fresh(kind), _scalar, ops)
    vectored = _drive(_fresh(kind), _vectored, ops)
    for aspect in scalar:
        assert scalar[aspect] == vectored[aspect], aspect


# -- (c) one read-modify-write read, whatever the entry -----------------------

def test_unaligned_write_reads_head_and_tail_with_one_op():
    image = _fresh(("object-end", False))
    ledger = image.ioctx.cluster.ledger
    image.write(0, bytes(8 * BLOCK))
    for offset, length in ((BLOCK + 100, BLOCK),        # two blocks, one run
                           (96380 - OBJECT_SIZE, 14728)):   # five, two runs
        before = ledger.counter("rados.client_read_ops")
        image.write(offset, b"\x5a" * length)
        assert ledger.counter("rados.client_read_ops") - before == 1


def test_unaligned_write_costs_the_same_through_every_front_end():
    """Object 1 of the transcript geometry has no parent data, so the clone
    adds nothing; a writethrough cache adds its one fixed charge."""
    cost = {}
    for stacking in ("image", "clone", "writethrough"):
        image, _content = build_stacking(api.make_cluster(osd_count=3),
                                         stacking)
        image.write(OBJECT_SIZE, bytes(OBJECT_SIZE))    # something to read
        cost[stacking] = image.write(96380, b"\x5a" * 14728).latency_us
    charge = image.ioctx.cluster.params.cache_hit_cost_us
    assert cost["image"] == cost["clone"]
    assert cost["image"] == pytest.approx(cost["writethrough"] - charge,
                                          abs=1e-9)


# -- (d) a discard zeroes its range and nothing else --------------------------

@pytest.mark.parametrize("layout", LAYOUT_NAMES)
def test_discard_inside_and_across_blocks_is_exact(layout):
    image = _fresh((layout, False))
    image.write(0, b"\xaa" * (4 * BLOCK))
    image.discard(100, 10)
    image.discard(BLOCK + 512, BLOCK)       # a guest with 512-byte sectors
    data = image.read(0, 4 * BLOCK)
    assert data[:BLOCK].count(0) == 10 and not any(data[100:110])
    assert data[BLOCK:].count(0) == BLOCK
    assert not any(data[BLOCK + 512:2 * BLOCK + 512])


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("stacking", STACKINGS)
def test_sector_aligned_discards_conform_to_a_bytearray_oracle(stacking, pool):
    image, content = build_stacking(make_cluster(pool), stacking, pool=pool)
    oracle = bytearray(content)
    rng = random.Random(f"{stacking}/{pool}")
    for _ in range(60):
        roll = rng.random()
        length = rng.randint(1, 48) * 512
        offset = rng.randrange((IMAGE_SIZE - length) // 512) * 512
        if roll < 0.45:
            data = rng.randbytes(length)
            image.write(offset, data)
            oracle[offset:offset + length] = data
        elif roll < 0.75:
            image.discard(offset, length)
            oracle[offset:offset + length] = bytes(length)
        else:
            assert image.read(offset, length) == oracle[offset:offset + length]
    assert image.read(0, IMAGE_SIZE) == oracle


def test_a_clone_discards_the_same_bytes_before_and_after_copyup():
    image, content = build_stacking(api.make_cluster(osd_count=3), "clone")
    oracle = bytearray(content)
    assert any(oracle[100:110]) and any(oracle[300:310])    # parent data
    for offset in (100, 300):       # object 0: backed, then copied up
        image.discard(offset, 10)
        oracle[offset:offset + 10] = bytes(10)
        assert image.read(0, OBJECT_SIZE) == oracle[:OBJECT_SIZE]
