"""Keep the image seam closed.

What may be asked of an image is declared once, as
``repro.rbd.wrapper.ImageLike``, and the three front-ends stacked on
``rbd.Image`` share one base, ``ImageWrapper``.  These checks fail when the
seam reopens: a catch-all ``__getattr__`` comes back, a front-end
re-encodes the flush barrier, a member's signature drifts between the
four classes, or a stacking stops behaving like a plain byte array.
"""

import ast
import copy
import inspect
import sys
from pathlib import Path

import pytest

import repro
from repro import api
from repro.cache.image import CachedImage
from repro.clone.layered import LayeredImage
from repro.errors import CloneError
from repro.pwl.image import PwlImage
from repro.rbd.image import Image
from repro.rbd.wrapper import ImageLike, ImageWrapper
from repro.sim.ledger import OpReceipt

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT)]

from image_corpus import (BLOCK, STACKINGS, TAIL_SCRIPT,          # noqa: E402
                          build_stacking, make_script, run_script)
from perf.trace import _IMAGE_METHODS                             # noqa: E402

SRC = Path(repro.__file__).resolve().parent
FRONT_ENDS = {"cache/image.py": CachedImage, "pwl/image.py": PwlImage,
              "clone/layered.py": LayeredImage}
CLASSES = (Image, CachedImage, PwlImage, LayeredImage)
MEMBERS = sorted(name for name in vars(ImageLike)
                 if not name.startswith("_"))


@pytest.fixture(params=STACKINGS)
def stacked(request):
    """``(stacking name, image, its initial content)``"""
    cluster = api.make_cluster(osd_count=3)
    return (request.param,) + build_stacking(cluster, request.param)


def _layers(image):
    """The stack from the top down to the bare ``Image``."""
    while isinstance(image, ImageWrapper):
        yield image
        image = image.image
    yield image


# -- (a) the source: no catch-all, one barrier --------------------------------

def _class(text, name):
    return next(node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ClassDef) and node.name == name)


def _methods(node):
    return {item.name: item for item in node.body
            if isinstance(item, ast.FunctionDef)}


def _calls_super(function, name):
    return f"attr='{name}'" in ast.dump(function) and any(
        isinstance(node, ast.Call) and getattr(node.func, "id", "") == "super"
        for node in ast.walk(function))


def seam_leaks(text, class_name):
    """What a front-end's source says that only the base may say."""
    node = _class(text, class_name)
    methods = _methods(node)
    leaks = [name for name in ("__getattr__", "__getattribute__",
                               "create_snapshot", "protect_snapshot",
                               "_account", "_staged", "image")
             if name in methods]
    if "ImageWrapper" not in [getattr(base, "id", "") for base in node.bases]:
        leaks.append("not an ImageWrapper")
    # The clone layer buffers nothing, so its resize/flatten take no barrier.
    own = ("resize", "flatten") if class_name == "LayeredImage" else ()
    leaks += [f"{name} without super()"
              for name in ("resize", "flatten", "set_read_snapshot")
              if name in methods and name not in own
              and not _calls_super(methods[name], name)]
    return leaks


def test_no_attribute_catch_all_under_the_image_packages():
    found = [str(path.relative_to(SRC))
             for package in ("cache", "pwl", "clone", "rbd")
             for path in sorted((SRC / package).glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)
             and node.name in ("__getattr__", "__getattribute__")]
    assert found == []


@pytest.mark.parametrize("path", sorted(FRONT_ENDS))
def test_front_end_leaves_the_shared_surface_to_the_base(path):
    cls = FRONT_ENDS[path]
    assert seam_leaks((SRC / path).read_text(), cls.__name__) == []
    assert issubclass(cls, ImageWrapper)


def test_seam_checks_catch_a_pasted_back_fork():
    """The checks are live: re-adding the old code trips them."""
    text = (SRC / "pwl/image.py").read_text()
    forked = text + (
        "\n    def __getattr__(self, name):\n"
        "        return getattr(self._image, name)\n"
        "\n    def create_snapshot(self, snap_name):\n"
        "        self.flush()\n"
        "        return self._image.create_snapshot(snap_name)\n"
        "\n    def resize(self, new_size):\n"
        "        self.flush()\n"
        "        self._image.resize(new_size)\n")
    assert seam_leaks(forked, "PwlImage") == [
        "__getattr__", "create_snapshot", "resize without super()"]
    assert seam_leaks(text.replace("(ImageWrapper)", ""), "PwlImage") == [
        "not an ImageWrapper"]


# -- (b) one signature per member, (c) six methods per class ------------------

def test_every_layer_has_every_member_with_the_declared_signature(stacked):
    _name, image, _content = stacked
    for layer in _layers(image):
        for member in MEMBERS:
            declared = inspect.getattr_static(ImageLike, member)
            if isinstance(declared, property):
                getattr(layer, member)          # answers, whatever the value
                continue
            assert (list(inspect.signature(getattr(layer, member)).parameters)
                    == list(inspect.signature(declared).parameters)[1:]), \
                (type(layer).__name__, member)


def test_the_declared_surface_is_the_measured_one():
    assert MEMBERS == sorted(
        ["name", "size", "object_size", "block_size", "ioctx", "dispatcher",
         "read_snapshot_id", "check_io", "set_read_snapshot",
         "set_read_snapshot_id", "write", "read", "read_with_receipt",
         "write_extents", "read_extents", "discard", "flush", "resize",
         "create_snapshot", "protect_snapshot", "flatten"])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_traced_methods_live_in_each_class_own_dict(cls):
    """``perf/trace.py`` patches ``vars(cls)[name]``: an inherited shim
    would put one layer's wall-clock time on another layer's account."""
    assert [name for name in _IMAGE_METHODS if name not in vars(cls)] == []


# -- the surface is total and typed -------------------------------------------

def test_surface_is_total_and_typed(stacked):
    name, image, _content = stacked
    image.write(3 * BLOCK + 5, b"dirty")
    assert type(image.flush()) is OpReceipt
    if not name.endswith("clone"):
        receipt = image.flatten()               # nothing to migrate
        assert (receipt.latency_us, receipt.bytes_moved) == (0.0, 0)
    duplicate = copy.copy(image)
    assert type(duplicate) is type(image)
    assert duplicate.read(3 * BLOCK + 5, 5) == b"dirty"
    # the fault harness's probe for the pwl's ack hook is a plain "no"
    assert hasattr(image, "ack_listener") == isinstance(image, PwlImage)
    if isinstance(image, ImageWrapper):
        with pytest.raises(AttributeError, match=type(image).__name__):
            image.list_snapshots        # undeclared: only the Image has it
        assert list(_layers(image))[-1].list_snapshots() == []


def test_flatten_needs_the_chain_of_a_clone_child():
    cluster = api.make_cluster(osd_count=3)
    build_stacking(cluster, "clone")
    bare = api.open_encrypted_image(cluster, "img", b"img-pw",
                                    cache="writeback")[0]
    with pytest.raises(CloneError, match="open_layered_image"):
        bare.flatten()


# -- (d) every stacking behaves like one byte array ---------------------------

def test_stacking_conforms_to_a_bytearray_oracle(stacked):
    _name, image, content = stacked
    oracle, snapshots, routed = bytearray(content), {}, None
    script = make_script("seam", count=24) + TAIL_SCRIPT
    for op, outcome in run_script(image, script):
        assert not isinstance(outcome, Exception), (op, outcome)
        verb, args = op[0], op[1:]
        if verb == "write":
            oracle[args[0]:args[0] + len(args[1])] = args[1]
        elif verb == "discard":
            oracle[args[0]:args[0] + args[1]] = bytes(args[1])
        elif verb == "snapshot":
            snapshots[args[0]] = bytes(oracle)
        elif verb == "route":
            routed = args[0]
        elif verb == "resize":
            oracle[args[0]:] = bytes(max(0, args[0] - len(oracle)))
        elif verb == "read":
            source = oracle if routed is None else snapshots[routed]
            assert outcome == source[args[0]:args[0] + args[1]], op
    assert image.size == len(oracle)
    assert image.read(0, image.size) == oracle


def test_read_fill_under_a_read_snapshot_comes_from_the_head():
    """``CachedImage(LayeredImage)``: the one path that needs
    ``set_read_snapshot_id`` forwarded through a wrapper."""
    cluster = api.make_cluster(osd_count=3)
    image, _content = build_stacking(cluster, "writeback-over-clone")
    image.write(5 * BLOCK, b"S" * BLOCK)
    image.create_snapshot("s")
    image.write(5 * BLOCK, b"C" * BLOCK)
    image.flush()
    image.invalidate()
    image.set_read_snapshot("s")
    image.write(5 * BLOCK + 2, b"x" * 10)       # read-fills the other bytes
    assert image.read(5 * BLOCK, 14) == b"S" * 14
    image.set_read_snapshot(None)
    assert image.read(5 * BLOCK, 14) == b"CCxxxxxxxxxxCC"
    assert image.stats.fill_reads == 1
