"""Keep the pool-backend seam closed.

How a pool lays an object out across OSDs is decided behind
``repro.rados.backend`` / ``repro.rados.ec_backend`` and selected by
``Pool.backend`` polymorphism.  These checks fail when the decision leaks
back out: erasure-coding knowledge in the client, an ``is_ec`` test
outside the pool classes, or a forked copy of the retry loop.
"""

import ast
import re
from pathlib import Path

import repro
from repro.rados import Cluster, ClusterConfig, EcPool, Pool
from repro.rados.backend import PoolBackend, ReplicatedBackend
from repro.rados.ec_backend import EcBackend

SRC = Path(repro.__file__).resolve().parent
RADOS = SRC / "rados"


def _imports(text, package="repro.rados"):
    """Dotted names a module of ``package`` imports (relative ones
    resolved)."""
    parts = package.split(".")
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) - node.level + 1] if node.level else []
            base = ".".join(base + ([node.module] if node.module else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def client_leaks(text):
    """Erasure-coding knowledge found in the client module's source."""
    leaks = [name for name in sorted(_imports(text))
             if name.startswith(("repro.rados.ec.", "repro.rados.ec_backend"))
             or name == "repro.rados.ec"]
    return leaks + [word for word in (r"_ec(_|\b)", "EcPool", "ec_codec",
                                      r"\bis_ec\b")
                    if re.search(word, text)]


def _retry_loops(text):
    return [node for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.For, ast.comprehension))
            and "retry_max_attempts" in ast.dump(node.iter)]


CLIENT = (RADOS / "client.py").read_text()


def test_client_knows_nothing_about_erasure_coding():
    assert client_leaks(CLIENT) == []


def test_seam_checks_catch_a_pasted_back_ec_fork():
    """The checks are live: re-adding the old fork trips them."""
    forked = (CLIENT.replace("from .cluster import",
                             "from .ec import ec_codec\nfrom .cluster import")
              + "\n    def _operate_write_ec(self, name, txn, hint):\n"
                "        for attempt in range(1, params.retry_max_attempts + 1):\n"
                "            pass\n")
    assert client_leaks(forked) == ["repro.rados.ec", "repro.rados.ec.ec_codec",
                                    r"_ec(_|\b)", "ec_codec"]
    assert len(_retry_loops(forked)) == len(_retry_loops(CLIENT)) + 1 == 3


def test_is_ec_is_read_only_by_the_pool_classes():
    readers = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
               if re.search(r"\bis_ec\b", path.read_text())]
    assert readers == ["rados/cluster.py"]


def test_one_write_retry_loop_and_one_read_retry_loop():
    loops = {str(path.relative_to(SRC)): len(_retry_loops(path.read_text()))
             for path in sorted(RADOS.glob("*.py"))}
    assert {name: count for name, count in loops.items() if count} \
        == {"rados/client.py": 2}


def test_backend_is_chosen_by_pool_polymorphism():
    cluster = Cluster(ClusterConfig(osd_count=6))
    ec_pool = cluster.create_pool("ec", ec=(4, 2))
    assert isinstance(ec_pool, EcPool)
    assert type(ec_pool.backend(cluster)) is EcBackend
    assert type(cluster.get_pool("rbd").backend(cluster)) is ReplicatedBackend
    assert "backend" in vars(Pool) and "backend" in vars(EcPool)
    # Each layout implements the whole interface itself.
    for backend in (ReplicatedBackend, EcBackend):
        for method in ("prepare_write", "dispatch_write", "read", "_rebuild",
                       "_scrub_begin", "_scrub_member"):
            assert method in vars(backend), (backend.__name__, method)
            assert method in vars(PoolBackend)
