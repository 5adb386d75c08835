"""The benchmark's layer tracer finds every ``repro`` attribute it patches.

``perfbench.layers`` wraps functions and methods of the serving and
client layers from outside ``src/``, by attribute name.  A rename in
``src/`` that drops one of those names would otherwise surface only
when the benchmark runs traced (``perfbench/run.py --trace 1``);
installing, exercising and undoing every patch here fails the test
suite instead.
"""

from __future__ import annotations

from perfbench.layers import install_client, install_server
from perfbench.tracing import Patcher, Tracer
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.xpath.parser import parse_query
from tests.xpath.test_evaluator import paper_documents


def test_layer_patches_install_trace_and_undo():
    tracer, patcher = Tracer(), Patcher()
    try:
        install_server(tracer, patcher)
        install_client(tracer, patcher)
        patched = list(patcher._saved)
        server = BroadcastServer(DocumentStore(paper_documents()))
        server.submit(parse_query("/a/b"), 0)
        cycle = server.build_cycle()
        assert cycle is not None
        assert cycle.pci.lookup(parse_query("/a/b")).doc_ids
    finally:
        patcher.undo()

    assert {
        "broadcast.build_cycle",
        "broadcast.submit",
        "index.ci_for",
        "index.prune_to_pci",
        "index.pack_index",
        "index.split_two_tier",
        "index.lookup_with_nfa",
    } <= set(tracer.summary())
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
