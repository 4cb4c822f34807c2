"""Per-layer metrics of a traced run (``--trace 1``).

The traced phase's client spans (this process) and server spans (the server
process, dumped by ``server_main.py``) are cut to the timed window, each
span's self time is its duration minus what its direct children cover, and
each layer's self time is summed and divided by the operations completed.
Server root spans are joined to the client request that waited on them, so
``channel.wait_ms_per_op`` is the time the client sat blocked on the socket
minus the time the server spent handling its requests.  By construction

    traced op latency = client layer self times + server layer self times
                        + channel wait + uncovered

and ``trace.uncovered_share`` is the part of the latency no layer span
covers.  CPU per operation and ``trace.ops_per_s_ratio`` come from the
untraced phase that precedes the traced one in the same run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from perfbench import spans


def _totals(span_list: List[List[Any]], own: Dict[Any, int]
            ) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time (ms), call count and summed amount."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_ms": 0.0, "calls": 0, "amount": 0, "dur_ms": 0.0})
    for span in span_list:
        entry = totals[span[2]]
        entry["self_ms"] += own[(span[0], span[1])] / 1e6
        entry["dur_ms"] += (span[4] - span[3]) / 1e6
        entry["calls"] += 1
        entry["amount"] += span[7]
    return totals


def _ledger_growth(marks: List[List[Any]], t0: int, t1: int) -> int:
    before = [m for m in marks if m[0] == "ledger" and m[1] <= t0]
    after = [m for m in marks if m[0] == "ledger" and m[1] >= t1]
    if not before or not after:
        return 0
    return after[0][2] - before[-1][2]


def _counter(stats: Dict[str, Any], name: str) -> float:
    return sum(entry["value"]
               for entry in stats["document_instruments"].get("counters", [])
               if entry["name"] == name)


def layer_metrics(plain: Dict[str, Any], traced: Dict[str, Any],
                  server_dump: Dict[str, Any], setup: Dict[str, float],
                  counts: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    t0, t1 = traced["t0"], traced["t1"]
    inside = [s for s in traced["client_spans"]["spans"]
              if t0 <= s[3] and s[4] <= t1]
    server = [s for s in server_dump["spans"] if t0 <= s[3] and s[4] <= t1]
    client_own = spans.self_times(inside)
    client_totals = _totals(inside, client_own)
    server_totals = _totals(server, spans.self_times(server))
    ops = [s for s in inside if s[2] == "op"]
    n_ops = max(len(ops), 1)
    records = traced["records"]
    n_edits = max(sum(1 for r in records if r["kind"] == "edit"), 1)

    channels = [s for s in inside if s[2] == "channel" and s[6] is not None]
    joined, unjoined = spans.join_server_spans(server, channels)
    roots = {(s[0], s[1]): s for s in server if s[5] < 0}
    server_in_requests_ms = sum((roots[key][4] - roots[key][3]) / 1e6 * share
                                for key, owners in joined.items()
                                for _, share in owners)
    channel_self_ms = sum(client_own[(s[0], s[1])] for s in channels) / 1e6

    def cl(name: str, field: str = "self_ms") -> float:
        """A client layer's total: self time (ms), ``calls`` or ``amount``."""
        return client_totals[name][field] if name in client_totals else 0.0

    def sv(name: str, field: str = "self_ms") -> float:
        """A server layer's total, as :func:`cl`."""
        return server_totals[name][field] if name in server_totals else 0.0

    share_for_calls = traced["client_spans"]["counts"].get("share_tree.share_for", 0)
    derived = cl("prg", "calls")
    hits = (_counter(traced["end_stats"], "store_cache_hits_total")
            - _counter(traced["start_stats"], "store_cache_hits_total"))
    misses = (_counter(traced["end_stats"], "store_cache_misses_total")
              - _counter(traced["start_stats"], "store_cache_misses_total"))
    batches = sv("engine.batch", "calls")
    op_ms = cl("op", "dur_ms")
    plain_seconds = (plain["t1"] - plain["t0"]) / 1e9
    traced_seconds = (t1 - t0) / 1e9
    n_plain = max(len(plain["records"]), 1)

    values = {
        # client share regeneration
        "prg.derive_ms_per_op": (cl("prg") / n_ops, "ms"),
        "prg.shares_derived_per_op": (derived / n_ops, "count"),
        "share_tree.cache_hit_ratio": (
            1.0 - derived / share_for_calls if share_for_calls else 0.0, "ratio"),
        "share_tree.self_ms_per_op": (cl("share_tree") / n_ops, "ms"),
        # client query work
        "query.self_ms_per_op": (cl("query") / n_ops, "ms"),
        "advanced.self_ms_per_op": (cl("advanced") / n_ops, "ms"),
        "xpath.plan_ms_per_op": (cl("xpath.plan") / n_ops, "ms"),
        "reconstruct.ms_per_op": (cl("reconstruct") / n_ops, "ms"),
        # wire
        "messages.client_encode_ms_per_op": (cl("messages.client_encode") / n_ops, "ms"),
        "messages.client_decode_ms_per_op": (cl("messages.client_decode") / n_ops, "ms"),
        "messages.server_encode_ms_per_op": (sv("messages.server_encode") / n_ops, "ms"),
        "messages.server_decode_ms_per_op": (sv("messages.server_decode") / n_ops, "ms"),
        "channel.wait_ms_per_op": (
            (channel_self_ms - server_in_requests_ms) / n_ops, "ms"),
        # serving
        "engine.handle_ms_per_op": ((sv("engine") + sv("engine.batch")) / n_ops, "ms"),
        "engine.requests_per_op": (
            (sv("engine", "calls") + sv("engine.batch", "amount")) / n_ops, "count"),
        "engine.ledger_ids_per_op": (
            _ledger_growth(server_dump["marks"], t0, t1) / n_ops, "count"),
        "aio.requests_per_batch": (
            sv("engine.batch", "amount") / batches if batches else 0.0, "count"),
        # store
        "store.structure_ms_per_op": (sv("store.structure") / n_ops, "ms"),
        "store.structure_reads_per_op": (sv("store.structure", "calls") / n_ops,
                                         "count"),
        "store.evaluate_ms_per_op": (sv("store.evaluate") / n_ops, "ms"),
        "store.fetch_ms_per_op": (sv("store.fetch") / n_ops, "ms"),
        "store.nodes_read_per_op": (
            (sv("store.evaluate", "amount") + sv("store.fetch", "calls")) / n_ops,
            "count"),
        "store.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 1.0, "ratio"),
        "pages.decode_ms_per_op": (sv("pages.decode") / n_ops, "ms"),
        "kernels.evaluate_ms_per_op": (sv("kernels.evaluate") / n_ops, "ms"),
        # writes
        "updates.plan_ms_per_edit": (cl("updates") / n_edits, "ms"),
        "store.apply_batch_ms_per_edit": (sv("store.apply_batch") / n_edits, "ms"),
        "wal.ms_per_edit": (sv("wal") / n_edits, "ms"),
        "wal.commits_per_edit": (sv("wal", "calls") / n_edits, "count"),
        # process and tracing
        "client.cpu_ms_per_op": (plain["cpu_client_s"] * 1e3 / n_plain, "ms"),
        "server.cpu_ms_per_op": (plain["cpu_server_s"] * 1e3 / n_plain, "ms"),
        "trace.ops_per_s_ratio": (
            (len(records) / traced_seconds) / (n_plain / plain_seconds), "ratio"),
        "trace.latency_ms": (op_ms / n_ops, "ms"),
        "trace.uncovered_ms_per_op": (cl("op") / n_ops, "ms"),
        "trace.uncovered_share": (cl("op") / op_ms if op_ms else 0.0, "ratio"),
        "trace.unjoined_server_spans": (unjoined, "count"),
    }
    values.update({name: (seconds, "s") for name, seconds in setup.items()})
    values.update({name: (value, "ratio" if name.endswith("ratio") else "count")
                   for name, value in counts.items()
                   if name.startswith(("query.", "updates."))})
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
