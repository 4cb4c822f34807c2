"""Benchmark of the secret-shared XML search server, one workload per run.

Usage::

    python3 perfbench/run.py --workload lookup-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload edit-mix --seed 1 --seconds 40 --trace 1 \\
        --out /path/to/result.json

A run makes its document from ``--seed``, outsources it with
``python -m repro.cli outsource`` (several times, to time set-up), serves it
with ``python -m repro.cli serve`` in a process of its own and drives it over
TCP on loopback from this process, checking every answer against a
plaintext reference.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs an untraced phase and then a traced one (server started
through ``perfbench/server_main.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes the full result (provenance, percentiles and their sample counts,
per-type counts) to a file; without it nothing is kept: the run works in a
temporary directory under ``.perfbench_tmp/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("lookup-large", "xpath-catalog", "edit-mix")

#: Ops of round 0 run before timing starts (``None``: the whole round).
WARMUP_OPS = {"lookup-large": 4, "xpath-catalog": None, "edit-mix": None}
#: Latency of this op type is the workload's ``primary_*`` metric.
PRIMARY = {"lookup-large": "lookup", "xpath-catalog": "xpath",
           "edit-mix": "edit"}
#: The tail is the highest percentile with this many samples beyond it.
TAIL_SAMPLES = 10
EDIT_KINDS = ("insert", "rename", "delete")
CHECKED_PATHS = 20
START_TIMEOUT_S = 60.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of each timed phase (whole rounds are "
                             "finished, so a phase may run a little longer)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result JSON to this path")
    parser.add_argument("--workdir", default=None,
                        help="work in this directory and keep it (default: a "
                             "temporary directory, removed at the end)")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="document sizes (tiny: for the benchmark's tests)")
    parser.add_argument("--inject-fault", choices=("expected", "share"),
                        default=None,
                        help="check the checks: perturb one expected answer, "
                             "or alter one server share so FULL verification "
                             "must reject it; the affected operations must "
                             "then count as failed")
    return parser.parse_args(argv)


# -- small helpers ------------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: List[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile with 10 samples beyond it.

    That is ``100 * (1 - 10/n)`` for ``n`` samples, so the tail moves
    smoothly with the sample count instead of jumping between fixed rungs
    (never below the median).
    """
    q = max(50.0, 100.0 * (1.0 - TAIL_SAMPLES / max(len(values), 1)))
    return q, percentile(values, q)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process, from ``/proc/PID/stat``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def filesystem_of(path: str) -> Dict[str, str]:
    """Mount point, type and options of the filesystem holding ``path``."""
    path = os.path.realpath(path)
    best = {"mount": "?", "type": "?", "options": "?"}
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                device, mount, fstype, options = line.split()[:4]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best["mount"].replace("?", "")):
                    best = {"mount": mount, "type": fstype, "options": options,
                            "device": device}
    except OSError:
        pass
    return best


def git_provenance() -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return {"commit": "unknown (not a git checkout)", "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(status)}


def sqlite_flush_policy(path: str) -> Dict[str, Any]:
    """Journal mode and ``synchronous`` level a fresh connection gets on ``path``.

    ``SQLiteShareStore`` sets ``journal_mode=WAL`` and leaves ``synchronous``
    at SQLite's default, so this is the flush policy the server runs with.
    """
    connection = sqlite3.connect(path)
    try:
        journal = connection.execute("PRAGMA journal_mode").fetchone()[0]
        level = connection.execute("PRAGMA synchronous").fetchone()[0]
    finally:
        connection.close()
    names = {0: "OFF", 1: "NORMAL", 2: "FULL", 3: "EXTRA"}
    return {"journal_mode": journal, "synchronous": f"{level} ({names.get(level, '?')})"}


# -- the server process ------------------------------------------------------------------

class ServerProcess:
    """``repro.cli serve`` in a child process (traced through server_main.py)."""

    def __init__(self, env: Dict[str, str], workdir: str, store_path: str,
                 use_async: bool, spans_out: Optional[str] = None) -> None:
        serve = ["serve", store_path, "--port", "0"]
        if use_async:
            serve.append("--async")
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, os.path.join(ROOT, "perfbench",
                                                    "server_main.py"),
                       spans_out, *serve]
        self.log_path = os.path.join(workdir, f"server-{time.time_ns()}.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        # SIGINT is how the server is stopped (Ctrl-C); a parent started in
        # the background may hand it down ignored, so restore the default.
        self.proc = subprocess.Popen(
            command, env=env, cwd=workdir, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("serving "):
                    address = line.split(" on ", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
                if not line:
                    break
            elif self.proc.poll() is not None:
                break
        self.stop()
        with open(self.log_path, "r", encoding="utf-8") as handle:
            raise RuntimeError(f"the server did not start:\n{handle.read()}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Ctrl-C the server and wait for it to exit (kill after 30 s)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# -- the benchmark ----------------------------------------------------------------------

class Benchmark:
    def __init__(self, args: argparse.Namespace, workdir: str) -> None:
        from perfbench import workloads

        self.args = args
        self.workload = args.workload
        self.workdir = workdir
        self.serving = workloads.SERVING[self.workload]
        self.count_rounds = workloads.COUNT_ROUNDS[self.workload]
        self.client_seed = f"perfbench-{self.workload}-{args.seed}"
        self.env = dict(os.environ, PYTHONUNBUFFERED="1",
                        PYTHONPATH=os.pathsep.join(
                            [SRC] + [p for p in os.environ.get("PYTHONPATH", "")
                                     .split(os.pathsep) if p]))
        self.servers: List[ServerProcess] = []
        self.failures: List[str] = []
        self.final_checks: Dict[str, Any] = {}

    # -- inputs -------------------------------------------------------------------------
    def make_inputs(self) -> None:
        from perfbench import workloads
        from repro.workloads import CATALOG_QUERIES
        from repro.xmltree.serializer import serialize_document

        document = workloads.make_document(self.workload, self.args.seed,
                                           self.args.scale)
        self.plain = workloads.PlainTree(document)
        self.xml_path = os.path.join(self.workdir, "document.xml")
        with open(self.xml_path, "w", encoding="utf-8") as handle:
            handle.write(serialize_document(document))
        self.xpath_expected = (workloads.xpath_reference(
            document, self.plain, CATALOG_QUERIES)
            if self.workload == "xpath-catalog" else {})
        self.fault_op = self._first_lookup() if self.args.inject_fault else None

    def _first_lookup(self) -> Tuple:
        from perfbench import workloads

        ops = workloads.round_ops(self.workload, self.plain, self.args.seed, 0, 0)
        return next(op for op in ops if op[0] == "lookup")

    # -- set-up -------------------------------------------------------------------------
    def outsource(self, directory: str) -> Tuple[str, str, float]:
        os.makedirs(directory, exist_ok=True)
        suffix = "db" if self.serving["store"] == "sqlite" else "json"
        server_out = os.path.join(directory, f"server.{suffix}")
        client_out = os.path.join(directory, "client.json")
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "outsource", self.xml_path,
             "--server-out", server_out, "--client-out", client_out,
             "--seed", self.client_seed, "--store", self.serving["store"]],
            env=self.env, cwd=directory, capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"outsource failed:\n{done.stdout}{done.stderr}")
        return server_out, client_out, elapsed

    def start_server(self, store_path: str, spans_out: Optional[str] = None
                     ) -> Tuple[ServerProcess, float]:
        """Start a server; returns it and the seconds until a hello is answered."""
        from repro.net import connect_socket

        started = time.perf_counter()
        server = ServerProcess(self.env, self.workdir, store_path,
                               self.serving["transport"] == "async", spans_out)
        self.servers.append(server)
        _, channel = connect_socket("127.0.0.1", server.port, self.ring)
        channel.close()
        return server, time.perf_counter() - started

    def stop_server(self, server: ServerProcess) -> None:
        server.stop()
        self.servers.remove(server)

    def load_client(self, client_path: str) -> None:
        from repro.core import ClientContext
        from repro.net import ring_from_dict

        with open(client_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        self.ring = ring_from_dict(state["ring"])
        self.client = ClientContext.from_secret_state(self.ring, state["secrets"])

    def inject_share_fault(self, store_path: str) -> int:
        """Break one verified node's share so that FULL verification must reject it.

        The node is the parent of the first match of the first looked-up
        tag ``t``: a zero node with a zero child, which the client verifies
        by Theorem 1/2 reconstruction.  Adding ``x - t`` to its server share
        keeps it zero at ``t`` (the descent still reaches it) but breaks the
        encoding invariant, so reconstruction fails.
        """
        from repro.net import (SQLiteShareStore, load_share_tree,
                               open_share_store, save_share_tree)

        tag = self.fault_op[1]
        node_id = self.plain.parent[self.plain.matches(tag)[0]]
        point, p = self.client.mapping.value(tag), self.ring.p
        store = open_share_store(store_path)
        coeffs = [int(c) for c in store.share_of(node_id).coeffs] + [0, 0]
        coeffs[0] = (coeffs[0] - point) % p
        coeffs[1] = (coeffs[1] + 1) % p
        altered = self.ring.from_coefficients(coeffs)
        if isinstance(store, SQLiteShareStore):
            store.replace_share(node_id, altered)
            store.close()
        else:
            store.close()
            tree = load_share_tree(store_path)
            tree.replace_share(node_id, altered)
            save_share_tree(tree, store_path)
        return node_id

    # -- operations ---------------------------------------------------------------------
    def run_op(self, session: "Session", op: Tuple, tracer: Any = None,
               op_id: int = 0) -> Dict[str, Any]:
        """Run one operation, time it, check its answer, and account its traffic."""
        kind = op[0]
        stats = session.channel.stats
        bytes_before, trips_before = stats.total_bytes, stats.round_trips
        record: Dict[str, Any] = {"kind": "edit" if kind in EDIT_KINDS else kind,
                                  "op": kind if kind in EDIT_KINDS else f"{kind} {op[1]}",
                                  "ok": False}
        result = None
        started = time.perf_counter_ns()
        try:
            if tracer is not None:
                with tracer.operation(op_id):
                    result = self._execute(session, op)
            else:
                result = self._execute(session, op)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            record["error"] = f"{kind}: {type(exc).__name__}: {exc}"
        record["ms"] = (time.perf_counter_ns() - started) / 1e6
        record["bytes"] = stats.total_bytes - bytes_before
        record["round_trips"] = stats.round_trips - trips_before
        if result is not None:
            self._check(session, op, result, record)
        elif kind in EDIT_KINDS:
            self._mirror_edit(session, op)   # keep the mirror on the plan
        return record

    def _execute(self, session: "Session", op: Tuple) -> Any:
        kind = op[0]
        if kind == "lookup":
            return self.client.lookup(session.adapter, op[1])
        if kind == "xpath":
            return self.client.xpath(session.adapter, op[1])
        if kind == "insert":
            return session.editor.insert_subtree(op[2], op[3])
        if kind == "rename":
            return session.editor.rename_node(session.slots[op[1]][op[2]], op[3])
        return session.editor.delete_subtree(session.slots[op[1]][0])

    def _expected(self, op: Tuple) -> List[int]:
        expected = (self.plain.matches(op[1]) if op[0] == "lookup"
                    else list(self.xpath_expected[op[1]]))
        if self.args.inject_fault == "expected" and op == self.fault_op:
            expected = expected[1:]
        return expected

    def _check(self, session: "Session", op: Tuple, result: Any,
               record: Dict[str, Any]) -> None:
        kind = op[0]
        if kind in ("lookup", "xpath"):
            stats = result.stats
            record["query"] = stats.as_dict()
            if kind == "lookup":
                record["zero_nodes"] = len(result.zero_nodes)
                unverified = result.unverified_candidates
            else:
                unverified = []
            expected = self._expected(op)
            if list(result.matches) == expected and not unverified:
                record["ok"] = True
            else:
                record["error"] = (f"{kind} {op[1]!r}: got {len(result.matches)} "
                                   f"matches, expected {len(expected)}")
            return
        record["shares_rewritten"] = result.shares_rewritten
        predicted = self._mirror_edit(session, op)
        if kind == "insert":
            record["ok"] = list(result.new_node_ids) == predicted
        elif kind == "delete":
            record["ok"] = sorted(result.removed_node_ids) == sorted(predicted)
        else:
            record["ok"] = True     # the next lookup checks the new tag
        if not record["ok"]:
            record["error"] = f"{kind}: server ids differ from the mirror's"

    def _mirror_edit(self, session: "Session", op: Tuple) -> List[int]:
        kind = op[0]
        if kind == "insert":
            session.slots[op[1]] = self.plain.insert(op[2], op[3])
            return session.slots[op[1]]
        if kind == "rename":
            self.plain.rename(session.slots[op[1]][op[2]], op[3])
            return []
        return self.plain.delete(session.slots[op[1]][0])

    # -- phases ---------------------------------------------------------------------------
    def phase(self, server: ServerProcess, traced: bool) -> Dict[str, Any]:
        """Warm up, then run whole rounds for ``--seconds`` on every session."""
        from perfbench import spans, workloads

        sessions = [Session(self, number, server.port)
                    for number in range(self.serving["sessions"])]
        try:
            for session in sessions:
                warm = workloads.round_ops(self.workload, self.plain,
                                           self.args.seed, session.number, 0)
                for op in warm[:WARMUP_OPS[self.workload]]:
                    self.run_op(session, op)
            probe = sessions[0]
            start_stats = probe.stats()
            tracer = None
            if traced:
                tracer = spans.Tracer()
                spans.install_client(tracer)
            cpu_server0, cpu_client0 = proc_cpu_s(server.pid), time.process_time()
            t0 = time.perf_counter_ns()
            deadline = t0 + int(self.args.seconds * 1e9)
            self.server_pid = server.pid
            threads = [threading.Thread(target=self._session_loop,
                                        args=(session, deadline, tracer),
                                        daemon=True)
                       for session in sessions]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            t1 = time.perf_counter_ns()
            cpu_client = time.process_time() - cpu_client0
            cpu_server = proc_cpu_s(server.pid) - cpu_server0
            client_spans = None
            if tracer is not None:
                tracer.uninstall()
                client_spans = tracer.snapshot()
            end_stats = probe.stats()
        finally:
            for session in sessions:
                session.close()
        records = [record for session in sessions for record in session.records]
        return {"records": records, "t0": t0, "t1": t1,
                "cpu_client_s": cpu_client, "cpu_server_s": cpu_server,
                "start_stats": start_stats, "end_stats": end_stats,
                "rounds": [session.rounds for session in sessions],
                "peak_rss_kb": sessions[0].peak_rss_kb,
                "client_spans": client_spans}

    def _session_loop(self, session: "Session", deadline: int,
                      tracer: Any) -> None:
        from perfbench import workloads

        number = 0
        while number < self.count_rounds or time.perf_counter_ns() < deadline:
            ops = workloads.round_ops(self.workload, self.plain, self.args.seed,
                                      session.number, number)
            for op in ops:
                op_id = session.number * 10_000_000 + len(session.records)
                record = self.run_op(session, op, tracer, op_id)
                record["round"] = number
                session.records.append(record)
            number += 1
            if number == self.count_rounds and session.number == 0:
                # After a fixed amount of work, so a faster server that
                # completes more rounds is not charged for a longer ledger.
                session.peak_rss_kb = proc_peak_rss_kb(self.server_pid)
        session.rounds = number

    # -- the whole run ----------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        import gc

        from perfbench import workloads

        provenance = self.provenance()
        self.make_inputs()
        traced = bool(self.args.trace)
        detail: Dict[str, Any] = {"setup": {}}
        setup_layers = self.setup_layers() if traced else None
        reps = 1 if traced else workloads.SIZES[self.args.scale]["setup_reps"]
        setup_times, server = [], None
        for rep in range(reps):
            if server is not None:
                self.stop_server(server)
            directory = os.path.join(self.workdir, f"setup{rep}")
            store_path, client_path, outsource_s = self.outsource(directory)
            self.load_client(client_path)
            if self.args.inject_fault == "share" and rep == reps - 1:
                detail["altered_node"] = self.inject_share_fault(store_path)
            server, start_s = self.start_server(store_path)
            setup_times.append(outsource_s + start_s)
            detail["setup"].setdefault("outsource_s", []).append(outsource_s)
            detail["setup"].setdefault("serve_to_hello_s", []).append(start_s)
        provenance["store_filesystem"] = filesystem_of(directory)
        if self.serving["store"] == "sqlite":
            provenance["sqlite_flush_policy"] = sqlite_flush_policy(store_path)
        # The plaintext reference is the benchmark's own bookkeeping, not
        # client state: keep the collector from rescanning it during timing.
        gc.collect()
        gc.freeze()

        plain_phase = self.phase(server, traced=False)
        traced_phase = None
        if traced:
            self.stop_server(server)
            spans_out = os.path.join(self.workdir, "server-spans.json")
            server, _ = self.start_server(store_path, spans_out)
            traced_phase = self.phase(server, traced=True)
        self.stop_server(server)
        self.check_store(store_path)
        server_spans = None
        if traced:
            with open(spans_out, "r", encoding="utf-8") as handle:
                server_spans = json.load(handle)

        phases = [plain_phase] + ([traced_phase] if traced_phase else [])
        for phase in phases:
            self.check_accounting(phase["end_stats"])
        records = [r for phase in phases for r in phase["records"]]
        attempted = len(records)
        failed = sum(1 for r in records if not r["ok"])
        self.failures += [r["error"] for r in records if not r["ok"]][:20]
        # No operation of these workloads is expected to fail: a wrong or
        # rejected answer makes the whole run incorrect.
        correct = failed == 0 and all(check["ok"]
                                      for check in self.final_checks.values())

        counts = self.counts(plain_phase, store_path)
        detail["counts"] = counts
        if traced:
            from perfbench import report

            metrics = report.layer_metrics(plain_phase, traced_phase,
                                           server_spans, setup_layers, counts)
        else:
            metrics = self.end_to_end(plain_phase, setup_times, counts, detail)
        detail["rounds_per_session"] = [p["rounds"] for p in phases]
        detail["count_rounds"] = self.count_rounds
        detail["phase_seconds"] = [(p["t1"] - p["t0"]) / 1e9 for p in phases]
        detail["phase_cpu_s"] = [{"client": p["cpu_client_s"], "server": p["cpu_server_s"]}
                                 for p in phases]
        detail["ops_by_type"] = {
            kind: sum(1 for r in plain_phase["records"] if r["kind"] == kind)
            for kind in ("lookup", "xpath", "edit")}
        provenance["load_average_end"] = list(os.getloadavg())
        return {"workload": self.workload, "seed": self.args.seed,
                "trace": self.args.trace, "correct": correct,
                "attempted": attempted, "failed": failed, "metrics": metrics,
                "checks": self.final_checks, "failures": self.failures,
                "detail": detail, "provenance": provenance}

    def setup_layers(self) -> Dict[str, float]:
        """Time the public functions ``cli outsource`` calls, in this process."""
        from perfbench import spans
        from repro.core import choose_fp_ring, outsource_document, scheme
        from repro.net import SQLiteShareStore, save_share_tree
        from repro.xmltree import parse_document

        tracer = spans.Tracer()
        tracer.wrap(scheme, "encode_document", "encode")
        tracer.wrap(scheme, "share_tree", "share")
        try:
            started = time.perf_counter()
            with open(self.xml_path, "r", encoding="utf-8") as handle:
                document = parse_document(handle.read())
            parse_s = time.perf_counter() - started
            _, tree, _ = outsource_document(document, ring=choose_fp_ring(document),
                                            seed=self.client_seed.encode("utf-8"))
            started = time.perf_counter()
            path = os.path.join(self.workdir, "setup-layers.store")
            if self.serving["store"] == "sqlite":
                SQLiteShareStore.from_tree(path, tree).close()
            else:
                save_share_tree(tree, path)
            store_s = time.perf_counter() - started
        finally:
            tracer.uninstall()
        seconds = {name: 0.0 for name in ("encode", "share")}
        for span in tracer.snapshot()["spans"]:
            seconds[span[2]] += (span[4] - span[3]) / 1e9
        return {"setup.parse_s": parse_s, "setup.encode_s": seconds["encode"],
                "setup.share_s": seconds["share"], "setup.store_write_s": store_s}

    # -- end-of-run checks ------------------------------------------------------------------
    def check_accounting(self, stats: Dict[str, Any]) -> None:
        """admitted == completed + shed + failed, with only the probe in flight."""
        accounting = stats["accounting"]
        ok = (accounting["inflight"] == 1 and accounting["admitted"] ==
              accounting["completed"] + accounting["shed"] + accounting["failed"] + 1)
        checks = self.final_checks.setdefault("accounting", {"ok": True, "seen": []})
        checks["seen"].append(accounting)
        checks["ok"] = checks["ok"] and ok

    def check_store(self, store_path: str) -> None:
        """After the server stopped: node count and sampled tag paths vs the mirror."""
        import random

        from repro.net import open_share_store

        store = open_share_store(store_path)
        try:
            count = store.node_count()
            self.final_checks["node_count"] = {
                "ok": count == len(self.plain), "store": count,
                "mirror": len(self.plain)}
            if self.workload != "edit-mix":
                return
            rng = random.Random(f"perfbench:paths:{self.args.seed}")
            sample = rng.sample(sorted(self.plain.tag),
                                min(CHECKED_PATHS, len(self.plain)))
            wrong = [node for node in sample
                     if self.client.tag_path_of(store, node) != self.plain.path(node)]
            self.final_checks["tag_paths"] = {"ok": not wrong, "sampled": len(sample),
                                              "wrong": wrong}
        finally:
            store.close()

    # -- end-to-end metrics -------------------------------------------------------------------
    def counts(self, phase: Dict[str, Any], store_path: str) -> Dict[str, float]:
        """Exact counts of the first ``COUNT_ROUNDS`` rounds of each session.

        Every run completes those rounds whatever its length, and their
        operations are fixed by the seed, so these numbers repeat exactly
        for a given seed; the determinism test holds them to that.
        """
        counted = [r for r in phase["records"] if r["round"] < self.count_rounds]
        queries = [r for r in counted if "query" in r]
        lookups = [r for r in queries if r["kind"] == "lookup"]
        edits = [r for r in counted if r["kind"] == "edit"]
        store_bytes = sum(os.path.getsize(path) for path in
                          (store_path, store_path + "-wal", store_path + "-shm")
                          if os.path.exists(path))
        evaluated = sum(r["query"]["nodes_evaluated"] for r in lookups)
        zero_nodes = sum(r["zero_nodes"] for r in lookups)
        values = {
            "ops": len(counted),
            "wire_bytes_per_op": sum(r["bytes"] for r in counted) / len(counted),
            "round_trips_per_op": sum(r["round_trips"] for r in counted) / len(counted),
            "store_bytes_per_node": store_bytes / self.final_checks["node_count"]["store"],
            "query.zero_nodes_per_lookup": zero_nodes / max(len(lookups), 1),
            "query.nodes_evaluated_per_lookup": evaluated / max(len(lookups), 1),
            "query.useful_evaluation_ratio": zero_nodes / evaluated if evaluated else 0.0,
            "updates.shares_rewritten_per_edit": (
                sum(r["shares_rewritten"] for r in edits) / max(len(edits), 1)),
        }
        for field in ("nodes_evaluated", "evaluations", "nodes_pruned",
                      "candidates_verified", "polynomials_fetched"):
            values[f"query.{field}_per_op"] = (
                sum(r["query"][field] for r in queries) / max(len(queries), 1))
        return values

    def end_to_end(self, phase: Dict[str, Any], setup_times: List[float],
                   counts: Dict[str, float],
                   detail: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        records = phase["records"]
        seconds = (phase["t1"] - phase["t0"]) / 1e9
        latencies = {kind: [r["ms"] for r in records if r["ok"] and r["kind"] == kind]
                     for kind in ("lookup", "xpath", "edit")}
        percentiles: Dict[str, Any] = {}
        values: Dict[str, float] = {}
        for name, kind in (("lookup", "lookup"), ("primary", PRIMARY[self.workload])):
            samples = latencies[kind]
            q, tail_value = tail(samples)
            values[f"{name}_p50_ms"] = percentile(samples, 50.0)
            values[f"{name}_tail_ms"] = tail_value
            percentiles[name] = {"op_type": kind, "samples": len(samples),
                                 "tail_percentile": q,
                                 "samples_beyond_tail": len(samples) * (100 - q) / 100}
        detail["percentiles"] = percentiles
        detail["latencies_ms"] = [[r["op"], r["round"], round(r["ms"], 3)]
                                  for r in records if r["ok"]]
        units = {"setup_s": "s", "ops_per_s": "1/s", "wire_bytes_per_op": "B",
                 "round_trips_per_op": "count", "server_peak_rss_mb": "MB",
                 "store_bytes_per_node": "B"}
        values.update({
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(records) / seconds,
            "wire_bytes_per_op": counts["wire_bytes_per_op"],
            "round_trips_per_op": counts["round_trips_per_op"],
            "server_peak_rss_mb": phase["peak_rss_kb"] / 1024.0,
            "store_bytes_per_node": counts["store_bytes_per_node"],
        })
        detail["setup"]["setup_s"] = setup_times
        return {name: {"value": value, "unit": units.get(name, "ms")}
                for name, value in values.items()}

    # -- provenance ---------------------------------------------------------------------------
    def provenance(self) -> Dict[str, Any]:
        from perfbench.workloads import SHAPE_SEED, SIZES

        try:
            import numpy
            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = None
        return {
            **git_provenance(),
            "command": [sys.executable, *sys.argv],
            "started_at": time.time(),
            "seeds": {"run": self.args.seed, "document_shape": SHAPE_SEED,
                      "client": self.client_seed,
                      "rounds": f"perfbench:{self.workload}:{self.args.seed}:"
                                "<session>:<round>"},
            "python": platform.python_version(),
            "numpy": numpy_version,
            "sqlite": sqlite3.sqlite_version,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "load_average_start": list(os.getloadavg()),
            "seconds": self.args.seconds,
            "scale": self.args.scale,
            "setup_reps": SIZES[self.args.scale]["setup_reps"],
        }


class Session:
    """One client session: a TCP connection (and an editor on edit-mix)."""

    def __init__(self, bench: Benchmark, number: int, port: int) -> None:
        from repro.net import RemoteUpdatableTree, connect_socket

        self.number = number
        self.records: List[Dict[str, Any]] = []
        self.rounds = 0
        self.peak_rss_kb = 0
        self.slots: Dict[int, List[int]] = {}
        self.adapter, self.channel = connect_socket("127.0.0.1", port, bench.ring)
        self.editor = None
        if bench.workload == "edit-mix":
            self.editor = RemoteUpdatableTree(self.adapter, bench.client.mapping,
                                              bench.client.share_generator)

    def stats(self) -> Dict[str, Any]:
        """The server's stats probe, whole-server and default-document views."""
        from repro.net import DEFAULT_DOCUMENT, StatsRequest

        metrics = self.adapter.server_stats()
        document = self.channel.request(StatsRequest().for_document(DEFAULT_DOCUMENT))
        metrics["document_instruments"] = document.metrics["instruments"]
        return metrics

    def close(self) -> None:
        self.channel.close()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    # A terminated run still stops its servers (the finally block below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    temporary = args.workdir is None
    if temporary:
        parent = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(parent, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=parent)
    else:
        workdir = os.path.abspath(args.workdir)
        os.makedirs(workdir, exist_ok=True)
    bench = Benchmark(args, workdir)
    # The run and its server processes (which inherit this) share one CPU,
    # the last: device interrupts and other work land on the first, and on
    # a VM a request handed to an idle vCPU also waits for it to be woken.
    # On two CPUs the two catalog sessions' figures followed whatever else
    # ran on the first (see README.md, "CPUs").
    os.sched_setaffinity(0, [max(os.sched_getaffinity(0))])
    try:
        result = bench.run()
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1
    finally:
        for server in list(bench.servers):
            server.stop()
        if temporary:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:
                pass
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    summary = ", ".join(f"{name}={entry['value']:.6g}{entry['unit']}"
                        for name, entry in sorted(result["metrics"].items()))
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} ops, {result['failed']} failed; {summary}")
    for failure in result["failures"][:5]:
        print(f"failed: {failure}")
    for name, check in result["checks"].items():
        if not check["ok"]:
            print(f"check {name} failed: {check}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
