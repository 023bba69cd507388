"""The benchmark's workloads: seeded inputs, the measuring loops, the checks.

``buy_wide`` and ``buy_narrow`` publish a catalog in-process, start real
``wot serve`` processes on it and buy from them over loopback TCP with
``wot.net.buy``, one closed-loop client. ``publish`` runs the seller's
``load_catalog -> publish -> save_bundle`` path in-process. Every output
is checked; a failed check counts as a failed operation and the run goes
on.

A workload's seed draws the item ids, the weight order, the payloads and
the order of the choice sets. Protocol randomness stays the program's
default ``SystemRandom``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import resource
import signal
import socket
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from wot import catalog, group, net, protocol, symcrypto
from wot.catalog import FlatIndexMap, MODE_P1, MODE_P2

from layers import Spans, per_layer, seller_views
from tracing import Tracer, span_cost

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GROUP = "modp-2048"
KIB = 1 << 10
MIB = 1 << 20
SETUP_REPEATS = 5  # set-up is measured this many times per run; the median is reported
STOP_TIMEOUT = 10.0


@dataclass(frozen=True)
class CatalogSpec:
    ids: tuple[str, ...]
    weights: tuple[int, ...]
    payloads: tuple[bytes, ...]

    def write(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        lines = []
        for item_id, weight, payload in zip(self.ids, self.weights, self.payloads):
            (directory / f"{item_id}.bin").write_bytes(payload)
            lines.append(f"{item_id}\t{weight}\t{item_id}.bin")
        (directory / "items.tsv").write_text("\n".join(lines) + "\n")


def make_catalog(rng: random.Random, prefix: str, weights, payload_len: int) -> CatalogSpec:
    weights = list(weights)
    rng.shuffle(weights)
    ids = tuple(f"{prefix}{i:02d}_{rng.getrandbits(16):04x}" for i in range(len(weights)))
    payloads = tuple(rng.randbytes(payload_len) for _ in weights)
    return CatalogSpec(ids=ids, weights=tuple(weights), payloads=payloads)


def equal_price_choices(spec: CatalogSpec, total: int, rng: random.Random) -> list[tuple]:
    """Every item subset priced ``total``, in a seeded order."""
    n = len(spec.ids)
    sets = [tuple(spec.ids[i] for i in combo)
            for r in range(1, n + 1) for combo in itertools.combinations(range(n), r)
            if sum(spec.weights[i] for i in combo) == total]
    rng.shuffle(sets)
    return sets


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    checks_ok: bool = True
    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)
    report: list = field(default_factory=list)  # extra "name value unit" lines

    def fail(self, what: str, exc: BaseException | None = None):
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)
        if exc is not None and self.failed <= 3:  # enough to diagnose, not a flood
            traceback.print_exception(exc, file=sys.stderr)


# --- processes ---------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("WOT_SEED", None)  # ``wot serve`` refuses to run with it
    return env


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``wot serve`` process on a loopback port, traced or not.

    ``setup_s`` is the time from spawning the process until it accepts a
    connection; ``stop`` returns the process's peak RSS in MiB.
    """

    def __init__(self, bundle_dir: Path, work: Path, spans_path: Path | None = None):
        self.port = _free_port()
        self.log_path = work / f"serve-{self.port}.log"
        serve_args = ["--bundle", str(bundle_dir), "--listen", f"127.0.0.1:{self.port}"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "wot.cli", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(spans_path),
                   *serve_args]
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=log,
                                         env=_child_env(), cwd=ROOT)
        try:
            self._wait_accepting()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_accepting(self, timeout: float = 120.0):
        deadline = time.monotonic() + timeout
        while True:
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                return
            except ConnectionRefusedError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"wot serve exited with {self.proc.returncode}: "
                                   f"{self.log_path.read_text()[-2000:]}")
            if time.monotonic() > deadline:
                raise TimeoutError("wot serve did not start accepting connections")
            time.sleep(0.002)

    def stop(self) -> float:
        """Stop the server as Ctrl-C would, wait for it, return its peak RSS."""
        pid = self.proc.pid
        if self.proc.returncode is not None:
            return 0.0
        os.kill(pid, signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                done, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss * KIB / MIB  # ru_maxrss is in KiB on Linux

    def log_lines(self) -> list[str]:
        return self.log_path.read_text().splitlines()


class _CountingSocket:
    """Delegates to a socket and counts the bytes through it."""

    def __init__(self, sock: socket.socket, counter: "_SocketModule"):
        self._sock = sock
        self._counter = counter

    def sendall(self, data):
        self._counter.bytes += len(data)
        return self._sock.sendall(data)

    def recv(self, n: int):
        data = self._sock.recv(n)
        self._counter.bytes += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _SocketModule:
    """Stands in for ``socket`` inside ``wot.net`` to count the buyer's bytes."""

    SHUT_RDWR = socket.SHUT_RDWR

    def __init__(self):
        self.bytes = 0

    def create_connection(self, *args, **kwargs):
        return _CountingSocket(socket.create_connection(*args, **kwargs), self)


# --- measuring loops -----------------------------------------------------------

def _measure(op, seconds: float, min_ops: int):
    """Run ``op(k)`` for ``k = 0, 1, ...`` for about ``seconds``.

    Another operation starts only if the last one's duration still fits,
    so a run ends close to ``seconds``; at least ``min_ops`` run.
    """
    start = time.perf_counter()
    last = 0.0
    k = 0
    while k < min_ops or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        op(k)
        last = time.perf_counter() - t0
        k += 1


class BuyWorkload:
    """Closed-loop purchases over TCP from ``wot serve`` on a p2 bundle."""

    def __init__(self, name: str, seed: int, work: Path):
        rng = random.Random(f"{name}:{seed}")
        if name == "buy_wide":
            self.spec = make_catalog(rng, "w", (1, 1, 2, 2, 2, 2, 3, 3), 64 * KIB)
            self.choices = equal_price_choices(self.spec, 4, rng)
        else:
            self.spec = make_catalog(rng, "n", (1, 1, 1, 1), 12 * MIB)
            self.choices = equal_price_choices(self.spec, 1, rng)
        self.work = work
        self.payload = dict(zip(self.spec.ids, self.spec.payloads))
        self.price = dict(zip(self.spec.ids, self.spec.weights))
        self.out_dir = work / "bought"
        self.bundle_dir = work / "bundle"
        catalog_dir = work / "catalog"
        self.spec.write(catalog_dir)
        # The seller's publish step, in-process; it also warms this process's
        # group parameters, which every buy needs.
        bundle, secrets = protocol.publish(catalog.load_catalog(catalog_dir), MODE_P2,
                                           group.setup_params(GROUP))
        protocol.save_bundle(bundle, self.bundle_dir, secrets=secrets)
        self.ct_bytes = sum(len(ct) for ct in bundle.ciphertexts)
        self.sock = _SocketModule()
        net.socket = self.sock

    def _buy_loop(self, out: Outcome, server: Server, seconds: float, min_ops: int,
                  tracer: Tracer | None = None) -> tuple[list, list]:
        times, wire = [], []

        def one(k: int):
            ids = self.choices[k % len(self.choices)]
            for stale in self.out_dir.glob("*"):
                stale.unlink()
            if tracer is not None:
                tracer.set_session(f"buy-{k}")
            out.attempted += 1
            self.sock.bytes = 0
            t0 = time.perf_counter()
            try:
                result = net.buy("127.0.0.1", server.port, ids, self.out_dir)
            except Exception as exc:  # a failed purchase is counted, the run goes on
                out.fail(f"buy {ids}", exc)
                return
            elapsed = time.perf_counter() - t0
            expected = {i: self.payload[i] for i in ids}
            if (result.total != sum(self.price[i] for i in ids)
                    or dict(result.items) != expected
                    or any((self.out_dir / i).read_bytes() != p for i, p in expected.items())):
                out.fail(f"buy {ids}: wrong plaintext or total")
                return
            times.append(elapsed)
            wire.append(self.sock.bytes)

        _measure(one, seconds, min_ops)
        return times, wire

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        if not trace:
            # Set-up is measured on SETUP_REPEATS spawns; the last server serves the buys.
            servers = []
            try:
                for i in range(SETUP_REPEATS):
                    servers.append(Server(self.bundle_dir, self.work))
                    if i < SETUP_REPEATS - 1:
                        servers[-1].stop()
                times, wire = self._buy_loop(out, servers[-1], seconds, min_ops=1)
            finally:
                peaks = [s.stop() for s in servers]
            rss = peaks[-1]
            buy_s = median(times) if times else float("nan")
            setup_s = median(s.setup_s for s in servers)
            out.end_to_end = {
                "setup_s": (setup_s, "s"),
                "op_s": (buy_s, "s"),
                "bytes_per_op": (median(wire) if wire else float("nan"), "bytes"),
                "peak_rss_mib": (rss, "MiB"),
            }
            out.report = [("buy_s", buy_s, "s", len(times)),
                          ("wire_bytes_per_buy", median(wire) if wire else 0, "bytes", len(wire)),
                          ("server_peak_rss_mib", rss, "MiB", 1),
                          ("setup_s", setup_s, "s", len(servers))]
            return out

        # Traced run: a traced server and a traced client.
        spans_path = self.work / "server-spans.json"
        tracer = Tracer()
        tracer.install()
        traced_server = Server(self.bundle_dir, self.work, spans_path=spans_path)
        try:
            traced, _ = self._buy_loop(out, traced_server, seconds, min_ops=2, tracer=tracer)
        finally:
            traced_server.stop()
            tracer.uninstall()
        server = Spans(json.loads(spans_path.read_text()))
        views = seller_views(server, traced_server.log_lines())
        distinct = len(set(views))
        if distinct != 1:
            out.checks_ok = False
            print(f"FAILED seller-view check: {distinct} distinct views over "
                  f"{len(views)} sales", file=sys.stderr)
        ops = len(traced)
        out.per_layer = per_layer(Spans(tracer.spans), server, max(ops, 1),
                                  delivered_bytes=self.ct_bytes * ops, span_s=span_cost())
        m = out.per_layer
        respond_self = (m["base_ot.ot_respond.self_s_per_pair"][0]
                        * m["base_ot.ot_respond.pairs_per_op"][0])
        wait = m["net.recv_wait.s_per_op"][0]
        out.report = [("seller_view_distinct", distinct, "count", len(views)),
                      ("ot_respond_self_share_of_recv_wait",
                       respond_self / wait if wait else 0.0, "ratio", ops),
                      ("buy_s_traced", median(traced) if traced else 0, "s", ops)]
        return out


class PublishWorkload:
    """The seller's write path: load, publish in p2 and then p1, save."""

    def __init__(self, seed: int, work: Path):
        rng = random.Random(f"publish:{seed}")
        spec = make_catalog(rng, "p", list(range(1, 9)) * 2, 4 * MIB)
        self.work = work
        self.catalog_dir = work / "catalog"
        spec.write(self.catalog_dir)
        # Only the files keep the payloads, so this process's peak RSS is
        # the publishing path's own.
        self.check_order = list(range(len(spec.ids)))
        rng.shuffle(self.check_order)
        self.payload_mib = sum(len(p) for p in spec.payloads) / MIB

    def _setup_s(self) -> float:
        probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(self.catalog_dir)]
        times = [float(subprocess.run(probe, check=True, capture_output=True, text=True,
                                      env=_child_env(), cwd=ROOT, timeout=120).stdout)
                 for _ in range(SETUP_REPEATS)]
        return median(times)

    def _check(self, mode: str, bundle_dir: Path, item: int):
        """Reload the bundle with digests verified and decrypt one item."""
        bundle = protocol.load_bundle(bundle_dir, verify=True)
        secrets = protocol.load_secrets(bundle_dir)
        entry = bundle.manifest.entries[item]
        material = [secrets.flat_secrets[f]
                    for f in FlatIndexMap(bundle.manifest.weights).item_range(item)]
        context = protocol.item_context(mode, entry.id)
        if mode == MODE_P2:
            plaintext = symcrypto.decrypt(symcrypto.combine_shares(material),
                                          bundle.ciphertexts[item], context)
        else:
            plaintext = symcrypto.nested_decrypt(material, bundle.ciphertexts[item], context)
        return plaintext == (self.catalog_dir / f"{entry.id}.bin").read_bytes()

    def _publish_loop(self, out: Outcome, params, seconds: float, min_ops: int,
                      tracer: Tracer | None = None):
        times: dict = {MODE_P2: [], MODE_P1: []}
        pair_times, written, ct_bytes = [], [], []
        # The check's own loads, digests and decrypts are not the publisher's.
        unrecorded = tracer.paused if tracer is not None else contextlib.nullcontext

        def one(k: int):
            if tracer is not None:
                tracer.set_session(f"publish-{k}")
            out.attempted += 1
            item = self.check_order[k % len(self.check_order)]
            took, size, cts = {}, 0, 0
            try:
                for mode in (MODE_P2, MODE_P1):
                    bundle_dir = self.work / f"bundle-{mode}"
                    t0 = time.perf_counter()
                    bundle, secrets = protocol.publish(catalog.load_catalog(self.catalog_dir),
                                                       mode, params)
                    protocol.save_bundle(bundle, bundle_dir, secrets=secrets)
                    took[mode] = time.perf_counter() - t0
                    size += sum(f.stat().st_size for f in bundle_dir.iterdir())
                    cts += sum(len(ct) for ct in bundle.ciphertexts)
                    del bundle, secrets  # the check loads its own copy; keep one at a time
                    with unrecorded():
                        ok = self._check(mode, bundle_dir, item)
                    if not ok:
                        out.fail(f"publish {mode}: item {item} does not decrypt to its payload")
                        return
            except Exception as exc:  # a failed publish is counted, the run goes on
                out.fail("publish", exc)
                return
            for mode, t in took.items():
                times[mode].append(t)
            pair_times.append(sum(took.values()))
            written.append(size)
            ct_bytes.append(cts)

        _measure(one, seconds, min_ops)
        return times, pair_times, written, sum(ct_bytes)

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        if not trace:
            setup_s = self._setup_s()
            params = group.setup_params(GROUP)
            times, pair_times, written, _ = self._publish_loop(out, params, seconds, 1)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * KIB / MIB
            nan = float("nan")
            out.end_to_end = {
                "setup_s": (setup_s, "s"),
                "op_s": (median(pair_times) if pair_times else nan, "s"),
                "bytes_per_op": (median(written) if written else nan, "bytes"),
                "peak_rss_mib": (rss, "MiB"),
            }
            out.report = [(f"publish_{mode}_mib_s", self.payload_mib / median(t) if t else 0,
                           "MiB/s", len(t)) for mode, t in times.items()]
            out.report += [("setup_s", setup_s, "s", SETUP_REPEATS)]
            return out

        # Traced run: the group set-up is the process's first, so it is cold.
        tracer = Tracer()
        tracer.install()
        try:
            params = group.setup_params(GROUP)
            _, traced, _, ct_bytes = self._publish_loop(out, params, seconds, 2, tracer=tracer)
        finally:
            tracer.uninstall()
        ops = len(traced)
        out.per_layer = per_layer(Spans(tracer.spans), None, max(ops, 1),
                                  delivered_bytes=ct_bytes, span_s=span_cost())
        out.report = [("publish_pair_s_traced", median(traced) if traced else 0, "s", ops)]
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    if name == "publish":
        return PublishWorkload(seed, work).run(seconds, trace)
    return BuyWorkload(name, seed, work).run(seconds, trace)
