"""Per-layer metrics and the seller-view check, computed from recorded spans.

Naming: ``<module>.<function>.<quantity>``. A quantity starting with ``s``
is inclusive wall time (the call and everything it called); one starting
with ``self_s`` excludes the time spent in traced callees. ``per_op``
divides by the operations measured in the traced phase (buys, or publish
pairs). Spans of an operation are the buyer's spans of that buy and, on
the server, the spans of the TCP session that answered it.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

MIB = 1 << 20

# Wire names of the message classes, as in ``wot.framing``.
FRAME_TYPES = {
    "Hello": "HELLO",
    "ManifestMsg": "MANIFEST",
    "CtReq": "CT_REQ",
    "CtData": "CT_DATA",
    "OtBatchQuery": "OT_BATCH_QUERY",
    "OtBatchResp": "OT_BATCH_RESP",
    "Done": "DONE",
}

ID, NAME, START, END, PARENT, SESSION, TAG, NBYTES = range(8)


class Spans:
    """One process's spans, with self times."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        covered: dict = defaultdict(float)
        for s in spans:
            if s[PARENT] is not None:
                covered[s[PARENT]] += s[END] - s[START]
        self.self_s = {s[ID]: (s[END] - s[START]) - covered[s[ID]] for s in spans}

    def sessions_calling(self, name: str) -> set:
        return {s[SESSION] for s in self.spans if s[NAME] == name}


def _dur(s) -> float:
    return s[END] - s[START]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def seller_views(server: Spans, log_lines: list[str]) -> list[tuple]:
    """Everything the server did or logged in each sale, one entry per sale.

    The seller's view must depend only on ``(N, T)``: calls per traced
    function, frame types and bytes sent, bytes read, and the session log
    line with its ordinal removed.
    """
    sales = server.sessions_calling("protocol.run_session_sender")
    per_session: dict = defaultdict(list)
    for s in server.spans:
        if s[SESSION] in sales:
            per_session[s[SESSION]].append(s)
    billed = [line.split(" billed ", 1)[1] for line in log_lines if " billed " in line]
    views = []
    for ordinal, session in enumerate(sorted(per_session, key=lambda k: min(
            s[START] for s in per_session[k]))):
        spans = per_session[session]
        views.append((
            tuple(sorted(Counter(s[NAME] for s in spans).items())),
            tuple(sorted(Counter((s[TAG], s[NBYTES]) for s in spans
                                 if s[NAME] == "framing.encode_frame").items())),
            sum(s[NBYTES] for s in spans if s[NAME] == "net._recv_exact"),
            billed[ordinal] if ordinal < len(billed) else None,
        ))
    return views


def per_layer(buyer: Spans, server: Spans | None, ops: int, delivered_bytes: int,
              span_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; layers off the workload's path read 0.

    ``span_s`` is what one wrapper call costs (``tracing.span_cost``); the
    tracing overhead of an operation is its span count times that cost.
    """
    processes = [buyer] + ([server] if server is not None else [])
    sales = server.sessions_calling("protocol.run_session_sender") if server else set()
    # (span, self seconds, process) for every span of a measured operation
    op_spans = [(s, buyer.self_s[s[ID]], buyer) for s in buyer.spans
                if isinstance(s[SESSION], str)]
    if server is not None:
        op_spans += [(s, server.self_s[s[ID]], server) for s in server.spans
                     if s[SESSION] in sales]

    def of(name, tag=None):
        return [(s, self_s, proc) for s, self_s, proc in op_spans
                if s[NAME] == name and (tag is None or s[TAG] == tag)]

    def every(name, tag=None):
        return [s for proc in processes for s in proc.spans
                if s[NAME] == name and (tag is None or s[TAG] == tag)]

    def inclusive(name, tag=None):
        return sum(_dur(s) for s, _, _ in of(name, tag))

    def exclusive(name, tag=None):
        return sum(self_s for _, self_s, _ in of(name, tag))

    def nbytes(name, tag=None):
        return sum(s[NBYTES] for s, _, _ in of(name, tag))

    def mib_s(name):
        return _ratio(nbytes(name) / MIB, inclusive(name))

    pairs = nbytes("base_ot.ot_respond")
    recv_wait = sum(_dur(s) for s, _, proc in of("net._recv_exact")
                    if proc is buyer and s[PARENT] is not None
                    and proc.by_id[s[PARENT]][TAG] == "OtBatchResp")
    digest_bytes = sum(s[NBYTES] for s, _, proc in of("catalog.ciphertext_digest")
                       if proc is buyer)

    m: dict[str, tuple[float, str]] = {
        "group.setup_params.s": (max((_dur(s) for s in every("group.setup_params")),
                                     default=0.0), "s"),
        "group.is_member.calls_per_op": (len(of("group.is_member")) / ops, "count"),
        "group.is_member.s_per_op": (inclusive("group.is_member") / ops, "s"),
        "group.kdf_pad.calls_per_op": (len(of("group.kdf_pad")) / ops, "count"),
        "group.kdf_pad.s_per_op": (inclusive("group.kdf_pad") / ops, "s"),
        "base_ot.ot_respond.pairs_per_op": (pairs / ops, "count"),
        "base_ot.ot_respond.s_per_pair": (_ratio(inclusive("base_ot.ot_respond"), pairs), "s"),
        "base_ot.ot_respond.self_s_per_pair": (_ratio(exclusive("base_ot.ot_respond"), pairs),
                                               "s"),
        "base_ot.ot_query.s_per_pick": (_ratio(inclusive("base_ot.ot_query"),
                                               len(of("base_ot.ot_query"))), "s"),
        "base_ot.ot_recover.s_per_pick": (_ratio(inclusive("base_ot.ot_recover"),
                                                 len(of("base_ot.ot_recover"))), "s"),
        "protocol.run_session_sender.self_s_per_op": (
            exclusive("protocol.run_session_sender") / ops, "s"),
        "protocol.run_session_receiver.self_s_per_op": (
            exclusive("protocol.run_session_receiver") / ops, "s"),
        "protocol.publish.p2.s": (_median(_dur(s) for s in every("protocol.publish", "p2")),
                                  "s"),
        "protocol.publish.p1.s": (_median(_dur(s) for s in every("protocol.publish", "p1")),
                                  "s"),
        "protocol.save_bundle.s": (_median(_dur(s) for s in every("protocol.save_bundle")), "s"),
        "protocol.load_bundle.s": (_median(_dur(s) for s in every("protocol.load_bundle")), "s"),
        "symcrypto.encrypt.calls_per_op": (len(of("symcrypto.encrypt")) / ops, "count"),
        "symcrypto.encrypt.mib_s": (mib_s("symcrypto.encrypt"), "MiB/s"),
        "symcrypto.nested_encrypt.mib_s": (mib_s("symcrypto.nested_encrypt"), "MiB/s"),
        "symcrypto.split_key.calls_per_op": (len(of("symcrypto.split_key")) / ops, "count"),
        "symcrypto.decrypt.mib_s": (mib_s("symcrypto.decrypt"), "MiB/s"),
        "catalog.ciphertext_digest.bytes_per_delivered_byte": (
            _ratio(digest_bytes, delivered_bytes), "ratio"),
        "catalog.load_catalog.s": (_median(_dur(s) for s in every("catalog.load_catalog")), "s"),
    }
    for cls, wire in FRAME_TYPES.items():
        m[f"framing.encode_frame.{wire}.s_per_op"] = (
            inclusive("framing.encode_frame", cls) / ops, "s")
        m[f"framing.encode_frame.{wire}.bytes_per_op"] = (
            nbytes("framing.encode_frame", cls) / ops, "bytes")
        m[f"framing.read_frame.{wire}.self_s_per_op"] = (
            exclusive("framing.read_frame", cls) / ops, "s")
    m["net.fetch_bundle.s_per_op"] = (inclusive("net.fetch_bundle") / ops, "s")
    m["net.recv_wait.s_per_op"] = (recv_wait / ops, "s")
    m["net.buy.s"] = (_median(_dur(s) for s in every("net.buy")), "s")
    m["trace.overhead.s_per_op"] = (len(op_spans) / ops * span_s, "s")
    return m
