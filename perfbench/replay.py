"""Traced in-process replay of one workload, for the per-layer metrics.

The replay calls each module's public functions directly on the workload's
own candidate file, in the order the CLI does, with a span around every
call into a layer.  Inner layers are probed with one call per call site the
pipeline makes: one ``delta``, ``admits_zero_chi`` and
``rational_sqrt_exact`` per candidate in the filter and per
Table1Exclusion triple in prove, one ``transport_betti`` per
Table1Exclusion triple, and one ``betti_from_pair`` per row parsed and per
candidate proved.  Spans are kept in memory and written out at the end.

Only this module imports hk4verify; the end-to-end metrics never pass
through it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hk4verify import exact, pipeline, quotient, riemann_roch, topology  # noqa: E402

#: Every per-layer metric the traced run reports, with its unit; a layer the
#: workload does not reach reads 0.
PER_LAYER = {
    "pipeline.parse.busy_s": "s",
    "pipeline.parse.rows": "count",
    "pipeline.parse.rows_invalid": "count",
    "riemann_roch.filter.busy_s": "s",
    "riemann_roch.filter.candidates": "count",
    "riemann_roch.filter.accepted": "count",
    "riemann_roch.filter.accept_ratio": "ratio",
    "pipeline.prove.busy_s": "s",
    "pipeline.prove.certificates": "count",
    "pipeline.prove.lefschetz_mismatch": "count",
    "pipeline.prove.table1_exclusion": "count",
    "pipeline.prove.certs_per_candidate": "ratio",
    "pipeline.verify.calls": "count",
    "pipeline.verify.busy_s": "s",
    "pipeline.verify.us_per_call": "us",
    "pipeline.emit.busy_s": "s",
    "pipeline.emit.bytes": "bytes",
    "pipeline.emit.bytes_per_row": "bytes",
    "pipeline.emit.mb_per_s": "MB/s",
    "riemann_roch.delta.calls": "count",
    "riemann_roch.delta.us_per_call": "us",
    "riemann_roch.admits_zero_chi.calls": "count",
    "riemann_roch.admits_zero_chi.us_per_call": "us",
    "exact.rational_sqrt_exact.calls": "count",
    "exact.rational_sqrt_exact.us_per_call": "us",
    "topology.betti_from_pair.calls": "count",
    "topology.betti_from_pair.us_per_call": "us",
    "quotient.transport_betti.calls": "count",
    "quotient.transport_betti.us_per_call": "us",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans (id, name, parent, start, end, workload, iteration) and the
    per-layer samples of every replay iteration."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
        self.iterations = 0
        self.failed = 0
        self._stack: list[int] = []
        self._origin = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "iteration": self.iterations,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        start = time.perf_counter_ns()
        try:
            yield record
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            record["start_ns"] = start - self._origin
            record["end_ns"] = end - self._origin

    def probe(self, values: dict, layer: str, fn, inputs: list[tuple]) -> None:
        """Time one call of ``fn`` per input tuple under a span named ``layer``."""
        with self.span(layer) as s:
            for args in inputs:
                fn(*args)
        values[f"{layer}.calls"] = len(inputs)
        values[f"{layer}.us_per_call"] = (
            busy_s(s) * 1e6 / len(inputs) if inputs else 0.0
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            name: (statistics.median(self.samples[name]), unit)
            for name, unit in PER_LAYER.items()
            if self.samples[name]
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def busy_s(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def replay_once(
    tracer: Tracer, workload, candidates: Path, cli_wall_s: float, cli_hash: str | None
) -> None:
    """One traced pass over the workload; adds a sample for every metric
    except cli.import_s, and counts a failure when the in-process report
    differs from the CLI's."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    del values["cli.import_s"]
    with tracer.span("replay") as root:
        with tracer.span("pipeline.parse") as s:
            cf = pipeline.load_candidates(candidates)
        values["pipeline.parse.busy_s"] = busy_s(s)
        values["pipeline.parse.rows"] = len(cf.rows)
        values["pipeline.parse.rows_invalid"] = len(cf.invalid_rows())
        pairs = cf.valid_pairs()
        if workload.fmt == "filter":
            data, rows = _replay_filter(tracer, values, cf, pairs)
        else:
            data, rows = _replay_prove(tracer, values, cf, pairs, workload.fmt)
        values["pipeline.emit.bytes"] = len(data)
        values["pipeline.emit.bytes_per_row"] = len(data) / rows if rows else 0.0
        values["pipeline.emit.mb_per_s"] = (
            len(data) / 1e6 / values["pipeline.emit.busy_s"]
        )
    values["trace.overhead_s"] = busy_s(root) - cli_wall_s
    if oracle.sha256_digest(data) != cli_hash:
        tracer.failed += 1
        print(f"[{tracer.workload}] FAIL: in-process report differs from the CLI's",
              file=sys.stderr)
    tracer.iterations += 1
    for name, value in values.items():
        tracer.samples[name].append(value)


def _replay_filter(tracer: Tracer, values: dict, cf, pairs) -> tuple[bytes, int]:
    with tracer.span("riemann_roch.filter") as s:
        records = riemann_roch.filter_candidates(pairs)
    accepted = sum(r.accepted for r in records)
    values["riemann_roch.filter.busy_s"] = busy_s(s)
    values["riemann_roch.filter.candidates"] = len(records)
    values["riemann_roch.filter.accepted"] = accepted
    values["riemann_roch.filter.accept_ratio"] = accepted / len(records) if records else 0.0
    with tracer.span("pipeline.emit") as s:
        data = pipeline.emit_filter_report(cf)
    values["pipeline.emit.busy_s"] = busy_s(s)
    c4s = [(oracle.c4_of(b2, b3),) for b2, b3 in pairs]
    tracer.probe(values, "riemann_roch.delta", riemann_roch.delta, c4s)
    tracer.probe(values, "riemann_roch.admits_zero_chi", riemann_roch.admits_zero_chi, c4s)
    tracer.probe(
        values, "exact.rational_sqrt_exact", exact.rational_sqrt_exact,
        [(oracle.delta_of(c4),) for (c4,) in c4s],
    )
    tracer.probe(values, "topology.betti_from_pair", topology.betti_from_pair, pairs)
    return data, len(records)


def _replay_prove(tracer: Tracer, values: dict, cf, pairs, fmt: str) -> tuple[bytes, int]:
    with tracer.span("pipeline.prove") as s:
        certs = pipeline.prove(cf)
    exclusions = [c for c in certs if c.branch is pipeline.Branch.TABLE1_EXCLUSION]
    values["pipeline.prove.busy_s"] = busy_s(s)
    values["pipeline.prove.certificates"] = len(certs)
    values["pipeline.prove.lefschetz_mismatch"] = len(certs) - len(exclusions)
    values["pipeline.prove.table1_exclusion"] = len(exclusions)
    values["pipeline.prove.certs_per_candidate"] = len(certs) / len(pairs) if pairs else 0.0
    with tracer.span("pipeline.verify") as s:
        for cert in certs:
            pipeline.verify_certificate(cert)
    values["pipeline.verify.calls"] = len(certs)
    values["pipeline.verify.busy_s"] = busy_s(s)
    values["pipeline.verify.us_per_call"] = busy_s(s) * 1e6 / len(certs) if certs else 0.0
    with tracer.span("pipeline.emit") as s:
        data = pipeline.emit_report(certs, fmt, input_digest=cf.digest)
    values["pipeline.emit.busy_s"] = busy_s(s)
    rows = len(certs)
    del certs
    c4s = [(c.details["c4_W"],) for c in exclusions]
    tracer.probe(values, "riemann_roch.delta", riemann_roch.delta, c4s)
    tracer.probe(values, "riemann_roch.admits_zero_chi", riemann_roch.admits_zero_chi, c4s)
    tracer.probe(
        values, "exact.rational_sqrt_exact", exact.rational_sqrt_exact,
        [(c.details["delta"],) for c in exclusions],
    )
    tracer.probe(
        values, "quotient.transport_betti", quotient.transport_betti,
        [
            (
                topology.betti_from_pair(*c.candidate),
                quotient.FixedLocusProfile(
                    p=c.prime, m=c.details["m"], k=c.details["k"], t=c.t
                ),
            )
            for c in exclusions
        ],
    )
    # betti_from_pair runs once per row parsed and once per candidate proved
    tracer.probe(values, "topology.betti_from_pair", topology.betti_from_pair, pairs * 2)
    return data, rows
