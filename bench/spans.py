"""Span recorder for the traced pass.

The recorder replaces a library function under the name its caller looks it
up by (for example ``groversim.grover.walsh_hadamard_fast``) with a wrapper
that records a span: name, start, end, parent span and operation id. Spans
stay in memory and are written out once the run ends. A layer's self time is
its span time minus the time covered by its child spans.

Functions called once per input (such as ``run_circuit`` inside
``circuit verify``) are recorded in aggregate mode: they add to the per-name
call count and self time, but keep no individual span.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.active = False
        self.op_id = 0
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        # name -> [calls, self_s, bytes_computed]
        self.totals: dict[str, list] = {}
        self._stack: list[list] = []  # open frames: [span_id, child_s]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        """targets: (owner, attribute, span name, aggregate, weigh or None).

        weigh(*args) returns the bytes one call computes, from array sizes.
        """
        for owner, attr, name, aggregate, weigh in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, aggregate, weigh))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, name: str, fn):
        """Run fn() as the root span of a new operation."""
        self.op_id += 1
        return self._wrap(fn, name, False, None)()

    def _wrap(self, fn, name: str, aggregate: bool, weigh):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec._next_id += 1
            frame = [rec._next_id, 0.0]
            parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                entry = rec.totals.get(name)
                if entry is None:
                    entry = rec.totals[name] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration - frame[1]
                if weigh is not None:
                    entry[2] += weigh(*args)
                if not aggregate:
                    rec.spans.append(
                        (rec.op_id, frame[0], parent[0] if parent else None, name, start, end)
                    )

        return wrapper

    def write(self, path, origin: float) -> None:
        """Write the recorded spans as JSON lines, times relative to origin."""
        with open(path, "w", encoding="utf-8") as out:
            for op, span, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "op": op, "id": span, "parent": parent, "name": name,
                    "start_s": start - origin, "end_s": end - origin,
                }) + "\n")


def wh_bytes(state) -> int:
    """Bytes one butterfly transform computes, from array sizes (not measured):
    n passes, each reading and writing the whole complex128 vector."""
    return 2 * state.n * 16 * (1 << state.n)


def library_targets(lib):
    """Every public function the benchmark records, under each name a caller
    looks it up by. lib is a namespace of the groversim modules."""
    g, cli, doc, rev, ps, tr, st = (
        lib.grover, lib.cli, lib.documents, lib.reversible, lib.pathsum, lib.transforms, lib.state
    )
    plan = [
        ("transforms.wh_fast", [(g, "walsh_hadamard_fast"), (ps, "walsh_hadamard_fast"),
                                (tr, "walsh_hadamard_fast")], False, wh_bytes),
        ("transforms.wh_naive", [(tr, "walsh_hadamard_naive")], False, None),
        ("transforms.flip_marked", [(g, "invert_phase_marked"), (tr, "invert_phase_marked")],
         False, None),
        ("transforms.flip_zero", [(g, "invert_phase_zero"), (ps, "invert_phase_zero"),
                                  (tr, "invert_phase_zero")], False, None),
        ("state.init", [(g, "basis_state"), (ps, "basis_state")], False, None),
        ("state.measure", [(g, "measure")], False, None),
        ("state.permute", [(st, "apply_permutation")], False, None),
        ("grover.run", [(g, "run_grover"), (cli, "run_grover")], False, None),
        ("grover.scan", [(g, "scan_probabilities"), (cli, "scan_probabilities")], False, None),
        ("grover.success_probability", [(g, "success_probability"),
                                        (cli, "success_probability")], False, None),
        ("grover.classical", [(g, "classical_baseline"), (cli, "classical_baseline")],
         False, None),
        # Each call either tabulates a predicate (first call) or returns the
        # cached index array, so its self time is the tabulation cost.
        ("grover.oracle.tabulate", [(g.Oracle, "marked_indices")], True, None),
        ("documents.render_trace", [(cli, "render_trace_document"),
                                    (doc, "render_trace_document")], False, None),
        ("documents.parse_trace", [(doc, "parse_trace_document")], False, None),
        ("documents.render_circuit", [(cli, "render_circuit_document"),
                                      (doc, "render_circuit_document")], False, None),
        ("documents.parse_circuit", [(cli, "parse_circuit_document"),
                                     (doc, "parse_circuit_document")], False, None),
        ("cli.main", [(cli, "main")], False, None),
        ("reversible.run_circuit", [(cli, "run_circuit"), (rev, "run_circuit")], True, None),
        ("reversible.index_to_bits", [(cli, "index_to_bits")], True, None),
        ("reversible.check_bijection", [(cli, "check_bijection")], False, None),
        ("reversible.inverse", [(cli, "inverse_circuit")], False, None),
        ("reversible.to_permutation", [(rev, "circuit_to_permutation")], False, None),
        ("pathsum.verify", [(ps, "verify_against_matrix")], False, None),
        ("pathsum.path_amplitude", [(ps, "path_amplitude")], False, None),
    ]
    return [
        (owner, attr, name, aggregate, weigh)
        for name, sites, aggregate, weigh in plan
        for owner, attr in sites
    ]
