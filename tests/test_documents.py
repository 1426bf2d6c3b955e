import dataclasses
import io
import json
import math
import tracemalloc
from functools import reduce
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    Gate,
    GroverConfig,
    Oracle,
    ReversibleCircuit,
    TraceDocument,
    adder_circuit,
    inverse_circuit,
    parse_circuit_document,
    parse_trace_document,
    render_circuit_document,
    render_trace_document,
    run_grover,
    write_trace_document,
)
import groversim
from groversim.cli import main
from groversim.documents import (
    TRACE_NORM_TOLERANCE,
    _format_floats,
    _parse_trace_json,
    _read_written_trace,
)
from groversim.reversible import GATE_CONTROL_COUNTS
from helpers import load_bench, traced

ADDER_DOC = """{
  "format_version": "1",
  "wires": 3,
  "gates": [
    {"type": "TOFFOLI", "target": 2, "controls": [0, 1]},
    {"type": "CNOT", "target": 1, "controls": [0]}
  ]
}
"""


def four_state_trace_doc():
    return traced(GroverConfig(2, Oracle(2, marked={2}), iterations=1, seed=3))[1]


def test_format_floats_round_trips_doubles():
    values = [0.1, 1.0 / 3.0, 0.5000000000000001, -1.0, 2.0**-52, 1e22, 0.0, -0.0]
    for v, text in zip(values, _format_floats(np.array(values))):
        back = float(text)
        assert back == v
        assert math.copysign(1.0, back) == math.copysign(1.0, v)
    assert _format_floats(np.array([0.5, 1.0, -0.0])) == ["0.5", "1", "-0.0"]


def test_trace_document_from_run():
    doc = four_state_trace_doc()
    assert doc.format_version == "1"
    assert doc.algorithm == "pcg64"
    assert doc.n == 2
    assert doc.seed == 3
    assert [label for label, _ in doc.steps] == ["i", "ii", "iii", "iv", "v"]
    assert doc.outcome == 2
    assert doc.oracle_evals == 1


def test_trace_render_is_valid_json_with_expected_fields():
    doc = four_state_trace_doc()
    raw = json.loads(render_trace_document(doc))
    assert raw["format_version"] == "1"
    assert raw["rng"] == {"algorithm": "pcg64", "seed": 3}
    assert len(raw["steps"]) == 5
    assert raw["steps"][0]["label"] == "i"
    assert len(raw["steps"][0]["amplitudes"]) == 4
    assert raw["outcome"] == 2
    assert raw["oracle_evals"] == 1


def test_trace_round_trip_bytes_and_floats():
    doc = four_state_trace_doc()
    text = render_trace_document(doc)
    parsed = parse_trace_document(text)
    assert render_trace_document(parsed) == text
    assert parsed.n == doc.n
    assert parsed.seed == doc.seed
    assert parsed.outcome == doc.outcome
    assert parsed.oracle_evals == doc.oracle_evals
    for (label_a, amps_a), (label_b, amps_b) in zip(parsed.steps, doc.steps):
        assert label_a == label_b
        assert np.array_equal(amps_a, amps_b)


def format_every_value(amps):
    """The per-value renderer the value table replaced: every double
    through _format_floats, then one zip join."""
    parts = _format_floats(amps.view(np.float64))
    return ",".join([f"[{re},{im}]" for re, im in zip(parts[::2], parts[1::2])])


def render_differences(doc):
    """None when the table renderer writes what the per-value renderer
    writes, else the first differing offset with both contexts; a plain ==
    would have pytest diff megabytes of text."""
    got = render_trace_document(doc)
    with mock.patch("groversim.documents._TraceWriter.pairs",
                    lambda writer, amps: format_every_value(amps)):
        want = render_trace_document(doc)
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[i - 40:i + 40], want[i - 40:i + 40]


@st.composite
def repetitive_snapshots(draw):
    """A unit vector for n <= 6 whose parts come from a pool of one to all
    2 * 2**n values, zeros of both signs included: few distinct values,
    many, or all."""
    n = draw(st.integers(1, 6))
    count = 2 << n
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1))
    pool = draw(st.lists(part, min_size=1, max_size=count))
    if len(pool) == count:
        parts = pool
    else:
        parts = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    amps = np.array(parts).view(np.complex128)
    with np.errstate(all="ignore"):
        return n, amps / np.linalg.norm(amps)


@settings(deadline=None, max_examples=300)
@given(repetitive_snapshots())
def test_table_renderer_matches_the_per_value_renderer(snapshot):
    n, amps = snapshot
    try:
        doc = TraceDocument(n, 0, [("i", amps), ("ii", -amps)], 0, 0)
    except ValueError:
        return  # an all-zero or subnormal pool has no unit-norm scaling
    assert render_differences(doc) is None


@pytest.mark.parametrize("n", range(1, 12))
def test_traced_runs_render_as_the_per_value_renderer_does(n):
    marked = {(5 * n) % (1 << n)} if n < 4 else {3, (1 << n) - 2}
    _, doc = traced(GroverConfig(n, Oracle(n, marked=marked), seed=n))
    assert render_differences(doc) is None


@st.composite
def snapshot_sequences(draw):
    """A repetitive unit vector, then snapshots that each change it exactly,
    keeping its norm: a few entries negated (as the oracle flips them), two
    entries swapped, the sign of zero parts flipped, or nothing at all."""
    n, amps = draw(repetitive_snapshots())
    steps = [amps]
    for _ in range(draw(st.integers(1, 6))):
        amps = amps.copy()
        parts = amps.view(np.float64)
        change = draw(st.sampled_from(["negate", "swap", "zero signs", "repeat"]))
        if change == "negate":
            picked = draw(st.lists(st.integers(0, amps.size - 1), min_size=1, max_size=3))
            amps[picked] = -amps[picked]
        elif change == "swap":
            i, j = draw(st.integers(0, amps.size - 1)), draw(st.integers(0, amps.size - 1))
            amps[[i, j]] = amps[[j, i]]
        elif change == "zero signs":
            zeros = np.flatnonzero(parts == 0)
            if zeros.size:
                picked = draw(st.lists(st.sampled_from(zeros.tolist()), min_size=1))
                parts[picked] = -parts[picked]
        steps.append(amps)
    return n, steps


@settings(deadline=None, max_examples=300)
@given(snapshot_sequences())
def test_each_snapshot_of_a_sequence_renders_as_the_per_value_renderer_does(sequence):
    # The writer reformats only the entries whose bits changed since the
    # snapshot before, so +0.0 and -0.0 must count as a change.
    n, snapshots = sequence
    try:
        doc = TraceDocument(n, 0, [(f"s{i}", amps) for i, amps in enumerate(snapshots)], 0, 0)
    except ValueError:
        return  # an all-zero or subnormal pool has no unit-norm scaling
    assert render_differences(doc) is None


@settings(deadline=None, max_examples=300)
@given(snapshot_sequences())
def test_the_direct_reader_reads_each_snapshot_of_a_sequence_as_json_does(sequence):
    # Each step line is read as a change from the one before, reusing the
    # amplitudes of the pair texts the two lines share at both ends.
    n, snapshots = sequence
    try:
        doc = TraceDocument(n, 0, [(f"s{i}", amps) for i, amps in enumerate(snapshots)], 0, 0)
    except ValueError:
        return  # an all-zero or subnormal pool has no unit-norm scaling
    text = render_trace_document(doc)
    direct = _read_written_trace(text)
    assert direct is not None
    assert_same_document(direct, _parse_trace_json(text))
    assert_same_document(direct, doc)


@pytest.mark.parametrize("n, marked", [
    *((n, {(3 * n) % (1 << n)} if n < 4 else {1, (1 << n) - 3}) for n in range(1, 12)),
    # Each marked-flip line changes pairs far apart; the whole span between is decoded.
    (11, {3, 700, 1500}),
], ids=[*map(str, range(1, 12)), "11-far-apart"])
def test_the_direct_reader_takes_every_trace_the_writers_write(n, marked):
    run = io.StringIO()
    run_grover(GroverConfig(n, Oracle(n, marked=marked), seed=n), run)
    with mock.patch("groversim.documents._parse_trace_json",
                    wraps=_parse_trace_json) as json_route:
        doc = parse_trace_document(run.getvalue())
        written = io.StringIO()
        write_trace_document(doc, written)
        assert written.getvalue() == run.getvalue()
        parse_trace_document(written.getvalue())
    assert json_route.call_count == 0


def test_trace_round_trip_with_empty_steps():
    text = render_trace_document(TraceDocument(2, 0, [], 2, 1))
    parsed = parse_trace_document(text)
    assert parsed.steps == []
    assert render_trace_document(parsed) == text


def test_a_trace_with_no_steps_renders_and_parses_in_little_memory_at_any_n():
    # The writer sizes what it keeps of a snapshot at the first one, so an
    # empty trace costs nothing of its 2**n.
    tracemalloc.start()
    try:
        text = render_trace_document(TraceDocument(62, 0, [], 0, 0))
        assert render_trace_document(parse_trace_document(text)) == text
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def one_qubit_document(amps):
    """A valid n=1 document whose one step is then replaced by amps, past
    the constructor's checks."""
    doc = TraceDocument(1, 0, [("i", [1, 0])], 0, 0)
    doc.steps[0] = ("i", amps)
    return doc


@pytest.mark.parametrize(
    "amps, message",
    [
        (np.array([np.nan, 0j]), "steps[0]: snapshot norm differs from 1 by nan"),
        (np.array([0.6, 0.8, 0j]), "steps[0].amplitudes: has shape (3,), expected (2,)"),
    ],
    ids=["nan", "length-3"],
)
def test_the_writer_refuses_a_snapshot_the_constructor_refuses(amps, message):
    with pytest.raises(ValueError) as built:
        TraceDocument(1, 0, [("i", amps)], 0, 0)
    with pytest.raises(ValueError) as written:
        write_trace_document(one_qubit_document(amps), io.StringIO())
    assert str(written.value) == str(built.value) == message


@pytest.mark.parametrize(
    "amps",
    [
        np.array([0.6, 0.8]),
        np.array([0.6, 9, 0.8j, 9])[::2],
        np.array([0.5 + 0.5j, -0.5 + 0.5j], dtype=np.complex64),
    ],
    ids=["float64", "strided-complex128", "complex64"],
)
def test_the_writer_renders_any_array_the_constructor_takes_as_built(amps):
    built = TraceDocument(1, 0, [("i", amps)], 0, 0)
    assert render_trace_document(one_qubit_document(amps)) == render_trace_document(built)


def test_the_writer_refuses_a_huge_n_set_after_construction_in_little_memory():
    doc = TraceDocument(1, 0, [], 0, 0)
    doc.n = 10**9
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^n: must be >= 1 and <= 62, got 1000000000$"):
            render_trace_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", True, "rng.seed: expected an integer, got True"),
        ("seed", -1, "rng.seed: must be >= 0, got -1"),
        ("algorithm", 7, "rng.algorithm: expected a string, got 7"),
        ("steps", [(5, np.array([1, 0j]))], "steps[0].label: expected a string, got 5"),
        ("outcome", 5, "outcome: must be >= 0 and <= 1, got 5"),
        ("oracle_evals", -3, "oracle_evals: must be >= 0, got -3"),
    ],
    ids=["seed", "negative seed", "algorithm", "label", "outcome", "oracle_evals"],
)
def test_the_writer_refuses_a_field_the_constructor_refuses(field, value, message):
    doc = TraceDocument(1, 0, [("i", np.array([1, 0j]))], 0, 0)
    valid = render_trace_document(doc)
    with pytest.raises(ValueError) as built:
        dataclasses.replace(doc, **{field: value})
    setattr(doc, field, value)
    out = io.StringIO()
    with pytest.raises(ValueError) as written:
        write_trace_document(doc, out)
    assert str(written.value) == str(built.value) == message
    # Each field is checked before the text that holds it is written.
    assert valid.startswith(out.getvalue())


# The integer fields, each with the name the file and the messages give it.
INT_FIELDS = {"n": "n", "seed": "rng.seed", "outcome": "outcome", "oracle_evals": "oracle_evals"}


@st.composite
def trace_document_fields(draw):
    """Constructor arguments for n <= 4: finite snapshots with signed zeros,
    each normalized or left as drawn, plus unicode labels and metadata. One
    integer field, label or algorithm in eight holds a value of another
    type instead (a string is a good label or algorithm)."""

    def maybe_bad(value):
        if draw(st.integers(0, 7)):
            return value
        return draw(st.one_of(st.booleans(), st.floats(), st.text(), st.none()))

    n = draw(st.integers(1, 4))
    size = 1 << n
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
    steps = []
    for _ in range(draw(st.integers(0, 3))):
        amps = np.array(draw(st.lists(part, min_size=2 * size, max_size=2 * size))).view(np.complex128)
        if draw(st.booleans()):
            with np.errstate(all="ignore"):
                amps = amps / np.linalg.norm(amps)
        steps.append((maybe_bad(draw(st.text())), amps))
    return dict(
        n=maybe_bad(n), seed=maybe_bad(draw(st.integers(min_value=0))), steps=steps,
        outcome=maybe_bad(draw(st.integers(0, size - 1))),
        oracle_evals=maybe_bad(draw(st.integers(min_value=0))),
        algorithm=maybe_bad(draw(st.text())),
    )


def first_fault(fields):
    """The message of the first rule the constructor checks that fields
    break, or None: the integer fields, the algorithm, then each step's
    label and norm in turn."""
    for name, shown in INT_FIELDS.items():
        if type(fields[name]) is not int:
            return f"{shown}: expected an integer, got {fields[name]!r}"
    if not isinstance(fields["algorithm"], str):
        return f"rng.algorithm: expected a string, got {fields['algorithm']!r}"
    for i, (label, amps) in enumerate(fields["steps"]):
        if not isinstance(label, str):
            return f"steps[{i}].label: expected a string, got {label!r}"
        drift = abs(float(np.linalg.norm(amps)) - 1.0)
        if not drift <= TRACE_NORM_TOLERANCE:
            return f"steps[{i}]: snapshot norm differs from 1 by {drift:g}"
    return None


# Huge drawn parts overflow the norm of a snapshot the constructor rejects.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=200)
@given(trace_document_fields())
def test_every_constructible_trace_document_round_trips(fields):
    fault = first_fault(fields)
    try:
        doc = TraceDocument(**fields)
    except ValueError as exc:
        assert str(exc) == fault
        return
    assert fault is None
    text = render_trace_document(doc)
    written = io.StringIO()
    write_trace_document(doc, written)
    assert written.getvalue() == text
    parsed = _read_written_trace(text)
    assert_same_document(parsed, _parse_trace_json(text))
    assert_same_document(parse_trace_document(text), doc)
    assert render_trace_document(parsed) == text


def test_trace_document_validation():
    with pytest.raises(ValueError, match="outcome"):
        TraceDocument(n=1, seed=0, steps=[], outcome=2, oracle_evals=0)
    with pytest.raises(ValueError, match="amplitudes"):
        TraceDocument(n=2, seed=0, steps=[("i", np.ones(3))], outcome=0, oracle_evals=0)
    with pytest.raises(ValueError, match="oracle_evals"):
        TraceDocument(n=1, seed=0, steps=[], outcome=0, oracle_evals=-1)
    with pytest.raises(ValueError, match=r"steps\[1\]: snapshot norm differs from 1 by nan"):
        TraceDocument(1, 0, [("i", [1, 0]), ("ii", [np.nan, 0])], 0, 0)
    with pytest.raises(ValueError, match=r"steps\[0\]: snapshot norm differs from 1 by 1"):
        TraceDocument(1, 0, [("i", [2.0, 0.0])], 0, 0)
    with pytest.raises(ValueError, match="n: must be >= 1 and <= 62, got 63"):
        TraceDocument(n=63, seed=0, steps=[], outcome=0, oracle_evals=0)
    with pytest.raises(TypeError, match="format_version"):
        TraceDocument(n=1, seed=0, steps=[], outcome=0, oracle_evals=0, format_version="1")


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(algorithm=5), "rng.algorithm: expected a string, got 5"),
        (dict(algorithm=None), "rng.algorithm: expected a string, got None"),
        (dict(steps=[("i", [1, 0]), (7, [1, 0])]), "steps[1].label: expected a string, got 7"),
        (dict(steps=[(None, [1, 0])]), "steps[0].label: expected a string, got None"),
    ],
)
def test_trace_document_refuses_what_its_parser_refuses(fields, message):
    fields = dict(dict(n=1, seed=0, steps=[("i", [1, 0])], outcome=0, oracle_evals=0), **fields)
    with pytest.raises(ValueError) as info:
        TraceDocument(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("field", INT_FIELDS)
@pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
def test_trace_document_rejects_integer_fields_of_other_types(field, value):
    fields = dict(n=1, seed=0, steps=[], outcome=0, oracle_evals=0)
    fields[field] = value
    with pytest.raises(ValueError) as info:
        TraceDocument(**fields)
    assert str(info.value) == f"{INT_FIELDS[field]}: expected an integer, got {value!r}"


def test_parse_trace_rejects_a_huge_n_without_allocating():
    text = (
        '{"format_version": "1", "n": 1000000000, "rng": {"algorithm": "pcg64", "seed": 0}, '
        '"steps": [], "outcome": 0, "oracle_evals": 0}'
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="trace document: n: must be >= 1 and <= 62"):
            parse_trace_document(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="trace document: n: must be >= 1 and <= 62"):
        parse_trace_document(text.replace("1000000000", str(10**30)))


@pytest.mark.parametrize("qubits", [9, 10])
def test_parse_trace_peaks_below_the_text_length(qubits, tmp_path, capsys):
    # Text in the writer's layout is read directly, one step line at a time.
    # Through json.loads, each snapshot is packed as JSON closes its step.
    # Neither route holds the list tree of the whole document (about 5x its
    # text).
    path = tmp_path / "trace.json"
    assert main(["grover", "run", "--qubits", str(qubits), "--marked", "3", "--trace", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    for parse in (parse_trace_document, _parse_trace_json):
        tracemalloc.start()
        try:
            doc = parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(doc.steps) > 50
        assert peak < len(text)


def assert_same_document(parsed, doc):
    assert (parsed.n, parsed.seed, parsed.algorithm) == (doc.n, doc.seed, doc.algorithm)
    assert (parsed.outcome, parsed.oracle_evals) == (doc.outcome, doc.oracle_evals)
    assert [label for label, _ in parsed.steps] == [label for label, _ in doc.steps]
    for (_, got), (_, want) in zip(parsed.steps, doc.steps):
        assert got.tobytes() == want.tobytes()


def parsed_or_error(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def assert_routes_agree(text, direct):
    """parse_trace_document gives what the json route gives, the same
    document or the same error text; direct says whether the direct reader
    takes the text rather than declining it."""
    assert (type(text) is str and _read_written_trace(text) is not None) == direct
    got = parsed_or_error(parse_trace_document, text)
    want = parsed_or_error(_parse_trace_json, text)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_document(got, want)
    return got


def test_both_routes_read_a_trace_batch_alike(tmp_path):
    workloads = load_bench("workloads")
    lib = SimpleNamespace(cli=groversim.cli, documents=groversim.documents)
    ops = workloads.trace_ops(lib, np.random.default_rng(301), workloads.FULL["trace"], tmp_path)
    assert len(ops) == 26
    for op in ops:
        text = op.run()[2]
        assert_same_document(_read_written_trace(text), _parse_trace_json(text))


def long_text():
    """Two identical n=10 steps, every pair text "[0.03125,0]"."""
    amps = np.full(1024, 1 / 32, dtype=np.complex128)
    return render_trace_document(TraceDocument(10, 0, [("i", amps), ("ii", amps)], 0, 0))


def with_pair(step, j, element, make=long_text):
    """A function making make()'s text with element j of a step's amplitudes set to element."""

    def make_text():
        lines = make().split("\n")
        line = lines[5 + step]
        start, end = line.index("[[") + 1, line.rindex("]]") + 1
        elements = ["[" + pair + "]" for pair in line[start + 1:end - 1].split("],[")]
        elements[j] = element
        lines[5 + step] = line[:start] + ",".join(elements) + line[end:]
        return "\n".join(lines)

    return make_text


def with_separator(text, step, j, separator):
    """Writer text with the "],[" after pair j of a step's amplitudes
    replaced by the given text."""
    lines = text.split("\n")
    line = lines[5 + step]
    at = line.index("[[") + 1
    for _ in range(j + 1):
        at = line.index("],[", at + 1)
    lines[5 + step] = line[:at] + separator + line[at + 3:]
    return "\n".join(lines)


def one_qubit_text():
    steps = [("i", [0.6, 0.8]), ("ii", [0.6, -0.8]), ("iii", [0.8j, 0.6]), ("iv", [0.8j, 0.6]),
             ("v", [-0.8j, 0.6])]
    return render_trace_document(TraceDocument(1, 0, steps, 0, 0))


def basis_text():
    steps = [("i", [1, 0, 0, 0]), ("ii", [0, 0, -1, 0])]
    return render_trace_document(TraceDocument(2, 0, steps, 0, 0))


LABEL = 'é"\\\n\u2028\U0001F600'


def labelled_text(ensure_ascii=True, algorithm_ascii=True):
    text = render_trace_document(TraceDocument(1, 0, [(LABEL, [1, 0])], 0, 0, algorithm="pcgé"))
    text = text.replace(json.dumps(LABEL), json.dumps(LABEL, ensure_ascii=ensure_ascii))
    return text.replace(json.dumps("pcgé"), json.dumps("pcgé", ensure_ascii=algorithm_ascii))


def four_state_text():
    return render_trace_document(four_state_trace_doc())


def edited(old, new):
    return lambda: four_state_text().replace(old, new, 1)


def rewritten(edits, make=four_state_text):
    """A function making make()'s text as json.dumps writes it back, with
    the value at each dotted path of keys and indices set."""

    def make_edited():
        raw = json.loads(make())
        for path, value in edits.items():
            *parents, key = (int(part) if part.isdigit() else part for part in path.split("."))
            reduce(lambda node, part: node[part], parents, raw)[key] = value
        return json.dumps(raw)

    return make_edited


def reordered():
    """The four-state text, extra step keys and keys in reverse order, at indent=3."""
    raw = json.loads(four_state_text())
    raw["steps"][0].update(note=[[1, 0], [0, 1]], z=None)
    raw["steps"][2] = dict(reversed(raw["steps"][2].items()))
    return json.dumps(dict(reversed(raw.items())), indent=3)


DIGITS = str(pytest.raises(ValueError, int, "1" * 5000).value)  # worded by Python version
NESTED = "[" * 100_000 + "]" * 100_000
PAIR = "expected an [re, im] pair of numbers"
TOO_LARGE = "an integer is too large for a double"
BAD_PAIRS = (True, [0.5, False], [0.1, 0.2, 0.3], [0.5], "0.5", {"re": 0.5}, [1, [2]], None)
NOT_LISTS = {"an object": {"re": 0.5}, "a nested step": {"amplitudes": [[0.5, 0]] * 4},
             "a string": "[[1, 0]]", "null": None}

# A trace parse case is a row, not a test: a function making the text, whether
# the direct reader takes it, and the result: a function making the document,
# the exact error text after "trace document: ", or None where the json route
# is the reference. Both routes read every row and must agree.
ROUTE_CASES = {
    "as written": (four_state_text, True, four_state_trace_doc),
    "indent=3": (lambda: json.dumps(json.loads(four_state_text()), indent=3), False, None),
    "any key layout": (reordered, False, four_state_trace_doc),
    "CRLF": (lambda: four_state_text().replace("\n", "\r\n"), False, four_state_trace_doc),
    "bytes": (lambda: four_state_text().encode("utf-8"), False, four_state_trace_doc),
    "bytes not in UTF-8": (
        lambda: b"\xff" + four_state_text().encode("utf-8"), False,
        "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "no final newline": (lambda: four_state_text()[:-1], False, four_state_trace_doc),
    "text after the tail": (lambda: four_state_text() + " ", False, four_state_trace_doc),
    "a brace after the tail": (lambda: four_state_text() + "}", False,
                               "invalid JSON at line 15 column 1: Extra data"),
    "top level a list": (lambda: "[]", False, "top level must be an object"),
    "nested 100000 deep": (edited('"n": 2', f'"n": {NESTED}'), False, "invalid JSON: nested too deeply"),
    "5000-digit n": (edited('"n": 2', '"n": ' + "1" * 5000), False, f"invalid JSON: {DIGITS}"),
    "no format_version": (edited('  "format_version": "1",\n', ""), False,
                          "format_version: expected '1', got None"),
    "format_version 2": (edited('"1"', '"2"'), False, "format_version: expected '1', got '2'"),
    "n 0": (edited('"n": 2', '"n": 0'), False, "n: must be >= 1 and <= 62, got 0"),
    "huge n": (edited('"n": 2', '"n": 1000000000'), False, "n: must be >= 1 and <= 62, got 1000000000"),
    "n with a leading zero": (edited('"n": 2', '"n": 02'), False,
                              "invalid JSON at line 3 column 9: Expecting ',' delimiter"),
    "no rng": (edited('  "rng": {"algorithm": "pcg64", "seed": 3},\n', ""), False,
               "rng: expected an object"),
    "algorithm 64": (rewritten({"rng.algorithm": 64}), False, "rng.algorithm: expected a string, got 64"),
    "algorithm null": (edited('"pcg64"', "null"), False, "rng.algorithm: expected a string, got None"),
    "seed true": (edited('"seed": 3', '"seed": true'), False, "rng.seed: expected an integer, got True"),
    "seed -1": (edited('"seed": 3', '"seed": -1'), False, "rng.seed: must be >= 0, got -1"),
    "steps an object": (rewritten({"steps": {}}), False, "steps: expected a list"),
    "a step that is a string": (rewritten({"steps.2": "iii"}), False, "steps[2]: expected an object"),
    "label 1": (rewritten({"steps.0.label": 1}), False, "steps[0].label: expected a string, got 1"),
    "outcome out of range": (edited('"outcome": 2', '"outcome": 4'), False,
                             "outcome: must be >= 0 and <= 3, got 4"),
    "outcome true": (rewritten({"outcome": True}), False, "outcome: expected an integer, got True"),
    "outcome with a leading zero": (edited('"outcome": 2', '"outcome": 02'), False,
                                    "invalid JSON at line 12 column 15: Expecting ',' delimiter"),
    "oracle_evals a string": (edited('"oracle_evals": 1', '"oracle_evals": "1"'), False,
                              "oracle_evals: expected an integer, got '1'"),
    "oracle_evals -1": (edited('"oracle_evals": 1', '"oracle_evals": -1'), False,
                        "oracle_evals: must be >= 0, got -1"),
    "zero steps": (lambda: render_trace_document(TraceDocument(2, 0, [], 2, 1)), True, None),
    "a step line left open": (lambda: four_state_text().partition("]]}")[0], False,
                              "invalid JSON at line 6 column 129: Expecting ',' delimiter"),
    "no comma between steps": (edited("]]},\n", "]]}\n"), False,
                               "invalid JSON at line 7 column 5: Expecting ',' delimiter"),
    "comma before the first step": (edited("[\n", "[,\n"), False,
                                    "invalid JSON at line 5 column 13: Expecting value"),
    "escaped labels": (labelled_text, True, None),
    "non-ASCII label": (lambda: labelled_text(ensure_ascii=False), True, None),
    "non-ASCII algorithm": (lambda: labelled_text(algorithm_ascii=False), False, None),
    "amplitudes outside the steps": (rewritten({
        "amplitudes": [[1, 0]], "rng.amplitudes": [[0.5, 0.5], [0.5, 0.5]],
        "steps.1.extra": {"amplitudes": [[2, 0]], "inner": {"amplitudes": "x"}}}),
        False, four_state_trace_doc),
    "duplicate amplitudes, bad first": (
        edited('"amplitudes": [', '"amplitudes": [[true, 0]], "amplitudes": ['), False,
        four_state_trace_doc),
    "duplicate amplitudes, good first": (
        edited('"label": "i", ', '"label": "i", "amplitudes": [[0.5, 0.5]], '), False,
        four_state_trace_doc),
    "duplicate amplitudes, bad last": (
        edited("]]}", ']], "amplitudes": [[0.5, 0], [false, 0]]}'), False,
        f"steps[0].amplitudes[1]: {PAIR}"),
    **{f"amplitudes {name}": (rewritten({"steps.1.amplitudes": value}), False,
                              "steps[1].amplitudes: expected a list")
       for name, value in NOT_LISTS.items()},
    "amplitudes missing": (rewritten({"steps.1": {"label": "ii"}}), False,
                           "steps[1].amplitudes: expected a list"),
    "three amplitudes for four states": (rewritten({"steps.0.amplitudes": [[0.5, 0]] * 3}), False,
                                         "steps[0].amplitudes: has shape (3,), expected (4,)"),
    "snapshot off the unit norm": (rewritten({"steps.2.amplitudes": [[0.7, 0.0]] + [[0.5, 0.0]] * 3}),
                                   False, "steps[2]: snapshot norm differs from 1 by 0.113553"),
    "space inside a pair": (with_pair(1, 500, "[0.03125, 0]"), True, None),
    "integer tokens": (basis_text, True, None),
    "-0": (with_pair(0, 1, "[-0,-0]", basis_text), True, None),
    "-0.0": (with_pair(1, 3, "[0,-0.0]", basis_text), True, None),
    "1e400": (with_pair(1, 1000, "[1e400,0]"), False, "steps[1].amplitudes[1000]: not a finite number"),
    "400-digit integer": (with_pair(1, 1000, f"[0,{10**400}]"), False,
                          f"steps[1].amplitudes: {TOO_LARGE}"),
    "400-digit integer, n=2": (rewritten({"steps.0.amplitudes.1": [10**400, 0]}), False,
                               f"steps[0].amplitudes: {TOO_LARGE}"),
    "NaN": (with_pair(0, 3, "[NaN,0]", basis_text), False, "NaN is not a finite number"),
    **{f"{literal}, n=2": (rewritten({"steps.0.amplitudes.0": [value, 0]}), False,
                           f"{literal} is not a finite number")
       for literal, value in (("NaN", math.nan), ("Infinity", math.inf), ("-Infinity", -math.inf))},
    "a pair of one number": (rewritten({"steps.1.amplitudes.0": [0.5]}), False,
                             f"steps[1].amplitudes[0]: {PAIR}"),
    "pair with a nested list": (with_pair(0, 7, "[1,[2]]"), False, f"steps[0].amplitudes[7]: {PAIR}"),
    "two pairs in one": (with_pair(0, 7, "[0.03125,0], [0.03125,0]"), False,
                         "steps[0].amplitudes: has shape (1025,), expected (1024,)"),
    **{f"bad pair at [{j}]": (with_pair(1, j, "[0.5,false]"), False, f"steps[1].amplitudes[{j}]: {PAIR}")
       for j in (0, 1000, 1023)},
    # The first bad pair is named: a bad pair alone, then with another at [1020].
    **{f"{json.dumps(bad)} at [{j}]{also}": (
        rewritten({f"steps.1.amplitudes.{j}": bad, **edit}, long_text), False,
        f"steps[1].amplitudes[{min(j, 1020) if edit else j}]: {PAIR}")
       for bad in BAD_PAIRS for j in (0, 1000, 1023)
       for also, edit in (("", {}), (" and [1020]", {"steps.1.amplitudes.1020": [0.5, "x"]}))},
    # A later step's fault is named after earlier steps are packed, but top-level fields first.
    **{f"{name} in step 3 of 5{also}": (
        rewritten({"steps.3.amplitudes.2": bad, "steps.4.amplitudes.0": [0.5, False], **edit}),
        False, "n: expected an integer, got '2'" if edit else fault)
       for name, bad, fault in (("400-digit integer", [0, 10**400], f"steps[3].amplitudes: {TOO_LARGE}"),
                                ("bad pair", [0.5, True], f"steps[3].amplitudes[2]: {PAIR}"))
       for also, edit in (("", {}), (', n "2"', {"n": "2"}))},
    # Edits to a step after the first, which is read as a change from the
    # step before it.
    # A changed pair's first character differs, so the change starts where
    # a separator ends; "0e1" ends the change where a separator starts.
    "a step identical to the one before": (long_text, True, None),
    **{f"changed pair at [{j}]": (with_pair(1, j, "[-0.03125,0]"), True, None) for j in (0, 1, 1023)},
    "edit ending at a separator": (with_pair(1, 500, "[0.03125,0e1]"), True, None),
    "longer pair text": (with_pair(1, 500, "[0.031250,0.0]"), True, None),
    "shorter pair text": (with_pair(0, 500, "[0.031250,0.0]"), True, None),
    "edited separator": (lambda: with_separator(long_text(), 1, 500, "], ["), False, None),
    "lost separator": (lambda: with_separator(long_text(), 1, 500, ","), False,
                       f"steps[1].amplitudes[500]: {PAIR}"),
    "separator without its [": (
        lambda: with_separator(long_text(), 1, 500, "], "), False,
        "invalid JSON at line 7 column 6060: Expecting property name enclosed in double quotes"),
    "separator without its ]": (lambda: with_separator(long_text(), 1, 500, " ,["), False,
                                "invalid JSON at line 7 column 12324: Expecting ',' delimiter"),
    "two pairs in one, step 1": (with_pair(1, 7, "[0.03125,0], [0.03125,0]"), False,
                                 "steps[1].amplitudes: has shape (1025,), expected (1024,)"),
    "pair with a nested list, step 1": (with_pair(1, 7, "[1,[2]]"), False,
                                        f"steps[1].amplitudes[7]: {PAIR}"),
    "one pair too many, step 1": (with_pair(1, 1023, "[0.03125,0],[0.03125,0]"), False,
                                  "steps[1].amplitudes: has shape (1025,), expected (1024,)"),
    "one pair too few, step 1": (lambda: long_text().replace("],[0.03125,0]]}\n", "]]}\n"), False,
                                 "steps[1].amplitudes: has shape (1023,), expected (1024,)"),
    # A bad pair of the same length as the one it replaces, two pairs from
    # a change: a cut one pair too far would reuse the good pair before it.
    "bad pair before a change": (with_pair(1, 502, "[-0.03125,0]", with_pair(1, 500, "[0.5,false]")),
                                 False, f"steps[1].amplitudes[500]: {PAIR}"),
    "bad pair after a change": (with_pair(1, 500, "[-0.03125,0]", with_pair(1, 502, "[0.5,false]")),
                                False, f"steps[1].amplitudes[502]: {PAIR}"),
    "n=1": (one_qubit_text, True, None),
    "n=1, bad pair in a later step": (with_pair(3, 1, "[0.6]", one_qubit_text), False,
                                      f"steps[3].amplitudes[1]: {PAIR}"),
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_both_routes_give_the_same_document_or_error(case):
    make, direct, expected = ROUTE_CASES[case]
    got = assert_routes_agree(make(), direct)
    if isinstance(expected, str):
        assert got == f"trace document: {expected}"
    elif expected is not None:
        assert isinstance(got, TraceDocument), got
        assert_same_document(got, expected())


def test_circuit_render_golden():
    assert render_circuit_document(adder_circuit()) == ADDER_DOC


def test_circuit_round_trip():
    circuit = adder_circuit()
    text = render_circuit_document(circuit)
    parsed = parse_circuit_document(text)
    assert parsed == circuit
    assert render_circuit_document(parsed) == text


def render_circuit_lines(circuit):
    """The line-list circuit renderer the one-template renderer replaced."""
    lines = ["{", '  "format_version": "1",', f'  "wires": {circuit.wires},']
    if circuit.gates:
        lines.append('  "gates": [')
        for i, gate in enumerate(circuit.gates):
            controls = ", ".join(str(c) for c in gate.controls)
            comma = "," if i + 1 < len(circuit.gates) else ""
            lines.append(
                f'    {{"type": {json.dumps(gate.kind)}, "target": {gate.target}, '
                f'"controls": [{controls}]}}{comma}'
            )
        lines.append("  ]")
    else:
        lines.append('  "gates": []')
    lines.append("}\n")
    return "\n".join(lines)


@st.composite
def circuits(draw):
    """1-8 wires and 0-12 gates, each of a kind that fits the wires."""
    wires = draw(st.integers(1, 8))
    kinds = [kind for kind, count in GATE_CONTROL_COUNTS.items() if count < wires]
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        touched = draw(st.permutations(range(wires)))[:GATE_CONTROL_COUNTS[kind] + 1]
        gates.append(Gate(kind, touched[0], tuple(touched[1:])))
    return ReversibleCircuit(wires, tuple(gates))


@settings(deadline=None, max_examples=300)
@given(circuits())
def test_every_circuit_renders_as_the_line_list_renderer_did_and_round_trips(circuit):
    text = render_circuit_document(circuit)
    assert text == render_circuit_lines(circuit)
    parsed = parse_circuit_document(text)
    assert parsed == circuit
    assert render_circuit_document(parsed) == text


def test_circuit_round_trip_empty_and_inverse():
    empty = ReversibleCircuit(2, ())
    assert parse_circuit_document(render_circuit_document(empty)) == empty
    inv = inverse_circuit(adder_circuit())
    assert parse_circuit_document(render_circuit_document(inv)) == inv


def circuit_json(wires, gates="[]"):
    return f'{{"format_version": "1", "wires": {wires}, "gates": {gates}}}'


# A circuit parse case is a row, not a test: the text, then the circuit it
# parses to or the exact error text after "circuit document: ".
CIRCUIT_CASES = {
    "no controls key": (circuit_json(2, '[{"type": "NOT", "target": 1}]'),
                        ReversibleCircuit(2, (Gate.not_(1),))),
    **{f"wires {literal}": (circuit_json(literal), f"{literal} is not a finite number")
       for literal in ("NaN", "Infinity", "-Infinity")},
    "not JSON": ("{nope}", "invalid JSON at line 1 column 2: "
                           "Expecting property name enclosed in double quotes"),
    "wires nested 100000 deep": (circuit_json(NESTED), "invalid JSON: nested too deeply"),
    "5000-digit wires": (circuit_json("1" * 5000), f"invalid JSON: {DIGITS}"),
    "top level a list": ("[]", "top level must be an object"),
    "format_version 0": ('{"format_version": "0", "wires": 1, "gates": []}',
                         "format_version: expected '1', got '0'"),
    "no wires": (circuit_json(0), "wires: must be >= 1, got 0"),
    "wires a string": (circuit_json('"3"'), "wires: expected an integer, got '3'"),
    "gates an integer": (circuit_json(1, "3"), "gates: expected a list"),
    "a gate that is a string": (circuit_json(1, '["NOT"]'), "gates[0]: expected an object"),
    "type an integer": (circuit_json(1, '[{"type": 7, "target": 0}]'),
                        "gates[0].type: expected a string, got 7"),
    "target -1": (circuit_json(1, '[{"type": "NOT", "target": -1}]'),
                  "gates[0].target: must be >= 0, got -1"),
    "controls an integer": (circuit_json(2, '[{"type": "CNOT", "target": 1, "controls": 0}]'),
                            "gates[0].controls: expected a list"),
    "a control true": (circuit_json(2, '[{"type": "CNOT", "target": 1, "controls": [true]}]'),
                       "gates[0].controls[0]: expected an integer, got True"),
    "a control 0.5 in the second gate": (circuit_json(
        2, '[{"type": "NOT", "target": 0}, {"type": "CNOT", "target": 1, "controls": [0.5]}]'),
        "gates[1].controls[0]: expected an integer, got 0.5"),
    "unknown kind": (circuit_json(1, '[{"type": "SWAP", "target": 0}]'),
                     "gates[0]: unknown gate kind 'SWAP'; expected one of ['CNOT', 'NOT', 'TOFFOLI']"),
    "CNOT without controls": (circuit_json(2, '[{"type": "CNOT", "target": 1}]'),
                              "gates[0]: CNOT takes 1 controls, got 0"),
    "control on the target": (circuit_json(2, '[{"type": "CNOT", "target": 1, "controls": [1]}]'),
                              "gates[0]: target and controls must be distinct, got (1, 1)"),
    "wire past the register": (circuit_json(2, '[{"type": "CNOT", "target": 3, "controls": [0]}]'),
                               "gates[0] touches wire 3, but the circuit has 2 wires"),
}


@pytest.mark.parametrize("case", CIRCUIT_CASES)
def test_parse_circuit_gives_the_circuit_or_error_of_each_case(case):
    text, expected = CIRCUIT_CASES[case]
    got = parsed_or_error(parse_circuit_document, text)
    assert got == (f"circuit document: {expected}" if isinstance(expected, str) else expected)
