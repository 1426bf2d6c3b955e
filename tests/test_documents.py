import importlib.util
import io
import json
import math
import sys
import tracemalloc
from pathlib import Path
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
    format_float,
    inverse_circuit,
    parse_circuit_document,
    parse_trace_document,
    render_circuit_document,
    render_trace_document,
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
from tracing import traced

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


def test_format_float_round_trips_doubles():
    values = [0.1, 1.0 / 3.0, 0.5000000000000001, -1.0, 2.0**-52, 1e22, 0.0, -0.0]
    for v in values:
        back = float(format_float(v))
        assert back == v
        assert math.copysign(1.0, back) == math.copysign(1.0, v)
    assert format_float(0.5) == "0.5"
    assert format_float(1.0) == "1"
    assert format_float(-0.0) == "-0.0"
    with pytest.raises(ValueError):
        format_float(float("inf"))
    with pytest.raises(ValueError):
        format_float(float("nan"))


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
    with mock.patch("groversim.documents._format_pairs", format_every_value):
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


def test_trace_round_trip_with_empty_steps():
    text = render_trace_document(TraceDocument(2, 0, [], 2, 1))
    parsed = parse_trace_document(text)
    assert parsed.steps == []
    assert render_trace_document(parsed) == text


INT_FIELDS = ("n", "seed", "outcome", "oracle_evals")


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
    for name in INT_FIELDS:
        if type(fields[name]) is not int:
            return f"{name}: expected an integer, got {fields[name]!r}"
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
    with pytest.raises(ValueError, match=f"^{field}: expected an integer, got {value!r}$"):
        TraceDocument(**fields)


def test_parse_trace_rejects_bad_documents():
    good = render_trace_document(four_state_trace_doc())

    with pytest.raises(ValueError, match="invalid JSON at line"):
        parse_trace_document(good + "}")
    with pytest.raises(ValueError, match="top level"):
        parse_trace_document("[]")
    with pytest.raises(ValueError, match="format_version"):
        parse_trace_document(good.replace('"format_version": "1"', '"format_version": "2"'))

    raw = json.loads(good)
    raw["n"] = 0
    with pytest.raises(ValueError, match="n: must be >= 1"):
        parse_trace_document(json.dumps(raw))

    raw = json.loads(good)
    del raw["rng"]
    with pytest.raises(ValueError, match="rng"):
        parse_trace_document(json.dumps(raw))

    raw = json.loads(good)
    raw["steps"][0]["amplitudes"] = raw["steps"][0]["amplitudes"][:3]
    with pytest.raises(ValueError, match=r"steps\[0\].amplitudes"):
        parse_trace_document(json.dumps(raw))

    raw = json.loads(good)
    raw["steps"][1]["amplitudes"][0] = [0.5]
    with pytest.raises(ValueError, match=r"steps\[1\].amplitudes\[0\]"):
        parse_trace_document(json.dumps(raw))

    raw = json.loads(good)
    raw["steps"][0]["label"] = 1
    with pytest.raises(ValueError, match=r"steps\[0\].label"):
        parse_trace_document(json.dumps(raw))

    raw = json.loads(good)
    raw["outcome"] = 4
    with pytest.raises(ValueError, match="outcome"):
        parse_trace_document(json.dumps(raw))

    raw = json.loads(good)
    raw["outcome"] = True
    with pytest.raises(ValueError, match="outcome"):
        parse_trace_document(json.dumps(raw))


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


def long_trace_raw():
    """Two snapshots of 1024 amplitudes each, as parsed JSON."""
    amps = np.full(1024, 1 / 32, dtype=np.complex128)
    return json.loads(render_trace_document(TraceDocument(10, 0, [("i", amps), ("ii", amps)], 0, 0)))


@pytest.mark.parametrize(
    "bad", [True, [0.5, False], [0.1, 0.2, 0.3], [0.5], "0.5", {"re": 0.5}, [1, [2]], None]
)
@pytest.mark.parametrize("j", [0, 1000, 1023])
def test_parse_trace_names_the_first_bad_pair(bad, j):
    raw = long_trace_raw()
    raw["steps"][1]["amplitudes"][j] = bad
    # The bad pair alone, then with a second one at 1020.
    for first in (j, min(j, 1020)):
        with pytest.raises(ValueError) as info:
            parse_trace_document(json.dumps(raw))
        assert str(info.value) == (
            f"trace document: steps[1].amplitudes[{first}]: expected an [re, im] pair of numbers"
        )
        raw["steps"][1]["amplitudes"][1020] = [0.5, "x"]


def test_parse_trace_rejects_an_integer_too_large_for_a_double():
    raw = json.loads(render_trace_document(four_state_trace_doc()))
    raw["steps"][0]["amplitudes"][1] = [10**400, 0]
    with pytest.raises(ValueError, match=r"trace document: steps\[0\].amplitudes: "):
        parse_trace_document(json.dumps(raw))
    raw = long_trace_raw()
    raw["steps"][1]["amplitudes"][1000] = [0, 10**400]
    with pytest.raises(ValueError) as info:
        parse_trace_document(json.dumps(raw))
    assert str(info.value) == "trace document: steps[1].amplitudes: an integer is too large for a double"


def test_parse_trace_enforces_unit_norm_per_step():
    raw = json.loads(render_trace_document(four_state_trace_doc()))
    raw["steps"][2]["amplitudes"] = [[0.5, 0.0]] * 4
    raw["steps"][2]["amplitudes"][0] = [0.7, 0.0]
    with pytest.raises(ValueError, match="norm"):
        parse_trace_document(json.dumps(raw))


def test_parse_trace_rejects_non_finite_literals():
    # A NaN amplitude would pass the drift check, since NaN > tol is False.
    for literal in ("NaN", "Infinity", "-Infinity"):
        text = (
            '{"format_version": "1", "n": 1, "rng": {"algorithm": "pcg64", "seed": 0}, '
            f'"steps": [{{"label": "i", "amplitudes": [[{literal},0],[0,0]]}}], '
            '"outcome": 0, "oracle_evals": 0}'
        )
        with pytest.raises(ValueError, match=f"trace document: {literal} is not a finite number"):
            parse_trace_document(text)


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


def test_parse_trace_ignores_amplitudes_outside_the_steps():
    doc = four_state_trace_doc()
    raw = json.loads(render_trace_document(doc))
    raw["amplitudes"] = [[1, 0]]
    raw["rng"]["amplitudes"] = [[0.5, 0.5], [0.5, 0.5]]
    raw["steps"][1]["extra"] = {"amplitudes": [[2, 0]], "inner": {"amplitudes": "x"}}
    assert_same_document(parse_trace_document(json.dumps(raw)), doc)


def test_parse_trace_accepts_any_key_layout():
    doc = four_state_trace_doc()
    raw = json.loads(render_trace_document(doc))
    raw["steps"][0]["note"] = [[1, 0], [0, 1]]
    raw["steps"][0]["z"] = None
    raw["steps"][2] = dict(reversed(list(raw["steps"][2].items())))
    raw = dict(reversed(list(raw.items())))
    assert_same_document(parse_trace_document(json.dumps(raw, indent=3)), doc)


def test_parse_trace_takes_the_last_duplicate_amplitudes_key():
    doc = four_state_trace_doc()
    text = render_trace_document(doc)
    bad_first = text.replace('"amplitudes": [', '"amplitudes": [[true, 0]], "amplitudes": [', 1)
    assert_same_document(parse_trace_document(bad_first), doc)
    good_first = text.replace('"label": "i", ', '"label": "i", "amplitudes": [[0.5, 0.5]], ', 1)
    assert_same_document(parse_trace_document(good_first), doc)
    bad_last = text.replace("]]}", "]], \"amplitudes\": [[0.5, 0], [false, 0]]}", 1)
    with pytest.raises(ValueError) as info:
        parse_trace_document(bad_last)
    assert str(info.value) == (
        "trace document: steps[0].amplitudes[1]: expected an [re, im] pair of numbers"
    )


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


def load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_both_routes_read_a_trace_batch_alike(tmp_path):
    workloads = load_bench_workloads()
    lib = SimpleNamespace(cli=groversim.cli, documents=groversim.documents)
    ops = workloads.trace_ops(lib, np.random.default_rng(301), workloads.FULL["trace"], tmp_path)
    assert len(ops) == 26
    for op in ops:
        text = op.run()[2]
        assert_same_document(_read_written_trace(text), _parse_trace_json(text))


def with_pair(text, step, j, element):
    """Writer text with element j of a step's amplitudes replaced by the
    given JSON text, every other byte kept."""
    lines = text.split("\n")
    line = lines[5 + step]
    start, end = line.index("[[") + 1, line.rindex("]]") + 1
    elements = ["[" + pair + "]" for pair in line[start + 1:end - 1].split("],[")]
    elements[j] = element
    lines[5 + step] = line[:start] + ",".join(elements) + line[end:]
    return "\n".join(lines)


def long_text():
    amps = np.full(1024, 1 / 32, dtype=np.complex128)
    return render_trace_document(TraceDocument(10, 0, [("i", amps), ("ii", amps)], 0, 0))


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


ROUTE_CASES = {
    "as written": (four_state_text, True),
    "indent=3": (lambda: json.dumps(json.loads(four_state_text()), indent=3), False),
    "CRLF": (lambda: four_state_text().replace("\n", "\r\n"), False),
    "bytes": (lambda: four_state_text().encode("utf-8"), False),
    "no final newline": (lambda: four_state_text()[:-1], False),
    "text after the tail": (lambda: four_state_text() + " ", False),
    "space inside a pair": (lambda: with_pair(long_text(), 1, 500, "[0.03125, 0]"), True),
    "integer tokens": (basis_text, True),
    "-0": (lambda: with_pair(basis_text(), 0, 1, "[-0,-0]"), True),
    "-0.0": (lambda: with_pair(basis_text(), 1, 3, "[0,-0.0]"), True),
    "1e400": (lambda: with_pair(long_text(), 1, 1000, "[1e400,0]"), False),
    "400-digit integer": (lambda: with_pair(long_text(), 1, 1000, f"[0,{10**400}]"), False),
    "NaN": (lambda: with_pair(basis_text(), 0, 3, "[NaN,0]"), False),
    "escaped labels": (labelled_text, True),
    "non-ASCII label": (lambda: labelled_text(ensure_ascii=False), True),
    "non-ASCII algorithm": (lambda: labelled_text(algorithm_ascii=False), False),
    "duplicate amplitudes, bad first": (
        edited('"amplitudes": [', '"amplitudes": [[true, 0]], "amplitudes": ['), False),
    "duplicate amplitudes, good first": (
        edited('"label": "i", ', '"label": "i", "amplitudes": [[0.5, 0.5]], '), False),
    "duplicate amplitudes, bad last": (
        edited("]]}", ']], "amplitudes": [[0.5, 0], [false, 0]]}'), False),
    "pair with a nested list": (lambda: with_pair(long_text(), 0, 7, "[1,[2]]"), False),
    "two pairs in one": (lambda: with_pair(long_text(), 0, 7, "[0.03125,0], [0.03125,0]"), False),
    "no comma between steps": (edited("]]},\n", "]]}\n"), False),
    "comma before the first step": (edited("[\n", "[,\n"), False),
    "zero steps": (lambda: render_trace_document(TraceDocument(2, 0, [], 2, 1)), True),
    "outcome out of range": (edited('"outcome": 2', '"outcome": 4'), False),
    "n with a leading zero": (edited('"n": 2', '"n": 02'), False),
    "outcome with a leading zero": (edited('"outcome": 2', '"outcome": 02'), False),
    "huge n": (edited('"n": 2', '"n": 1000000000'), False),
    "format_version 2": (edited('"1"', '"2"'), False),
    **{f"bad pair at [{j}]": (lambda j=j: with_pair(long_text(), 1, j, "[0.5,false]"), False)
       for j in (0, 1000, 1023)},
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_both_routes_give_the_same_document_or_error(case):
    make, direct = ROUTE_CASES[case]
    assert_routes_agree(make(), direct)


MISSING = object()


@pytest.mark.parametrize(
    "value",
    [
        {"re": 0.5},
        {"amplitudes": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]},
        "[[1, 0]]",
        None,
        MISSING,
    ],
)
def test_parse_trace_rejects_amplitudes_that_are_not_a_list(value):
    raw = json.loads(render_trace_document(four_state_trace_doc()))
    if value is MISSING:
        del raw["steps"][1]["amplitudes"]
    else:
        raw["steps"][1]["amplitudes"] = value
    with pytest.raises(ValueError) as info:
        parse_trace_document(json.dumps(raw))
    assert str(info.value) == "trace document: steps[1].amplitudes: expected a list"


@pytest.mark.parametrize(
    "bad, message",
    [
        ([0, 10**400], "steps[3].amplitudes: an integer is too large for a double"),
        ([0.5, True], "steps[3].amplitudes[2]: expected an [re, im] pair of numbers"),
    ],
)
def test_parse_trace_reports_a_bad_later_step_after_packed_ones(bad, message):
    raw = json.loads(render_trace_document(four_state_trace_doc()))
    raw["steps"][3]["amplitudes"][2] = bad
    raw["steps"][4]["amplitudes"][0] = [0.5, False]
    with pytest.raises(ValueError) as info:
        parse_trace_document(json.dumps(raw))
    assert str(info.value) == f"trace document: {message}"
    # Top-level fields are still checked before any step.
    raw["n"] = "2"
    with pytest.raises(ValueError) as info:
        parse_trace_document(json.dumps(raw))
    assert str(info.value) == "trace document: n: expected an integer, got '2'"


def test_circuit_render_golden():
    assert render_circuit_document(adder_circuit()) == ADDER_DOC


def test_circuit_round_trip():
    circuit = adder_circuit()
    text = render_circuit_document(circuit)
    parsed = parse_circuit_document(text)
    assert parsed == circuit
    assert render_circuit_document(parsed) == text


def test_circuit_round_trip_empty_and_inverse():
    empty = ReversibleCircuit(2, ())
    assert parse_circuit_document(render_circuit_document(empty)) == empty
    inv = inverse_circuit(adder_circuit())
    assert parse_circuit_document(render_circuit_document(inv)) == inv


def test_parse_circuit_accepts_handwritten_json():
    text = '{"format_version": "1", "wires": 2, "gates": [{"type": "NOT", "target": 1}]}'
    circuit = parse_circuit_document(text)
    assert circuit == ReversibleCircuit(2, (Gate.not_(1),))


def test_parse_circuit_rejects_non_finite_literals():
    for literal in ("NaN", "Infinity", "-Infinity"):
        text = f'{{"format_version": "1", "wires": {literal}, "gates": []}}'
        with pytest.raises(ValueError, match=f"circuit document: {literal} is not a finite number"):
            parse_circuit_document(text)


def test_parse_circuit_diagnostics():
    with pytest.raises(ValueError, match="invalid JSON at line"):
        parse_circuit_document("{nope}")
    with pytest.raises(ValueError, match="format_version"):
        parse_circuit_document('{"format_version": "0", "wires": 1, "gates": []}')
    with pytest.raises(ValueError, match="wires"):
        parse_circuit_document('{"format_version": "1", "wires": 0, "gates": []}')
    with pytest.raises(ValueError, match="gates: expected a list"):
        parse_circuit_document('{"format_version": "1", "wires": 1, "gates": 3}')
    with pytest.raises(ValueError, match=r"gates\[0\].type"):
        parse_circuit_document(
            '{"format_version": "1", "wires": 1, "gates": [{"type": 7, "target": 0}]}'
        )
    with pytest.raises(ValueError, match=r"gates\[0\]: unknown gate kind"):
        parse_circuit_document(
            '{"format_version": "1", "wires": 1, "gates": [{"type": "SWAP", "target": 0}]}'
        )
    with pytest.raises(ValueError, match=r"gates\[1\].controls\[0\]"):
        parse_circuit_document(
            '{"format_version": "1", "wires": 2, "gates": ['
            '{"type": "NOT", "target": 0},'
            '{"type": "CNOT", "target": 1, "controls": [0.5]}]}'
        )
    with pytest.raises(ValueError, match=r"gates\[0\]: .*distinct"):
        parse_circuit_document(
            '{"format_version": "1", "wires": 2, "gates": '
            '[{"type": "CNOT", "target": 1, "controls": [1]}]}'
        )
    with pytest.raises(ValueError, match="touches wire 3"):
        parse_circuit_document(
            '{"format_version": "1", "wires": 2, "gates": '
            '[{"type": "CNOT", "target": 3, "controls": [0]}]}'
        )
