"""One ``VEC001`` note per spec that falls back to generated code.

A spec runs wholly on the vector engine or wholly on generated code, so
a spec the columnar program does not cover carries exactly one
``VEC001`` note, however many independent families it composes.  The
note is anchored at the first ineligible stream; its witness ``family``
lists every stream of the spec and its ``reasons`` every ineligible
stream with its reason, in stream order.  The note is deterministic —
the same across compiles and across ``PYTHONHASHSEED`` values — and
SARIF names the rule by its catalogue title.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis.diagnostics import to_sarif
from repro.compiler.vector import classify_vector
from repro.frontend import parse_spec
from repro.lang import INT, Specification, Var, check_types, flatten
from repro.lang.ast import Lift
from repro.lang.builtins import builtin
from repro.lang.compose import compose, rename, substitute_inputs
from repro.lang.types import SetType
from repro.speclib import map_window, queue_window, seen_set

from tests.integration.specgen import specifications

SCALAR_CHAIN = """
in i: Int
def prev := last(i, i)
def d := sub(i, prev)
def up := gt(d, 0)
out d
out up
"""


def family(prefix, spec, input_map=None):
    spec = rename(spec, prefix)
    if input_map:
        spec = substitute_inputs(spec, input_map)
    return spec


def three_families():
    return compose(
        family("s_", seen_set(), {"i": "i1"}),
        family("q_", queue_window(3), {"i": "i2"}),
        family("m_", map_window(4), {"i": "i3"}),
    )


def typed(spec):
    flat = flatten(spec)
    check_types(flat)
    return flat


def vec001(spec, **options):
    monitor = api.compile(spec, api.CompileOptions(**options))
    return [d for d in monitor.diagnostics() if d.code == "VEC001"]


def vec001_record():
    """The three-family note as JSON-ready data (also run in a child
    process by the hash-seed test)."""
    [note] = vec001(three_families())
    return {
        "stream": note.stream,
        "message": note.message,
        "witness": note.witness,
    }


class TestComposedFamilies:
    def test_two_disjoint_families_one_note(self):
        spec = compose(
            family("a_", seen_set(), {"i": "ia"}),
            family("b_", seen_set(), {"i": "ib"}),
        )
        [note] = vec001(spec)
        reasons = note.witness["reasons"]
        assert any(name.startswith("a_") for name in reasons)
        assert any(name.startswith("b_") for name in reasons)

    def test_shared_input_families_one_note(self):
        spec = compose(family("a_", seen_set()), family("b_", seen_set()))
        [note] = vec001(spec)
        assert note.witness["family"] == list(typed(spec).streams)

    def test_three_kinds_of_family_one_note(self):
        spec = three_families()
        [note] = vec001(spec)
        reasons = note.witness["reasons"]
        for prefix in ("s_", "q_", "m_"):
            assert any(name.startswith(prefix) for name in reasons)
        # The message lists every ineligible stream with its reason.
        for name, reason in reasons.items():
            assert f"{name}: {reason}" in note.message

    def test_columnar_family_beside_aggregate_family(self):
        # The scalar chain alone is columnar; composed with an
        # aggregate family the whole spec runs on generated code, and
        # the note names none of the scalar chain's streams.
        chain = family("c_", parse_spec(SCALAR_CHAIN), {"i": "ci"})
        assert classify_vector(typed(chain)).columnar
        spec = compose(chain, family("s_", seen_set(), {"i": "si"}))
        monitor = api.compile(spec)
        assert monitor.engine_resolved == "codegen"
        [note] = [d for d in monitor.diagnostics() if d.code == "VEC001"]
        reasons = note.witness["reasons"]
        assert "s_was" in reasons
        assert not [name for name in reasons if name.startswith("c")]
        assert {"ci", "c_d", "c_up"} <= set(note.witness["family"])

    def test_explicit_vector_names_every_family(self):
        with pytest.raises(ValueError, match="VEC001") as excinfo:
            api.compile(three_families(), api.CompileOptions(engine="vector"))
        [note] = vec001(three_families())
        for name in note.witness["reasons"]:
            assert name in str(excinfo.value)


class TestWitness:
    def test_anchor_is_first_ineligible_stream(self):
        flat = typed(three_families())
        reasons = classify_vector(flat).reasons
        [note] = vec001(three_families())
        first = next(name for name in flat.streams if name in reasons)
        assert note.stream == first

    def test_reasons_match_classification_in_stream_order(self):
        flat = typed(three_families())
        reasons = classify_vector(flat).reasons
        [note] = vec001(three_families())
        assert list(note.witness["reasons"].items()) == [
            (name, reasons[name]) for name in flat.streams if name in reasons
        ]

    def test_complex_input_and_its_readers(self):
        # A Set-typed input has no column representation; both of its
        # readers depend on it.
        spec = Specification(
            {"s": SetType(INT), "i": INT},
            {
                "r1": Lift(builtin("set_contains"), (Var("s"), Var("i"))),
                "r2": Lift(builtin("set_size"), (Var("s"),)),
            },
            ["r1", "r2"],
        )
        [note] = vec001(spec)
        assert note.stream == "s"
        assert {"s", "r1", "r2"} <= set(note.witness["reasons"])
        assert "i" not in note.witness["reasons"]

    def test_columnar_composition_has_no_note(self):
        spec = compose(
            family("a_", parse_spec(SCALAR_CHAIN), {"i": "ia"}),
            family("b_", parse_spec(SCALAR_CHAIN), {"i": "ib"}),
        )
        assert classify_vector(typed(spec)).columnar
        assert vec001(spec) == []

    def test_sarif_rule_says_generated_code(self):
        notes = vec001(three_families())
        sarif = json.loads(json.dumps(to_sarif(notes)))
        [run] = sarif["runs"]
        [rule] = run["tool"]["driver"]["rules"]
        assert rule["id"] == "VEC001"
        assert rule["shortDescription"]["text"] == (
            "spec falls back to generated code"
        )
        [result] = run["results"]
        assert result["properties"]["witness"]["rule"] == "vector-fallback"


HASHSEED_SCRIPT = """\
import json, sys
sys.path.insert(0, {root!r})
from tests.compiler.test_vec001_note import vec001_record
print(json.dumps(vec001_record(), sort_keys=True))
"""


class TestDeterminism:
    def test_repeated_compiles_identical(self):
        first = vec001_record()
        for _ in range(3):
            assert vec001_record() == first

    def test_stable_across_hash_seeds(self):
        import repro
        import tests

        src = os.path.dirname(next(iter(repro.__path__)))
        root = os.path.dirname(next(iter(tests.__path__)))
        script = HASHSEED_SCRIPT.format(root=root)
        records = []
        for seed in ("0", "1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": src,
                    "PATH": "/usr/bin:/bin",
                },
                timeout=120,
            )
            assert out.returncode == 0, out.stderr
            records.append(json.loads(out.stdout))
        assert records[0] == records[1] == records[2]
        assert records[0] == json.loads(json.dumps(vec001_record()))


class TestProperties:
    @settings(
        max_examples=30,
        deadline=None,
        database=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    @given(data=st.data())
    def test_one_note_iff_not_columnar(self, data):
        spec = data.draw(specifications())
        flat = typed(spec)
        cls = classify_vector(flat)
        notes = vec001(spec)
        if cls.columnar:
            assert notes == []
            return
        [note] = notes
        assert note.witness["family"] == list(flat.streams)
        assert note.witness["reasons"] == dict(cls.reasons)
        assert note.stream in cls.reasons
