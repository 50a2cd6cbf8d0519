"""Engine negotiation: ``CompileOptions(engine="auto")``.

``auto`` resolves per spec — ``vector`` when the columnar program
covers the whole spec and numpy is importable, else ``codegen`` (the
generated monitor) — and the resolution is observable
(``Monitor.engine_resolved``) and explained (``VEC001``/``VEC002``
diagnostics).  Neither engine enters the fingerprint: a vector monitor
is the generated class with columnar batch paths, so both share plan
cache entries and checkpoints.  An explicit ``vector`` request on a
spec it cannot run raises, and a numpy-less process degrades
gracefully.
"""

import subprocess
import sys

import pytest

from repro import api
from repro.bench.table1 import scenarios
from repro.compiler import kernels
from repro.speclib import (
    map_window,
    queue_window,
    running_aggregate,
    seen_set,
    session_window,
    sliding_window,
    tumbling_window,
)

ELIGIBLE = """
in i: Int
def prev := last(i, i)
def d := sub(i, prev)
out d
"""

#: The alert chain of the columnar benchmark workload: feed-forward
#: last/sub/add plus a running-max scan.
ALERT_CHAIN = """
in x: Int
def prev := last(x, x)
def diff := x - prev
def s := diff + x
def spike := filter(s, s > 1800000)
def h := last(hi, x)
def k := max(h, x)
def hi := merge(k, x)
def rise := filter(hi, hi > h)
out spike, rise
"""

SEEN_SET_TEXT = """
in i: Int
def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)
out s
"""

has_numpy = kernels.numpy_available()
needs_numpy = pytest.mark.skipif(not has_numpy, reason="numpy not installed")

CODEGEN_SPECS = {
    "fig9_seen_set": seen_set,
    "fig9_map_window": lambda: map_window(100),
    "fig9_queue_window": lambda: queue_window(100),
    "window_tumbling_sum": lambda: tumbling_window("sum", 8),
    "window_sliding_avg": lambda: sliding_window("avg", 8),
    "window_session_max": lambda: session_window("max", 3),
    **{
        f"table1_{name}": (lambda spec=spec: spec)
        for name, (spec, _inputs) in scenarios(10).items()
    },
}

VECTOR_SPECS = {
    "alert_chain": lambda: ALERT_CHAIN,
    "scalar_chain": lambda: ELIGIBLE,
    "running_sum": lambda: running_aggregate("sum"),
    "running_max": lambda: running_aggregate("max"),
}


class TestResolutionTable:
    """The README claim: ``auto`` runs every Fig. 9, Table I and window
    spec on generated code and every fully columnar spec on the vector
    engine."""

    @pytest.mark.parametrize("name", sorted(CODEGEN_SPECS))
    def test_resolves_codegen(self, name):
        monitor = api.compile(CODEGEN_SPECS[name]())
        assert monitor.engine_resolved == "codegen"
        # The whole spec falls back, so one note carries every reason.
        codes = [d.code for d in monitor.diagnostics()]
        assert codes.count("VEC001") == 1

    @needs_numpy
    @pytest.mark.parametrize("name", sorted(VECTOR_SPECS))
    def test_resolves_vector(self, name):
        monitor = api.compile(VECTOR_SPECS[name]())
        assert monitor.engine_resolved == "vector"
        assert not [
            d for d in monitor.diagnostics() if d.code.startswith("VEC")
        ]

    @pytest.mark.parametrize("name", sorted(CODEGEN_SPECS))
    def test_explicit_vector_raises_on_ineligible(self, name):
        with pytest.raises(ValueError, match="VEC001"):
            api.compile(
                CODEGEN_SPECS[name](), api.CompileOptions(engine="vector")
            )


class TestResolution:
    @needs_numpy
    def test_auto_is_the_default(self):
        monitor = api.compile(ELIGIBLE)
        assert monitor.options.engine == "auto"
        assert monitor.engine_requested == "auto"
        assert monitor.engine_resolved == "vector"

    def test_auto_resolves_codegen_under_error_policy(self):
        monitor = api.compile(
            ELIGIBLE,
            api.CompileOptions(engine="auto", error_policy="propagate"),
        )
        assert monitor.engine_resolved == "codegen"

    def test_explicit_vector_raises_under_error_policy(self):
        with pytest.raises(ValueError, match="error policy"):
            api.compile(
                ELIGIBLE,
                api.CompileOptions(engine="vector", error_policy="propagate"),
            )

    def test_explicit_codegen_unchanged(self):
        monitor = api.compile(ELIGIBLE, api.CompileOptions(engine="codegen"))
        assert monitor.engine_requested == "codegen"
        assert monitor.engine_resolved == "codegen"

    @pytest.mark.parametrize("engine", ["jit", "plan", "interpreted"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            api.CompileOptions(engine=engine)

    def test_fallback_diagnostic_names_the_family(self):
        monitor = api.compile(
            seen_set(), api.CompileOptions(engine="auto")
        )
        vec = [d for d in monitor.diagnostics() if d.code == "VEC001"]
        assert vec
        diagnostic = vec[0]
        assert diagnostic.severity.label == "note"
        assert diagnostic.source == "vector"
        assert diagnostic.witness["rule"] == "vector-fallback"
        assert diagnostic.witness["family"]  # the member streams
        assert diagnostic.witness["reasons"]  # per-stream explanations
        assert "generated code" in diagnostic.message

    def test_codegen_resolution_does_not_import_numpy(self):
        # Classification is syntactic; numpy is imported only for a
        # spec the columnar program covers entirely.
        code = (
            "import sys\n"
            "from repro import api\n"
            "from repro.speclib import seen_set\n"
            "m = api.compile(seen_set())\n"
            "m.diagnostics()\n"
            "assert m.engine_resolved == 'codegen', m.engine_resolved\n"
            "assert 'numpy' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestNumpyLess:
    def test_auto_falls_back_to_codegen(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        monitor = api.compile(ELIGIBLE, api.CompileOptions(engine="auto"))
        assert monitor.engine_resolved == "codegen"
        assert [d.code for d in monitor.diagnostics()] == ["VEC002"]
        collected = []
        api.run(
            monitor,
            [(1, "i", 3), (4, "i", 9)],
            on_output=lambda n, t, v: collected.append((n, t, v)),
        )
        assert collected == [("d", 4, 6)]

    def test_explicit_vector_raises_with_guidance(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        with pytest.raises(ValueError, match=r"repro\[vector\]"):
            api.compile(ELIGIBLE, api.CompileOptions(engine="vector"))


class TestFingerprints:
    @needs_numpy
    def test_engines_share_fingerprint(self):
        # A vector monitor is the generated class plus columnar batch
        # paths over the same state: caches and checkpoints are shared.
        fingerprints = {
            engine: api.compile(
                ELIGIBLE, api.CompileOptions(engine=engine)
            ).fingerprint
            for engine in ("auto", "codegen", "vector")
        }
        assert len(set(fingerprints.values())) == 1

    def test_numpy_presence_keeps_fingerprint(self, monkeypatch):
        before = api.compile(ELIGIBLE).fingerprint
        monkeypatch.setattr(kernels, "_np", None)
        assert api.compile(ELIGIBLE).fingerprint == before

    @needs_numpy
    def test_plan_cache_roundtrip_under_auto(self, tmp_path):
        opts = api.CompileOptions(engine="auto", plan_cache=str(tmp_path))
        cold = api.compile(ELIGIBLE, opts)
        warm = api.compile(ELIGIBLE, opts)
        assert (cold.plan_cache_hit, warm.plan_cache_hit) == (False, True)
        assert warm.engine_resolved == "vector"
        events = [(t, "i", t % 5) for t in range(1, 30)]
        out = {}
        for tag, monitor in (("cold", cold), ("warm", warm)):
            collected = []
            api.run(
                monitor,
                events,
                on_output=lambda n, t, v: collected.append((n, t, v)),
            )
            out[tag] = collected
        assert out["cold"] == out["warm"]

    def test_text_fast_path_under_auto(self, tmp_path):
        # A spec that is not fully columnar resolves to generated code
        # whatever numpy's presence, so its warm auto compile takes the
        # text-keyed fast path (no parse) — and still explains itself.
        opts = api.CompileOptions(plan_cache=str(tmp_path))
        cold = api.compile(SEEN_SET_TEXT, opts)
        warm = api.compile(SEEN_SET_TEXT, opts)
        assert (cold.plan_cache_hit, warm.plan_cache_hit) == (False, True)
        assert warm.engine_resolved == "codegen"
        assert warm.fingerprint == cold.fingerprint
        assert "deferred" in repr(warm.compiled.flat)
        assert "VEC001" in [d.code for d in warm.diagnostics()]


class TestCliPlumbing:
    def test_engine_flag_on_run(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "s.tessla"
        spec.write_text(ELIGIBLE)
        trace = tmp_path / "t.csv"
        trace.write_text("1,i,3\n4,i,9\n")
        for engine in ("auto", "codegen"):
            code = main(
                ["run", str(spec), "--trace", str(trace), "--engine", engine]
            )
            assert code == 0
            assert capsys.readouterr().out.splitlines() == ["4,d,6"]

    @pytest.mark.parametrize("engine", ["plan", "interpreted"])
    def test_deleted_engines_rejected(self, tmp_path, engine):
        from repro.cli import main

        spec = tmp_path / "s.tessla"
        spec.write_text(ELIGIBLE)
        with pytest.raises(SystemExit):
            main(["lint", str(spec), "--engine", engine])
