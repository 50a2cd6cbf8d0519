"""Behavioral tests for the columnar vector engine.

The vector monitor must be indistinguishable from the generated codegen
monitor it is built on, on every observable surface: outputs
(byte-identical Python values), the batch protocol's error messages
and partial-progress contract, carry state across batch boundaries,
per-event ``push`` interleaving, and snapshot/restore — snapshots and
checkpoints interchange between the two engines.  Specs the columnar
program does not cover entirely are refused with the ``VEC00x``
witnesses; per-kernel metrics are pinned here too.
"""

import pytest

from repro.compiler import build_compiled_spec, kernels
from repro.compiler.monitor import MonitorError
from repro.frontend import parse_spec
from repro.lang import check_types, flatten

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)

SCALAR_CHAIN = """
in i: Int
def prev := last(i, i)
def d := sub(i, prev)
def neg := lt(d, 0)
out d
out neg
"""

TWO_INPUT = """
in a: Int
in b: Int
def s := add(a, b)
def m := merge(s, a)
def f := filter(m, gt(m, 4))
out m
out f
"""

def compile_pair(text, **kwargs):
    flat = flatten(parse_spec(text))
    check_types(flat)
    vec = build_compiled_spec(flat, engine="vector", **kwargs)
    gen = build_compiled_spec(flat, engine="codegen", **kwargs)
    return vec, gen


def run_batches(compiled, event_batches, end_time=None):
    collected = []
    monitor = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
    for batch in event_batches:
        monitor.feed_batch(batch)
    monitor.finish(end_time=end_time)
    return collected


def chain_events(n=60):
    return [(t, "i", (t * 7) % 13 - 6) for t in range(1, n + 1)]


class TestProgramShape:
    def test_pure_spec_gets_vector_program(self):
        vec, gen = compile_pair(SCALAR_CHAIN)
        cls = vec.monitor_class
        assert cls.VPROG is not None
        # Built on the generated class: same source, same state.
        assert cls.SOURCE == gen.monitor_class.SOURCE
        assert "def _calc" in cls.SOURCE
        assert cls.__name__ == gen.monitor_class.__name__

    def test_partly_columnar_spec_rejected_with_witnesses(self):
        flat = flatten(
            parse_spec(
                """
                in i: Int
                def agg := count(i)
                def dbl := add(i, i)
                out agg
                out dbl
                """
            )
        )
        with pytest.raises(ValueError, match="VEC001 .*agg"):
            build_compiled_spec(flat, engine="vector")

    def test_error_policy_rejected(self):
        with pytest.raises(ValueError, match="error policy"):
            compile_pair(SCALAR_CHAIN, error_policy="propagate")

    def test_fully_ineligible_spec_rejected(self):
        from repro.speclib import seen_set

        with pytest.raises(ValueError, match="VEC001"):
            build_compiled_spec(seen_set(), engine="vector")

    def test_delay_spec_rejected(self):
        flat = flatten(
            parse_spec(
                """
                in a: Int
                in r: Unit
                def d := delay(a, r)
                def t := time(d)
                out t
                """
            )
        )
        with pytest.raises(ValueError, match="clock feedback"):
            build_compiled_spec(flat, engine="vector")


class TestBatchBoundaries:
    @pytest.mark.parametrize("split", [1, 2, 7, 13, 59])
    def test_last_carries_across_batches(self, split):
        vec, gen = compile_pair(SCALAR_CHAIN)
        events = chain_events()
        batches = [
            events[i : i + split] for i in range(0, len(events), split)
        ]
        assert run_batches(vec, batches) == run_batches(gen, [events])

    def test_batch_boundary_inside_timestamp(self):
        vec, gen = compile_pair(TWO_INPUT)
        events = [(1, "a", 1), (1, "b", 2), (2, "a", 3), (2, "b", 4)]
        split = [events[:1], events[1:3], events[3:]]
        assert run_batches(vec, split) == run_batches(gen, [events])

    def test_push_and_batch_interleave(self):
        vec, gen = compile_pair(SCALAR_CHAIN)
        events = chain_events(30)
        expected = run_batches(gen, [events])
        collected = []
        monitor = vec.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        for ts, name, value in events[:10]:
            monitor.push(name, ts, value)
        monitor.feed_batch(events[10:25])
        for ts, name, value in events[25:]:
            monitor.push(name, ts, value)
        monitor.finish()
        assert collected == expected

    def test_outputs_are_python_scalars(self):
        vec, _ = compile_pair(SCALAR_CHAIN)
        collected = run_batches(vec, [chain_events(20)])
        for _, _, value in collected:
            assert type(value) in (int, bool)


class TestBatchProtocol:
    def make(self, text=TWO_INPUT):
        vec, _ = compile_pair(text)
        collected = []
        return vec.new_monitor(lambda n, t, v: collected.append((n, t, v))), collected

    def test_unknown_stream(self):
        monitor, _ = self.make()
        with pytest.raises(MonitorError, match="unknown input stream"):
            monitor.feed_batch([(1, "nope", 1)])

    def test_none_payload(self):
        monitor, _ = self.make()
        with pytest.raises(MonitorError, match="no-event value"):
            monitor.feed_batch([(1, "a", None)])

    def test_out_of_order_keeps_partial_progress(self):
        # The scalar loop consumes events up to the offender; the
        # vectorized batch path must honor that exact contract.
        vec, gen = compile_pair(TWO_INPUT)
        got = {}
        for compiled in (vec, gen):
            collected = []
            monitor = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            with pytest.raises(MonitorError, match="out-of-order"):
                monitor.feed_batch(
                    [(1, "a", 1), (2, "a", 2), (1, "b", 9)]
                )
            # valid prefix (t=1) was calculated; t=2 is still pending
            monitor.feed_batch([(3, "a", 3)])
            monitor.finish()
            got[compiled.engine] = collected
        assert got["vector"] == got["codegen"]

    def test_after_finish(self):
        monitor, _ = self.make()
        monitor.finish()
        with pytest.raises(MonitorError, match="after finish"):
            monitor.feed_batch([(1, "a", 1)])


class TestFeedColumns:
    def test_matches_row_feeding(self):
        vec, gen = compile_pair(TWO_INPUT)
        ts = list(range(1, 50))
        cols = {"a": [t % 7 for t in ts], "b": [t % 5 for t in ts]}
        vec_out, gen_out = [], []
        mv = vec.new_monitor(lambda n, t, v: vec_out.append((n, t, v)))
        mv.feed_columns(ts, cols)
        mv.finish()
        mp = gen.new_monitor(lambda n, t, v: gen_out.append((n, t, v)))
        mp.feed_columns(ts, cols)
        mp.finish()
        assert vec_out == gen_out

    def test_numpy_columns_zero_copy_path(self):
        np = kernels.numpy_module()
        vec, gen = compile_pair(TWO_INPUT)
        ts = np.arange(1, 50)
        cols = {
            "a": np.arange(1, 50) % 7,
            "b": np.arange(1, 50) % 5,
        }
        vec_out, gen_out = [], []
        mv = vec.new_monitor(lambda n, t, v: vec_out.append((n, t, v)))
        mv.feed_columns(ts, cols)
        mv.finish()
        mp = gen.new_monitor(lambda n, t, v: gen_out.append((n, t, v)))
        mp.feed_columns(
            ts.tolist(), {k: v.tolist() for k, v in cols.items()}
        )
        mp.finish()
        assert vec_out == gen_out
        assert all(type(v) in (int, bool) for _, _, v in vec_out)

    def test_partial_column_set(self):
        # Streams absent from the column mapping simply have no events.
        vec, gen = compile_pair(TWO_INPUT)
        ts = list(range(1, 20))
        cols = {"a": [t + 1 for t in ts]}
        out = {}
        for compiled in (vec, gen):
            collected = []
            m = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            m.feed_columns(ts, cols)
            m.finish()
            out[compiled.engine] = collected
        assert out["vector"] == out["codegen"]

    def test_unknown_stream(self):
        vec, _ = compile_pair(TWO_INPUT)
        monitor = vec.new_monitor()
        with pytest.raises(MonitorError, match="unknown input stream"):
            monitor.feed_columns([1, 2], {"nope": [1, 2]})

    def test_length_mismatch(self):
        vec, _ = compile_pair(TWO_INPUT)
        monitor = vec.new_monitor()
        with pytest.raises(MonitorError, match="values"):
            monitor.feed_columns([1, 2, 3], {"a": [1, 2]})

    def test_non_increasing_timestamps(self):
        vec, _ = compile_pair(TWO_INPUT)
        monitor = vec.new_monitor()
        with pytest.raises(MonitorError, match="strictly increasing"):
            monitor.feed_columns([1, 1], {"a": [1, 2]})

    def test_none_hole_rejected_like_rows(self):
        vec, _ = compile_pair(TWO_INPUT)
        monitor = vec.new_monitor()
        with pytest.raises(MonitorError, match="no-event value"):
            monitor.feed_columns([1, 2], {"a": [1, None]})

    def test_row_shim_rejects_unsorted_timestamps(self):
        # Regression: the base row shim used to accept an unsorted (or
        # merely non-strict) timestamps array that the vector path
        # rejects — scalar engines silently consumed it.
        _, gen = compile_pair(TWO_INPUT)
        for bad_ts in ([1, 1], [2, 1]):
            monitor = gen.new_monitor()
            with pytest.raises(MonitorError, match="strictly increasing"):
                monitor.feed_columns(bad_ts, {"a": [1, 2]})

    BAD_BATCHES = [
        ("equal-ts", [1, 1], {"a": [1, 2]}),
        ("descending-ts", [2, 1], {"a": [1, 2]}),
        ("negative-ts", [-1, 2], {"a": [1, 2]}),
        ("none-hole", [1, 2], {"a": [1, None]}),
        ("unknown-stream", [1, 2], {"nope": [1, 2]}),
        ("ragged-column", [1, 2, 3], {"a": [1, 2]}),
        ("empty-unknown", [], {"nope": []}),
    ]

    @pytest.mark.parametrize(
        "ts,cols",
        [(ts, cols) for _, ts, cols in BAD_BATCHES],
        ids=[label for label, _, _ in BAD_BATCHES],
    )
    def test_rejection_identical_across_engines(self, ts, cols):
        # Error message AND partial progress must be byte-identical:
        # a rejected columnar batch consumes nothing on either engine,
        # so a clean batch afterwards produces identical outputs.
        vec, gen = compile_pair(TWO_INPUT)
        results = {}
        for compiled in (vec, gen):
            collected = []
            m = compiled.new_monitor(
                lambda n, t, v: collected.append((n, t, v))
            )
            with pytest.raises(MonitorError) as exc:
                m.feed_columns(ts, cols)
            m.feed_columns([5, 6], {"a": [5, 6], "b": [1, 2]})
            m.finish()
            results[compiled.engine] = (str(exc.value), collected)
        assert results["vector"] == results["codegen"]

    def test_stale_timestamp_identical_across_engines(self):
        vec, gen = compile_pair(TWO_INPUT)
        results = {}
        for compiled in (vec, gen):
            m = compiled.new_monitor()
            m.feed_columns([1, 2, 3], {"a": [1, 2, 3]})
            with pytest.raises(MonitorError) as exc:
                m.feed_columns([1, 2], {"a": [9, 9]})
            results[compiled.engine] = str(exc.value)
        assert results["vector"] == results["codegen"]

    def test_empty_batch_validates_columns(self):
        # Zero timestamps is a no-op, but unknown or ragged columns
        # are still reported — on both engines.
        vec, gen = compile_pair(TWO_INPUT)
        for compiled in (vec, gen):
            monitor = compiled.new_monitor()
            assert monitor.feed_columns([], {"a": []}) == 0
            with pytest.raises(MonitorError, match="unknown input stream"):
                monitor.feed_columns([], {"nope": []})

    def test_runner_validating_path_matches(self):
        # The runner's validating row conversion must reject with the
        # same message and zero partial progress as the raw monitor.
        from repro.compiler.runtime import MonitorRunner

        vec, gen = compile_pair(TWO_INPUT)
        results = {}
        for compiled in (vec, gen):
            collected = []
            runner = MonitorRunner(
                compiled,
                lambda n, t, v: collected.append((n, t, v)),
                validate_inputs=True,
            )
            with pytest.raises(MonitorError) as exc:
                runner.feed_columns([3, 1], {"a": [1, 2]})
            runner.feed_columns([5, 6], {"a": [5, 6], "b": [1, 2]})
            runner.finish()
            results[compiled.engine] = (str(exc.value), collected)
        assert results["vector"] == results["codegen"]

    def test_after_pending_rows(self):
        # feed_columns after a partially-consumed row batch must merge
        # with the pending timestamp, exactly like another feed_batch.
        vec, gen = compile_pair(TWO_INPUT)
        out = {}
        for compiled in (vec, gen):
            collected = []
            m = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            m.feed_batch([(1, "a", 1), (2, "a", 2)])  # t=2 pending
            m.feed_columns([3, 4], {"b": [7, 8]})
            m.finish()
            out[compiled.engine] = collected
        assert out["vector"] == out["codegen"]


class TestStatefulness:
    def test_snapshot_restore_roundtrip(self):
        vec, gen = compile_pair(SCALAR_CHAIN)
        events = chain_events(40)
        expected = run_batches(gen, [events])
        first = []
        m1 = vec.new_monitor(lambda n, t, v: first.append((n, t, v)))
        m1.feed_batch(events[:20])
        state = m1.snapshot()
        m2 = vec.new_monitor(lambda n, t, v: first.append((n, t, v)))
        m2.restore(state)
        m2.feed_batch(events[20:])
        m2.finish()
        assert first == expected

    @pytest.mark.parametrize("direction", ["vector->codegen", "codegen->vector"])
    @pytest.mark.parametrize("cut", [7, 20, 33])
    def test_vector_and_codegen_snapshots_interchange(self, direction, cut):
        # The vector monitor runs on the generated class's own state,
        # so a snapshot taken mid-trace (with a timestamp still pending)
        # restores into the other engine and the run continues exactly.
        vec, gen = compile_pair(TWO_INPUT)
        first, second = (vec, gen) if direction == "vector->codegen" else (gen, vec)
        events = []
        for t in range(1, 41):
            events.append((t, "a", (t * 5) % 9 - 2))
            if t % 3:
                events.append((t, "b", t % 4))
        expected = run_batches(gen, [events])
        collected = []
        m1 = first.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        m1.feed_batch(events[:cut])
        state = m1.snapshot()
        m2 = second.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        assert set(state) == set(m2.snapshot())
        m2.restore(state)
        m2.feed_batch(events[cut:])
        m2.finish()
        assert collected == expected

    def test_last_state_interchanges(self):
        vec, gen = compile_pair(SCALAR_CHAIN)
        events = chain_events(40)
        expected = run_batches(gen, [events])
        collected = []
        m1 = vec.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        m1.feed_batch(events[:20])
        m2 = gen.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        m2.restore(m1.snapshot())
        for ts, name, value in events[20:]:
            m2.push(name, ts, value)
        m2.finish()
        assert collected == expected


class TestCrossEngineResume:
    """``repro run --resume`` picks up another engine's checkpoints."""

    @pytest.mark.parametrize(
        "crashed,resumed", [("vector", "codegen"), ("codegen", "vector")]
    )
    def test_cli_resume_across_engines(
        self, tmp_path, capsys, crashed, resumed
    ):
        from repro.cli import main

        spec_file = tmp_path / "chain.tessla"
        spec_file.write_text(SCALAR_CHAIN)
        lines = [f"{t},i,{(t * 7) % 13 - 6}" for t in range(1, 200)]
        full_trace = tmp_path / "full.csv"
        full_trace.write_text("\n".join(lines) + "\n")
        partial_trace = tmp_path / "partial.csv"
        partial_trace.write_text("\n".join(lines[:110]) + "\n")

        reference = tmp_path / "reference.out"
        assert main([
            "run", str(spec_file), "--trace", str(full_trace),
            "--engine", "codegen", "--output", str(reference),
        ]) == 0

        # "crash": the first run only ever sees a prefix of the trace
        ckpt_dir = tmp_path / "ckpt"
        recovered = tmp_path / "recovered.out"
        assert main([
            "run", str(spec_file), "--trace", str(partial_trace),
            "--engine", crashed, "--batch-size", "16",
            "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "32",
            "--output", str(recovered),
        ]) == 0
        assert list(ckpt_dir.glob("*.rckpt"))

        assert main([
            "run", str(spec_file), "--trace", str(full_trace),
            "--engine", resumed, "--batch-size", "16",
            "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "32",
            "--resume", "--output", str(recovered), "--report",
        ]) == 0
        report = capsys.readouterr().err
        # Really resumed from the other engine's checkpoint, not afresh.
        assert '"resumed_from": "' in report
        assert recovered.read_bytes() == reference.read_bytes()


class TestMetrics:
    def test_kernel_counters_recorded(self):
        from repro.obs.metrics import MetricsRegistry

        flat = flatten(parse_spec(SCALAR_CHAIN))
        check_types(flat)
        registry = MetricsRegistry()
        registry.enabled = True
        compiled = build_compiled_spec(
            flat, engine="vector", metrics=registry
        )
        monitor = compiled.new_monitor()
        monitor.feed_batch(chain_events(30))
        monitor.finish()
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["vector.batches"] >= 1
        assert counters["vector.rows"] >= 29
        assert any(k.startswith("vector.kernel.") for k in counters)

    def test_metrics_do_not_change_outputs(self):
        from repro.obs.metrics import MetricsRegistry

        flat = flatten(parse_spec(SCALAR_CHAIN))
        check_types(flat)
        plain = build_compiled_spec(flat, engine="vector")
        registry = MetricsRegistry()
        registry.enabled = True
        metered = build_compiled_spec(
            flat, engine="vector", metrics=registry
        )
        events = chain_events(50)
        assert run_batches(metered, [events]) == run_batches(
            plain, [events]
        )
