"""Tests for the repro.telemetry observability subsystem."""

import json
import threading

import numpy as np
import pytest

from repro.telemetry import (
    ENV_VAR,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_SPAN,
    Stat,
    Telemetry,
    capture,
    get_telemetry,
    render_report,
)
from repro.telemetry.core import _resolve_mode


class TestModeResolution:
    @pytest.mark.parametrize("raw,expected", [
        ("off", "off"), ("", "off"), ("0", "off"), ("false", "off"),
        ("no", "off"), ("summary", "summary"), ("1", "summary"),
        ("on", "summary"), ("true", "summary"), ("TRACE", "trace"),
        (" Summary ", "summary"),
    ])
    def test_aliases(self, raw, expected):
        assert _resolve_mode(raw) == expected

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="telemetry mode"):
            _resolve_mode("verbose")

    def test_env_var_read_when_mode_is_none(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "trace")
        assert Telemetry().mode == "trace"
        monkeypatch.delenv(ENV_VAR)
        assert Telemetry().mode == "off"


class TestCountersAndGauges:
    def test_counter_increments(self):
        telemetry = Telemetry(mode="summary")
        telemetry.counter("hits").inc()
        telemetry.counter("hits").inc(4)
        assert telemetry.snapshot()["counters"]["hits"] == 5

    def test_gauge_keeps_last_value(self):
        telemetry = Telemetry(mode="summary")
        telemetry.gauge("batch").set(8)
        telemetry.gauge("batch").set(3.5)
        assert telemetry.snapshot()["gauges"]["batch"] == 3.5

    def test_disabled_mode_hands_out_shared_null_handles(self):
        telemetry = Telemetry(mode="off")
        assert telemetry.counter("x") is NULL_COUNTER
        assert telemetry.gauge("x") is NULL_GAUGE
        assert telemetry.span("x") is NULL_SPAN
        assert telemetry.timer("x") is NULL_SPAN
        telemetry.counter("x").inc(10)
        telemetry.record_timer("x", 1.0)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["timers"] == {}
        assert not telemetry.enabled

    def test_counter_thread_safety(self):
        telemetry = Telemetry(mode="summary")
        counter = telemetry.counter("shared")

        def bump():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 40_000


class TestTimers:
    def test_timer_context_manager_records(self):
        telemetry = Telemetry(mode="summary")
        with telemetry.timer("work"):
            pass
        stats = telemetry.snapshot()["timers"]["work"]
        assert stats["count"] == 1
        assert stats["total"] >= 0.0

    def test_record_timer_aggregate_tracks_per_batch_means(self):
        telemetry = Telemetry(mode="summary")
        telemetry.record_timer("phase", 2.0, count=4)   # mean 0.5
        telemetry.record_timer("phase", 6.0, count=3)   # mean 2.0
        stats = telemetry.snapshot()["timers"]["phase"]
        assert stats["count"] == 7
        assert stats["total"] == pytest.approx(8.0)
        assert stats["min"] == pytest.approx(0.5)
        assert stats["max"] == pytest.approx(2.0)

    def test_record_timer_zero_count_is_ignored(self):
        stat = Stat()
        stat.add_aggregate(1.0, 0)
        assert stat.count == 0 and stat.total == 0.0


class TestSpans:
    def test_nested_spans_form_path_keys(self):
        telemetry = Telemetry(mode="summary")
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        spans = telemetry.snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 2
        # Parent totals include child time.
        assert spans["outer"]["total"] >= spans["outer/inner"]["total"]

    def test_span_stack_unwinds_on_exception(self):
        telemetry = Telemetry(mode="summary")
        with pytest.raises(RuntimeError):
            with telemetry.span("outer"):
                raise RuntimeError("boom")
        with telemetry.span("after"):
            pass
        spans = telemetry.snapshot()["spans"]
        assert "after" in spans            # not "outer/after"
        assert spans["outer"]["count"] == 1

    def test_threads_nest_on_independent_stacks(self):
        telemetry = Telemetry(mode="summary")
        barrier = threading.Barrier(2)

        def worker(name):
            with telemetry.span(name):
                barrier.wait(timeout=5)
                with telemetry.span("child"):
                    pass

        threads = [threading.Thread(target=worker, args=(f"root{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = telemetry.snapshot()["spans"]
        # Each thread saw only its own stack: no cross-thread path mixing.
        assert spans["root0/child"]["count"] == 1
        assert spans["root1/child"]["count"] == 1

    def test_trace_mode_records_events(self):
        telemetry = Telemetry(mode="trace")
        with telemetry.span("a"):
            with telemetry.span("b"):
                pass
        events = telemetry.trace_events()
        assert [event["path"] for event in events] == ["a/b", "a"]
        assert all(event["dur"] >= 0.0 for event in events)
        assert telemetry.snapshot()["trace_events"] == 2

    def test_summary_mode_records_no_events(self):
        telemetry = Telemetry(mode="summary")
        with telemetry.span("a"):
            pass
        assert telemetry.trace_events() == []


class TestExport:
    def test_snapshot_is_json_serialisable(self):
        telemetry = Telemetry(mode="trace")
        telemetry.counter("c").inc()
        telemetry.gauge("g").set(1.5)
        with telemetry.span("s"):
            pass
        json.dumps(telemetry.snapshot())

    def test_dump_jsonl_round_trip(self, tmp_path):
        telemetry = Telemetry(mode="trace")
        telemetry.counter("reads").inc(3)
        telemetry.gauge("ratio").set(0.5)
        telemetry.record_timer("phase", 1.0, count=2)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        telemetry.dump_jsonl(path)
        records = [json.loads(line) for line in
                   path.read_text().strip().splitlines()]
        by_kind = {}
        for record in records:
            by_kind.setdefault(record["kind"], []).append(record)
        assert by_kind["meta"][0]["mode"] == "trace"
        assert by_kind["counter"][0] == {"kind": "counter", "name": "reads",
                                         "value": 3}
        assert by_kind["gauge"][0]["value"] == 0.5
        assert by_kind["timer"][0]["count"] == 2
        assert {record["name"] for record in by_kind["span"]} == {
            "outer", "outer/inner"}
        assert len(by_kind["event"]) == 2

    def test_profile_table_renders_all_sections(self):
        telemetry = Telemetry(mode="summary")
        telemetry.counter("reads").inc()
        telemetry.record_timer("phase", 0.5)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        table = telemetry.profile_table()
        assert "Telemetry spans" in table
        assert "Telemetry timers" in table
        assert "Telemetry counters" in table
        assert "  inner" in table  # indented child

    def test_empty_report_is_one_line(self):
        telemetry = Telemetry(mode="summary")
        assert "nothing recorded" in render_report(telemetry.snapshot())

    def test_render_report_accepts_a_snapshot_dict(self):
        with capture("summary") as telemetry:
            telemetry.counter("reads").inc(3)
            report = render_report(telemetry.snapshot())
        assert "Telemetry counters" in report and "reads" in report

    def test_render_report_accepts_the_captured_registry(self):
        with capture("summary") as telemetry:
            telemetry.counter("reads").inc(3)
            with telemetry.span("outer"):
                pass
            report = render_report(telemetry)
        assert "Telemetry spans" in report and "reads" in report
        # The registry is reset when the block exits.
        assert "nothing recorded" in render_report(telemetry)

    def test_reset_clears_everything(self):
        telemetry = Telemetry(mode="trace")
        telemetry.counter("c").inc()
        with telemetry.span("s"):
            pass
        telemetry.reset()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == {}
        assert snapshot["trace_events"] == 0
        assert telemetry.mode == "trace"  # mode survives a reset


class TestProcessRegistry:
    def test_get_telemetry_is_a_singleton(self):
        assert get_telemetry() is get_telemetry()

    def test_capture_restores_previous_mode_and_clears(self):
        registry = get_telemetry()
        previous = registry.mode
        with capture("summary") as telemetry:
            assert telemetry is registry
            assert telemetry.enabled
            telemetry.counter("temp").inc()
        assert registry.mode == previous
        assert registry.snapshot()["counters"] == {}

    def test_capture_clears_even_on_error(self):
        registry = get_telemetry()
        with pytest.raises(RuntimeError):
            with capture("summary") as telemetry:
                telemetry.counter("temp").inc()
                raise RuntimeError("boom")
        assert registry.snapshot()["counters"] == {}


class TestInstrumentation:
    """End-to-end: the instrumented hot paths feed the registry."""

    def test_einsum_backend_records_run_batched(self):
        from repro.backends import get_backend
        from repro.core.config import QuGeoVQCConfig
        from repro.core.vqc_model import QuGeoVQC

        config = QuGeoVQCConfig(n_groups=1, qubits_per_group=4, n_blocks=2,
                                decoder="layer", output_shape=(4, 4))
        model = QuGeoVQC(config, rng=0, backend=get_backend("einsum"))
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(3, 16))
        with capture("summary") as telemetry:
            model.predict_batch(batch)
            model.predict_batch(batch)
            snapshot = telemetry.snapshot()
        counters = snapshot["counters"]
        assert counters["backend.einsum.run_batched.calls"] == 2
        assert counters["backend.einsum.run_batched.samples"] == 6
        assert snapshot["gauges"]["backend.einsum.last_batch_size"] == 3
        assert snapshot["spans"]["einsum.run_batched"]["count"] == 2

    def test_batched_gradients_record_sweeps(self):
        from repro.backends import get_backend
        from repro.core.config import QuGeoVQCConfig, TrainingConfig
        from repro.core.vqc_model import QuGeoVQC
        from repro.core.training import ArrayDataSource, Trainer

        config = QuGeoVQCConfig(n_groups=1, qubits_per_group=4, n_blocks=2,
                                decoder="layer", output_shape=(4, 4))
        model = QuGeoVQC(config, rng=0, backend=get_backend("einsum"))
        rng = np.random.default_rng(2)
        seismic = rng.normal(size=(6, 16))
        velocity = rng.uniform(size=(6, 4, 4))
        trainer = Trainer(TrainingConfig(epochs=1, batch_size=3,
                                         learning_rate=0.05, seed=0))
        with capture("summary") as telemetry:
            trainer.train(model, ArrayDataSource(seismic, velocity))
            snapshot = telemetry.snapshot()
        assert snapshot["counters"]["gradients.batched.calls"] >= 1
        assert snapshot["counters"]["gradients.batched.samples"] == 6
        paths = set(snapshot["spans"])
        assert any(path.endswith("gradients.forward") for path in paths)
        assert any(path.endswith("gradients.backward") for path in paths)

    def test_propagator_records_per_phase_timers(self):
        from repro.seismic.forward_modeling import forward_model_shot_gather

        velocity = np.full((24, 24), 2000.0)
        with capture("summary") as telemetry:
            forward_model_shot_gather(velocity, n_sources=2, n_steps=48)
            snapshot = telemetry.snapshot()
        for phase in ("laplacian", "update", "inject", "boundary", "record"):
            assert snapshot["timers"][f"propagator.{phase}"]["count"] == 48
        assert snapshot["counters"]["propagator.steps"] == 48
        assert snapshot["counters"]["propagator.wavefields"] == 2
        assert snapshot["gauges"]["propagator.steps_per_sec"] > 0
        assert "forward_model.shots" in snapshot["spans"]


class TestTelemetryCallback:
    def test_trainer_logs_timing_metrics_when_enabled(self):
        from repro.core import build_cnn_ly
        from repro.core.training import ArrayDataSource, Trainer
        from repro.core.config import TrainingConfig

        rng = np.random.default_rng(0)
        model = build_cnn_ly(64, (6, 6), rng=0)
        source = ArrayDataSource(rng.normal(size=(8, 64)),
                                 rng.normal(size=(8, 6, 6)))
        test = ArrayDataSource(rng.normal(size=(4, 64)),
                               rng.normal(size=(4, 6, 6)))
        trainer = Trainer(TrainingConfig(epochs=2, batch_size=4, eval_every=1,
                                         seed=0))
        with capture("summary") as telemetry:
            result = trainer.train(model, source, test)
            snapshot = telemetry.snapshot()
        assert len(result.logger.history("epoch_seconds")) == 2
        assert len(result.logger.history("step_seconds")) == 2
        assert len(result.logger.history("eval_seconds")) == 2
        assert all(v > 0 for v in result.logger.history("epoch_seconds"))
        assert snapshot["counters"]["trainer.epochs"] == 2
        assert snapshot["spans"]["trainer.epoch"]["count"] == 2
        assert snapshot["spans"]["trainer.epoch/step"]["count"] == 4

    def test_trainer_logs_no_timing_metrics_when_disabled(self):
        from repro.core import build_cnn_ly
        from repro.core.training import ArrayDataSource, Trainer
        from repro.core.config import TrainingConfig

        rng = np.random.default_rng(0)
        model = build_cnn_ly(64, (6, 6), rng=0)
        source = ArrayDataSource(rng.normal(size=(8, 64)),
                                 rng.normal(size=(8, 6, 6)))
        trainer = Trainer(TrainingConfig(epochs=1, batch_size=4, seed=0))
        result = trainer.train(model, source)
        assert "epoch_seconds" not in result.logger.keys()

    def test_resume_with_telemetry_enabled_is_checkpoint_compatible(self,
                                                                    tmp_path):
        # A run checkpointed with telemetry off must resume cleanly with it
        # on (the auto-added TelemetryCallback is stateless).
        from repro.core import Callback, Checkpoint, build_cnn_ly
        from repro.core.training import ArrayDataSource, Trainer
        from repro.core.config import TrainingConfig

        class StopAfter(Callback):
            def __init__(self, epoch):
                self.epoch = int(epoch)

            def on_epoch_logged(self, state):
                if state.epoch >= self.epoch:
                    state.stop_training = True

        rng = np.random.default_rng(0)
        source = ArrayDataSource(rng.normal(size=(8, 64)),
                                 rng.normal(size=(8, 6, 6)))
        path = str(tmp_path / "ckpt.pkl")
        config = TrainingConfig(epochs=4, batch_size=4, seed=0)
        Trainer(config).train(build_cnn_ly(64, (6, 6), rng=0), source,
                              callbacks=[Checkpoint(path, every=2),
                                         StopAfter(1)])
        with capture("summary"):
            result = Trainer(config).train(build_cnn_ly(64, (6, 6), rng=0),
                                           source, resume_from=path)
        assert len(result.logger.history("train_loss")) == 4
        assert len(result.logger.history("epoch_seconds")) == 2
