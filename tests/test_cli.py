"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import BUILTIN_BOARDS, BUILTIN_DESIGNS, main
from repro.io import board_to_dict, design_to_dict, save_json
from repro.arch import virtex_board
from repro.design import fir_filter_design


class TestListingCommands:
    def test_boards_lists_every_builtin(self, capsys):
        assert main(["boards"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_BOARDS:
            assert name in out

    def test_designs_lists_every_builtin(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_DESIGNS:
            assert name in out

    def test_describe_board_and_design(self, capsys):
        assert main(["describe", "--board", "virtex-xcv300",
                     "--design", "fir-filter"]) == 0
        out = capsys.readouterr().out
        assert "BlockRAM" in out and "coefficients" in out

    def test_describe_without_arguments_fails(self, capsys):
        assert main(["describe"]) == 2
        assert "error" in capsys.readouterr().err


class TestMapCommand:
    def test_map_builtin_design_onto_builtin_board(self, capsys):
        assert main(["map", "--board", "virtex-xcv1000",
                     "--design", "fir-filter"]) == 0
        out = capsys.readouterr().out
        assert "Memory mapping report" in out
        assert "weighted objective" in out
        assert "Memory map" in out

    def test_map_writes_output_json(self, capsys, tmp_path):
        output = tmp_path / "mapping.json"
        assert main(["map", "--board", "virtex-xcv1000", "--design", "fir-filter",
                     "--output", str(output)]) == 0
        document = json.loads(output.read_text())
        assert document["kind"] == "mapping_result"
        assert document["global_mapping"]["solver_status"] == "optimal"
        assert len(document["detailed_mapping"]["placements"]) > 0

    def test_map_from_json_files(self, capsys, tmp_path):
        board_path = save_json(board_to_dict(virtex_board("XCV300")),
                               tmp_path / "board.json")
        design_path = save_json(design_to_dict(fir_filter_design()),
                                tmp_path / "design.json")
        assert main(["map", "--board", str(board_path),
                     "--design", str(design_path)]) == 0
        assert "optimal" in capsys.readouterr().out

    def test_map_random_design(self, capsys):
        assert main(["map", "--board", "hierarchical", "--design", "random:6",
                     "--seed", "3"]) == 0
        assert "Memory mapping report" in capsys.readouterr().out

    def test_map_weight_presets(self, capsys):
        assert main(["map", "--board", "virtex-xcv1000", "--design", "fir-filter",
                     "--weights", "latency"]) == 0
        capsys.readouterr()

    def test_unknown_board_is_a_clean_error(self, capsys):
        assert main(["map", "--board", "no-such-board",
                     "--design", "fir-filter"]) == 2
        err = capsys.readouterr().err
        assert "unknown board" in err

    def test_unknown_design_is_a_clean_error(self, capsys):
        assert main(["map", "--board", "hierarchical",
                     "--design", "no-such-design"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_infeasible_mapping_is_a_clean_error(self, capsys):
        # The FFT does not fit the small FLEX 10K board (see the dsp_kernels
        # example); the CLI must report that as a mapping failure (exit 1,
        # distinct from usage errors), not a traceback.
        assert main(["map", "--board", "flex10k-epf10k100", "--design", "fft"]) == 1
        assert "mapping failed" in capsys.readouterr().err

    def test_infeasible_mapping_with_json_emits_failure_document(self, capsys):
        assert main(["map", "--board", "flex10k-epf10k100", "--design", "fft",
                     "--json"]) == 1
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["status"] == "failed"
        assert document["error"]

    def test_map_json_output(self, capsys):
        assert main(["map", "--board", "virtex-xcv1000", "--design", "fir-filter",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "mapping_result"
        assert document["global_mapping"]["solver_status"] == "optimal"


class TestBackendsCommand:
    def test_lists_registered_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("bnb", "bnb-pure", "scipy-milp"):
            assert name in out
        for removed in ("portfolio", "bnb-tableau"):
            assert removed not in out

    def test_json_listing_has_the_two_backends(self, capsys):
        assert main(["backends", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in listing] == ["bnb-pure", "scipy-milp"]
        assert "bnb" in listing[0]["aliases"]
        for entry in listing:
            assert "capabilities" in entry and "options" in entry


class TestBatchCommand:
    def test_batch_of_named_designs(self, capsys):
        assert main(["batch", "--board", "virtex-xcv1000",
                     "--design", "fir-filter", "--design", "matrix-multiply"]) == 0
        out = capsys.readouterr().out
        assert "Batch of 2 mapping jobs" in out
        assert out.count("ok") >= 2

    def test_batch_json_and_artifact(self, capsys, tmp_path):
        assert main(["batch", "--sweep", "2", "--json",
                     "--artifact-dir", str(tmp_path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["num_points"] == 2
        assert all(r["status"] == "ok" for r in document["results"])
        artifact = json.loads((tmp_path / "BENCH_batch.json").read_text())
        assert artifact["kind"] == "bench_artifact"
        assert artifact["num_ok"] == 2
        assert artifact["speedup_vs_serial"] is not None

    def test_batch_warm_cache_reruns_from_disk(self, capsys, tmp_path):
        argv = ["batch", "--sweep", "2", "--json",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert all(r["cache_hit"] for r in warm["results"])
        assert [r["fingerprint"] for r in warm["results"]] == \
               [r["fingerprint"] for r in cold["results"]]

    def test_batch_with_failing_job_exits_nonzero(self, capsys):
        # The FFT does not fit the FLEX 10K board; one failed job must turn
        # into a non-zero exit without aborting the rest of the batch.
        assert main(["batch", "--board", "flex10k-epf10k100",
                     "--design", "fft", "--design", "fir-filter"]) == 1
        out = capsys.readouterr().out
        assert "failed" in out and "ok" in out

    def test_batch_without_work_is_a_usage_error(self, capsys):
        assert main(["batch"]) == 2
        assert "batch needs" in capsys.readouterr().err

    def test_unknown_solver_is_a_usage_error(self, capsys):
        assert main(["batch", "--design", "fir-filter", "--solver", "cplex"]) == 2
        assert "unknown solver backend" in capsys.readouterr().err
        assert main(["map", "--board", "virtex-xcv1000", "--design", "fir-filter",
                     "--solver", "cplex"]) == 2
        assert "repro backends" in capsys.readouterr().err
        for removed in ("portfolio", "bnb-tableau"):
            assert main(["map", "--board", "virtex-xcv1000", "--design",
                         "fir-filter", "--solver", removed]) == 2
            assert "unknown solver backend" in capsys.readouterr().err

    def test_zero_jobs_is_a_usage_error(self, capsys):
        assert main(["batch", "--sweep", "2", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["table3", "--points", "1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestScenariosCommand:
    def test_lists_every_registered_family(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("image-pipeline", "random", "board-scale"):
            assert name in out

    def test_json_listing_carries_param_specs(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in listing}
        assert "board-scale" in by_name
        params = {p["name"] for p in by_name["board-scale"]["params"]}
        assert {"segments", "banks"} <= params


class TestExploreCommand:
    def test_small_grid_succeeds(self, capsys, tmp_path):
        assert main(["explore", "--grid", "fir-filter@taps=16|32",
                     "--artifact-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Exploration summary" in out
        artifact = json.loads((tmp_path / "BENCH_explore.json").read_text())
        assert artifact["kind"] == "bench_artifact"
        assert artifact["name"] == "explore"
        assert artifact["num_points"] == 2
        assert artifact["num_failed"] == 0

    def test_json_output_is_the_artifact(self, capsys):
        assert main(["explore", "--grid", "fft", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["name"] == "explore"
        assert document["fingerprint"]

    def test_infeasible_point_exits_one(self, capsys):
        # banks=2 cannot hold 10 structures; the sweep finishes but the
        # run reports the failed point through the exit code.
        assert main(["explore", "--grid",
                     "board-scale@segments=10,banks=2|8"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_bad_grid_spec_is_a_usage_error(self, capsys):
        assert main(["explore", "--grid", "no-such-family@x=1"]) == 2
        assert "unknown scenario family" in capsys.readouterr().err
        assert main(["explore", "--grid", "fft@points"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_scenario_parameter_is_a_usage_error(self, capsys):
        assert main(["explore", "--grid", "fft@bogus=3"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_build_time_scenario_error_is_a_usage_error(self, capsys):
        # The board knob is a plain string, so a bad name only fails when
        # the point is built inside the explorer — still exit 2, no
        # traceback.
        assert main(["explore", "--grid", "fft@board=bogus"]) == 2
        assert "unknown board" in capsys.readouterr().err

    def test_zero_jobs_is_a_usage_error(self, capsys):
        assert main(["explore", "--grid", "fft", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_deterministic_across_reruns_and_jobs(self, capsys):
        argv = ["explore", "--grid", "image-pipeline@width=128:384:128",
                "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["fingerprint"] == second["fingerprint"]


class TestServeCommandUsage:
    def test_bad_max_batch_is_a_usage_error(self, capsys):
        assert main(["serve", "--max-batch", "0"]) == 2
        assert "max-batch" in capsys.readouterr().err

    def test_bad_max_wait_is_a_usage_error(self, capsys):
        assert main(["serve", "--max-wait-ms", "-5"]) == 2
        assert "max-wait-ms" in capsys.readouterr().err

    def test_zero_jobs_is_a_usage_error(self, capsys):
        assert main(["serve", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_bad_memory_entries_is_a_usage_error(self, capsys):
        assert main(["serve", "--memory-entries", "0"]) == 2
        assert "memory-entries" in capsys.readouterr().err

    def test_bad_cache_entries_is_a_usage_error(self, capsys):
        assert main(["serve", "--cache-entries", "0"]) == 2
        assert "cache-entries" in capsys.readouterr().err

    def test_port_in_use_is_a_usage_error(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
            assert "cannot serve" in capsys.readouterr().err
        finally:
            blocker.close()

    def test_replicated_serve_hands_every_replica_flag_on(
        self, monkeypatch, tmp_path
    ):
        import repro.serve.service as service_module

        seen = {}

        class Booted(Exception):
            pass

        def fake_supervisor(**kwargs):
            seen.update(kwargs)
            raise Booted

        monkeypatch.setattr(service_module, "ReplicaSupervisor",
                            fake_supervisor)
        with pytest.raises(Booted):
            main(["serve", "--replicas", "2", "--cache-dir", str(tmp_path),
                  "--cache-entries", "40", "--memory-entries", "32",
                  "--retries", "1", "--mp-context", "spawn"])
        assert seen["cache_entries"] == 40
        assert seen["memory_entries"] == 32
        assert seen["retries"] == 1
        assert seen["mp_context"] == "spawn"


class TestSubmitCommand:
    def test_without_designs_is_a_usage_error(self, capsys):
        assert main(["submit"]) == 2
        assert "--design" in capsys.readouterr().err

    def test_unreachable_server_is_a_usage_error(self, capsys):
        assert main([
            "submit", "--url", "http://127.0.0.1:1",
            "--design", "fir-filter", "--connect-timeout", "0.5",
        ]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_bad_repeat_is_a_usage_error(self, capsys):
        assert main([
            "submit", "--design", "fir-filter", "--repeat", "0",
            "--url", "http://127.0.0.1:1",
        ]) == 2
        assert "--repeat" in capsys.readouterr().err

    def test_end_to_end_against_live_server(self, capsys, tmp_path):
        import asyncio
        import threading

        from repro.serve import MappingServer, MappingService, ServeClient

        service = MappingService(jobs=1, max_batch=4, max_wait_ms=10.0)
        server = MappingServer(service, port=0)
        started = threading.Event()

        def run():
            async def body():
                await server.start()
                started.set()
                await server.serve_forever()

            asyncio.run(body())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            # Duplicate submissions (via --repeat) dedupe server-side; the
            # served fingerprints must equal the direct batch-CLI ones.
            code = main([
                "submit", "--url", server.url,
                "--board", "virtex-xcv1000",
                "--design", "fir-filter", "--repeat", "2",
                "--solver", "bnb-pure", "--json",
            ])
            assert code == 0
            submit_doc = json.loads(capsys.readouterr().out)
            assert submit_doc["num_jobs"] == 2
            assert submit_doc["num_failed"] == 0
            states = [job["state"] for job in submit_doc["jobs"]]
            assert states == ["done", "done"]
            assert submit_doc["jobs"][1]["deduped"] is True

            code = main([
                "batch", "--board", "virtex-xcv1000",
                "--design", "fir-filter", "--solver", "bnb-pure", "--json",
            ])
            assert code == 0
            batch_doc = json.loads(capsys.readouterr().out)
            direct = batch_doc["results"][0]["fingerprint"]
            assert direct is not None
            assert all(
                job["fingerprint"] == direct for job in submit_doc["jobs"]
            )

            assert main(["submit", "--url", server.url, "--health"]) == 0
            health = json.loads(capsys.readouterr().out)
            assert health["counters"]["deduped"] >= 1

            # Fire-and-forget succeeds: queued/running jobs are not
            # failures (regression: --no-wait used to exit 1).
            code = main([
                "submit", "--url", server.url,
                "--board", "virtex-xcv1000", "--design", "matrix-multiply",
                "--solver", "bnb-pure", "--no-wait", "--json",
            ])
            assert code == 0
            nowait_doc = json.loads(capsys.readouterr().out)
            assert nowait_doc["num_failed"] == 0
        finally:
            client = ServeClient(server.url)
            try:
                client.shutdown()
            except Exception:
                pass
            thread.join(10)


class TestTable3Command:
    def test_scaled_subset_runs(self, capsys):
        assert main(["table3", "--points", "1", "--skip-complete"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "global/detailed" in out

    def test_with_complete_baseline(self, capsys):
        assert main(["table3", "--points", "1", "--time-limit", "60"]) == 0
        out = capsys.readouterr().out
        assert "same optimum" in out
        assert "yes" in out


class TestFastModeCli:
    def test_map_fast_reports_certified_gap(self, capsys):
        assert main(["map", "--board", "virtex-xcv1000",
                     "--design", "fir-filter",
                     "--fast", "--gap", "0.05", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        stats = document["solve_stats"]
        assert stats["mode"] == "fast"
        assert isinstance(stats["gap"], float)
        assert 0.0 <= stats["gap"] <= 0.05 + 1e-9

    def test_map_fast_report_shows_the_mode_line(self, capsys):
        assert main(["map", "--board", "virtex-xcv1000",
                     "--design", "fir-filter", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "mode              : fast" in out

    def test_gap_without_fast_is_a_usage_error(self, capsys):
        assert main(["map", "--board", "virtex-xcv1000",
                     "--design", "fir-filter", "--gap", "0.05"]) == 2
        assert "--gap only applies with --fast" in capsys.readouterr().err

    def test_batch_gap_without_fast_is_a_usage_error(self, capsys):
        assert main(["batch", "--board", "virtex-xcv1000",
                     "--design", "fir-filter", "--gap", "0.01"]) == 2
        assert "--gap only applies with --fast" in capsys.readouterr().err

    def test_batch_fast_jobs_carry_fast_stats(self, capsys, tmp_path):
        assert main(["batch", "--board", "virtex-xcv1000",
                     "--design", "fir-filter", "--fast", "--json",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        document = json.loads(capsys.readouterr().out)
        assert all(r["status"] == "ok" for r in document["results"])
        for row in document["results"]:
            stats = row["solve_stats"]
            assert stats["mode"] == "fast"
            assert 0.0 <= stats["gap"] <= 0.05 + 1e-9

    def test_fast_and_exact_batches_use_distinct_cache_keys(self, capsys,
                                                            tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["batch", "--board", "virtex-xcv1000",
                     "--design", "fir-filter", "--json",
                     "--cache-dir", cache]) == 0
        exact = json.loads(capsys.readouterr().out)["results"][0]
        assert main(["batch", "--board", "virtex-xcv1000",
                     "--design", "fir-filter", "--fast", "--json",
                     "--cache-dir", cache]) == 0
        fast = json.loads(capsys.readouterr().out)["results"][0]
        assert not fast["cache_hit"]
        assert fast["cache_key"] != exact["cache_key"]
