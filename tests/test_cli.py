"""Tests for the top-level ``python -m repro`` CLI."""

import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def data_file(tmp_path, rng):
    path = tmp_path / "data.npy"
    np.save(path, rng.random((400, 6)).astype(np.float32))
    return path


@pytest.fixture
def index_file(tmp_path, data_file):
    path = tmp_path / "index.iqt"
    assert main(["build", str(data_file), str(path)]) == 0
    return path


class TestBuild:
    def test_build_writes_index(self, tmp_path, data_file, capsys):
        path = tmp_path / "fresh.iqt"
        assert main(["build", str(data_file), str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "saved to" in out

    def test_build_no_optimize(self, tmp_path, data_file, capsys):
        path = tmp_path / "exact.iqt"
        assert (
            main(["build", str(data_file), str(path), "--no-optimize"])
            == 0
        )
        out = capsys.readouterr().out
        assert "{32:" in out.replace("np.int64(32)", "32")

    def test_build_with_metric(self, tmp_path, data_file):
        path = tmp_path / "linf.iqt"
        assert (
            main(
                ["build", str(data_file), str(path), "--metric", "linf"]
            )
            == 0
        )


class TestQuery:
    def test_explicit_point(self, index_file, capsys):
        point = ",".join(["0.5"] * 6)
        assert (
            main(["query", str(index_file), "--point", point, "--k", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "query ->" in out
        assert "ms simulated" in out

    def test_random_queries(self, index_file, capsys):
        assert main(["query", str(index_file), "--random", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("query ->") == 3


class TestBatch:
    def test_knn_batch(self, index_file, capsys):
        assert (
            main(
                [
                    "batch",
                    str(index_file),
                    "--random",
                    "5",
                    "--k",
                    "3",
                    "--pool",
                    "64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "batch of 5 3-NN queries" in out
        assert "buffer pool" in out

    def test_range_batch_with_compare(self, index_file, capsys):
        assert (
            main(
                [
                    "batch",
                    str(index_file),
                    "--random",
                    "4",
                    "--radius",
                    "0.25",
                    "--compare",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "range r=0.25" in out
        assert "sequential loop" in out


class TestInfo:
    def test_info_fields(self, index_file, capsys):
        assert main(["info", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "metric: euclidean" in out
        assert "estimated query cost" in out
        assert "page resolutions" in out


class TestFsck:
    def test_fsck_clean_container(self, index_file, capsys):
        assert main(["fsck", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "IQTREE02" in out
        assert "status: clean" in out

    def test_fsck_corrupt_container(self, index_file, capsys):
        raw = bytearray(index_file.read_bytes())
        raw[-1] ^= 0xFF  # damage the payload tail
        index_file.write_bytes(bytes(raw))
        assert main(["fsck", str(index_file)]) == 1
        out = capsys.readouterr().out
        assert "status: corrupt" in out
        assert "payload" in out

    def test_fsck_legacy_v1(self, index_file, tmp_path, capsys):
        from repro.storage.persistence import load_iqtree, write_legacy_v1

        v1 = tmp_path / "legacy.iqt"
        write_legacy_v1(load_iqtree(index_file), v1)
        assert main(["fsck", str(v1)]) == 0
        out = capsys.readouterr().out
        assert "IQTREE01" in out
        assert "no checksum" in out


class TestValidate:
    def test_validate_runs(self, index_file, capsys):
        assert (
            main(["validate", str(index_file), "--queries", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "pages" in out and "refinements" in out


class TestChaos:
    @pytest.fixture
    def quantized_index(self, tmp_path, data_file):
        # Fixed-bit quantization guarantees third-level refinements, so
        # the chaos matrix can target both the quantized and exact
        # levels.
        path = tmp_path / "quantized.iqt"
        assert (
            main(["build", str(data_file), str(path), "--bits", "5"]) == 0
        )
        return path

    def test_full_matrix_passes(self, quantized_index, capsys):
        assert (
            main(
                [
                    "chaos",
                    str(quantized_index),
                    "--random",
                    "4",
                    "--k",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chaos verdict: PASS" in out
        assert "post-chaos pristine check: ok" in out
        for kind in ("transient", "persistent", "corrupt"):
            assert kind in out

    def test_single_cell_smoke(self, quantized_index, capsys):
        assert (
            main(
                [
                    "chaos",
                    str(quantized_index),
                    "--random",
                    "3",
                    "--kinds",
                    "transient",
                    "--levels",
                    "exact",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "transient" in out and "exact" in out

    def test_unknown_kind_rejected(self, quantized_index):
        with pytest.raises(SystemExit):
            main(
                ["chaos", str(quantized_index), "--kinds", "gamma-ray"]
            )

    def test_write_matrix_passes(self, quantized_index, capsys):
        assert (
            main(
                [
                    "chaos",
                    str(quantized_index),
                    "--writes",
                    "--ops",
                    "12",
                    "--checkpoint-every",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chaos verdict: PASS" in out
        for scenario in (
            "insert:post-append",
            "checkpoint:post-save",
            "torn-append",
            "torn-checkpoint",
            "corrupt-acked-record",
            "maintenance x sharded",
        ):
            assert scenario in out

    def test_writes_backend_rejected(self, quantized_index):
        """The ``--backend`` flag is gone: workers > 1 means processes."""
        with pytest.raises(SystemExit):
            main(
                [
                    "chaos",
                    str(quantized_index),
                    "--writes",
                    "--backend",
                    "process",
                ]
            )


@pytest.fixture(scope="module")
def serving_index(tmp_path_factory):
    """A 1500x6 index shared by the serving-subcommand tests."""
    tmp = tmp_path_factory.mktemp("serving")
    data = tmp / "data.npy"
    np.save(data, np.random.default_rng(2).random((1500, 6)))
    path = tmp / "index.iqt"
    assert main(["build", str(data), str(path)]) == 0
    return path


def _trace_events_well_formed(events) -> bool:
    """Matched B/E pairs and non-decreasing ``ts`` on every track."""
    stacks: dict = {}
    last_ts: dict = {}
    for event in events:
        track = (event["pid"], event["tid"])
        if event["ts"] < last_ts.get(track, float("-inf")):
            return False
        last_ts[track] = event["ts"]
        stack = stacks.setdefault(track, [])
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] != "E" or not stack or stack.pop() != event["name"]:
            return False
    return not any(stacks.values())


class TestTrace:
    def test_attribution_consistent(self, serving_index, capsys):
        assert (
            main(["trace", str(serving_index), "--random", "4", "--k", "5"])
            == 0
        )
        out = capsys.readouterr().out
        assert "attribution consistent" in out

    def test_sharded_chrome_export(self, serving_index, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        argv = ["trace", str(serving_index), "--random", "4", "--k", "5"]
        argv += ["--export", "chrome", "--shards", "2", "--workers", "2"]
        assert main(argv + ["--out", str(out_path)]) == 0
        assert "attribution consistent" in capsys.readouterr().err
        events = json.loads(out_path.read_text())["traceEvents"]
        assert events
        assert _trace_events_well_formed(events)


class TestStats:
    def test_slo_gauge_exported(self, serving_index, capsys):
        argv = ["stats", str(serving_index), "--random", "10", "--k", "5"]
        argv += ["--slo", "latency=iq_query_simulated_seconds:p99<=1.0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert 'iq_slo_objective_met{objective="latency"} 1' in out

    def test_json_format_parses(self, serving_index, capsys):
        argv = ["stats", str(serving_index), "--random", "10"]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload


def _flight_records(index, extra, capsys):
    argv = ["flight", str(index), "--random", "12", "--k", "5"]
    assert main(argv + extra) == 0
    return json.loads(capsys.readouterr().out)["records"]


class TestFlight:
    @pytest.mark.parametrize(
        "extra",
        [[], ["--single"], ["--shards", "2", "--kill-shard", "0"]],
        ids=["engine", "single", "sharded"],
    )
    def test_records_carry_reasons(self, serving_index, extra, capsys):
        records = _flight_records(serving_index, extra, capsys)
        assert records
        assert all(r["reasons"] for r in records)

    @pytest.mark.parametrize(
        "extra", [[], ["--single"], ["--shards", "2"]],
        ids=["engine", "single", "sharded"],
    )
    def test_pool_applies_on_every_path(self, serving_index, extra, capsys):
        extra = extra + ["--pool", "64"]
        records = _flight_records(serving_index, extra, capsys)
        assert any(r["counters"]["pool_misses"] > 0 for r in records)


class TestShardedBatch:
    def test_killed_shard_degrades(self, serving_index, capsys):
        argv = ["batch", str(serving_index), "--random", "10", "--k", "3"]
        assert main(argv + ["--shards", "2", "--kill-shard", "0"]) == 0
        out = capsys.readouterr().out
        assert "sharded batch of 10 3-NN queries over 2 shards" in out
        assert "degraded answers:" in out

    def test_out_of_range_kill_rejected(self, serving_index):
        with pytest.raises(SystemExit):
            main(
                ["batch", str(serving_index), "--shards", "2",
                 "--kill-shard", "7"]
            )

    def test_compare_reports_sequential_loop(self, serving_index, capsys):
        argv = ["batch", str(serving_index), "--random", "6", "--k", "3"]
        assert main(argv + ["--shards", "2", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "sequential loop:" in out


class TestShardedChaos:
    def test_shard_kill_passes(self, serving_index, capsys):
        argv = ["chaos", str(serving_index), "--random", "6", "--k", "3"]
        assert main(argv + ["--shards", "2", "--kill-shards", "0"]) == 0
        out = capsys.readouterr().out
        assert "shard-kill [0] / 2 shards: ok" in out
        assert "chaos verdict: PASS" in out
