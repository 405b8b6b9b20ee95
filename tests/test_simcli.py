import json
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from rlcgrand import simcli
from rlcgrand.simcli import SimConfig, emit_csv, read_csv, run_experiment, run_trial

FIXTURES = Path(__file__).parent / "fixtures"


def small_config(**overrides):
    base = dict(
        k=3, n_list=(4, 6), b=16, eps=0.08, burst_len=3.0,
        decoders=("rlc", "sd", "tgrand"), trials=40, master_seed=9,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_defaults_mirror_the_reference_grid(self):
        cfg = SimConfig()
        assert cfg.k == 10 and cfg.n_list == tuple(range(10, 21))
        assert cfg.trials == 10000 and cfg.b == 64

    @pytest.mark.parametrize(
        "bad",
        [
            dict(k=0),
            dict(n_list=(2,)),
            dict(n_list=()),
            dict(trials=0),
            dict(eps=1.0),
            dict(eps=-0.1),
            dict(burst_len=0.9),
            dict(decoders=("bogus",)),
            dict(decoders=()),
            dict(query_cap=0),
            dict(workers=0),
            dict(eps=0.9, burst_len=1.0),  # each valid alone, but p01 = 9
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)


class TestRunTrial:
    def test_noiseless_always_succeeds(self):
        cfg = small_config(eps=0.0, burst_len=1.0)
        for decoder in ("rlc", "sd", "tgrand"):
            out = run_trial(cfg, 4, decoder, trial_index=0)
            assert out.success

    def test_unknown_decoder(self):
        with pytest.raises(ValueError):
            run_trial(small_config(), 4, "viterbi", 0)

    def test_paired_trial_dominance(self):
        # All decoders see the same batch, so repair can only add successes.
        cfg = small_config(trials=60)
        for t in range(cfg.trials):
            plain = run_trial(cfg, 6, "rlc", t)
            if plain.success:
                assert run_trial(cfg, 6, "sd", t).success
                assert run_trial(cfg, 6, "tgrand", t).success

    def test_golden_traces(self):
        fixture = json.loads((FIXTURES / "golden_trials.json").read_text())
        for name, case in fixture.items():
            c = case["config"]
            cfg = SimConfig(
                k=c["k"], n_list=(c["n"],), b=c["b"], eps=c["eps"],
                burst_len=c["burst_len"], trials=c["trial_index"] + 1,
                master_seed=c["master_seed"],
            )
            gen, batch, _ = simcli._trial_batch(cfg, c["n"], c["trial_index"])
            assert gen.matrix.to_rows() == case["generator"], name
            assert batch.truth_x.to_rows() == case["truth_x"], name
            assert batch.y.to_rows() == case["received_y"], name
            assert list(batch.r) == case["clean_rows"], name
            for decoder, want in case["outcomes"].items():
                out = run_trial(cfg, c["n"], decoder, c["trial_index"])
                assert out.success == want["success"], (name, decoder)
                got_u = out.u_hat.to_rows() if out.u_hat is not None else None
                assert got_u == want["u_hat"], (name, decoder)
                assert out.nu == want["nu"], (name, decoder)
                assert out.queries_total == want["queries_total"], (name, decoder)
                assert out.rank_before == want["rank_before"], (name, decoder)
                assert out.rank_after == want["rank_after"], (name, decoder)


class TestRunExperiment:
    def test_record_grid_shape_and_order(self):
        cfg = small_config(trials=5)
        records = run_experiment(cfg)
        assert len(records) == 6
        assert [(r.decoder, r.n) for r in records] == [
            ("rlc", 4), ("rlc", 6), ("sd", 4), ("sd", 6), ("tgrand", 4), ("tgrand", 6)
        ]
        for r in records:
            assert r.successes <= r.trials
            assert r.decoding_probability == r.successes / r.trials

    def test_noiseless_probability_one(self):
        cfg = small_config(eps=0.0, burst_len=1.0, trials=3)
        assert all(r.decoding_probability == 1.0 for r in run_experiment(cfg))

    def test_decoder_subset(self):
        cfg = small_config(decoders=("tgrand",), trials=5)
        records = run_experiment(cfg)
        assert [r.decoder for r in records] == ["tgrand", "tgrand"]

    def test_worker_count_does_not_change_results(self):
        one = run_experiment(small_config(workers=1))
        two = run_experiment(small_config(workers=2))
        strip = lambda rs: [
            (r.decoder, r.n, r.successes, r.mean_queries) for r in rs
        ]
        assert strip(one) == strip(two)

    def test_records_are_sums_of_run_trial(self):
        # run_experiment and run_trial share one dispatch; their totals agree.
        cfg = small_config(trials=30)
        for r in run_experiment(cfg):
            outs = [run_trial(cfg, r.n, r.decoder, t) for t in range(cfg.trials)]
            assert r.successes == sum(1 for o in outs if o.success), (r.decoder, r.n)
            assert r.mean_queries == sum(o.queries_total for o in outs) / cfg.trials

    def test_worker_count_is_clamped(self):
        assert simcli._worker_count(5000, spans=40, cpus=2) == 2
        assert simcli._worker_count(5000, spans=3, cpus=64) == 3
        assert simcli._worker_count(1, spans=40, cpus=8) == 1
        assert simcli._worker_count(4, spans=40, cpus=None) == 1

    def test_pool_gets_the_clamped_size(self, monkeypatch):
        # A stand-in pool records its size and runs in-process, so no
        # worker process is started however many are requested.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(simcli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(simcli.os, "cpu_count", lambda: 4)
        strip = lambda rs: [(r.decoder, r.n, r.successes, r.mean_queries) for r in rs]
        many = run_experiment(small_config(trials=5, workers=5000))
        assert sizes == [2]  # two spans, one per N
        assert strip(many) == strip(run_experiment(small_config(trials=5)))

    def test_success_counts_monotone_in_n(self):
        cfg = small_config(n_list=(3, 5, 7), trials=150)
        records = run_experiment(cfg)
        by_decoder = {}
        for r in records:
            by_decoder.setdefault(r.decoder, []).append(r.decoding_probability)
        # 3-sigma slack on the difference of paired proportions.
        slack = 3 * (0.25 / cfg.trials) ** 0.5
        for probs in by_decoder.values():
            for lo, hi in zip(probs, probs[1:]):
                assert hi >= lo - slack


class TestCsv:
    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], path)
        assert path.read_text() == simcli.CSV_HEADER + "\n"

    def test_round_trip_exact(self, tmp_path):
        records = run_experiment(small_config(trials=10))
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        assert read_csv(path) == records

    def test_existing_file_is_replaced_whole(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("stale line\n" * 500)
        records = run_experiment(small_config(trials=3))
        emit_csv(records, path)
        assert read_csv(path) == records
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_replace_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("no space left")

        monkeypatch.setattr(simcli.os, "replace", fail)
        with pytest.raises(OSError):
            emit_csv([], path)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_pipe_target_is_written_through(self, tmp_path):
        # A pipe cannot be renamed over; its reader must get the text.
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        emit_csv([], fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [simcli.CSV_HEADER + "\n"]
        assert fifo.is_fifo()

    def test_reproducible_modulo_wall_clock(self, tmp_path):
        cfg = small_config(trials=15)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg), a)
        emit_csv(run_experiment(cfg), b)
        strip = lambda p: ["," .join(line.split(",")[:-1]) for line in p.read_text().splitlines()]
        assert strip(a) == strip(b)


class TestCli:
    def test_main_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = simcli.main([
            "--k", "2", "--n-min", "2", "--n-max", "3", "--b", "8", "--eps", "0.05",
            "--burst-len", "2", "--trials", "4", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        records = read_csv(out)
        assert len(records) == 6
        assert "wrote 6 records" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(
            "k = 2\nn-min = 2\nn_max = 3\nb = 8\neps = 0.1  # comment\n"
            "burst-len = 2\ntrials = 5\ndecoders = rlc\nout = unused.csv\n"
        )
        out = tmp_path / "o.csv"
        code = simcli.main(["--config", str(cfg_file), "--trials", "2", "--out", str(out)])
        assert code == 0
        records = read_csv(out)
        assert {r.decoder for r in records} == {"rlc"}
        assert all(r.trials == 2 for r in records)  # flag beat the file

    def test_bad_flags_exit_nonzero(self, capsys):
        assert simcli.main(["--k", "0", "--out", "/dev/null"]) == 2
        assert simcli.main(["--n-min", "8", "--n-max", "5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_path_exits_nonzero(self, tmp_path, capsys):
        code = simcli.main([
            "--k", "2", "--n-min", "2", "--n-max", "2", "--b", "4", "--trials", "1",
            "--out", str(tmp_path / "missing_dir" / "r.csv"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_broken_pool_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        def broken(config):
            raise BrokenProcessPool("a worker was killed")

        monkeypatch.setattr(simcli, "run_experiment", broken)
        out = tmp_path / "r.csv"
        assert simcli.main(["--workers", "2", "--out", str(out)]) == 2
        assert "error: a worker was killed" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_sets_every_flag(self, tmp_path):
        flags = {
            "k": "4", "n-min": "5", "n-max": "7", "b": "12", "eps": "0.02",
            "burst-len": "3.5", "decoders": "sd,tgrand", "trials": "9", "seed": "5",
            "query-cap": "77", "out": "x.csv", "workers": "3",
        }
        options = {
            a.option_strings[0][2:]
            for a in simcli._build_parser()._actions
            if a.dest not in ("help", "config")
        }
        assert set(flags) == options
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("".join(f"{key} = {val}\n" for key, val in flags.items()))
        argv = [arg for key, val in flags.items() for arg in (f"--{key}", val)]
        from_flags = simcli.config_from_args(argv)
        assert from_flags == simcli.config_from_args(["--config", str(cfg_file)])
        assert from_flags != simcli.config_from_args([])

    def test_interrupt_exits_130_without_output(self, tmp_path, monkeypatch, capsys):
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(simcli, "run_experiment", interrupted)
        out = tmp_path / "r.csv"
        assert simcli.main(["--out", str(out)]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert os.listdir(tmp_path) == []

    def test_interrupt_while_writing_leaves_no_temp(self, tmp_path, monkeypatch, capsys):
        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(simcli.os, "replace", interrupted)
        out = tmp_path / "r.csv"
        argv = ["--k", "2", "--n-min", "2", "--n-max", "2", "--b", "4", "--trials", "1"]
        assert simcli.main(argv + ["--out", str(out)]) == 130
        assert "error: interrupted" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("frobnicate = 1\n")
        assert simcli.main(["--config", str(cfg_file)]) == 2
        # A known key with a bad value fails as the same flag would.
        cfg_file.write_text("k = ten\n")
        with pytest.raises(SystemExit) as exc:
            simcli.main(["--config", str(cfg_file)])
        assert exc.value.code == 2
