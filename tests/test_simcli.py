import dataclasses
import importlib.util
import json
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlcgrand import channel, simcli
from rlcgrand.channel import ChannelParams
from rlcgrand.rng import SplitMix64, derive_seed
from rlcgrand.simcli import CSV_HEADER, SimConfig, SimRecord, emit_csv, run_experiment, run_trial

from oracles import next_float, reference_records, reference_trial, trial_rows

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def read_csv(path) -> list[SimRecord]:
    """Parse a file produced by emit_csv back into records."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    records = []
    for line in lines[1:]:
        f = line.split(",")
        records.append(
            SimRecord(
                decoder=f[0],
                k=int(f[1]),
                n=int(f[2]),
                b=int(f[3]),
                eps=float(f[4]),
                burst_len=float(f[5]),
                trials=int(f[6]),
                successes=int(f[7]),
                decoding_probability=float(f[8]),
                mean_queries=float(f[9]),
                wall_seconds=float(f[10]),
            )
        )
    return records


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
            dict(n_list=(6, 6)),
            dict(decoders=("sd", "sd")),
            dict(b=0),
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    def test_list_fields_are_kept_as_tuples(self):
        # A list was stored as given: the config did not hash, and a later
        # append got past the N >= K check.
        n_list, decoders = [4, 5], ["rlc", "sd"]
        cfg = SimConfig(k=3, n_list=n_list, decoders=decoders)
        n_list.append(2)
        decoders.append("bogus")
        assert cfg.n_list == (4, 5) and cfg.decoders == ("rlc", "sd")
        assert hash(cfg) == hash(SimConfig(k=3, n_list=(4, 5), decoders=("rlc", "sd")))


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
            gen, batch = next(simcli._trials(cfg, c["n"], c["trial_index"], c["trial_index"] + 1))
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

    def test_regen_script_reproduces_fixture(self):
        # The script that writes the golden fixture must still trace every
        # case to what the fixture holds; the file itself is not written.
        spec = importlib.util.spec_from_file_location(
            "regen_golden_fixture", SCRIPTS / "regen_golden_fixture.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        fixture = json.loads((FIXTURES / "golden_trials.json").read_text())
        assert [name for name, *_ in script.CASES] == list(fixture)
        for name, config, n, t in script.CASES:
            assert json.loads(json.dumps(script.trace_case(config, n, t))) == fixture[name], name


def channel_config(k, n, b, p01, p10, master_seed=3):
    """A one-N config whose channel is (p01, p10) exactly.

    SimConfig derives its channel from (eps, burst length); a test that
    needs a threshold on an exact value sets the parameters directly.
    """
    cfg = SimConfig(k=k, n_list=(n,), b=b, trials=1, master_seed=master_seed)
    object.__setattr__(cfg, "channel_params", ChannelParams(p01=p01, p10=p10))
    return cfg


def noise_draws(cfg, n, t, row, count):
    """The first uniforms of trial t's noise substream for one row."""
    tseed = derive_seed(cfg.master_seed, n, t)
    stream = SplitMix64(derive_seed(derive_seed(tseed, simcli._TAG_NOISE), row))
    return [next_float(stream) for _ in range(count)]


def pass_sizes(monkeypatch):
    """The trial count of each generation pass from here on, in order."""
    sizes = []
    apply_batch = channel.apply_batch

    def recording(params, xs, seeds):
        sizes.append(len(xs))
        return apply_batch(params, xs, seeds)

    monkeypatch.setattr(channel, "apply_batch", recording)
    return sizes


def assert_span_matches_contract(cfg, n, start, stop):
    p = cfg.channel_params
    tags = (simcli._TAG_GEN, simcli._TAG_DATA, simcli._TAG_NOISE)
    got = list(simcli._trials(cfg, n, start, stop))
    assert len(got) == stop - start
    for t, (gen, batch) in zip(range(start, stop), got):
        g, x, y, r = trial_rows(cfg.k, n, cfg.b, p.p01, p.p10, cfg.master_seed, t, tags)
        assert gen.matrix.to_rows() == g, t
        assert batch.truth_x.to_rows() == x, t
        assert batch.y.to_rows() == y, t
        assert list(batch.r) == r, t
        assert list(batch.rbar) == [i for i in range(n) if i not in r], t


class TestTrials:
    """Chunk generation against the scalar stream contract (tests/oracles.py)."""

    @pytest.mark.parametrize("b", (1, 7, 8, 63, 64, 65, 129))
    @pytest.mark.parametrize("trials_per_pass", (1, 3, None))
    def test_spans_match_scalar_contract(self, monkeypatch, b, trials_per_pass):
        # A span from a nonzero start; with 1 or 3 trials per pass it
        # crosses pass boundaries, with None it runs at the module budget.
        k, n = 3, 7
        if trials_per_pass is not None:
            monkeypatch.setattr(simcli, "_BATCH_BITS", trials_per_pass * n * b)
        cfg = channel_config(k, n, b, p01=0.08, p10=0.4)
        assert_span_matches_contract(cfg, n, 5, 12)

    def test_default_budget_span_crosses_a_pass(self, monkeypatch):
        # Packets of 17 words, few enough trials per pass that a short span
        # at the module budget takes two passes.
        k, n, b = 4, 9, 1025
        per_pass = simcli._BATCH_BITS // (n * b)
        start, stop = 3, 3 + per_pass + 3
        assert 1 <= per_pass < stop - start
        sizes = pass_sizes(monkeypatch)
        cfg = channel_config(k, n, b, p01=0.05, p10=0.3)
        assert_span_matches_contract(cfg, n, start, stop)
        assert len(sizes) == 2

    @pytest.mark.parametrize(
        "n, b, budget, span",
        [
            (3, 1, 5, 4),  # ceil(span·N·B / budget) = 3 passes: one holds 2 trials, 6 bits
            (3, 1, 6, 5),
            (4, 8, 100, 7),
            (4, 8, 96, 7),
            (5, 13, 64, 3),  # one trial is larger than the budget
            (6, 2, 1000, 9),
            (6, 2, 37, 40),
        ],
    )
    def test_passes_are_equal_and_within_the_budget(self, monkeypatch, n, b, budget, span):
        monkeypatch.setattr(simcli, "_BATCH_BITS", budget)
        sizes = pass_sizes(monkeypatch)
        cfg = channel_config(2, n, b, p01=0.1, p10=0.5)
        assert len(list(simcli._trials(cfg, n, 11, 11 + span))) == span
        per_pass = max(1, budget // (n * b))
        assert len(sizes) == -(-span // per_pass)
        assert sum(sizes) == span
        assert max(sizes) - min(sizes) <= 1
        if n * b <= budget:
            assert max(sizes) * n * b <= budget

    def test_one_trial(self):
        cfg = channel_config(2, 5, 64, p01=0.1, p10=0.5)
        assert_span_matches_contract(cfg, 5, 0, 1)
        assert_span_matches_contract(cfg, 5, 41, 42)
        assert_span_matches_contract(cfg, 5, 41, 41)  # an empty span has no pass

    def test_no_parity_rows(self):
        # N == K: P has no rows and G is the identity.
        cfg = channel_config(4, 4, 63, p01=0.2, p10=0.5)
        assert_span_matches_contract(cfg, 4, 2, 6)

    @pytest.mark.parametrize("p01, p10", [(0.0, 1.0), (1.0, 1.0), (0.0, 0.3), (1.0, 0.3), (0.2, 1.0)])
    def test_boundary_channels(self, p01, p10):
        cfg = channel_config(3, 6, 65, p01=p01, p10=p10)
        assert_span_matches_contract(cfg, 6, 1, 5)

    def test_thresholds_at_exact_draws(self):
        # p01 and p10 set to draws u = a·2^-53 that the scan compares with
        # them; u < p01 and u >= p10 are then decided by equality, where an
        # integer threshold off by one would flip the bit.
        k, n, b, t = 3, 6, 65, 4
        probe = channel_config(k, n, b, p01=0.5, p10=0.5)
        u0, u1 = noise_draws(probe, n, t, row=2, count=2)
        assert 0.0 < u0 and 0.0 < u1
        # Row 2, bit 0: u0 < u0 is false, so the row starts in the good state.
        cfg = channel_config(k, n, b, p01=u0, p10=1.0)
        assert_span_matches_contract(cfg, n, t, t + 1)
        # p01 = 1 puts bit 0 in the bad state; u1 >= u1 keeps bit 1 there.
        cfg = channel_config(k, n, b, p01=1.0, p10=u1)
        assert_span_matches_contract(cfg, n, t, t + 1)
        [(_, batch)] = simcli._trials(cfg, n, t, t + 1)
        e_row = batch.y.row_ints[2] ^ batch.truth_x.row_ints[2]
        assert e_row & 0b11 == 0b11


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

    def test_rlc_only_builds_no_syndrome_system(self, monkeypatch):
        # At K=10, N=11, eps=0.05 the plain attempt fails in nearly every
        # trial, but no requested decoder repairs, so no system is built.
        cfg = SimConfig(n_list=(11,), decoders=("rlc",), trials=50)
        full = run_experiment(dataclasses.replace(cfg, decoders=simcli.DECODERS))
        baseline = [run_trial(cfg, 11, "rlc", t) for t in range(3)]

        def unrequested(batch, gen):
            raise AssertionError("syndrome system built for an rlc-only run")

        monkeypatch.setattr(simcli, "syndrome_system", unrequested)
        [rlc] = run_experiment(cfg)
        assert rlc.successes < rlc.trials
        assert dataclasses.replace(rlc, wall_seconds=0.0) == dataclasses.replace(
            full[0], wall_seconds=0.0
        )
        assert [run_trial(cfg, 11, "rlc", t) for t in range(3)] == baseline

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


# (eps, burst length) pairs whose p01 = eps/(Λ(1-eps)) spans [0, 1]: 0
# (the clean channel), then from 0.005 up to exactly 1, with many above
# 1/2, where sd's weight order is not the channel's all-zero-prior order
# and the two keep separate searches.
EPS_BURST = [
    (eps, burst_len)
    for eps in (0.0, 0.02, 0.1, 0.3, 0.4, 0.5, 0.6, 0.75)
    for burst_len in (1.0, 1.5, 2.0, 4.0)
    if eps / (burst_len * (1.0 - eps)) <= 1.0
]
# p01 = 2/3 at a cap of 3: the first hits of many columns lie past the cap
# (`test_the_example_leaves_columns_unresolved`).
CAPPED = SimConfig(
    k=3, n_list=(7, 3, 5), b=8, eps=0.4, burst_len=1.0, decoders=("tgrand", "rlc", "sd"),
    trials=6, master_seed=5, query_cap=3,
)


@st.composite
def reference_configs(draw):
    k = draw(st.integers(1, 5))
    eps, burst_len = draw(st.sampled_from(EPS_BURST))
    return SimConfig(
        k=k,
        n_list=tuple(draw(st.lists(st.integers(k, k + 4), min_size=1, max_size=3, unique=True))),
        b=draw(st.integers(1, 8)),
        eps=eps,
        burst_len=burst_len,
        decoders=tuple(draw(st.permutations(simcli.DECODERS))[: draw(st.integers(1, 3))]),
        trials=draw(st.integers(1, 4)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
        query_cap=draw(st.integers(1, 12) | st.just(simcli.DEFAULT_QUERY_CAP)),
    )


class TestReferenceSimulator:
    """The driver against a whole run rebuilt from the scalar oracles."""

    @settings(max_examples=40, deadline=None)
    @given(reference_configs())
    @example(CAPPED)
    @example(dataclasses.replace(CAPPED, eps=0.5, decoders=("sd", "tgrand"), query_cap=40))
    def test_records_equal_the_reference(self, config):
        got = [dataclasses.replace(r, wall_seconds=0.0) for r in run_experiment(config)]
        assert got == reference_records(config)

    def test_the_example_leaves_columns_unresolved(self):
        hits = [
            mask
            for n in CAPPED.n_list
            for t in range(CAPPED.trials)
            for _, repair in reference_trial(CAPPED, n, t).values()
            for mask, _ in repair or ()
        ]
        assert None in hits and any(mask is not None for mask in hits)


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

    def test_temp_file_left_by_a_killed_run_does_not_block(self, tmp_path):
        # A run killed between writing its temp file and the rename leaves
        # the file behind, and a later process may get the same PID.
        path = tmp_path / "out.csv"
        stale = tmp_path / f".out.csv.{os.getpid()}.tmp"
        stale.write_text("partial\n")
        records = run_experiment(small_config(trials=3))
        emit_csv(records, path)
        assert read_csv(path) == records
        assert sorted(os.listdir(tmp_path)) == [stale.name, "out.csv"]

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

    def test_repeated_decoder_exits_nonzero_without_output(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = simcli.main([
            "--k", "4", "--n-min", "6", "--n-max", "6", "--b", "16", "--trials", "50",
            "--decoders", "sd,sd", "--out", str(out),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

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

    def test_flag_defaults_are_the_config_defaults(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert simcli.config_from_args(["--out", out]) == dataclasses.replace(
            SimConfig(), out_path=out
        )

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

    def test_malformed_input_names_its_fault(self, tmp_path):
        # An empty N range would also fail SimConfig; the message tells
        # that the flag check raised.
        with pytest.raises(ValueError, match="n-max must be at least n-min"):
            simcli.config_from_args(["--n-min", "8", "--n-max", "5"])
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("k 3\n")
        with pytest.raises(ValueError, match="bad config line: 'k 3'"):
            simcli.config_from_args(["--config", str(cfg_file)])

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("frobnicate = 1\n")
        assert simcli.main(["--config", str(cfg_file)]) == 2
        # --config names the file; the file cannot name another one.
        other = tmp_path / "other.cfg"
        other.write_text("k = 3\n")
        cfg_file.write_text(f"config = {other}\n")
        with pytest.raises(ValueError, match=r"unknown config keys: \['config'\]"):
            simcli.config_from_args(["--config", str(cfg_file)])
        # A known key with a bad value fails as the same flag would.
        cfg_file.write_text("k = ten\n")
        with pytest.raises(SystemExit) as exc:
            simcli.main(["--config", str(cfg_file)])
        assert exc.value.code == 2
