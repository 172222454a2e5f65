import json
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from uqtrees import (BenchRow, WorkloadConfig, make_backend, DenseTensor,
                     get_pair, parse_tensor, run_bench, run_scaling,
                     run_verify)
from uqtrees.boxes import draw_box
from uqtrees.dense import format_tensor
from uqtrees.matmul import PRODUCT_PAIRS, product_via_backend, schoolbook, seed_backend
from uqtrees.workloads import format_dims, parse_dims


def cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "uqtrees", *args],
                          capture_output=True, text=True, **kw)


class TestWorkloadConfig:
    def test_dims_parsing(self):
        assert parse_dims("64") == (64,)
        assert parse_dims("32x32") == (32, 32)
        assert parse_dims("8X8x8") == (8, 8, 8)
        assert format_dims((8, 8, 8)) == "8x8x8"
        with pytest.raises(ValueError):
            parse_dims("8x")
        with pytest.raises(ValueError):
            parse_dims("0x3")

    def test_backend_dim_compat(self):
        WorkloadConfig("seg1d", "plus-min", (16,)).check()
        with pytest.raises(ValueError):
            WorkloadConfig("seg1d", "plus-min", (4, 4)).check()
        with pytest.raises(ValueError):
            WorkloadConfig("quadtree", "plus-min", (4,)).check()
        WorkloadConfig("nd-special", "plus-plus", (2, 2, 2, 2)).check()
        with pytest.raises(ValueError):
            WorkloadConfig("seg1d", "plus-min", (16,), ops=0).check()
        with pytest.raises(ValueError):
            WorkloadConfig("seg1d", "plus-min", (16,), update_ratio=1.5).check()

    def test_value_range_defaults(self):
        assert WorkloadConfig("seg1d", "plus-min", (4,)).resolved_value_range() == (-100, 100)
        assert WorkloadConfig("seg1d", "times-times", (4,)).resolved_value_range() == (-1, 1)

    def test_incompatible_pair_reported_with_counterexample(self):
        tensor = DenseTensor((4, 4), [0] * 16, get_pair("plus-min"))
        with pytest.raises(ValueError, match="counterexample"):
            make_backend("nd-special", tensor)


class TestWorkloadProtocol:
    def test_seed_stream_is_the_documented_one(self):
        # pins the draw order: init values, then per action box indices
        # (two per dimension, sorted), then the coin, then the update value
        import random
        from uqtrees.boxes import draw_box
        from uqtrees.workloads import initial_tensor
        cfg = WorkloadConfig("seg1d", "plus-plus", (5,), ops=3, seed=123)
        rng = random.Random(123)
        tensor = initial_tensor(cfg, rng)
        box = draw_box(rng, (5, 3))
        ref = random.Random(123)
        assert tensor.data == [ref.randint(-100, 100) for _ in range(5)]
        want = []
        for n in (5, 3):
            a, b = ref.randrange(n), ref.randrange(n)
            want.append((min(a, b), max(a, b)))
        assert box == tuple(want)

    # draw_box takes rng._randbelow(n), the draw behind rng.randrange(n): the
    # seeded streams, and every count pinned on them, rest on that identity
    @pytest.mark.parametrize("dims", [
        (1,), (5,), (37,), (1024,), (65536,), (1, 1), (1, 13), (13, 1), (5, 3), (6, 13),
        (9, 7), (33, 17), (65, 33), (5, 257), (32, 32), (64, 64), (8, 8, 8), (3, 4, 5),
        (13, 1, 3), (32, 32, 32), (3, 4, 2, 5), (4, 4, 4, 4), (2, 1, 3, 1, 2),
        (2, 2, 2, 2, 5), (3, 2, 4, 37)], ids=lambda d: "x".join(map(str, d)))
    def test_draw_box_draws_as_sorted_randrange(self, dims):
        rng, ref = random.Random(7), random.Random(7)
        for _ in range(2000):
            want = tuple(tuple(sorted((ref.randrange(n), ref.randrange(n)))) for n in dims)
            assert draw_box(rng, dims) == want
        assert rng.getstate() == ref.getstate()

    def test_draw_box_draws_as_sorted_randrange_at_every_extent(self):
        rng, ref = random.Random(8), random.Random(8)
        for n in range(1, 1025):
            for _ in range(20):
                assert draw_box(rng, (n,)) == (tuple(sorted((ref.randrange(n), ref.randrange(n)))),)
        assert rng.getstate() == ref.getstate()

    def test_custom_value_range_respected(self):
        cfg = WorkloadConfig("seg1d", "plus-plus", (8,), ops=300, seed=1,
                             value_range=(5, 9))
        report = run_verify(cfg)
        assert report.ok
        assert cfg.resolved_value_range() == (5, 9)


class TestRunners:
    @pytest.mark.parametrize("backend,pair_name,dims", [
        ("nd-special", "plus-plus", (1, 1)),
        ("nd-special", "min-min", (1, 1, 1)),
        ("nd-special", "times-times", (1, 8)),
        ("nd-special", "max-max", (8, 1)),
        ("nd-special", "plus-plus", (2, 1, 2)),
        ("grid2d-general", "plus-min", (1, 9)),
        ("grid2d-general", "times-plus", (9, 1)),
        ("grid2d-general", "plus-plus", (1, 1)),
        ("quadtree", "plus-min", (1, 9)),
        ("quadtree", "plus-plus", (9, 1)),
        ("seg1d", "times-times", (1,)),
        ("oracle", "plus-min", (3, 1, 4)),
        ("nd-special", "plus-plus", (2, 1, 2, 1)),
    ])
    def test_degenerate_extents_match_oracle(self, backend, pair_name, dims):
        report = run_verify(WorkloadConfig(backend, pair_name, dims, ops=800, seed=5))
        assert report.ok, report.first_mismatch

    def test_verify_trivial_one_cell(self):
        report = run_verify(WorkloadConfig("seg1d", "plus-plus", (1,), ops=1, seed=0))
        assert report.ok and report.mismatches == 0

    def test_injected_fault_is_detected(self):
        report = run_verify(
            WorkloadConfig("seg1d", "plus-plus", (16,), ops=400, seed=5),
            inject_fault=0)
        assert report.mismatches > 0
        assert "oracle" in report.first_mismatch

    def test_injected_fault_must_be_reached(self):
        cfg = WorkloadConfig("seg1d", "plus-plus", (4,), ops=10, seed=0)
        updates = run_verify(cfg).updates
        assert run_verify(cfg, inject_fault=updates - 1).updates == updates
        with pytest.raises(ValueError, match=f"made {updates} updates"):
            run_verify(cfg, inject_fault=updates)
        with pytest.raises(ValueError, match=">= 0"):
            run_verify(cfg, inject_fault=-1)

    def test_bench_rows_are_deterministic(self):
        cfg = WorkloadConfig("nd-special", "plus-plus", (16, 16), ops=400, seed=9)
        r1, r2 = run_bench(cfg), run_bench(cfg)
        assert (r1.init_visits, r1.mean_visits_per_update, r1.mean_visits_per_query) == \
               (r2.init_visits, r2.mean_visits_per_update, r2.mean_visits_per_query)

    def test_scaling_envelopes(self):
        rep = run_scaling("seg1d", "plus-plus", [64, 128], ops=600, seed=1)
        assert rep.ok
        assert all(s.ratio <= 1.5 for s in rep.steps)
        with pytest.raises(ValueError):
            run_scaling("seg1d", "plus-plus", [64], ops=100)
        with pytest.raises(ValueError):
            run_scaling("seg1d", "plus-plus", [64, 64], ops=100)


class TestBenchProtocol:
    @pytest.mark.parametrize("backend, dims", [("seg1d", (16,)), ("oracle", (3, 5)),
                                               ("grid2d-general", (8, 8))])
    def test_build_peak_per_cell_keeps_a_callers_trace_running(self, backend, dims):
        cfg = WorkloadConfig(backend, "plus-min", dims, ops=50, seed=1)
        assert run_bench(cfg).build_peak_bytes_per_cell > 0
        tracemalloc.start()
        try:
            row = run_bench(cfg)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert row.build_peak_bytes_per_cell > 0

    def test_mean_visits_monotone_in_size(self):
        rows = [run_bench(WorkloadConfig("nd-special", "plus-plus", (n, n), ops=400, seed=2))
                for n in (8, 16, 32)]
        ups = [r.mean_visits_per_update for r in rows]
        qrs = [r.mean_visits_per_query for r in rows]
        assert ups == sorted(ups)
        assert qrs == sorted(qrs)

    def test_quadtree_dominates_polylog_tree_at_256(self):
        from uqtrees.workloads import measure_mean_visits
        q = measure_mean_visits(
            WorkloadConfig("quadtree", "plus-plus", (256, 256), ops=400, seed=4))
        nd = measure_mean_visits(
            WorkloadConfig("nd-special", "plus-plus", (256, 256), ops=400, seed=4))
        assert q > nd


class TestCliVerify:
    def test_exit_zero_on_match(self):
        p = cli("verify", "--backend", "seg1d", "--pair", "plus-min",
                "--dims", "16", "--ops", "500", "--seed", "42")
        assert p.returncode == 0
        assert "mismatches=0" in p.stdout

    def test_exit_one_on_mismatch(self):
        p = cli("verify", "--backend", "seg1d", "--pair", "plus-plus",
                "--dims", "16", "--ops", "400", "--seed", "5", "--inject-fault", "0")
        assert p.returncode == 1
        assert "first mismatch" in p.stdout

    def test_exit_two_on_a_fault_that_is_never_injected(self):
        args = ("verify", "--backend", "seg1d", "--pair", "plus-plus",
                "--dims", "4", "--ops", "10", "--inject-fault")
        updates = run_verify(WorkloadConfig("seg1d", "plus-plus", (4,), ops=10)).updates
        for k, message in (("999", f"made {updates} updates"), ("-1", ">= 0")):
            p = cli(*args, k)
            assert p.returncode == 2
            assert "mismatches=" not in p.stdout
            assert message in p.stderr

    def test_exit_two_on_bad_combo(self):
        p = cli("verify", "--backend", "nd-special", "--pair", "plus-min",
                "--dims", "8x8", "--ops", "10")
        assert p.returncode == 2
        assert "counterexample" in p.stderr

    def test_exit_two_on_usage_error(self):
        assert cli("verify", "--backend", "nosuch", "--pair", "plus-min",
                   "--dims", "8").returncode == 2
        assert cli("frobnicate").returncode == 2


class TestCliBench:
    def test_csv_shape_and_determinism(self):
        args = ("bench", "--backend", "seg1d", "--pair", "plus-plus",
                "--dims", "32,64", "--ops", "300", "--seed", "7")
        out1, out2 = cli(*args).stdout, cli(*args).stdout
        lines = out1.strip().splitlines()
        assert lines[0] == ",".join(BenchRow.CSV_FIELDS) == (  # the maxima are JSON only
            "backend,pair,dims,init_visits,mean_visits_per_update,"
            "mean_visits_per_query,wall_init_seconds,wall_ops_seconds")
        assert len(lines) == 3
        strip_wall = lambda text: [",".join(l.split(",")[:6]) for l in text.strip().splitlines()]
        assert strip_wall(out1) == strip_wall(out2)

    def test_json_nests_config_and_rows(self):
        p = cli("bench", "--backend", "quadtree", "--pair", "plus-min",
                "--dims", "8x8", "--ops", "200", "--format", "json")
        payload = json.loads(p.stdout)
        assert set(payload) == {"config", "rows"}
        assert payload["config"]["backend"] == "quadtree"
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["dims"] == "8x8"
        row = payload["rows"][0]
        for kind in ("update", "query"):
            assert row[f"max_visits_per_{kind}"] >= row[f"mean_visits_per_{kind}"] > 0
        assert row["build_peak_bytes_per_cell"] > 0

    @pytest.mark.parametrize("ratio, absent, present", [
        ("0", "mean_visits_per_update", "mean_visits_per_query"),
        ("1", "mean_visits_per_query", "mean_visits_per_update"),
    ])
    def test_mean_over_no_operations_is_absent(self, ratio, absent, present):
        # a run without updates (or queries) has no mean for them, not a zero
        args = ("bench", "--backend", "seg1d", "--pair", "plus-min",
                "--dims", "8", "--ops", "10", "--ratio", ratio)
        p = cli(*args)
        assert p.returncode == 0
        header, row = (line.split(",") for line in p.stdout.strip().splitlines())
        cells = dict(zip(header, row))
        assert cells[absent] == ""
        assert float(cells[present]) > 0
        p = cli(*args, "--format", "json")
        assert p.returncode == 0
        fields = json.loads(p.stdout)["rows"][0]
        assert fields[absent] is None
        assert fields[present] > 0
        absent, present = (f.replace("mean", "max") for f in (absent, present))
        assert fields[absent] is None
        assert fields[present] > 0

    def test_dims_naming_no_extents_exits_two(self):
        # a sweep over no extents measures nothing, so it must not succeed
        for dims in ("", ",", ",,"):
            p = cli("bench", "--backend", "seg1d", "--pair", "plus-min",
                    "--dims", dims, "--ops", "10")
            assert p.returncode == 2
            assert p.stdout == ""
            assert "--dims" in p.stderr

    def test_out_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        p = cli("bench", "--backend", "seg1d", "--pair", "plus-plus",
                "--dims", "16", "--ops", "100", "--out", str(out))
        assert p.returncode == 0 and p.stdout == ""
        assert out.read_text().startswith("backend,pair,dims,init_visits")


class TestCliMatmul:
    A = "2 2 2\n0 1\n2 3\n"
    B = "2 2 2\n1 0\n0 1\n"

    def _write(self, tmp_path):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text(self.A)
        fb.write_text(self.B)
        return str(fa), str(fb)

    def test_min_plus_fixture(self, tmp_path):
        fa, fb = self._write(tmp_path)
        p = cli("matmul", fa, fb, "--pair", "plus-min", "--backend",
                "grid2d-general", "--check")
        assert p.returncode == 0
        t = parse_tensor(p.stdout, get_pair("plus-min"))
        assert t.dims == (2, 2) and t.data == [1, 0, 3, 2]
        assert "max deviation vs schoolbook: 0" in p.stderr

    def test_check_compares_equal_infinities_as_equal(self, tmp_path):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text("2 2 2\ninf inf 1 2\n")
        fb.write_text("2 2 2\n1 0 0 1\n")
        p = cli("matmul", str(fa), str(fb), "--pair", "plus-min", "--backend",
                "grid2d-general", "--check")
        assert p.returncode == 0, p.stderr
        t = parse_tensor(p.stdout, get_pair("plus-min"))
        assert t.data == [float("inf"), float("inf"), 2, 1]
        assert "nan" not in p.stderr

    def test_check_names_the_cells_that_differ(self, tmp_path, monkeypatch, capsys):
        from uqtrees import cli as cli_module
        fa, fb = self._write(tmp_path)
        real = cli_module.product_via_backend

        def off_by_one(*args):
            c = real(*args)
            c[1][0] += 1
            return c

        monkeypatch.setattr(cli_module, "product_via_backend", off_by_one)
        assert cli_module.main(["matmul", fa, fb, "--pair", "plus-min", "--check"]) == 1
        err = capsys.readouterr().err
        assert "1 of 4 cells differ from schoolbook" in err
        assert "C[1][0] = 4, schoolbook 3" in err

    @pytest.mark.parametrize("backend", ["grid2d-general", "oracle"])
    def test_infinite_b_exits_two_naming_the_cell(self, tmp_path, backend):
        # undoing an inf update adds -inf, which would leave nan behind
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text("2 2 2\n0 1\n1 2\n")
        fb.write_text("2 2 2\ninf 0\n1 2\n")
        p = cli("matmul", str(fa), str(fb), "--pair", "plus-min", "--backend",
                backend, "--check")
        assert p.returncode == 2
        assert p.stdout == ""
        assert "B[0][0] = inf is not finite" in p.stderr

    def test_standard_identity_echoes(self, tmp_path):
        fa = tmp_path / "a.txt"
        fa.write_text("2 2 2\n3 -4\n0 5\n")
        fb = tmp_path / "eye.txt"
        fb.write_text("2 2 2\n1 0\n0 1\n")
        p = cli("matmul", str(fa), str(fb), "--pair", "times-plus", "--check")
        assert p.returncode == 0
        t = parse_tensor(p.stdout, get_pair("times-plus"))
        assert t.data == [3, -4, 0, 5]

    @pytest.mark.parametrize("backend", ["grid2d-general", "oracle"])
    def test_decimal_input_runs_exactly(self, tmp_path, backend):
        # in floats 0.1*0.1 + 0.2*0.3 is 0.07000000000000001 and 1e400 is inf
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text("2 2 2\n0.1 0.2\n0.3 0.4\n")
        fb.write_text("2 2 2\n0.1 1e400\n0.3 0.4\n")
        p = cli("matmul", str(fa), str(fb), "--pair", "times-plus", "--backend",
                backend, "--check")
        assert p.returncode == 0, p.stderr
        t = parse_tensor(p.stdout, get_pair("times-plus"))
        assert t.data == [Fraction(7, 100), Fraction(10 ** 399) + Fraction(2, 25),
                          Fraction(3, 20), 3 * Fraction(10 ** 399) + Fraction(4, 25)]
        p = cli("matmul", str(fa), str(fb), "--pair", "plus-min", "--backend",
                backend, "--check")
        assert p.returncode == 0, p.stderr
        t = parse_tensor(p.stdout, get_pair("plus-min"))
        assert t.data == [Fraction(1, 5), Fraction(3, 5), Fraction(2, 5), Fraction(4, 5)]

    def test_ragged_file_exits_two(self, tmp_path):
        fa = tmp_path / "a.txt"
        fa.write_text("2 2 2\n1 2 3\n")
        fb = tmp_path / "b.txt"
        fb.write_text(self.B)
        p = cli("matmul", str(fa), str(fb), "--pair", "plus-min")
        assert p.returncode == 2
        assert "error:" in p.stderr

    @pytest.mark.parametrize("backend", ["grid2d-general", "oracle"])
    def test_nan_in_a_exits_two(self, tmp_path, backend):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text("2 2 2\nnan 1\n1 2\n")
        fb.write_text("2 2 2\n0 0\n0 0\n")
        p = cli("matmul", str(fa), str(fb), "--pair", "plus-min", "--backend", backend)
        assert p.returncode == 2
        assert "A[0][0] is nan" in p.stderr and p.stdout == ""

    def test_missing_file_exits_two(self, tmp_path):
        p = cli("matmul", str(tmp_path / "none.txt"), str(tmp_path / "none.txt"),
                "--pair", "plus-min")
        assert p.returncode == 2

    # entries from random.Random(6) in -9..9, as in CI's smoke step
    A6 = ("2 6 6\n9 -7 6 -1 -8 -9\n-5 9 6 2 1 -9\n-1 6 -3 4 8 8\n-6 -3 9 8 -1 -7\n"
          "4 1 -7 2 4 -1\n5 -6 -3 0 -6 -8\n")
    B6 = ("2 6 6\n9 -3 2 6 -3 7\n9 7 -9 2 -2 4\n0 2 9 -6 -7 7\n7 -3 -6 -1 0 -3\n"
          "3 6 -2 -5 -3 7\n-9 -3 -4 -9 1 8\n")

    def _write6(self, tmp_path):
        fa, fb = tmp_path / "a6.txt", tmp_path / "b6.txt"
        fa.write_text(self.A6)
        fb.write_text(self.B6)
        return str(fa), str(fb)

    @pytest.mark.parametrize("backend", ["grid2d-general", "oracle"])
    def test_stats_line_reports_the_backend_counters(self, tmp_path, backend):
        fa, fb = self._write6(tmp_path)
        p = cli("matmul", fa, fb, "--pair", "plus-min", "--backend", backend,
                "--check", "--stats")
        assert p.returncode == 0, p.stderr
        line, check = p.stderr.splitlines()
        stats = json.loads(line)
        assert check == "max deviation vs schoolbook: 0 (all 36 cells equal)"
        # the same product in process, on a fresh backend
        domain = PRODUCT_PAIRS["plus-min"]
        a, b = ([list(map(int, row.split())) for row in text.splitlines()[1:]]
                for text in (self.A6, self.B6))
        structure = seed_backend(backend, a, domain)
        k = structure.counters
        init = k.visits_total
        product_via_backend(a, b, domain, structure)
        assert stats == {
            "backend": backend, "pair": "plus-min", "n": 6, "init_visits": init,
            "update_ops": 72, "query_ops": 36,
            "update_visits": k.update_visits, "query_visits": k.query_visits,
            "predicted_update_visits": k.update_visits,
            "predicted_query_visits": k.query_visits,
            "max_visits_per_update": k.max_update_visits,
            "max_visits_per_query": k.max_query_visits}
        assert k.update_ops == 72 and k.query_ops == 36

    @pytest.mark.parametrize("backend", ["grid2d-general", "oracle"])
    def test_stats_predicted_totals_equal_the_counted_ones(self, tmp_path, capsys, backend):
        from uqtrees import cli as cli_module
        rng = random.Random(30)
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        for n in range(1, 10):
            for f in (fa, fb):
                cells = " ".join(str(rng.randint(-9, 9)) for _ in range(n * n))
                f.write_text(f"2 {n} {n}\n{cells}\n")
            assert cli_module.main(["matmul", str(fa), str(fb), "--pair", "plus-min",
                                    "--backend", backend, "--stats"]) == 0
            stats = json.loads(capsys.readouterr().err)
            assert stats["n"] == n
            assert stats["predicted_update_visits"] == stats["update_visits"], n
            assert stats["predicted_query_visits"] == stats["query_visits"], n

    @pytest.mark.parametrize("backend", ["grid2d-general", "oracle"])
    def test_output_without_stats_is_unchanged(self, tmp_path, backend):
        fa, fb = self._write6(tmp_path)
        domain = PRODUCT_PAIRS["plus-min"]
        a, b = ([list(map(int, row.split())) for row in text.splitlines()[1:]]
                for text in (self.A6, self.B6))
        want = format_tensor(DenseTensor((6, 6), sum(schoolbook(a, b, domain), []),
                                         domain.pair))
        p = cli("matmul", fa, fb, "--pair", "plus-min", "--backend", backend, "--check")
        assert (p.returncode, p.stdout) == (0, want)
        assert p.stderr == "max deviation vs schoolbook: 0 (all 36 cells equal)\n"
        q = cli("matmul", fa, fb, "--pair", "plus-min", "--backend", backend,
                "--check", "--stats")
        assert q.stdout == p.stdout
        assert q.stderr.endswith(p.stderr) and q.stderr.count("\n") == 2


class TestCliScaling:
    def test_seg1d_pass(self):
        p = cli("scaling", "--backend", "seg1d", "--pair", "plus-plus",
                "--sizes", "64,128", "--ops", "500")
        assert p.returncode == 0
        assert "PASS" in p.stdout

    def test_needs_two_sizes(self):
        p = cli("scaling", "--backend", "seg1d", "--pair", "plus-plus",
                "--sizes", "64", "--ops", "100")
        assert p.returncode == 2

    @pytest.mark.parametrize("sizes, code", [("8,16", 0), ("8,9", 1)])
    def test_json(self, sizes, code):
        # quadtree visits grow linearly, so 8 -> 9 falls below its envelope
        p = cli("scaling", "--backend", "quadtree", "--pair", "plus-plus",
                "--sizes", sizes, "--ops", "200", "--seed", "3", "--format", "json")
        assert p.returncode == code
        out = json.loads(p.stdout)
        assert out["config"] == {"backend": "quadtree", "pair": "plus-plus",
                                 "ops": 200, "seed": 3}
        rep = run_scaling("quadtree", "plus-plus", [int(n) for n in sizes.split(",")],
                          ops=200, seed=3)
        assert out["sizes"] == [{"size": n, "mean_visits_per_op": mv}
                                for n, mv in zip(rep.sizes, rep.mean_visits)]
        step, = out["steps"]
        assert step["ratio"] == rep.steps[0].ratio
        assert step["envelope"] == [1.5, 3.0]
        assert step["ok"] is out["ok"] is (code == 0)
