"""Experiment-harness tests (reduced sweeps for speed).

The full paper-scale sweeps live in ``benchmarks/``; here we verify the
drivers' mechanics and the headline shape criteria on reduced settings.
"""

from repro.harness import (
    fig7_variants,
    fig8_surface,
    fig9_load_efficiency,
    fig10_breakdown,
    fig12_modelbased,
    high_order_crossover,
    table1_specs,
    table2_opcounts,
    table3_devices,
    table4_autotune,
)
from repro.harness.export import to_csv, to_json, write_result
from repro.harness.runner import ExperimentRunner, tune_family


class TestRunner:
    def test_tune_family_memoizes(self):
        a = tune_family("nvstencil", 2, "gtx580", register_blocking=False)
        b = tune_family("nvstencil", 2, "gtx580", register_blocking=False)
        assert a is b

    def test_register_blocking_flag_separates_cache(self):
        a = tune_family("inplane_fullslice", 2, "gtx580", register_blocking=False)
        b = tune_family("inplane_fullslice", 2, "gtx580", register_blocking=True)
        assert b.best_mpoints >= a.best_mpoints
        assert a is not b

    def test_thread_only_space_has_no_register_blocking(self):
        res = tune_family("nvstencil", 2, "gtx580", register_blocking=False)
        for entry in res.entries:
            assert entry.config.rx == 1 and entry.config.ry == 1

    def test_runner_baseline(self):
        runner = ExperimentRunner(devices=("gtx580",))
        base = runner.baseline(2, runner.devices[0])
        assert base.best_mpoints > 0


class TestTables:
    def test_table1_matches_paper_exactly(self):
        for row in table1_specs().rows:
            order, _, mem, flops, p_mem, p_flops = row
            assert mem == p_mem and flops == p_flops, f"order {order}"

    def test_table2_matches_paper_exactly(self):
        for row in table2_opcounts().rows:
            _, refs, f_in, f_nv, paper = row
            assert paper == f"{refs}/{f_in}/{f_nv}"

    def test_table3_renders(self):
        text = table3_devices().render()
        assert "GTX580" in text and "1581" in text

    def test_table4_rows_and_shape(self):
        res = table4_autotune(orders=(2, 12), devices=("gtx580",), dtypes=("sp",))
        assert len(res.rows) == 2
        by_order = {r[2]: r for r in res.rows}
        # Speedup > 1 everywhere, and order 2 beats order 12 (Table IV trend).
        assert by_order[2][5] > by_order[12][5] > 1.0


class TestFigures:
    def test_fig7_fullslice_best_variant(self):
        res = fig7_variants(orders=(2, 8), devices=("gtx580",))
        for row in res.rows:
            _, _, _, vertical, horizontal, fullslice = row
            assert fullslice >= horizontal >= vertical
            assert fullslice > 1.1

    def test_fig8_surface_covers_rx_ry_grid(self):
        res = fig8_surface(order=2, device="gtx580")
        assert len(res.rows) == 3 * 4  # RX values x RY values
        rates = [row[4] for row in res.rows]
        assert max(rates) > 0
        # The Fig 8 shape: a ridge with a cliff where register pressure
        # (or a constraint) kills over-aggressive register tiles.
        assert min(rates) < 0.5 * max(rates)

    def test_fig9_fullslice_more_efficient(self):
        res = fig9_load_efficiency(orders=(2, 8, 12), devices=("gtx580",))
        for _, _, nv, fs in res.rows:
            assert fs > nv

    def test_fig10_ordering(self):
        res = fig10_breakdown(orders=(2,), devices=("gtx580",))
        _, _, nv_rb, fs, fs_rb = res.rows[0]
        assert fs_rb > max(nv_rb, fs) >= 1.0

    def test_fig12_executes_beta_fraction(self):
        res = fig12_modelbased(orders=(8,), devices=("gtx580",))
        _, _, exh, mb, gap, executed = res.rows[0]
        done, total = executed.split("/")
        assert int(done) < int(total)
        assert mb <= exh

    def test_crossover_speedup_declines(self):
        res = high_order_crossover(
            device="c2070", dtypes=("sp",), orders=(2, 8, 16, 24)
        )
        speeds = [r[2] for r in res.rows if isinstance(r[1], int)]
        assert speeds[0] > speeds[-1]


class TestExport:
    def test_csv(self):
        text = to_csv(table1_specs())
        assert text.splitlines()[0].startswith("order,")
        assert len(text.splitlines()) == 7

    def test_json(self):
        import json

        doc = json.loads(to_json(table2_opcounts()))
        assert doc["name"].startswith("Table II")
        assert len(doc["rows"]) == 6

    def test_write_result_by_suffix(self, tmp_path):
        res = table1_specs()
        assert write_result(res, tmp_path / "t.csv").read_text().startswith("order")
        assert "{" in write_result(res, tmp_path / "t.json").read_text()
        assert "Table I" in write_result(res, tmp_path / "t.txt").read_text()
