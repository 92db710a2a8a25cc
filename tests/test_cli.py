"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().out or True

    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("run", "sweep", "faults", "report", "asm", "ilp"):
            assert command in text


class TestRun:
    def test_run_prints_throughput(self, capsys):
        code = main(["run", "--cores", "2", "--mhz", "133", "--millis", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Gb/s" in out
        assert "2x133MHz" in out

    def test_run_offered_load(self, capsys):
        code = main(["run", "--cores", "4", "--offered", "0.5", "--millis", "0.3"])
        assert code == 0

    def test_run_observability_outputs(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.csv"
        code = main([
            "run", "--cores", "2", "--mhz", "133", "--millis", "0.3",
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path), "--metrics-format", "csv",
            "--sample-interval", "50",
            "--profile-sim",
        ])
        captured = capsys.readouterr()
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"], "trace file is empty"
        header = metrics_path.read_text().splitlines()[0]
        assert header.startswith("t_ps,t_us,")
        assert "simulator profile" in captured.err
        assert "trace written" in captured.err

    def test_run_prometheus_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "run", "--cores", "2", "--mhz", "133", "--millis", "0.3",
            "--metrics-out", str(metrics_path), "--metrics-format", "prom",
        ])
        assert code == 0
        assert "repro_counter_tx_wire_frames" in metrics_path.read_text()

    def test_run_json_to_stdout_or_path(self, tmp_path, capsys):
        argv = ["run", "--cores", "2", "--mhz", "133", "--millis", "0.1"]
        assert main(argv + ["--json"]) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "run.json"
        assert main(argv + ["--json", str(path)]) == 0
        captured = capsys.readouterr()
        assert path.read_text() == stdout
        assert json.loads(stdout)["rx_dropped"] >= 0
        assert "Gb/s" in captured.out
        assert "results written to" in captured.err

    def test_run_rejects_bad_sample_interval(self, tmp_path, capsys):
        code = main([
            "run", "--millis", "0.1",
            "--metrics-out", str(tmp_path / "m.json"),
            "--sample-interval", "0",
        ])
        assert code == 2


class TestSweep:
    def test_sweep_table(self, capsys):
        code = main([
            "sweep", "--cores", "2", "--mhz", "133", "200",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "133" in out and "200" in out


class TestFaults:
    def test_single_run_report(self, capsys):
        code = main([
            "faults", "--cores", "4", "--mhz", "166", "--millis", "0.3",
            "--fcs-rate", "0.02",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "goodput" in out
        assert "rx_fcs_drops" in out

    def test_single_run_json(self, capsys):
        import json
        code = main([
            "faults", "--millis", "0.2", "--fcs-rate", "0.02", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["faults"]["counters"]["rx_fcs_drops"] > 0
        assert data["faults"]["rx_holes"] >= 0

    def test_no_faults_notice(self, capsys):
        code = main(["faults", "--millis", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no faults enabled" in out

    def test_rate_sweep_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        code = main([
            "faults", "--millis", "0.2", "--sweep-axis", "fcs",
            "--rates", "0", "0.05", "--no-cache", "--csv", str(csv_path),
        ])
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert "rx_holes" in lines[0]
        assert len(lines) == 3  # header + two rate points

    def test_rate_sweep_table(self, capsys):
        code = main([
            "faults", "--millis", "0.2", "--sweep-axis", "sdram",
            "--rates", "0", "0.01", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "sdram_error_rate" in out
        assert "goodput" in out


class TestAblations:
    """qos/topology/rss at windows where their checks hold: the JSON on
    stdout is byte-for-byte the JSON file (and the CSV for rss)."""

    @pytest.mark.parametrize("argv", [
        ["qos", "--loads", "0.3", "1.0", "--millis", "0.3",
         "--warmup-millis", "0.1"],
        ["topology"],
        ["rss", "--rings", "2", "--millis", "0.2", "--warmup-millis", "0.1",
         "--no-cache"],
    ], ids=lambda argv: argv[0])
    def test_stdout_export_equals_file_export(self, argv, tmp_path, capsys):
        json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
        rss = argv[0] == "rss"
        assert main(argv + ["--json", "-"]
                    + (["--csv", str(csv_path)] if rss else [])) == 0
        json_stdout = capsys.readouterr().out
        assert main(argv + ["--json", str(json_path)]
                    + (["--csv", "-"] if rss else [])) == 0
        csv_stdout = capsys.readouterr().out
        assert json_stdout == json_path.read_text()
        data = json.loads(json_stdout)
        if rss:
            assert csv_stdout == csv_path.read_text()
            assert [point["label"] for point in data["points"]] == [
                "paper-1ring", "rss-2ring"
            ]
        else:
            assert len(data["arms"]) == 2


    @pytest.mark.parametrize("argv", [
        ["qos", "--loads", "0.3", "1.0", "--millis", "0.1",
         "--warmup-millis", "0.05"],
        ["topology", "--millis", "0.1", "--warmup-millis", "0.05"],
    ], ids=lambda argv: argv[0])
    def test_warm_cache_serves_the_cold_json(self, argv, tmp_path,
                                             monkeypatch, capsys):
        """The ablations run their arms through the engine: with
        ``REPRO_CACHE_DIR`` set, a second run simulates nothing and
        writes the same bytes."""
        from repro.exp import runner

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        cold_code = main(argv + ["--json", "-"])
        cold = capsys.readouterr().out
        assert len(list(cache.rglob("*.pkl"))) == 2

        def simulate(spec):
            raise AssertionError("warm run simulated a cached arm")

        monkeypatch.setattr(runner, "execute_spec", simulate)
        assert main(argv + ["--json", "-"]) == cold_code
        assert capsys.readouterr().out == cold
        assert len(json.loads(cold)["arms"]) == 2


class TestInvalidFlags:
    @pytest.mark.parametrize("argv", [
        "qos --loads -0.5",
        "topology --spines 0",
        "rss --rings 0 --workload saturation",
        "faults --sweep-axis fcs --rates 2",
        "sweep --cores 0",
        "fabric --sweep-loads 0.3 1.5",
        "run --cores 0",
        "run --offered 0",
        "run --offered 1.5",
        "run --millis 0",
        "run --payload 100000",
        "run --mhz inf",
        "run --mhz nan",
        "sweep --cores 2 --mhz inf",
        "fabric --millis 0",
        "fabric --warmup-millis -1",
        "faults --millis 0",
        "faults --payload 100000",
    ])
    def test_exit_2_with_one_line_message(self, argv, capsys):
        command = argv.split()[0]
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"invalid {command}: ")
        assert captured.err.count("\n") == 1


class TestAsm:
    def test_assemble_run_and_dump(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text(
            """
            .data
            out: .word 0
            .text
            main:
                li $t0, 41
                addiu $t0, $t0, 1
                la $t1, out
                sw $t0, 0($t1)
                halt
            """
        )
        code = main(["asm", str(source), "--dump", "out"])
        out = capsys.readouterr().out
        assert code == 0
        assert "halted" in out
        assert "(42)" in out

    def test_timing_mode(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("li $t0, 1\nhalt\n")
        code = main(["asm", str(source), "--timing"])
        out = capsys.readouterr().out
        assert code == 0
        assert "IPC" in out


class TestIlp:
    def test_builtin_trace(self, capsys):
        code = main(["ilp", "--iterations", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "in-order-1" in out
        assert "out-of-order-4" in out

    def test_custom_file(self, tmp_path, capsys):
        source = tmp_path / "k.s"
        source.write_text(
            "li $t0, 10\nloop: addiu $t0, $t0, -1\nbgtz $t0, loop\nnop\nhalt\n"
        )
        code = main(["ilp", "--file", str(source)])
        out = capsys.readouterr().out
        assert code == 0
        assert "dynamic instructions" in out


class TestAsmTooling:
    def test_listing_flag(self, tmp_path, capsys):
        source = tmp_path / "p.s"
        source.write_text("main: li $t0, 1\nhalt\n")
        code = main(["asm", str(source), "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "main:" in out
        assert "addiu" in out  # li expansion visible

    def test_emit_image(self, tmp_path, capsys):
        source = tmp_path / "p.s"
        source.write_text("li $t0, 1\nhalt\n")
        image = tmp_path / "fw.bin"
        code = main(["asm", str(source), "--emit", str(image), "--list"])
        assert code == 0
        from repro.isa.binary import decode_image
        loaded = decode_image(image.read_bytes())
        assert len(loaded.instructions) == 2


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json
        code = main(["run", "--cores", "2", "--mhz", "133", "--millis", "0.2",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert "udp_throughput_gbps" in data
        assert "ipc_breakdown" in data
        assert data["config"].startswith("2x133MHz")
