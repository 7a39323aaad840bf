import argparse
import hashlib
import json
from dataclasses import fields, replace

import pytest

from tsesim.cli import ConfigError, Scenario, main, parse_config, render_cache_map
from tsesim.engine import SERIES_CSV_HEADER


def test_parse_config_defaults():
    s = parse_config(None, {})
    assert s.use_case == "sip_sp_dp"
    assert s.rate == 1000.0
    assert s.cores == 1
    assert s.tse == "1.0"


def test_parse_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cores": 4, "rate": 3000}))
    s = parse_config(str(cfg), {"cores": 2})
    assert s.cores == 2  # flag wins
    assert s.rate == 3000  # file value kept


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coers": 4}))
    with pytest.raises(ConfigError):
        parse_config(str(cfg), {})


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config(None, {"tse": "3.0"})
    with pytest.raises(ConfigError):
        parse_config(None, {"use_case": "nope"})
    with pytest.raises(ConfigError):
        parse_config(None, {"acl": "/definitely/missing.acl"})


def test_gen_trace_dp(tmp_path, capsys):
    out = tmp_path / "dp.trace"
    rc = main(["gen-trace", "--use-case", "dp", "--out", str(out)])
    assert rc == 0
    lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
    assert len(lines) == 17
    assert "17 packets, 16 distinct masks" in capsys.readouterr().out


def test_gen_trace_sp_dp_counts(tmp_path, capsys):
    out = tmp_path / "spdp.trace"
    rc = main(["gen-trace", "--use-case", "sp_dp", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 289
    assert "289 packets, 257 distinct masks" in capsys.readouterr().out


# sha256 of `tsesim gen-trace --use-case U` output, recorded while traces were
# still built one `header()` call per packet.
GEN_TRACE_SHA256 = {
    "dp": "c936a055987c8830ae1e03fd94e42a1dbf2335be007216e6a4e78f51564f3989",
    "sp_dp": "8033649adaf08d5dafa40db2a018a1e73ba05f2dfcabf7cd5145e411385fa9a5",
    "sip_sp_dp": "8c7aa9527530686bbfa81a8d2894a4f707de5b723612cdc9c67dc460df998445",
}


@pytest.mark.parametrize("use_case", sorted(GEN_TRACE_SHA256))
def test_gen_trace_file_is_pinned(use_case, tmp_path, capsys):
    out = tmp_path / f"{use_case}.trace"
    assert main(["gen-trace", "--use-case", use_case, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_TRACE_SHA256[use_case]


GOOD_PACKET = "t=0 ip_src=10.0.0.1 ip_dst=198.51.100.7 proto=6 sport=1 dport=2"


@pytest.mark.parametrize(
    "flag, text, message",
    [
        pytest.param("--trace", GOOD_PACKET.replace("proto=6", "proto=tcp"),
                     "bad proto value 'tcp'", id="trace-bad-int"),
        pytest.param("--trace", GOOD_PACKET.replace("10.0.0.1", "1.2.3"),
                     "bad ip_src value '1.2.3'", id="trace-bad-ip"),
        pytest.param("--trace", GOOD_PACKET.replace(" dport=2", ""),
                     "missing header fields: ['dport']", id="trace-missing-field"),
        pytest.param("--trace", GOOD_PACKET.replace("dport=2", "dport=70000"),
                     "HeaderValue: field 'dport' value 0x11170 exceeds 16 bits",
                     id="trace-too-wide"),
        pytest.param("--trace", GOOD_PACKET + " ip_src=10.0.0.2", "ip_src given twice",
                     id="trace-repeated-field"),
        pytest.param("--acl",
                     "priority=100 dport=80 dport=81 action=allow\npriority=0 action=deny",
                     "dport given twice", id="acl-repeated-field"),
        pytest.param("--acl", "priority=1 dport=70000 action=allow\npriority=0 action=deny",
                     "value 70000 exceeds field width of dport", id="acl-too-wide"),
        *(
            pytest.param(flag, text.format(ip), f"bad ip_src value {ip!r}", id=f"{name}-ip-{kind}")
            for flag, name, text in (
                ("--trace", "trace", GOOD_PACKET.replace("10.0.0.1", "{}")),
                ("--acl", "acl", "priority=1 ip_src={} action=allow\npriority=0 action=deny"),
            )
            for kind, ip in (("underscore", "1_0.0.0.1"), ("sign", "+10.0.0.1"),
                             ("arabic-indic", "\u0661\u0660.0.0.1"))
        ),
        pytest.param("--trace", GOOD_PACKET.replace("sport=1", "sport=1_0"),
                     "bad sport value '1_0'", id="trace-int-underscore"),
        pytest.param("--trace", GOOD_PACKET.replace("dport=2", "dport=+2"),
                     "bad dport value '+2'", id="trace-int-sign"),
        *(
            pytest.param("--acl", f"{rule} action=allow\npriority=0 action=deny",
                         f"bad {key} value {raw!r}", id=f"acl-{name}")
            for name, rule, key, raw in (
                ("priority-underscore", "priority=1_0 dport=80", "priority", "1_0"),
                ("int-underscore", "priority=1 dport=8_0", "dport", "8_0"),
                ("int-hex", "priority=1 dport=0x50", "dport", "0x50"),
            )
        ),
    ],
)
def test_malformed_input_file_names_its_line(flag, text, message, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text + "\n")
    args = ["run", "--use-case", "dp", "--duration", "3", "--attack-start", "1"]
    assert main(args + [flag, str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    rc = main(
        [
            "run",
            "--use-case",
            "dp",
            "--rate",
            "100",
            "--duration",
            "12",
            "--attack-start",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    series = (out / "series.csv").read_text()
    assert series.splitlines()[0] == SERIES_CSV_HEADER
    assert len(series.splitlines()) == 13
    metrics = (out / "metrics.txt").read_text()
    assert metrics.startswith("ttd=")
    assert (out / "cachemap.csv").exists()
    assert "low-rate=yes" in capsys.readouterr().out


def test_run_no_attack_reports_absent_ttd(tmp_path):
    out = tmp_path / "quiet"
    rc = main(
        ["run", "--use-case", "dp", "--rate", "0", "--duration", "5", "--out", str(out)]
    )
    assert rc == 0
    assert "ttd=absent" in (out / "metrics.txt").read_text()


def test_run_trace_roundtrip(tmp_path):
    trace_file = tmp_path / "dp.trace"
    assert main(["gen-trace", "--use-case", "dp", "--out", str(trace_file)]) == 0
    out = tmp_path / "replay"
    rc = main(
        [
            "run",
            "--use-case",
            "dp",
            "--trace",
            str(trace_file),
            "--rate",
            "100",
            "--duration",
            "8",
            "--attack-start",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0


def test_exit_code_2_on_config_error(tmp_path, capsys):
    rc = main(["run", "--acl", "/missing/file.acl", "--duration", "5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_gen_trace_needs_a_positive_rate(tmp_path, capsys):
    out = tmp_path / "dp.trace"
    assert main(["gen-trace", "--use-case", "dp", "--rate", "0", "--out", str(out)]) == 2
    err = "error: gen-trace needs a rate above 0 to timestamp the trace\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_gen_trace_rejects_acl_without_catch_all(tmp_path, capsys):
    acl = tmp_path / "no_catch_all.acl"
    acl.write_text("priority=100 dport=80 action=allow\n")
    out = tmp_path / "dp.trace"
    assert main(["gen-trace", "--use-case", "dp", "--acl", str(acl), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ACL invalid:") and "catch-all" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


UNKNOWN_FIELD_ARGS = {
    "run": ["run", "--use-case", "dp", "--duration", "5", "--attack-start", "1"],
    "gen-trace": ["gen-trace", "--use-case", "dp"],
    "sweep": ["sweep", "--use-case", "dp", "--cores-list", "1", "--rates-list", "1000",
              "--duration", "20", "--attack-start", "2", "--t-attack", "5", "--t-sleep", "1"],
}


@pytest.mark.parametrize("command", sorted(UNKNOWN_FIELD_ARGS))
def test_unknown_acl_field_exits_2(command, tmp_path, capsys):
    acl = tmp_path / "typo.acl"
    acl.write_text("priority=100 nofield=80 action=allow\npriority=0 action=deny\n")
    args = UNKNOWN_FIELD_ARGS[command] + ["--acl", str(acl), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: line 1: unknown field 'nofield'\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--budget-per-core", "-5", "budget_per_core must be > 0"),
        ("--victim-offered", "0", "victim_offered must be > 0"),
        ("--victim-flows", "-3", "victim_flows must be >= 0"),
        ("--victim-flows", "901", "victim_flows must be <= 900, got 901"),
    ],
)
def test_bad_budget_or_victim_value_exits_2(command, flag, value, message, tmp_path, capsys):
    args = UNKNOWN_FIELD_ARGS[command] + [flag, value, "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rate", "inf", "rate must be a finite number, got inf"),
        ("--duration", "nan", "duration must be a finite number, got nan"),
        ("--t-attack", "inf", "t_attack must be a finite number, got inf"),
        ("--t-sleep", "nan", "t_sleep must be a finite number, got nan"),
        ("--tick", "nan", "tick must be a finite number, got nan"),
        ("--attack-start", "nan", "attack_start must be a finite number, got nan"),
        ("--budget-per-core", "inf", "budget_per_core must be a finite number, got inf"),
        ("--victim-offered", "nan", "victim_offered must be a finite number, got nan"),
        ("--eps-down", "nan", "eps_down must be a finite number, got nan"),
        ("--eps-down", "-1", "eps_down and eps_up must be in [0, 1]"),
        ("--eps-up", "2", "eps_down and eps_up must be in [0, 1]"),
        ("--rate", "-1", "rate must be >= 0, duration > 0, cores >= 1"),
        ("--cores", "0", "rate must be >= 0, duration > 0, cores >= 1"),
        ("--tick", "0", "tick must be positive and duration non-negative"),
    ],
)
def test_non_finite_or_out_of_range_value_exits_2(command, flag, value, message, tmp_path, capsys):
    args = UNKNOWN_FIELD_ARGS[command] + [flag, value, "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("emc", "no", "emc must be true or false, got 'no'"),
        ("cores", 2.5, "cores must be an integer, got 2.5"),
        ("cores", True, "cores must be an integer, got True"),
        ("victim_flows", 1.5, "victim_flows must be an integer, got 1.5"),
        ("rate", "fast", "rate must be a finite number, got 'fast'"),
        ("rate", None, "rate must be a finite number, got None"),
        ("tse", 2.1, "tse must be a string, got 2.1"),
        ("use_case", 1, "use_case must be a string, got 1"),
        ("out", 5, "out must be a string, got 5"),
        ("acl", 3, "acl must be a string or null, got 3"),
        ("trace", False, "trace must be a string or null, got False"),
    ],
)
def test_config_value_of_wrong_type_exits_2(key, value, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "error: config file not found: "),
        ("{\"rate\": ", "error: config file is not valid JSON: "),
        ("[1000]", "error: config file must hold a JSON object"),
    ],
)
def test_unreadable_config_file_exits_2(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, bad",
    [
        ("--cores-list", "abc", "abc"),
        ("--cores-list", "1,2.5", "2.5"),
        ("--rates-list", "1000,x", "x"),
        ("--rates-list", "1000,inf", "inf"),
    ],
)
def test_bad_sweep_list_value_names_the_flag(flag, value, bad, tmp_path, capsys):
    args = UNKNOWN_FIELD_ARGS["sweep"] + [flag, value, "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {flag}: bad value {bad!r}\n"
    assert not (tmp_path / "out").exists()


def test_exit_code_2_on_bad_flag():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--tse", "9.9"])
    assert exc.value.code == 2


def test_render_map_roundtrip(tmp_path, capsys):
    csv = "second,attack,b1,b2\n0,X,A,A\n1,1,G,A\n2,2,B,G\n"
    path = tmp_path / "map.csv"
    path.write_text(csv)
    rc = main(["render-map", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    rows = out.splitlines()
    assert rows[0] == "  1k A G B"
    assert rows[1] == "  2k A A G"
    assert rows[2] == "   A X 1 2"
    assert rows[3] == "T[s] 0 1 2"


def test_render_map_rejects_malformed():
    with pytest.raises(ValueError):
        render_cache_map("bogus,header\n1,2\n")
    with pytest.raises(ValueError):
        render_cache_map("second,attack,b1\n0,X\n")


def test_render_map_missing_file_exit_1(capsys):
    rc = main(["render-map", "/no/such/file.csv"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_small_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--use-case",
            "dp",
            "--cores-list",
            "1,2",
            "--rates-list",
            "100",
            "--duration",
            "40",
            "--attack-start",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "cores=1 rate=100" in printed
    assert "min_dos_rate cores=1:" in printed
    body = out.read_text().splitlines()
    assert body[0] == "cores,rate,mean_attack_fraction,dos"
    assert len(body) == 3


SMALL_SWEEP = [
    "sweep", "--use-case", "dp", "--cores-list", "1", "--rates-list", "1000",
    "--duration", "20", "--attack-start", "2", "--t-attack", "5", "--t-sleep", "1",
]


def test_out_given_as_out_is_used(tmp_path, monkeypatch, capsys):
    """An explicit `out`, as a flag or a config key, is written even when it reads "out"."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen-trace", "--use-case", "dp", "--out", "out"]) == 0
    assert len((tmp_path / "out").read_text().splitlines()) == 17
    assert not (tmp_path / "dp.trace").exists()
    (tmp_path / "out").unlink()
    (tmp_path / "cfg.json").write_text(json.dumps({"out": "out"}))
    assert main(SMALL_SWEEP + ["--config", "cfg.json"]) == 0
    assert (tmp_path / "out").read_text().startswith("cores,rate,mean_attack_fraction,dos\n1,1000,")
    assert "wrote out" in capsys.readouterr().out


def test_sweep_without_steady_state_exits_2(tmp_path, capsys):
    """The check sees a duration given as a flag or in the config file, not the 45 s default."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"duration": 30}))
    for given in (["--duration", "30"], ["--config", str(cfg)]):
        rc = main(["sweep", *given, "--cores-list", "1", "--rates-list", "1000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration 30 s leaves no steady-state attack second")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flags, config, tse, duration",
    [
        pytest.param([], None, "2.1", 45.0, id="defaults"),
        pytest.param([], {"rate": 2000}, "2.1", 45.0, id="defaults-under-config"),
        pytest.param(["--tse", "1.0"], None, "1.0", 45.0, id="tse-flag"),
        pytest.param([], {"tse": "1.0"}, "1.0", 45.0, id="tse-config"),
        pytest.param(["--duration", "50"], None, "2.1", 50.0, id="duration-flag"),
        pytest.param([], {"duration": 50}, "2.1", 50.0, id="duration-config"),
        pytest.param(["--tse", "2.0"], {"tse": "1.0", "duration": 50}, "2.0", 50.0,
                     id="flag-over-config"),
    ],
)
def test_sweep_defaults_only_for_keys_not_given(flags, config, tse, duration, tmp_path,
                                                monkeypatch):
    import tsesim.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda scenario, *lists: seen.append(scenario) or 0)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        flags = flags + ["--config", str(tmp_path / "cfg.json")]
    assert main(["sweep", "--use-case", "dp", *flags]) == 0
    assert (seen[0].tse, seen[0].duration) == (tse, duration)


def test_sweep_rejects_acl_without_catch_all(tmp_path, capsys):
    acl = tmp_path / "no_catch_all.acl"
    acl.write_text("priority=100 dport=80 action=allow\n")
    assert main(SMALL_SWEEP + ["--acl", str(acl)]) == 2
    assert "catch-all" in capsys.readouterr().err


def test_sweep_replays_trace_file(tmp_path, capsys):
    trace = tmp_path / "one.trace"
    trace.write_text("t=0 ip_src=192.0.2.1 ip_dst=198.51.100.7 proto=6 sport=55555 dport=81\n")
    flags = ["--budget-per-core", "1e6"]
    assert main(SMALL_SWEEP + flags) == 0
    generated = capsys.readouterr().out
    assert main(SMALL_SWEEP + flags + ["--trace", str(trace)]) == 0
    replayed = capsys.readouterr().out
    # One repeated header costs one MFC hit per packet; the dp trace costs more.
    assert "mean_attack_fraction=0.998000" in replayed
    assert generated != replayed


def test_sweep_cells_use_scenario_config(monkeypatch):
    import tsesim.cli as cli

    seen = []
    real_run = cli.run

    def spy(config, *args):
        seen.append(config)
        return real_run(config, *args)

    monkeypatch.setattr(cli, "run", spy)
    flags = ["--cores-list", "1,3", "--victim-flows", "4", "--eps-down", "0.02", "--tick", "0.25"]
    assert main(SMALL_SWEEP + flags) == 0  # the later --cores-list wins
    scenario = parse_config(
        None,
        dict(use_case="dp", duration=20.0, attack_start=2.0, t_attack=5.0, t_sleep=1.0,
             victim_flows=4, eps_down=0.02, tick=0.25, tse="2.1"),
    )
    base = scenario.sim_config(build_cache_map=False)
    assert seen == [replace(base, cores=1), replace(base, cores=3)]


def test_sweep_tse_20_is_not_the_clone_replay(monkeypatch, tmp_path, capsys):
    """A 2.0 cell replays without clones: it differs from 2.1 and equals `run --tse 2.0`."""
    import tsesim.cli as cli
    from tsesim.engine import series_to_csv

    results = []
    real_run = cli.run

    def spy(*args):
        results.append(real_run(*args))
        return results[-1]

    monkeypatch.setattr(cli, "run", spy)
    common = [
        "--use-case", "dp", "--duration", "20", "--attack-start", "2",
        "--t-attack", "5", "--t-sleep", "1", "--budget-per-core", "1e6",
    ]
    sweep = ["sweep", "--cores-list", "1", "--rates-list", "3000"] + common
    lines = {}
    for tse in ("2.0", "2.1"):
        assert main(sweep + ["--tse", tse]) == 0
        lines[tse] = capsys.readouterr().out.splitlines()[0]
    assert lines["2.0"] != lines["2.1"]
    out = tmp_path / "run"
    run_args = ["run", "--tse", "2.0", "--cores", "1", "--rate", "3000", "--out", str(out)]
    assert main(run_args + common) == 0
    assert (out / "series.csv").read_text() == series_to_csv(results[0].series)


RUN_LENGTH_CASES = {
    "too_many_ticks": (
        ["--duration", "60", "--tick", "1e-6"],
        "duration 60 s at tick 1e-06 s asks for 60000000 ticks, more than 1000000",
    ),
    "fractional_duration": (
        ["--duration", "2.5"], "duration must be a whole number of seconds, got 2.5"
    ),
}


@pytest.mark.parametrize(
    "command, flags, message",
    [
        pytest.param(command, *case, id=f"{name}-{command}")
        for command in ("run", "sweep")
        for name, case in RUN_LENGTH_CASES.items()
    ]
    + [
        pytest.param(
            "sweep",
            ["--cores-list", "2,0", "--rates-list", "1000,3000", "--duration", "40"],
            "--cores-list: cores must be >= 1, got 0",
            id="zero_cores-sweep",
        ),
        pytest.param(
            "sweep",
            ["--tse", "2.0", "--rates-list", "1000,0.01", "--cores-list", "1", "--duration", "20"],
            "--rates-list 0.01: attack phase shorter than one packet interval",
            id="phase_under_one_packet-sweep",
        ),
        pytest.param(
            "sweep",
            ["--rates-list", "-5", "--cores-list", "1"],
            "--rates-list -5: rate must be >= 0, duration > 0, cores >= 1",
            id="negative_rate-sweep",
        ),
        pytest.param(
            "sweep",
            ["--rates-list", "0.5", "--cores-list", "1"],
            "--rates-list 0.5: rate must be >= 1 pps",
            id="clone_rate_under_1_pps-sweep",
        ),
        pytest.param(
            "run",
            ["--tse", "2.0", "--rate", "0.01", "--duration", "20"],
            "attack phase shorter than one packet interval",
            id="phase_under_one_packet-run",
        ),
    ],
)
def test_run_length_checked_before_anything_runs(command, flags, message, monkeypatch, capsys):
    import tsesim.cli as cli

    def never(*args):
        raise AssertionError("inputs were built or the run started")

    monkeypatch.setattr(cli, "_load_scenario_parts", never)
    monkeypatch.setattr(cli, "run", never)
    assert main([command, "--use-case", "dp", "--attack-start", "1", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "flags, shown",
    [
        (["--use-case", "dp", "--attack-start", "-5", "--duration", "3"], "-5"),
        (["--use-case", "sip_sp_dp", "--attack-start", "-1", "--duration", "20"], "-1"),
    ],
    ids=["dp", "sip_sp_dp"],
)
def test_negative_attack_start_exits_2(command, flags, shown, tmp_path, capsys):
    """A start before time 0 would put emissions in tick 0 or index the series from its end."""
    sweep = ["--cores-list", "1", "--rates-list", "1000"] if command == "sweep" else []
    assert main([command, *flags, *sweep, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: attack start must be >= 0, got {shown}\n"
    assert not (tmp_path / "out").exists()


def test_acl_file_loads_for_run_and_sweep(tmp_path, capsys):
    """A valid --acl file gives the output of the built-in table it was written from."""
    from tsesim.attack import UseCase
    from tsesim.engine import scenario_acl, victim_flow_headers
    from tsesim.slowpath import format_acl_text

    acl_file = tmp_path / "dp.acl"
    acl_file.write_text(format_acl_text(scenario_acl(UseCase.DP, victim_flow_headers())))
    run_args = ["run", "--use-case", "dp", "--duration", "5", "--attack-start", "1"]
    assert main(run_args + ["--out", str(tmp_path / "builtin")]) == 0
    assert main(run_args + ["--acl", str(acl_file), "--out", str(tmp_path / "file")]) == 0
    for name in ("series.csv", "metrics.txt", "cachemap.csv"):
        assert (tmp_path / "file" / name).read_text() == (tmp_path / "builtin" / name).read_text()
    capsys.readouterr()
    assert main(SMALL_SWEEP) == 0
    builtin = capsys.readouterr().out
    assert main(SMALL_SWEEP + ["--acl", str(acl_file)]) == 0
    assert capsys.readouterr().out == builtin


def test_sweep_reports_dos_and_min_dos_rate(monkeypatch, capsys):
    """One core under the default 45 s sweep of the reference table collapses at 1000 pps."""
    import tsesim.cli as cli

    durations = []
    real_run = cli.run

    def spy(config, *args):
        durations.append(config.duration)
        return real_run(config, *args)

    monkeypatch.setattr(cli, "run", spy)
    assert main(["sweep", "--cores-list", "1", "--rates-list", "1000"]) == 0
    cell, min_rate = capsys.readouterr().out.splitlines()
    assert cell.startswith("cores=1 rate=1000 mean_attack_fraction=") and cell.endswith(" dos=yes")
    assert float(cell.split("mean_attack_fraction=")[1].split()[0]) <= 0.01
    assert min_rate == "min_dos_rate cores=1: 1000"
    assert durations == [45.0]


def test_sweep_cells_match_runs_on_a_fresh_acl(monkeypatch):
    """Cells share one ACL object, so one FlowTable; each equals a run on an ACL of its own."""
    import tsesim.cli as cli
    from tsesim.attack import UseCase
    from tsesim.engine import run, scenario_acl, series_to_csv

    cells = []
    real_run = cli.run

    def spy(config, acl, attacks, victims):
        cells.append((config, acl, attacks, victims, real_run(config, acl, attacks, victims)))
        return cells[-1][-1]

    monkeypatch.setattr(cli, "run", spy)
    grid = ["--use-case", "sp_dp", "--cores-list", "1,2", "--rates-list", "1000,3000"]
    assert main(SMALL_SWEEP + grid) == 0
    assert len(cells) == 4 and len({id(acl) for _, acl, _, _, _ in cells}) == 1
    for config, acl, attacks, victims, result in cells:
        fresh = scenario_acl(UseCase.SP_DP, victims)
        assert fresh == acl and fresh is not acl
        alone = run(config, fresh, attacks, victims)
        assert series_to_csv(alone.series) == series_to_csv(result.series)


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["run", "--trace", "{tmp}/absent.trace"],
                     "trace file not found: {tmp}/absent.trace", id="trace-not-found"),
        pytest.param(["run", "--trace", "{tmp}/empty.trace"], "trace is empty", id="empty-trace"),
        pytest.param(["sweep", "--cores-list", ","], "cores-list and rates-list must be non-empty",
                     id="empty-cores-list"),
        pytest.param(["sweep", "--rates-list", ""], "cores-list and rates-list must be non-empty",
                     id="empty-rates-list"),
        pytest.param(["render-map", "{tmp}/empty.csv"], "empty cache map CSV",
                     id="empty-cache-map"),
    ],
)
def test_guarded_input_exits_2_with_one_line(args, message, tmp_path, capsys):
    (tmp_path / "empty.trace").write_text("# no packets\n")
    (tmp_path / "empty.csv").write_text("\n")
    args = [a.format(tmp=tmp_path) for a in args]
    if args[0] != "render-map":
        args += ["--use-case", "dp", "--duration", "3", "--attack-start", "1",
                 "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "values, message",
    [
        ({"tse": "9"}, "tse must be one of ('1.0', '2.0', '2.1')"),
        ({"emc": "no"}, "emc must be true or false, got 'no'"),
        ({"victim_flows": -1}, "victim_flows must be >= 0"),
        ({"victim_flows": 901}, "victim_flows must be <= 900, got 901"),
        ({"tick": 0.3}, "tick must divide 1.0 exactly"),
        ({"attack_start": -1}, "attack start must be >= 0, got -1"),
    ],
)
def test_a_scenario_is_checked_when_built(values, message, tmp_path, monkeypatch, capsys):
    """`Scenario(**mapping)` raises what `tsesim run --config` prints for the same mapping."""
    with pytest.raises(ValueError) as built:
        Scenario(**values)
    assert str(built.value) == message
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(values))
    assert main(["run", "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_scenario_field_checks_its_type():
    for f in fields(Scenario):
        with pytest.raises(ConfigError, match=f"^{f.name} must be "):
            Scenario(**{f.name: object()})


def test_gen_trace_rejects_a_scenario_run_would_reject(tmp_path, capsys):
    flags = ["--use-case", "dp", "--attack-start", "1", "--duration", "2.5"]
    message = "error: duration must be a whole number of seconds, got 2.5\n"
    for command in ("gen-trace", "run"):
        out = tmp_path / command
        assert main([command, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_scenario_commands_take_one_flag_per_field(monkeypatch):
    """`--config`, then each Scenario field as a flag of its own type and choices."""
    parsers = []

    def capture(parser, args=None, namespace=None):
        parsers.append(parser)
        raise LookupError("parsers captured")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(LookupError):
        main([])
    (commands,) = [a.choices for a in parsers[0]._actions
                   if isinstance(a, argparse._SubParsersAction)]
    kinds = {"bool": argparse.BooleanOptionalAction, "int": int, "float": float,
             "str": None, "Optional[str]": None}
    for name, extra in (("gen-trace", []), ("run", []), ("sweep", ["cores_list", "rates_list"])):
        actions = [a for a in commands[name]._actions if a.dest != "help"]
        assert [a.dest for a in actions] == ["config"] + [f.name for f in fields(Scenario)] + extra
        for f, a in zip(fields(Scenario), actions[1:]):
            flag = "--" + f.name.replace("_", "-")
            if f.type == "bool":
                assert isinstance(a, kinds["bool"]) and a.option_strings == [flag, "--no-emc"]
            else:
                assert a.type is kinds[f.type] and a.option_strings == [flag]
            assert a.choices == f.metadata.get("choices")
